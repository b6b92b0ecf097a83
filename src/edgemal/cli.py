"""Batch command-line front end.

Subcommands cover the whole pipeline: corpus generation, event ranking,
training, the on-device/offload estimate, partitioning, fleet simulation,
and metric reports. Every command is file-based and reproducible: identical
inputs and seed give byte-identical outputs, and outputs are written to a
temporary file and renamed so failures never leave partial artifacts.

Exit codes: 0 success, 2 configuration errors (a missing or malformed input
file, an out-of-range flag), 3 domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from importlib import resources as importlib_resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import cnn, features, partitioning, resources, simulation
from .errors import EdgemalError, ShapeMismatch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3

_DEFAULT_SEED = 42
_REGRESSOR_TRAIN_SAMPLES = 600


class _ConfigError(Exception):
    pass


def data_path(*parts: str) -> Path:
    """Path to a packaged data file (default model, shipped scenarios)."""
    return Path(importlib_resources.files("edgemal").joinpath("data", *parts))


def _atomic_write_all(jobs) -> None:
    """Produce each `(path, write)` of `jobs` through `write(fd)` into a
    temporary sibling, and rename them only once every write has succeeded: a
    failure leaves none of the targets and no temporary file. `jobs` is
    iterated once, so a generator may build each writer as it goes; nothing a
    writer holds is kept after it has run.

    Each temporary file is a sibling, `<name>.<random>.tmp`, created
    exclusively so that no other writer shares it, with the mode a plain
    `open` gives under the umask. `write` gets its open descriptor and passes
    it to `open`, which closes it (the library writers take a path or a
    descriptor alike). Writing through the descriptor, instead of reopening
    the path, spares a truncation, which ext4 answers with a flush at close.
    A target that is a directory, and a temporary file that cannot be created
    (a missing or read-only directory), is a configuration error; an error of
    `write` passes through.
    """
    written = []
    try:
        for path, write in jobs:
            if path.is_dir():
                raise _ConfigError(f"cannot write {path}: Is a directory")
            while True:
                tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
                try:
                    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                    break
                except FileExistsError:
                    continue
                except OSError as exc:
                    raise _ConfigError(f"cannot write {path}: {exc.strerror}") from exc
            written.append((tmp, path))
            write(fd)
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            tmp.unlink(missing_ok=True)
        raise


def _make_dir(path: Path) -> None:
    """Create the output directory `path` and its parents; a path that cannot
    be made a directory (a file is in the way) is a configuration error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _text_writer(text: str):
    """The `write` of `_atomic_write_all` for a text file."""
    def write(fd):
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)

    return write


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load(path, parse, *args, json_doc: bool = True):
    """Read the input file at `path`: `parse(doc, *args)` on its decoded JSON,
    or, with `json_doc=False`, `parse(path, *args)` for a library reader that
    opens the file itself (the traces CSV, the corpus images).

    The CLI reads every input here. A file that cannot be read is a
    configuration error, as is any domain error of the reader (a spec whose
    layers do not chain, weights that do not fit it, a bad PGM header) and any
    KeyError, IndexError, TypeError, ValueError or AttributeError (a value of
    the wrong JSON type) or OverflowError (an integer too large for a float)
    from decoding or parsing.
    """
    try:
        if not json_doc:
            return parse(path, *args)
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc, *args)
    except OSError as exc:
        raise _ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except (EdgemalError, AttributeError, IndexError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise _ConfigError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc


def _load_spec(path: str | None) -> cnn.ModelSpec:
    return _load(path or data_path("default_model.json"), cnn.spec_from_json)


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


# --- corpus ------------------------------------------------------------------

def _pgm_name(index: int) -> str:
    return f"images/img_{index:06d}.pgm"


def cmd_gen_corpus(args) -> int:
    if args.events < args.classes - 1:
        raise _ConfigError(f"--events must be >= {args.classes - 1} for "
                           f"{args.classes} classes, got {args.events}")
    out = Path(args.out)
    _make_dir(out / "images")
    if args.full_res:
        _make_dir(out / "full_res")

    bundle = features.gen_synthetic_corpus(
        samples_per_class=args.per_class, events=args.events,
        noise=args.noise, classes=args.classes, seed=args.seed)
    ranked = features.rank_events(bundle.traces)
    top = min(args.top_events, len(ranked))
    selected = features.select_top_events(ranked, top)
    name_to_col = {name: i for i, name in enumerate(bundle.traces.event_names)}
    columns = [name_to_col[name] for name in selected]

    samples = []

    def files():
        # one image at a time: each is written before the next is made
        for i in range(bundle.traces.rows.shape[0]):
            full = features.sample_image(bundle, i, columns)
            rel = _pgm_name(i)
            yield out / rel, partial(features.write_pgm, features.downsample(full))
            if args.full_res:
                yield out / f"full_res/img_{i:06d}.pgm", partial(features.write_pgm, full)
            samples.append({
                "file": rel,
                "label": full.label,
                "class_name": bundle.traces.class_names[full.label],
            })
        yield out / "traces.csv", partial(features.write_traces_csv, bundle.traces)
        yield out / "ranked_events.json", _text_writer(
            _dump_json(features.ranked_to_json(ranked)))
        yield out / "manifest.json", _text_writer(_dump_json({
            "class_names": bundle.traces.class_names,
            "side": features.SMALL_SIDE,
            "seed": args.seed,
            "noise": args.noise,
            "selected_events": selected,
            "samples": samples,
        }))

    _atomic_write_all(files())
    _info(args, f"wrote {len(samples)} images + manifest to {out}")
    return EXIT_OK


def _manifest_from_json(doc) -> tuple[list, list[tuple[str, int]]]:
    """A corpus manifest's class names and (image file, label) samples."""
    samples = [(entry["file"], int(entry["label"])) for entry in doc["samples"]]
    if not all(isinstance(name, str) for name, _ in samples):
        raise TypeError("sample file names must be strings")
    return doc["class_names"], samples


def _load_corpus(corpus_dir: Path, input_shape: tuple[int, ...], limit: int = 0):
    """A corpus's class names, labels and image files, and its images as one
    C-contiguous (n, *input_shape) float32 stack of `features.input_values`.
    Each image is read once; one of another shape than `input_shape` is the
    domain error `cnn.forward_batch` raises for it."""
    class_names, samples = _load(corpus_dir / "manifest.json", _manifest_from_json)
    if limit > 0:
        samples = samples[:limit]
    pixels = np.empty((len(samples), math.prod(input_shape)), dtype=np.uint8)
    for row, (name, label) in zip(pixels, samples):
        img = _load(corpus_dir / name, features.read_pgm, label, json_doc=False)
        shape = (img.side, img.side, 1)
        if shape != input_shape:
            raise ShapeMismatch(f"expected input {input_shape}, got {shape}")
        row[...] = img.pixels
    images = features.input_values(pixels).reshape(len(samples), *input_shape)
    return (class_names, images, [label for _, label in samples],
            [name for name, _ in samples])


# --- event ranking --------------------------------------------------------------

def cmd_rank_events(args) -> int:
    traces = _load(args.traces, features.read_traces_csv, json_doc=False)
    ranked = features.rank_events(traces)
    doc = features.ranked_to_json(ranked)
    if args.out:
        _atomic_write_all([(Path(args.out), _text_writer(_dump_json(doc)))])
    shown = ranked[: args.top] if args.top else ranked
    for entry in shown:
        _info(args, f"rank {entry.rank:3d}  rho {entry.rho:+.6f}  {entry.name}")
    return EXIT_OK


# --- training --------------------------------------------------------------------

def _accuracy(model: cnn.Model, images: np.ndarray, labels) -> float | None:
    """`classification_metrics` accuracy of `model` on the stacked samples;
    None when there are none."""
    predictions = cnn.forward_batch(model, images).argmax(axis=1).tolist()
    class_count = max([model.spec.layers[-1].units, *(lab + 1 for lab in labels)])
    return classification_metrics(predictions, labels, class_count)["accuracy"]


def _ratio_text(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_train(args) -> int:
    spec = _load_spec(args.model)
    class_names, images, labels, _ = _load_corpus(Path(args.corpus), spec.input_shape)
    train_idx, test_idx = features.split_corpus(labels, args.train_frac, args.seed)
    model = cnn.build_model(spec, args.seed)
    train_images, train_labels = images[train_idx], [labels[i] for i in train_idx]
    trained, history = cnn.train_model(
        model, train_images, train_labels,
        epochs=args.epochs, learning_rate=args.learning_rate,
        batch_size=args.batch_size, seed=args.seed,
        clip_norm=args.clip_norm if args.clip_norm > 0 else None)
    train_acc = _accuracy(trained, train_images, train_labels)
    test_acc = _accuracy(trained, images[test_idx], [labels[i] for i in test_idx])

    writes = [(Path(args.out), _text_writer(_dump_json(cnn.weights_to_json(trained))))]
    if args.history:
        writes.append((Path(args.history), _text_writer(_dump_json({
            "epoch_loss": history,
            "train_accuracy": train_acc,
            "test_accuracy": test_acc,
            "train_samples": len(train_idx),
            "test_samples": len(test_idx),
            "classes": class_names,
        }))))
    _atomic_write_all(writes)
    _info(args, f"train accuracy {_ratio_text(train_acc)}  "
                f"test accuracy {_ratio_text(test_acc)}")
    return EXIT_OK


# --- estimate ---------------------------------------------------------------------

def _get_regressor(args) -> resources.RegressorModel:
    """The `--regressor` file, or else the seed's fit: the shipped
    `default_regressor.json` for the default seed, a fresh fit otherwise."""
    if getattr(args, "regressor", None):
        return _load(args.regressor, resources.regressor_from_json)
    if args.seed == _DEFAULT_SEED:
        return _load(data_path("trained", "default_regressor.json"),
                     resources.regressor_from_json)
    dataset = resources.build_regressor_dataset(args.seed, _REGRESSOR_TRAIN_SAMPLES)
    return resources.fit_regressor(dataset)


def _scale(args) -> int:
    """The memory model's bytes per parameter: the product of the scale flags."""
    return args.n_batches * args.batch_size * args.kb_per_param * resources.KB


def cmd_estimate(args) -> int:
    spec = _load_spec(args.model)
    reg = _get_regressor(args)
    decision = resources.predict_offload(reg, spec, args.node_free,
                                         bytes_per_param=_scale(args))
    mem = resources.model_bytes(spec, bytes_per_param=_scale(args))
    record = {
        "verdict": decision.verdict,
        "score": decision.score,
        "model_bytes": mem,
        "node_free_bytes": args.node_free,
        "ground_truth_comparator": resources.ON_DEVICE if mem <= args.node_free
        else resources.OFFLOAD,
        "n_batches": args.n_batches,
        "batch_size": args.batch_size,
        "kb_per_param": args.kb_per_param,
    }
    text = _dump_json(record)
    writes = []
    if args.out:
        writes.append((Path(args.out), _text_writer(text)))
    if args.save_regressor:
        writes.append((Path(args.save_regressor), _text_writer(
            _dump_json(resources.regressor_to_json(reg)))))
    _atomic_write_all(writes)
    print(text, end="")
    return EXIT_OK


# --- partition ----------------------------------------------------------------------

def _build_placement(scenario, spec, nodes_arg,
                     bytes_per_param) -> partitioning.Placement:
    """`--nodes parent-only` is node selection capped at the parent; a count
    takes that many candidates; no `--nodes` selects by memory."""
    if isinstance(nodes_arg, int):
        candidates = partitioning.candidate_order(
            scenario, scenario.parent_id, scenario.radius_r)
        if nodes_arg > len(candidates):
            raise _ConfigError(f"--nodes must be in [1, {len(candidates)}]")
        chosen = candidates[:nodes_arg]
    else:
        mem = resources.model_bytes(spec, bytes_per_param=bytes_per_param)
        chosen = partitioning.select_nodes(
            scenario, scenario.parent_id, scenario.radius_r, mem,
            1 if nodes_arg == "parent-only" else scenario.max_nodes)
    return partitioning.partition_layers(spec, chosen,
                                         bytes_per_param=bytes_per_param)


def cmd_partition(args) -> int:
    scenario = _load(args.scenario, partitioning.scenario_from_json)
    spec = _load_spec(args.model)
    bytes_per_param = _scale(args)
    placement = _build_placement(scenario, spec, args.nodes, bytes_per_param)
    # `simulate`'s placement check: write no placement that it would reject
    simulation.schedule(scenario, placement, spec, 0, bytes_per_param=bytes_per_param)
    _atomic_write_all([(Path(args.out), _text_writer(
        _dump_json(partitioning.placement_to_json(placement))))])
    ranges = ", ".join(f"{nid}:[{lo}..{hi - 1}]"
                       for nid, (lo, hi) in placement.assignments)
    _info(args, f"placement: {ranges}")
    return EXIT_OK


# --- simulate -----------------------------------------------------------------------

def _faults_from_json(doc) -> list[simulation.FaultEvent]:
    return [simulation.FaultEvent(entry["node_id"], float(entry["time_sec"]))
            for entry in doc]


def _latency_of(doc) -> SimpleNamespace:
    """A report JSON as far as `simulation.speedup` reads it."""
    latency = doc["total_latency_max_sec"]
    if not isinstance(latency, (int, float)):
        raise TypeError(f"total_latency_max_sec is not a number: {latency!r}")
    return SimpleNamespace(total_latency_max_sec=float(latency))


def cmd_simulate(args) -> int:
    if args.event_log and len(args.scenario) > 1:
        raise _ConfigError("--event-log takes a single scenario")
    scenario_paths = [Path(p) for p in args.scenario]
    if len({path.stem for path in scenario_paths}) < len(scenario_paths):
        raise _ConfigError("--scenario files must have distinct names: each "
                           "writes <name>_report.json into --out")
    # one scenario writes the report to --out; several write one report per
    # scenario, in the order given, into the --out directory
    out = Path(args.out)
    many = len(scenario_paths) > 1
    if many and out.exists() and not out.is_dir():
        raise _ConfigError(f"cannot write {out}: Not a directory")
    spec = _load_spec(args.model)
    model = _load(args.weights, cnn.weights_from_json, spec)
    _, images, labels, names = _load_corpus(Path(args.corpus), spec.input_shape, args.limit)
    scenarios = [_load(path, partitioning.scenario_from_json)
                 for path in scenario_paths]
    placement = (_load(args.placement, partitioning.placement_from_json)
                 if args.placement else None)
    faults = _load(args.faults, _faults_from_json) if args.faults else []
    baseline = _load(args.baseline, _latency_of) if args.baseline else None

    # schedule every scenario before running any layer, so a bad scenario
    # fails first; the outputs are `forward`'s whatever the scenario, so one
    # batched pass over the inputs serves every report
    bytes_per_param = _scale(args)
    reports = []
    for scenario in scenarios:
        placed = placement or _build_placement(scenario, spec, args.nodes,
                                               bytes_per_param)
        reports.append(simulation.schedule(scenario, placed, model.spec,
                                           len(images), faults,
                                           bytes_per_param=bytes_per_param))
    outputs = cnn.forward_batch(model, images)
    for report in reports:
        report.outputs = outputs
        report.input_labels = labels
        report.input_files = names
        if baseline is not None:
            report.speedup_vs_baseline = simulation.speedup(baseline, report)

    # either every file appears or none does
    if many:
        _make_dir(out)
    writes = []
    for path, report in zip(scenario_paths, reports):
        writes.append((out / f"{path.stem}_report.json" if many else out,
                       _text_writer(_dump_json(simulation.report_to_json(report)))))
        if args.event_log:
            writes.append((Path(args.event_log),
                           partial(simulation.write_event_log, report)))
    _atomic_write_all(writes)
    for path, report in zip(scenario_paths, reports):
        _info(args, f"{path.stem + ': ' if many else ''}total_latency_max_sec "
                    f"{report.total_latency_max_sec:.6f} s, "
                    f"faults_handled {report.faults_handled}")
    return EXIT_OK


# --- report -------------------------------------------------------------------------

def classification_metrics(predictions: list[int], labels: list[int],
                           class_count: int) -> dict:
    """Accuracy plus macro-averaged F1 and recall over all classes; with no
    samples every ratio, per-class ones included, is None."""
    tp = [0] * class_count
    fp = [0] * class_count
    fn = [0] * class_count
    hits = 0
    for pred, lab in zip(predictions, labels):
        if pred == lab:
            hits += 1
            tp[lab] += 1
        else:
            fp[pred] += 1
            fn[lab] += 1
    recalls = []
    f1s = []
    for c in range(class_count):
        recall = tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] else 0.0
        precision = tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        recalls.append(recall)
        f1s.append(f1)
    n = len(labels)
    if not n:
        recalls = [None] * class_count
        f1s = [None] * class_count
    return {
        "accuracy": hits / n if n else None,
        "macro_f1": sum(f1s) / class_count if n else None,
        "macro_recall": sum(recalls) / class_count if n else None,
        "per_class_recall": recalls,
        "per_class_f1": f1s,
        "samples": n,
        "averaging": "macro",
    }


def _summarize_report(doc, manifest) -> tuple[dict, list[str]]:
    """The metrics JSON and the printed lines of `report` for a report JSON;
    `manifest` (class names, samples) is parsed or None."""
    predictions = doc.get("predictions", [])
    labels = doc.get("input_labels")
    class_names = None
    if manifest is not None:
        class_names, samples = manifest
        if doc.get("input_files"):
            by_file = dict(samples)
            labels = [by_file[name] for name in doc["input_files"]]
    if labels is None:
        raise _ConfigError("report lacks input_labels; pass --manifest")
    class_count = len(class_names) if class_names else max(
        len(doc["outputs"][0]) if doc.get("outputs") else 0,
        max(labels, default=0) + 1)
    if len(predictions) != len(labels) or min(predictions + labels, default=0) < 0:
        raise ValueError("predictions and labels must pair up as class indices")

    metrics = classification_metrics(predictions, labels, class_count)
    result = {
        "metrics": metrics,
        "total_latency_max_sec": doc["total_latency_max_sec"],
        "total_latency_pipeline_sec": doc["total_latency_pipeline_sec"],
        "faults_handled": doc.get("faults_handled", 0),
    }
    for key in ("makespan_sec", "speedup_vs_baseline"):
        if key in doc:
            result[key] = doc[key]

    lines = [f"samples          {metrics['samples']}",
             f"accuracy         {_ratio_text(metrics['accuracy'])}",
             f"macro F1         {_ratio_text(metrics['macro_f1'])}",
             f"macro recall     {_ratio_text(metrics['macro_recall'])}"]
    for key in ("total_latency_max_sec", "total_latency_pipeline_sec",
                "makespan_sec"):
        if key in result:
            lines.append(f"{key:<27}{result[key]:.6f} s")
    if "speedup_vs_baseline" in result:
        lines.append(f"{'speedup_vs_baseline':<27}{result['speedup_vs_baseline']:.4f}x")
    lines.append("node               bytes        busy_sec    layers")
    for nid in sorted(doc["per_node"],
                      key=lambda n: (n != doc["parent_id"], n)):
        entry = doc["per_node"][nid]
        lines.append(f"{nid:<12} {entry['bytes_consumed']:>12} "
                     f"{entry['busy_sec']:>15.6f} {entry['layers_executed']:>9}")
    return result, lines


def cmd_report(args) -> int:
    manifest = _load(args.manifest, _manifest_from_json) if args.manifest else None
    result, lines = _load(args.report, _summarize_report, manifest)
    print("\n".join(lines))
    if args.out:
        _atomic_write_all([(Path(args.out), _text_writer(_dump_json(result)))])
    return EXIT_OK


# --- parser -------------------------------------------------------------------------

def _int_at_least(low: int):
    """argparse type for an integer flag that must be >= `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value: ..."
    return parse


_positive_int = _int_at_least(1)


def _float_at_least(low: float, strict: bool = False):
    """argparse type for a finite float flag that must be >= `low`, or
    > `low` when `strict`."""
    bound = f"{'>' if strict else '>='} {low}"

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {value}")
        return value
    parse.__name__ = "float"  # argparse reports "invalid float value: ..."
    return parse


def _fraction(text: str) -> float:
    """argparse type for --train-frac: a float in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _node_count(text: str) -> str | int:
    """argparse type for --nodes: 'parent-only' or a node count >= 1."""
    return text if text == "parent-only" else _positive_int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemal",
        description="Resource-aware distributed malware detection pipeline")
    parser.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="global PRNG seed")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress messages")
    # the global flags are also accepted after the subcommand; SUPPRESS keeps
    # the subparser from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", help="model spec JSON (default: shipped)")
    # the memory-model scale flags (`_scale`)
    scale = argparse.ArgumentParser(add_help=False)
    scale.add_argument("--n-batches", type=_positive_int, default=1)
    scale.add_argument("--batch-size", type=_positive_int, default=1)
    scale.add_argument("--kb-per-param", type=_positive_int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", parents=[common],
                       help="generate the synthetic labeled corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-class", type=_positive_int, default=200)
    p.add_argument("--events", type=int, default=16)
    p.add_argument("--noise", type=_float_at_least(0.0), default=4.0)
    p.add_argument("--classes", type=_int_at_least(2), default=6)
    p.add_argument("--top-events", type=_positive_int, default=8)
    p.add_argument("--full-res", action="store_true",
                   help="also write the 256x256 images")
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("rank-events", parents=[common], help="rank trace events by correlation")
    p.add_argument("--traces", required=True, help="traces CSV")
    p.add_argument("--out", help="ranked events JSON")
    p.add_argument("--top", type=_int_at_least(0), default=0, help="print only the top K")
    p.set_defaults(func=cmd_rank_events)

    p = sub.add_parser("train", parents=[common, model],
                       help="train the classifier on a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--epochs", type=_positive_int, default=60)
    p.add_argument("--learning-rate", type=_float_at_least(0.0, strict=True), default=0.1)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--clip-norm", type=_float_at_least(0.0), default=0.5,
                   help="global gradient-norm bound (0 disables)")
    p.add_argument("--train-frac", type=_fraction, default=0.7)
    p.add_argument("--out", required=True, help="weights JSON")
    p.add_argument("--history", help="training history JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", parents=[common, model, scale],
                       help="on-device vs offload decision")
    p.add_argument("--node-free", type=_int_at_least(0), required=True,
                   help="free bytes on the node")
    p.add_argument("--regressor", help="load a fitted regressor JSON")
    p.add_argument("--save-regressor", help="save the fitted regressor JSON")
    p.add_argument("--out", help="write the decision record JSON")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("partition", parents=[common, model, scale],
                       help="select nodes and split the layers")
    p.add_argument("--scenario", required=True, help="fleet scenario JSON")
    p.add_argument("--nodes", type=_node_count,
                   help="'parent-only' or a node count to force")
    p.add_argument("--out", required=True, help="placement JSON")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("simulate", parents=[common, model, scale],
                       help="run placed inference on the fleet")
    p.add_argument("--scenario", required=True, nargs="+",
                   help="fleet scenario JSON (several run in sequence)")
    p.add_argument("--weights", required=True, help="weights JSON")
    p.add_argument("--corpus", required=True, help="corpus directory")
    placed = p.add_mutually_exclusive_group()
    placed.add_argument("--placement", help="placement JSON (default: auto-partition)")
    placed.add_argument("--nodes", type=_node_count,
                        help="'parent-only' or a node count to force")
    p.add_argument("--limit", type=_int_at_least(0), default=0,
                   help="use only the first N corpus samples")
    p.add_argument("--faults", help="fault schedule JSON")
    p.add_argument("--baseline", help="baseline report JSON for speedup")
    p.add_argument("--out", required=True,
                   help="report JSON (directory when several scenarios)")
    p.add_argument("--event-log", help="CSV event log path (single scenario only)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", parents=[common], help="metrics and tables from a run report")
    p.add_argument("--report", required=True, help="simulation report JSON")
    p.add_argument("--manifest", help="corpus manifest for label lookup")
    p.add_argument("--out", help="metrics JSON")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EdgemalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
