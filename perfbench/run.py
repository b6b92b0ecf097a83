"""edgemal benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {corpus,train,fleet} --seed N \\
        --seconds S --trace {0,1}

The run sets up its inputs from the seed, drives the public CLI in-process
(``edgemal.cli.main``) as a closed loop with one client for about S seconds,
checks every output, and prints one JSON object as the last line of standard
output: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run repeats its untraced iterations with the package's
public functions wrapped and reports the per-layer metrics instead, and also
writes the spans as Chrome Trace Event JSON (Perfetto opens it).

End-to-end times are scaled to a nominal machine speed sampled while the
run works (``speedprobe.py``); the raw figures go to the result file.

Everything the run writes stays under ``.perfbench/`` in the checkout:
the work directory (removed at the end), one result file per run with the
environment, and the trace file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

SETUP_REPEATS = 3
MIN_ITERATIONS = 2
OUT_DIR = Path(".perfbench")

# Per-layer metrics, in BENCHMARK.json order. A name "<span>.<stat>" with stat
# calls/s/us/self_s is computed from the spans of that public function; the
# others are computed by name in per_layer_metrics.
PER_LAYER = [
    ("cli.gen_corpus.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.estimate.s", "s"),
    ("cli.partition.s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.report.s", "s"),
    ("cli.files_written", "count"),
    ("features.gen_synthetic_corpus.s", "s"),
    ("features.rank_events.s", "s"),
    ("features.to_grayscale.us", "us"),
    ("features.downsample.us", "us"),
    ("features.write_traces_csv.s", "s"),
    ("features.read_pgm.calls", "count"),
    ("features.read_pgm.us", "us"),
    ("features.image_to_tensor.us", "us"),
    ("cnn.build_model.s", "s"),
    ("cnn.train_model.us_per_sample", "us"),
    ("cnn.forward.calls", "count"),
    ("cnn.forward.us", "us"),
    ("cnn.layer_forward.calls", "count"),
    *[(f"cnn.layer_forward.L{i}.us", "us") for i in range(11)],
    ("cnn.weights_from_json.s", "s"),
    ("cnn.weights_to_json.s", "s"),
    ("resources.build_regressor_dataset.s", "s"),
    ("resources.fit_regressor.s", "s"),
    ("resources.predict_offload.us", "us"),
    ("resources.layer_bytes.calls", "count"),
    ("partitioning.select_nodes.us", "us"),
    ("partitioning.partition_layers.us", "us"),
    ("partitioning.validate_placement.calls", "count"),
    ("partitioning.scenario_from_json.us", "us"),
    ("simulation.simulate_inference.s", "s"),
    ("simulation.simulate_inference.self_s", "s"),
    ("simulation.simulate_on_device.s", "s"),
    ("simulation.events", "count"),
    ("simulation.write_event_log.s", "s"),
    ("simulation.report_to_json.s", "s"),
    ("simulation.layer_forward_per_input", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def fresh_import(src: Path) -> None:
    """Import the CLI in a fresh interpreter, as every command-line call does."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "import edgemal.cli"], env=env,
                   check=True, timeout=120)


def timed_loop(bench, workload, seconds: float, *, count: int | None = None,
               first: int = 0) -> list[tuple[int, float, float]]:
    """Run iterations back to back; returns (items, start, end) per iteration.

    Without ``count``, a new iteration starts while the mean iteration still
    fits in the remaining time, and at least MIN_ITERATIONS run.
    """
    done: list[tuple[int, float, float]] = []
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(done) == count:
                break
        elif len(done) >= MIN_ITERATIONS:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(done) > seconds:
                break
        bench.start("timed", first + len(done))
        t0 = time.perf_counter()
        items = workload.iterate(first + len(done))
        done.append((items, t0, time.perf_counter()))
    return done


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "git_commit": git_commit(Path(".git")),
        "seed": seed,
    }


def git_commit(git: Path) -> str:
    """HEAD's commit read from the checkout's .git files; "unknown" when the
    checkout is not a git repository."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer_metrics(tracer, bench, iterations: int,
                      overhead: float) -> tuple[dict, list[float]]:
    """Per-layer metrics from the spans of ``iterations`` traced iterations,
    with totals per iteration, plus layer_forward_per_input for each traced
    ``simulate`` command."""
    from edgemal import cli, cnn
    from workloads import count_files

    spans: dict[str, list] = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    self_s = tracer.self_seconds(
        name[: -len(".self_s")] for name, _ in PER_LAYER if name.endswith(".self_s"))
    layers = cnn.resolve_spec(cnn.load_spec(cli.data_path("default_model.json"))).layers
    index = {layer: i for i, layer in enumerate(layers)}
    if len(index) != len(layers):
        raise RuntimeError("default model layers are not distinct")
    per_layer_us: dict[int, list[float]] = {}
    for span in spans.get("cnn.layer_forward", ()):
        per_layer_us.setdefault(index.get(span.tag), []).append(span.duration * 1e6)

    traced_runs = {span.run_id for span in spans.get("cli.main", ())}
    traced = [cmd for cmd in bench.commands if cmd.run_id in traced_runs]
    # inputs a simulate command read, and layer_forward calls it made
    inputs = Counter(span.run_id for span in spans.get("features.read_pgm", ()))
    calls = Counter(span.run_id for span in spans.get("cnn.layer_forward", ()))
    per_command = [calls[span.run_id] / (inputs[span.run_id] * len(layers))
                   for span in spans.get("cli.simulate", ()) if inputs[span.run_id]]

    def mean(values) -> float:
        return statistics.fmean(values) if values else 0.0

    special = {
        "cli.files_written": lambda: sum(
            count_files(cmd.outputs) for cmd in traced) / iterations,
        "cnn.train_model.us_per_sample": lambda: (
            1e6 * sum(s.duration for s in spans.get("cnn.train_model", ()))
            / sum(s.tag for s in spans["cnn.train_model"])
            if spans.get("cnn.train_model") else 0.0),
        "simulation.events": lambda: sum(
            s.tag for name in ("simulation.simulate_inference",
                               "simulation.simulate_on_device")
            for s in spans.get(name, ())) / iterations,
        "simulation.layer_forward_per_input": lambda: mean(per_command),
        "trace.overhead_frac": lambda: overhead,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]()
        elif name.startswith("cnn.layer_forward.L"):
            value = mean(per_layer_us.get(int(name.split(".")[2][1:]), ()))
        else:
            if name.endswith(".self_s"):
                span_name, stat = name[: -len(".self_s")], "self_s"
            else:
                span_name, stat = name.rsplit(".", 1)
            durations = [s.duration for s in spans.get(span_name, ())]
            value = {
                "calls": lambda: len(durations) / iterations,
                "s": lambda: sum(durations) / iterations,
                "us": lambda: mean(durations) * 1e6,
                "self_s": lambda: self_s[span_name] / iterations,
            }[stat]()
        metrics[name] = {"value": value, "unit": unit}
    return metrics, per_command


def run(args) -> dict:
    src = Path("src").resolve()
    sys.path.insert(0, str(src))
    import tracing
    import workloads
    from speedprobe import SpeedProbe

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    tracer = tracing.Tracer() if args.trace else None
    bench = workloads.Bench(work, tracer)
    workload = workloads.WORKLOADS[args.workload](bench, args.seed, args.size)
    try:
        with SpeedProbe() as probe:
            setups, done, plain = measure(args, src, bench, workload, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        workload.check()
        bench.check_repeats()

        summary = workload.summary()
        rates = [items / (t1 - t0) for items, t0, t1 in done]
        scaled_rates = [rate * probe.slowdown(t0, t1)
                        for rate, (_, t0, t1) in zip(rates, done)]
        setup_walls = [t1 - t0 for t0, t1 in setups]
        scaled_setups = [(t1 - t0) / probe.slowdown(t0, t1) for t0, t1 in setups]
        if args.trace:
            scaled = [(t1 - t0) / probe.slowdown(t0, t1) for _, t0, t1 in done]
            plain_scaled = [(t1 - t0) / probe.slowdown(t0, t1) for _, t0, t1 in plain]
            overhead = statistics.median(scaled) / statistics.median(plain_scaled) - 1.0
            metrics, per_command = per_layer_metrics(tracer, bench, len(done), overhead)
            if per_command:
                summary["simulate_layer_forward_per_input"] = (per_command, "ratio")
            tracer.write_chrome_trace(OUT_DIR / f"trace-{args.workload}.json")
        else:
            metrics = {
                "items_per_s": {"value": statistics.median(scaled_rates), "unit": "1/s"},
                "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        failed = bench.failed()
        result = {
            "correct": not failed,
            "attempted": len(bench.commands),
            "failed": len(failed),
            "metrics": metrics,
        }
        summary.update({
            f"{args.workload}_{workload.item}_per_s": (statistics.median(rates),
                                                       f"{workload.item}/s"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_frac": (len(failed) / len(bench.commands), "ratio"),
        })
        record = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "environment": environment(args.seed),
            "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
            "iterations": [{"items": n, "wall_s": t1 - t0,
                            "slowdown": probe.slowdown(t0, t1)} for n, t0, t1 in done],
            "untraced_iterations": [{"items": n, "wall_s": t1 - t0,
                                     "slowdown": probe.slowdown(t0, t1)}
                                    for n, t0, t1 in plain],
            "setups": [{"wall_s": t1 - t0, "slowdown": probe.slowdown(t0, t1)}
                       for t0, t1 in setups],
            "commands": [cmd.summary() for cmd in bench.commands],
            "result": result,
        }
        results = OUT_DIR / "results"
        results.mkdir(exist_ok=True)
        (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, src, bench, workload, tracer):
    """Set-up repeats and the timed loop; returns (start, end) per set-up and
    the iterations of the reported phase and of the untraced phase."""
    setups = []
    for r in range(1 if args.trace else SETUP_REPEATS):
        bench.start("setup", r)
        t0 = time.perf_counter()
        fresh_import(src)
        workload.setup(r)
        setups.append((t0, time.perf_counter()))

    if not args.trace:
        return setups, timed_loop(bench, workload, args.seconds), []
    plain = timed_loop(bench, workload, args.seconds / 2)
    from edgemal import cli, cnn, features, partitioning, resources, rng, simulation
    tracer.install([rng, features, cnn, resources, partitioning, simulation, cli])
    try:
        done = timed_loop(bench, workload, 0, count=len(plain), first=len(plain))
    finally:
        tracer.uninstall()
    return setups, done, plain


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "train", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for the benchmark's self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (Path("src") / "edgemal" / "__init__.py").is_file():
        print("error: run from the root of an edgemal checkout (src/edgemal missing)",
              file=sys.stderr)
        return 2
    record = run(args)
    print("# env " + json.dumps(record["environment"]))
    for cmd in record["commands"]:
        if cmd["failures"]:
            print(f"# FAILED {' '.join(cmd['argv'])}: {'; '.join(cmd['failures'])}")
    print(f"# {args.workload}: " + ", ".join(
        f"{name} {entry['value']} {entry['unit']}"
        for name, entry in record["summary"].items()))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
