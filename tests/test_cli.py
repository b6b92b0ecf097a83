import contextlib
import copy
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemal import cli, resources, simulation

from conftest import read_json


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert run("--seed", 1, "--quiet", "gen-corpus", "--out", out,
               "--per-class", 3, "--top-events", 4) == 0
    return out


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory, small_corpus):
    out = tmp_path_factory.mktemp("weights") / "w.json"
    assert run("--seed", 1, "--quiet", "train", "--corpus", small_corpus,
               "--epochs", 1, "--batch-size", 4, "--out", out) == 0
    return out


def test_gen_corpus_layout(small_corpus):
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    assert len(manifest["samples"]) == 18
    assert len(manifest["class_names"]) == 6
    assert len(list((small_corpus / "images").glob("*.pgm"))) == 18
    assert (small_corpus / "traces.csv").exists()
    assert (small_corpus / "ranked_events.json").exists()
    assert len(manifest["selected_events"]) == 4


def test_gen_corpus_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run("--seed", 5, "--quiet", "gen-corpus", "--out", out,
                   "--per-class", 2) == 0
    assert tree_digest(a) == tree_digest(b)


def test_gen_corpus_missing_out_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run("gen-corpus", "--per-class", 2)
    assert exc.value.code == 2


def test_rank_events_cmd(small_corpus, tmp_path):
    out = tmp_path / "ranked.json"
    assert run("--quiet", "rank-events", "--traces", small_corpus / "traces.csv",
               "--out", out) == 0
    ranked = json.loads(out.read_text())
    assert ranked[0]["rank"] == 1
    assert all(abs(r["rho"]) <= 1.0 for r in ranked)


def test_train_writes_history(small_corpus, tmp_path):
    weights = tmp_path / "w.json"
    history = tmp_path / "h.json"
    assert run("--seed", 1, "--quiet", "train", "--corpus", small_corpus,
               "--epochs", 1, "--batch-size", 4, "--out", weights,
               "--history", history) == 0
    doc = json.loads(history.read_text())
    assert len(doc["epoch_loss"]) == 1
    assert 0.0 <= doc["test_accuracy"] <= 1.0
    assert json.loads(weights.read_text())["layers"]


def test_estimate_verdict_fields(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run("--quiet", "estimate", "--node-free", 100_000_000,
               "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "OnDevice"
    assert doc["ground_truth_comparator"] == "OnDevice"
    assert doc["model_bytes"] == 8_953_856
    assert run("--quiet", "estimate", "--node-free", 1000, "--out", out) == 0
    assert json.loads(out.read_text())["verdict"] == "Offload"


def test_partition_and_simulate_demo(small_corpus, tiny_weights, tmp_path):
    scenario = cli.data_path("scenarios", "demo_fleet.json")
    placement = tmp_path / "placement.json"
    assert run("--quiet", "partition", "--scenario", scenario,
               "--out", placement) == 0
    doc = json.loads(placement.read_text())
    assert doc["parent_id"] == "gw0"
    assert len(doc["assignments"]) == 3

    report = tmp_path / "report.json"
    log = tmp_path / "events.csv"
    assert run("--quiet", "simulate", "--scenario", scenario,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--placement", placement, "--limit", 6, "--out", report,
               "--event-log", log) == 0
    doc = json.loads(report.read_text())
    assert len(doc["outputs"]) == 6
    assert log.read_text().startswith("time_sec,node_id,kind,bytes")


def test_distributed_outputs_match_parent_only(small_corpus, tiny_weights,
                                               tmp_path):
    reference = cli.data_path("scenarios", "reference_fleet.json")
    placement = cli.data_path("scenarios", "reference_fleet_nodes4.json")
    dist = tmp_path / "dist.json"
    solo = tmp_path / "solo.json"
    assert run("--quiet", "simulate", "--scenario", reference,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--placement", placement, "--limit", 4, "--out", dist) == 0
    assert run("--quiet", "simulate", "--scenario", reference,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--nodes", "parent-only", "--limit", 4, "--out", solo) == 0
    a = json.loads(dist.read_text())
    b = json.loads(solo.read_text())
    assert a["outputs"] == b["outputs"]
    assert a["total_latency_max_sec"] < b["total_latency_max_sec"]


def test_report_metrics_perfect_predictions(tmp_path):
    report = {
        "parent_id": "p",
        "total_latency_max_sec": 1.0,
        "total_latency_pipeline_sec": 1.0,
        "per_node": {"p": {"busy_sec": 1.0, "transfer_sec": 0.0,
                           "bytes_consumed": 10, "layers_executed": 4}},
        "outputs": [[0.9, 0.1], [0.2, 0.8]],
        "predictions": [0, 1],
        "input_labels": [0, 1],
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report))
    out = tmp_path / "metrics.json"
    assert run("--quiet", "report", "--report", path, "--out", out) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["accuracy"] == 1.0
    assert metrics["macro_f1"] == 1.0
    assert metrics["macro_recall"] == 1.0


def test_simulate_fan_out_multiple_scenarios(small_corpus, tiny_weights,
                                             tmp_path):
    demo = cli.data_path("scenarios", "demo_fleet.json")
    reference = cli.data_path("scenarios", "reference_fleet.json")
    out_dir = tmp_path / "reports"
    assert run("--quiet", "simulate", "--scenario", demo, reference,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--nodes", "3", "--limit", 2, "--out", out_dir) == 0
    assert (out_dir / "demo_fleet_report.json").exists()
    assert (out_dir / "reference_fleet_report.json").exists()
    for scenario in (demo, reference):
        single = tmp_path / f"{scenario.stem}.json"
        assert run("--quiet", "simulate", "--scenario", scenario,
                   "--weights", tiny_weights, "--corpus", small_corpus,
                   "--nodes", "3", "--limit", 2, "--out", single) == 0
        assert ((out_dir / f"{scenario.stem}_report.json").read_bytes()
                == single.read_bytes())


def test_baseline_speedup_is_simulation_speedup(small_corpus, tiny_weights,
                                                tmp_path):
    reference = cli.data_path("scenarios", "reference_fleet.json")
    placement = cli.data_path("scenarios", "reference_fleet_nodes4.json")
    solo = tmp_path / "solo.json"
    dist = tmp_path / "dist.json"
    metrics = tmp_path / "metrics.json"
    common = ["--weights", tiny_weights, "--corpus", small_corpus, "--limit", 3]
    assert run("--quiet", "simulate", "--scenario", reference, *common,
               "--nodes", "parent-only", "--out", solo) == 0
    assert run("--quiet", "simulate", "--scenario", reference, *common,
               "--placement", placement, "--baseline", solo, "--out", dist) == 0
    assert run("--quiet", "report", "--report", dist, "--baseline", solo,
               "--out", metrics) == 0
    base = json.loads(solo.read_text())
    doc = json.loads(dist.read_text())
    expected = simulation.speedup(
        SimpleNamespace(total_latency_max_sec=base["total_latency_max_sec"]),
        SimpleNamespace(total_latency_max_sec=doc["total_latency_max_sec"]))
    assert expected > 1.0
    assert doc["speedup_vs_baseline"] == expected
    assert json.loads(metrics.read_text())["speedup_vs_baseline"] == expected


def test_report_zero_latency_speedup_is_one(tmp_path):
    doc = {"parent_id": "p", "total_latency_max_sec": 0.0,
           "total_latency_pipeline_sec": 0.0, "per_node": {}, "outputs": [],
           "predictions": [], "input_labels": []}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "metrics.json"
    assert run("--quiet", "report", "--report", path, "--baseline", path,
               "--out", out) == 0
    assert json.loads(out.read_text())["speedup_vs_baseline"] == 1.0


def test_simulate_faults_flag(small_corpus, tiny_weights, tmp_path):
    reference = cli.data_path("scenarios", "reference_fleet.json")
    placement = cli.data_path("scenarios", "reference_fleet_nodes2.json")
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([{"node_id": "c1", "time_sec": 0.0}]))
    report = tmp_path / "r.json"
    assert run("--quiet", "simulate", "--scenario", reference,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--placement", placement, "--limit", 2, "--faults", faults,
               "--out", report) == 0
    assert json.loads(report.read_text())["faults_handled"] == 1


def test_missing_file_exits_2(small_corpus, tiny_weights, tmp_path):
    assert run("--quiet", "simulate", "--scenario", "missing.json",
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--out", tmp_path / "x.json") == 2


def test_domain_error_exits_3(small_corpus, tmp_path):
    # demo fleet parent cannot host the whole model on-device
    scenario = cli.data_path("scenarios", "demo_fleet.json")
    assert run("--quiet", "partition", "--scenario", scenario,
               "--nodes", "parent-only", "--out", tmp_path / "p.json") == 3


def test_no_partial_files_on_failure(small_corpus, tmp_path):
    scenario = cli.data_path("scenarios", "demo_fleet.json")
    target = tmp_path / "p.json"
    assert run("--quiet", "partition", "--scenario", scenario,
               "--nodes", "parent-only", "--out", target) == 3
    assert not target.exists()
    assert not target.with_name(target.name + ".tmp").exists()


@pytest.mark.parametrize("command", [
    ["estimate", "--node-free", 1000],
    ["partition", "--scenario", "fleet.json", "--out", "p.json"],
    ["simulate", "--scenario", "fleet.json", "--weights", "w.json",
     "--corpus", "corpus", "--out", "r.json"],
])
@pytest.mark.parametrize("flag", [("--n-batches", 0), ("--batch-size", -1),
                                  ("--kb-per-param", 0)])
def test_memory_scale_flags_exit_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run("--quiet", *command, *flag)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag[0]}: must be >= 1" in err
    assert "Traceback" not in err


def test_atomic_write_failure_leaves_nothing(tmp_path):
    target = tmp_path / "out.txt"

    def failing(tmp):
        tmp.write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._atomic_write(target, failing)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["partition", "--scenario", "fleet.json"],
    ["simulate", "--scenario", "fleet.json", "--weights", "w.json",
     "--corpus", "corpus"],
])
def test_nodes_not_a_count_exits_2(command, tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run("--quiet", *command, "--nodes", "two", "--out", out)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --nodes" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _assert_config_error(code, capsys, out):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()
    assert not out.with_name(out.name + ".tmp").exists()


def test_simulate_baseline_without_latency_exits_2(small_corpus, tiny_weights,
                                                   tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}")
    out = tmp_path / "r.json"
    code = run("--quiet", "simulate",
               "--scenario", cli.data_path("scenarios", "reference_fleet.json"),
               "--placement", cli.data_path("scenarios", "reference_fleet_nodes2.json"),
               "--weights", tiny_weights, "--corpus", small_corpus, "--limit", 2,
               "--baseline", baseline, "--out", out)
    _assert_config_error(code, capsys, out)


def test_report_baseline_without_latency_exits_2(tmp_path, capsys):
    doc = {"parent_id": "p", "total_latency_max_sec": 1.0,
           "total_latency_pipeline_sec": 1.0, "per_node": {}, "outputs": [],
           "predictions": [], "input_labels": []}
    report = tmp_path / "r.json"
    report.write_text(json.dumps(doc))
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}")
    out = tmp_path / "metrics.json"
    code = run("--quiet", "report", "--report", report, "--baseline", baseline,
               "--out", out)
    _assert_config_error(code, capsys, out)


def test_manifest_image_missing_exits_2(small_corpus, tiny_weights, tmp_path,
                                        capsys):
    corpus = tmp_path / "corpus"
    (corpus / "images").mkdir(parents=True)
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    for entry in manifest["samples"][1:]:
        (corpus / entry["file"]).write_bytes((small_corpus / entry["file"]).read_bytes())
    out = tmp_path / "r.json"
    code = run("--quiet", "simulate",
               "--scenario", cli.data_path("scenarios", "demo_fleet.json"),
               "--weights", tiny_weights, "--corpus", corpus, "--out", out)
    _assert_config_error(code, capsys, out)


_DROP = object()


def _set(path, value):
    """A mutation: a copy of the JSON document with the value at `path`
    replaced by `value`, or deleted when `value` is _DROP."""
    def mutate(doc):
        doc = copy.deepcopy(doc)
        *head, last = path
        node = doc
        for key in head:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        return doc
    return mutate


def _shipped_inputs(tiny_weights):
    """Valid JSON inputs: the reference fleet with its 2-node placement and a
    fault on the child, the shipped spec and the tiny test weights."""
    return {
        "scenario": read_json(cli.data_path("scenarios", "reference_fleet.json")),
        "placement": read_json(cli.data_path("scenarios", "reference_fleet_nodes2.json")),
        "faults": [{"node_id": "c1", "time_sec": 0.0}],
        "spec": read_json(cli.data_path("default_model.json")),
        "weights": read_json(tiny_weights),
    }


def _simulate_argv(files, corpus, out):
    return ["simulate", "--scenario", files["scenario"],
            "--placement", files["placement"], "--faults", files["faults"],
            "--model", files["spec"], "--weights", files["weights"],
            "--corpus", corpus, "--limit", 2, "--out", out]


def _write_inputs(root: Path, docs: dict) -> dict:
    files = {}
    for name, doc in docs.items():
        files[name] = root / f"{name}.json"
        files[name].write_text(json.dumps(doc))
    return files


_FEATURES = list(resources.FEATURE_NAMES)
_REPORT_OK = {"parent_id": "p", "total_latency_max_sec": 1.0,
              "total_latency_pipeline_sec": 1.0, "per_node": {},
              "outputs": [[0.9, 0.1]], "predictions": [0], "input_labels": [0]}


@pytest.mark.parametrize("target, mutate, command", [
    pytest.param("scenario", _set(("nodes", 0, "mem_free_bytes"), -1), "simulate",
                 id="scenario-negative-mem"),
    pytest.param("scenario", _set(("links",), _DROP), "simulate",
                 id="scenario-no-links"),
    pytest.param("scenario", _set(("nodes", 1, "speed_flops_per_sec"), "fast"),
                 "simulate", id="scenario-string-speed"),
    pytest.param("scenario", lambda doc: [doc], "simulate", id="scenario-json-list"),
    pytest.param("scenario", _set(("nodes", 1, "online"), "false"), "partition",
                 id="scenario-online-string"),
    pytest.param("scenario", _set(("nodes", 1, "position"), [1]), "partition",
                 id="scenario-position-1d"),
    pytest.param("scenario", _set(("nodes", 1, "id"), 7), "partition",
                 id="scenario-int-node-id"),
    pytest.param("scenario", _set(("radius_r",), -1.0), "partition",
                 id="scenario-negative-radius"),
    pytest.param("scenario", _set(("max_nodes",), 0), "partition",
                 id="scenario-max-nodes-0"),
    pytest.param("faults", _set((0, "time_sec"), "soon"), "simulate",
                 id="faults-time-soon"),
    pytest.param("faults", _set((0, "node_id"), _DROP), "simulate",
                 id="faults-no-node-id"),
    pytest.param("faults", _set((0, "node_id"), ["c1"]), "simulate",
                 id="faults-list-node-id"),
    pytest.param("placement", _set(("assignments", 1, "layers"), _DROP), "simulate",
                 id="placement-no-layers"),
    pytest.param("placement", _set(("parent_id",), ["p0"]), "simulate",
                 id="placement-list-parent"),
    pytest.param("report", lambda doc: {"predictions": [], "input_labels": []},
                 "report", id="report-no-latency"),
    pytest.param("spec", _set(("input_shape",), _DROP), "simulate",
                 id="spec-no-input-shape"),
    pytest.param("weights", _set(("layers", "1", "weight_shape"), _DROP), "simulate",
                 id="weights-no-weight-shape"),
    pytest.param("report", lambda doc: {**_REPORT_OK, "input_labels": [-1]}, "report",
                 id="report-negative-label"),
    pytest.param("report", lambda doc: {**_REPORT_OK, "predictions": [0, 1]}, "report",
                 id="report-unpaired-predictions"),
    pytest.param("regressor", lambda doc: {"beta": [0.0] * 6}, "estimate",
                 id="regressor-only-beta"),
    pytest.param("regressor", lambda doc: {"beta": [0.0] * (len(_FEATURES) + 1),
                                           "feature_names": _FEATURES, "mean": [0.0],
                                           "std": [1.0] * len(_FEATURES)}, "estimate",
                 id="regressor-short-mean"),
    pytest.param("manifest", _set(("samples",), _DROP), "simulate",
                 id="manifest-no-samples-simulate"),
    pytest.param("manifest", _set(("samples", 0, "file"), 5), "simulate",
                 id="manifest-int-file"),
    pytest.param("manifest", _set(("samples",), _DROP), "train",
                 id="manifest-no-samples-train"),
    pytest.param("image", lambda data: b"P6" + data[2:], "simulate",
                 id="image-p6-header"),
    pytest.param("traces", lambda data: b"", "rank-events", id="traces-empty"),
])
def test_malformed_input_exits_2(target, mutate, command, small_corpus,
                                 tiny_weights, tmp_path, capsys):
    docs = _shipped_inputs(tiny_weights)
    docs["report"] = docs["regressor"] = {}
    docs["manifest"] = read_json(small_corpus / "manifest.json")
    first_image = docs["manifest"]["samples"][0]["file"]
    raw = {"image": (small_corpus / first_image).read_bytes(),
           "traces": (small_corpus / "traces.csv").read_bytes()}
    if target in raw:
        raw[target] = mutate(raw[target])
    else:
        docs[target] = mutate(docs[target])
    files = _write_inputs(tmp_path, docs)
    files["traces"] = tmp_path / "traces.csv"
    files["traces"].write_bytes(raw["traces"])
    corpus = small_corpus
    if target in ("manifest", "image"):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        files["manifest"].replace(corpus / "manifest.json")
        (corpus / first_image).write_bytes(raw["image"])
    out = tmp_path / "out.json"
    argv = {
        "simulate": _simulate_argv(files, corpus, out),
        "partition": ["partition", "--scenario", files["scenario"], "--out", out],
        "report": ["report", "--report", files["report"], "--out", out],
        "estimate": ["estimate", "--regressor", files["regressor"],
                     "--node-free", 1000, "--out", out],
        "train": ["train", "--corpus", corpus, "--epochs", 1, "--out", out],
        "rank-events": ["rank-events", "--traces", files["traces"], "--out", out],
    }[command]
    _assert_config_error(run("--quiet", *argv), capsys, out)


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["gen-corpus", "--per-class", 0], "--per-class", id="per-class-0"),
    pytest.param(["gen-corpus", "--classes", 1], "--classes", id="classes-1"),
    pytest.param(["gen-corpus", "--classes", 0], "--classes", id="classes-0"),
    pytest.param(["gen-corpus", "--events", 2], "--events", id="events-below-classes"),
    pytest.param(["gen-corpus", "--top-events", 0], "--top-events", id="top-events-0"),
    pytest.param(["gen-corpus", "--noise", -1], "--noise", id="noise-negative"),
    pytest.param(["gen-corpus", "--noise", "nan"], "--noise", id="noise-nan"),
    pytest.param(["rank-events", "--traces", "traces.csv", "--top", -1], "--top",
                 id="top-negative"),
    pytest.param(["train", "--corpus", "corpus", "--batch-size", 0], "--batch-size",
                 id="batch-size-0"),
    pytest.param(["train", "--corpus", "corpus", "--train-frac", 1.5], "--train-frac",
                 id="train-frac-1.5"),
    pytest.param(["train", "--corpus", "corpus", "--train-frac", 0], "--train-frac",
                 id="train-frac-0"),
    pytest.param(["train", "--corpus", "corpus", "--epochs", 0], "--epochs",
                 id="epochs-0"),
    pytest.param(["train", "--corpus", "corpus", "--epochs", -2], "--epochs",
                 id="epochs-negative"),
    pytest.param(["train", "--corpus", "corpus", "--learning-rate", 0],
                 "--learning-rate", id="learning-rate-0"),
    pytest.param(["train", "--corpus", "corpus", "--learning-rate", "inf"],
                 "--learning-rate", id="learning-rate-inf"),
    pytest.param(["train", "--corpus", "corpus", "--clip-norm", -0.5], "--clip-norm",
                 id="clip-norm-negative"),
    pytest.param(["estimate", "--node-free", -1], "--node-free",
                 id="node-free-negative"),
    pytest.param(["simulate", "--scenario", "fleet.json", "--weights", "w.json",
                  "--corpus", "corpus", "--limit", -3], "--limit", id="limit-negative"),
])
def test_flag_out_of_range_exits_2(argv, flag, tmp_path, capsys):
    try:
        code = run("--quiet", *argv, "--out", tmp_path / "out")
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_flag_lower_bounds_accepted():
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--corpus", "c", "--out", "w.json", "--epochs", "1",
                              "--learning-rate", "1e-9", "--clip-norm", "0"])
    assert (args.epochs, args.learning_rate, args.clip_norm) == (1, 1e-9, 0.0)
    assert parser.parse_args(["gen-corpus", "--out", "c", "--noise", "0"]).noise == 0.0


def test_shipped_inputs_exit_0(small_corpus, tiny_weights, tmp_path):
    files = _write_inputs(tmp_path, _shipped_inputs(tiny_weights))
    assert run("--quiet", "partition", "--scenario", files["scenario"],
               "--out", tmp_path / "p.json") == 0
    assert run("--quiet", *_simulate_argv(files, small_corpus,
                                          tmp_path / "r.json")) == 0


def _json_paths(doc, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def mutation_sites(tiny_weights):
    docs = _shipped_inputs(tiny_weights)
    return [(target, path) for target in ("scenario", "placement", "faults")
            for path in _json_paths(docs[target])]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_inputs_fail_cleanly(data, mutation_sites, small_corpus,
                                     tiny_weights):
    target, path = data.draw(st.sampled_from(mutation_sites))
    value = data.draw(st.sampled_from([_DROP, "x", -1, None, [], [1]]))
    docs = _shipped_inputs(tiny_weights)
    docs[target] = _set(path, value)(docs[target])
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        files = _write_inputs(root, docs)
        out = root / "out"
        out.mkdir()
        commands = [_simulate_argv(files, small_corpus, out / "r.json")]
        if target == "scenario":
            commands.append(["partition", "--scenario", files["scenario"],
                             "--out", out / "p.json"])
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run("--quiet", *argv)
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert err.getvalue().startswith("error: ")
                assert list(out.iterdir()) == []
            for leftover in out.iterdir():
                leftover.unlink()
