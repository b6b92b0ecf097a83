import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import shutil
import stat
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemal import cli, cnn, features, resources, simulation

from conftest import count_forward_batch, read_json


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


def _pgm_bytes(img, tmp_path) -> bytes:
    path = tmp_path / "expected.pgm"
    features.write_pgm(img, path)
    return path.read_bytes()


def test_gen_corpus_failure_writes_no_file(tmp_path, capsys):
    out = tmp_path / "corpus"
    (out / "traces.csv").mkdir(parents=True)
    assert run("--quiet", "gen-corpus", "--out", out, "--per-class", 1) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'traces.csv'}: Is a directory")
    assert "Traceback" not in err
    assert [path for path in out.rglob("*") if not path.is_dir()] == []


def test_gen_corpus_full_res_matches_library(tmp_path):
    out = tmp_path / "corpus"
    assert run("--seed", 3, "--quiet", "gen-corpus", "--out", out,
               "--per-class", 2, "--full-res") == 0
    bundle = features.gen_synthetic_corpus(samples_per_class=2, seed=3)
    selected = json.loads((out / "manifest.json").read_text())["selected_events"]
    columns = [bundle.traces.event_names.index(name) for name in selected]
    small = features.corpus_images(bundle, columns)
    assert len(list((out / "full_res").glob("*.pgm"))) == len(small) == 12
    for i, img in enumerate(small):
        assert ((out / f"full_res/img_{i:06d}.pgm").read_bytes()
                == _pgm_bytes(features.sample_image(bundle, i, columns), tmp_path))
        assert (out / f"images/img_{i:06d}.pgm").read_bytes() == _pgm_bytes(img, tmp_path)


def test_gen_corpus_bytes_pinned(tmp_path):
    """sha256 of the listing of every file `gen-corpus` writes at a noise so
    large that block values land within float error of a rounding boundary
    (a half-integer) far more often than at the default noise."""
    assert run("--quiet", "gen-corpus", "--out", tmp_path, "--per-class", 5,
               "--noise", "1e6") == 0
    listing = json.dumps(tree_digest(tmp_path), sort_keys=True).encode()
    assert hashlib.sha256(listing).hexdigest() == (
        "38bd849d104f924222c13de24c899b8c07330013fd4b0f11a12ebb0badc242a5")


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


def test_train_without_test_samples_reports_null(small_corpus, tmp_path, capsys):
    history = tmp_path / "h.json"
    assert run("--seed", 1, "train", "--corpus", small_corpus, "--epochs", 1,
               "--batch-size", 4, "--train-frac", 1.0, "--out", tmp_path / "w.json",
               "--history", history) == 0
    doc = json.loads(history.read_text())
    assert doc["test_samples"] == 0
    assert doc["test_accuracy"] is None
    assert 0.0 <= doc["train_accuracy"] <= 1.0
    assert "test accuracy n/a" in capsys.readouterr().out


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


def test_estimate_saved_regressor_round_trip(tmp_path):
    fitted, loaded, regressor = (tmp_path / name for name in
                                 ("fitted.json", "loaded.json", "r.json"))
    assert run("--quiet", "estimate", "--node-free", 3_000_000,
               "--save-regressor", regressor, "--out", fitted) == 0
    assert run("--quiet", "estimate", "--node-free", 3_000_000,
               "--regressor", regressor, "--out", loaded) == 0
    assert loaded.read_bytes() == fitted.read_bytes()


def _fitted_regressor_json(seed: int) -> str:
    return cli._dump_json(resources.regressor_to_json(resources.fit_regressor(
        resources.build_regressor_dataset(seed, cli._REGRESSOR_TRAIN_SAMPLES))))


def test_shipped_regressor_is_the_default_seed_fit():
    """The regeneration recipe of default_regressor.json."""
    shipped = cli.data_path("trained", "default_regressor.json").read_text(encoding="utf-8")
    assert shipped == _fitted_regressor_json(cli._DEFAULT_SEED)


def _estimate(tmp_path, *flags) -> tuple[dict, str]:
    """`estimate`'s record and saved regressor at 3 MB free."""
    out, regressor = tmp_path / "d.json", tmp_path / "r.json"
    assert run("--quiet", *flags, "estimate", "--node-free", 3_000_000,
               "--out", out, "--save-regressor", regressor) == 0
    return json.loads(out.read_text()), regressor.read_text()


def _library_score(regressor_text: str) -> float:
    reg = resources.regressor_from_json(json.loads(regressor_text))
    return resources.predict_offload(reg, cli._load_spec(None), 3_000_000).score


def test_estimate_default_seed_loads_the_shipped_regressor(tmp_path, monkeypatch):
    def no_dataset(*args):
        raise AssertionError("the default seed refit the regressor")

    monkeypatch.setattr(resources, "build_regressor_dataset", no_dataset)
    for flags in ([], ["--seed", cli._DEFAULT_SEED]):
        record, saved = _estimate(tmp_path, *flags)
        assert saved == cli.data_path("trained", "default_regressor.json").read_text()
        assert record["score"] == _library_score(saved)


def test_estimate_other_seed_refits(tmp_path):
    record, saved = _estimate(tmp_path, "--seed", 7)
    fitted = _fitted_regressor_json(7)
    assert saved == fitted
    assert record["score"] == _library_score(fitted)
    assert record["score"] != _estimate(tmp_path)[0]["score"]


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


def test_report_without_samples_reports_null(tmp_path, capsys):
    doc = {"parent_id": "p", "total_latency_max_sec": 1.0,
           "total_latency_pipeline_sec": 1.0, "per_node": {}, "outputs": [],
           "predictions": [], "input_labels": []}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "metrics.json"
    assert run("report", "--report", path, "--out", out) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["samples"] == 0
    assert metrics["accuracy"] is None
    assert metrics["macro_f1"] is None
    assert metrics["macro_recall"] is None
    assert metrics["per_class_recall"] == [None]
    assert metrics["per_class_f1"] == [None]
    printed = capsys.readouterr().out
    assert "accuracy         n/a" in printed
    assert "macro F1         n/a" in printed
    assert "macro recall     n/a" in printed


def _report_file(tmp_path, **fields):
    """A two-sample report predicting classes 0 and 1, with `fields` added."""
    doc = {"parent_id": "p", "total_latency_max_sec": 1.0,
           "total_latency_pipeline_sec": 1.0, "per_node": {},
           "outputs": [[0.9, 0.1], [0.2, 0.8]], "predictions": [0, 1], **fields}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    return path


def test_report_manifest_relabels_through_input_files(tmp_path):
    # the report's own labels are all wrong; the manifest's, looked up by the
    # file each input came from, match every prediction
    report = _report_file(tmp_path, input_labels=[1, 0],
                          input_files=["images/b.pgm", "images/a.pgm"])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "class_names": ["benign", "worm", "trojan"],
        "samples": [{"file": "images/a.pgm", "label": 1},
                    {"file": "images/b.pgm", "label": 0}]}))
    out = tmp_path / "metrics.json"
    assert run("--quiet", "report", "--report", report, "--manifest", manifest,
               "--out", out) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["accuracy"] == 1.0
    assert metrics["per_class_recall"] == [1.0, 1.0, 0.0]


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


def test_simulate_runs_the_stages_once(small_corpus, tiny_weights, tmp_path,
                                       monkeypatch):
    # one forward_batch over the inputs serves every scenario
    demo = cli.data_path("scenarios", "demo_fleet.json")
    reference = cli.data_path("scenarios", "reference_fleet.json")
    common = ["--weights", tiny_weights, "--corpus", small_corpus,
              "--nodes", "3", "--limit", 2]
    calls = count_forward_batch(monkeypatch)
    assert run("--quiet", "simulate", "--scenario", demo, reference, *common,
               "--out", tmp_path / "reports") == 0
    assert calls == [2]
    calls.clear()
    assert run("--quiet", "simulate", "--scenario", demo, *common,
               "--out", tmp_path / "single.json") == 0
    assert calls == [2]


def test_simulate_bad_second_scenario_runs_nothing(small_corpus, tiny_weights,
                                                   tmp_path, monkeypatch, capsys):
    # c5 is a child of the demo fleet; the reference fleet has no c5
    demo = cli.data_path("scenarios", "demo_fleet.json")
    reference = cli.data_path("scenarios", "reference_fleet.json")
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps([{"node_id": "c5", "time_sec": 1.0}]))
    calls = count_forward_batch(monkeypatch)
    assert run("--quiet", "simulate", "--scenario", demo, reference,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--nodes", "3", "--limit", 2, "--faults", faults,
               "--out", tmp_path / "reports") == 3
    assert "unknown node 'c5'" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == [faults]


def test_report_prints_makespan(small_corpus, tiny_weights, tmp_path, capsys):
    reference = cli.data_path("scenarios", "reference_fleet.json")
    placement = cli.data_path("scenarios", "reference_fleet_nodes4.json")
    report = tmp_path / "r.json"
    metrics = tmp_path / "m.json"
    assert run("--quiet", "simulate", "--scenario", reference,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--placement", placement, "--limit", 1, "--out", report) == 0
    assert run("report", "--report", report, "--out", metrics) == 0
    printed = capsys.readouterr().out
    assert "total_latency_max_sec      10.011152 s" in printed
    assert "makespan_sec               27.675160 s" in printed
    doc = json.loads(report.read_text())
    assert json.loads(metrics.read_text())["makespan_sec"] == doc["makespan_sec"]


def test_simulate_event_log_with_several_scenarios_exits_2(small_corpus, tiny_weights,
                                                           tmp_path, capsys):
    demo = cli.data_path("scenarios", "demo_fleet.json")
    reference = cli.data_path("scenarios", "reference_fleet.json")
    assert run("--quiet", "simulate", "--scenario", demo, reference,
               "--weights", tiny_weights, "--corpus", small_corpus,
               "--nodes", "3", "--limit", 2, "--out", tmp_path / "reports",
               "--event-log", tmp_path / "events.csv") == 2
    assert capsys.readouterr().err.startswith("error: --event-log")
    assert list(tmp_path.iterdir()) == []


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
    assert run("--quiet", "report", "--report", dist, "--out", metrics) == 0
    base = json.loads(solo.read_text())
    doc = json.loads(dist.read_text())
    expected = simulation.speedup(
        SimpleNamespace(total_latency_max_sec=base["total_latency_max_sec"]),
        SimpleNamespace(total_latency_max_sec=doc["total_latency_max_sec"]))
    assert expected > 1.0
    assert doc["speedup_vs_baseline"] == expected
    assert json.loads(metrics.read_text())["speedup_vs_baseline"] == expected


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


def test_domain_error_exits_3(small_corpus, tmp_path, capsys):
    # demo fleet parent cannot host the whole model on-device
    scenario = cli.data_path("scenarios", "demo_fleet.json")
    assert run("--quiet", "partition", "--scenario", scenario,
               "--nodes", "parent-only", "--out", tmp_path / "p.json") == 3
    assert capsys.readouterr().err == (
        "error: 1 candidate nodes hold 2000000 bytes, model needs 8953856\n")


def test_no_partial_files_on_failure(small_corpus, tmp_path):
    scenario = cli.data_path("scenarios", "demo_fleet.json")
    target = tmp_path / "p.json"
    assert run("--quiet", "partition", "--scenario", scenario,
               "--nodes", "parent-only", "--out", target) == 3
    assert list(tmp_path.iterdir()) == []


def _offline_parent(inputs: Path) -> Path:
    """The reference fleet with its parent p0 offline."""
    doc = read_json(cli.data_path("scenarios", "reference_fleet.json"))
    doc["nodes"][0]["online"] = False
    path = inputs / "offline_parent.json"
    path.write_text(json.dumps(doc))
    return path


def _star(inputs: Path) -> Path:
    """The reference fleet without its child-child links, 4.4 MB per node:
    node selection picks p0, c1 and c2, and no link joins c1 to c2."""
    doc = read_json(cli.data_path("scenarios", "reference_fleet.json"))
    doc["links"] = [link for link in doc["links"] if "p0" in (link["a"], link["b"])]
    for node in doc["nodes"]:
        node["mem_free_bytes"] = 4_400_000
    path = inputs / "star.json"
    path.write_text(json.dumps(doc))
    return path


def _made_dir(path: Path) -> Path:
    path.mkdir()
    return path


def _made_file(path: Path) -> Path:
    path.write_text("kept\n")
    return path


def _same_stem(inputs: Path) -> list[Path]:
    """Two scenario files, a/fleet.json and b/fleet.json, of one stem."""
    paths = []
    for sub, name in (("a", "reference_fleet.json"), ("b", "demo_fleet.json")):
        (inputs / sub).mkdir()
        paths.append(inputs / sub / "fleet.json")
        shutil.copy(cli.data_path("scenarios", name), paths[-1])
    return paths


@pytest.mark.parametrize("case", [
    pytest.param(lambda inputs, out: (
        ["partition", "--scenario", _offline_parent(inputs), "--nodes", "parent-only",
         "--out", out / "p.json"], 3, "error: parent 'p0' is offline"),
        id="parent-only-offline-parent"),
    pytest.param(lambda inputs, out: (
        ["partition", "--scenario", _offline_parent(inputs), "--out", out / "p.json"],
        3, "error: parent 'p0' is offline"), id="auto-partition-offline-parent"),
    pytest.param(lambda inputs, out: (
        ["partition", "--scenario", _offline_parent(inputs), "--nodes", 2,
         "--out", out / "p.json"], 3, "error: NodeOffline: node 'p0' is offline"),
        id="two-nodes-offline-parent"),
    pytest.param(lambda inputs, out: (
        ["partition", "--scenario", _star(inputs), "--out", out / "p.json"], 3,
        "error: MissingLink: no link between consecutive nodes 'c1' and 'c2'"),
        id="auto-partition-missing-link"),
    pytest.param(lambda inputs, out: (
        ["simulate", "--scenario", *_same_stem(inputs), "--nodes", 3,
         "--out", out / "reports"], 2, "error: --scenario files must have distinct"),
        id="simulate-duplicate-stems"),
    pytest.param(lambda inputs, out: (
        ["partition", "--scenario", cli.data_path("scenarios", "demo_fleet.json"),
         "--out", out / "nodir" / "p.json"], 2,
        f"error: cannot write {out / 'nodir' / 'p.json'}: No such file or directory"),
        id="partition-missing-directory"),
    pytest.param(lambda inputs, out: (
        ["estimate", "--node-free", 3_000_000, "--out", out / "ok.json",
         "--save-regressor", out / "nodir" / "r.json"], 2,
        f"error: cannot write {out / 'nodir' / 'r.json'}: No such file or directory"),
        id="estimate-second-output-missing-directory"),
    pytest.param(lambda inputs, out: (
        ["estimate", "--node-free", 1, "--out", _made_dir(out / "adir")], 2,
        f"error: cannot write {out / 'adir'}: Is a directory"),
        id="estimate-out-is-a-directory"),
    pytest.param(lambda inputs, out: (
        ["train", "--out", out / "w.json", "--history", _made_dir(out / "hdir")], 2,
        f"error: cannot write {out / 'hdir'}: Is a directory"),
        id="train-history-is-a-directory"),
    pytest.param(lambda inputs, out: (
        ["gen-corpus", "--per-class", 1, "--out", _made_file(out / "afile")], 2,
        f"error: cannot write {out / 'afile' / 'images'}: Not a directory"),
        id="gen-corpus-out-is-a-file"),
    pytest.param(lambda inputs, out: (
        ["simulate", "--scenario", cli.data_path("scenarios", "demo_fleet.json"),
         cli.data_path("scenarios", "reference_fleet.json"), "--nodes", 3,
         "--out", _made_file(out / "afile")], 2,
        f"error: cannot write {out / 'afile'}: Not a directory"),
        id="simulate-scenarios-out-is-a-file"),
])
def test_failing_command_writes_nothing(case, small_corpus, tiny_weights, tmp_path,
                                        monkeypatch, capsys):
    inputs = tmp_path / "inputs"
    out = tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    argv, code, error = case(inputs, out)
    before = sorted(out.rglob("*"))
    if argv[0] == "train":
        argv += ["--corpus", small_corpus, "--epochs", 1, "--batch-size", 4]
    if argv[0] == "simulate":
        # simulate fails before it schedules; partition's last check is one
        argv += ["--weights", tiny_weights, "--corpus", small_corpus, "--limit", 2]

        def no_schedule(*args, **kwargs):
            raise AssertionError("a schedule ran")

        monkeypatch.setattr(simulation, "schedule", no_schedule)
    assert run("--quiet", *argv) == code
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert "Traceback" not in err
    assert sorted(out.rglob("*")) == before
    assert all(path.read_text() == "kept\n" for path in out.rglob("afile"))


@pytest.mark.parametrize("argv", [
    pytest.param(lambda out, corpus, weights: [
        "train", "--corpus", corpus, "--epochs", 1, "--batch-size", 4,
        "--out", out / "w.json", "--history", out / "nodir" / "h.json"], id="train"),
    pytest.param(lambda out, corpus, weights: [
        "simulate", "--scenario", cli.data_path("scenarios", "demo_fleet.json"),
        "--weights", weights, "--corpus", corpus, "--limit", 2,
        "--out", out / "r.json", "--event-log", out / "nodir" / "e.csv"], id="simulate"),
])
def test_second_output_in_missing_directory_writes_nothing(argv, small_corpus, tiny_weights,
                                                           tmp_path, capsys):
    assert run("--quiet", *argv(tmp_path, small_corpus, tiny_weights)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'nodir'}")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def _scaled(n_batches, batch_size, kb_per_param):
    return ["--n-batches", n_batches, "--batch-size", batch_size,
            "--kb-per-param", kb_per_param]


def test_estimate_scale_flags_multiply(tmp_path):
    out = tmp_path / "d.json"
    assert run("--quiet", "estimate", "--node-free", 100_000_000, *_scaled(2, 3, 4),
               "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["model_bytes"] == 24 * 8_953_856 == 214_892_544
    assert (doc["n_batches"], doc["batch_size"], doc["kb_per_param"]) == (2, 3, 4)
    assert doc["ground_truth_comparator"] == "Offload"


@pytest.mark.parametrize("flags, ranges", [
    pytest.param([], "p0:[0..10]", id="default"),
    pytest.param(["--kb-per-param", 2], "p0:[0..7], c1:[8..10]", id="kb-per-param-2"),
    pytest.param(_scaled(2, 1, 1), "p0:[0..7], c1:[8..10]", id="n-batches-2"),
    pytest.param(_scaled(1, 2, 1), "p0:[0..7], c1:[8..10]", id="batch-size-2"),
])
def test_partition_scale_flags(flags, ranges, tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run("partition", "--scenario", cli.data_path("scenarios", "reference_fleet.json"),
               *flags, "--out", out) == 0
    assert capsys.readouterr().out == f"placement: {ranges}\n"
    doc = json.loads(out.read_text())
    assert [entry["node_id"] for entry in doc["assignments"]] == [
        part.split(":")[0] for part in ranges.split(", ")]


def test_simulate_scale_flags(small_corpus, tiny_weights, tmp_path):
    # at 2 KB per parameter the parent p0 holds layers 0..7 and c1 the rest;
    # the parent stores every range plus the cut activation, layer 7's output
    scenario = cli.data_path("scenarios", "reference_fleet.json")
    assert run("--quiet", "simulate", "--scenario", scenario, "--kb-per-param", 2,
               "--weights", tiny_weights, "--corpus", small_corpus, "--limit", 1,
               "--event-log", tmp_path / "e.csv", "--out", tmp_path / "r.json") == 0
    with open(tmp_path / "e.csv", encoding="utf-8") as fh:
        cuts = [int(row["bytes"]) for row in csv.DictReader(fh)
                if row["kind"] == "transfer"]
    layer7 = cnn.resolve_spec(cnn.load_spec(cli.data_path("default_model.json"))).layers[7]
    assert cuts == [math.prod(layer7.out_shape) * 4]
    per_node = json.loads((tmp_path / "r.json").read_text())["per_node"]
    assert sorted(per_node) == ["c1", "p0"]
    assert per_node["p0"]["bytes_consumed"] == 2 * 8_953_856 + cuts[0]
    assert per_node["p0"]["layers_executed"] == 8


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

    def failing(fd):
        with open(fd, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._atomic_write_all([(target, failing)])
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_other_tmp_files_alone(tmp_path):
    target = tmp_path / "out.txt"
    other = tmp_path / "out.txt.tmp"  # another writer's temporary file
    other.write_text("theirs")

    def failing(fd):
        with open(fd, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._atomic_write_all([(target, failing)])
    assert sorted(tmp_path.iterdir()) == [other]
    cli._atomic_write_all([(target, cli._text_writer("ours"))])
    assert sorted(tmp_path.iterdir()) == [target, other]
    assert target.read_text() == "ours"
    assert other.read_text() == "theirs"


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_atomic_write_mode_follows_umask(umask, tmp_path):
    target = tmp_path / "out.txt"
    saved = os.umask(umask)
    try:
        cli._atomic_write_all([(target, cli._text_writer("x"))])
    finally:
        os.umask(saved)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


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


def _assert_config_error(capsys, out, *argv) -> str:
    """`run("--quiet", *argv)` exits 2 with a one-line error and adds nothing
    to the directory of its output `out`; returns the error."""
    before = sorted(out.parent.iterdir())
    assert run("--quiet", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()
    assert sorted(out.parent.iterdir()) == before
    return err


def _simulate_with_baseline(capsys, doc, corpus, weights, tmp_path) -> str:
    """The error of `simulate --baseline` with the baseline report `doc`."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    return _assert_config_error(
        capsys, out, "simulate",
        "--scenario", cli.data_path("scenarios", "reference_fleet.json"),
        "--placement", cli.data_path("scenarios", "reference_fleet_nodes2.json"),
        "--weights", weights, "--corpus", corpus, "--limit", 2,
        "--baseline", baseline, "--out", out)


def test_simulate_baseline_without_latency_exits_2(small_corpus, tiny_weights,
                                                   tmp_path, capsys):
    _simulate_with_baseline(capsys, {}, small_corpus, tiny_weights, tmp_path)


def test_simulate_baseline_with_non_numeric_latency_exits_2(small_corpus, tiny_weights,
                                                            tmp_path, capsys):
    err = _simulate_with_baseline(capsys, {"total_latency_max_sec": "fast"},
                                  small_corpus, tiny_weights, tmp_path)
    assert "total_latency_max_sec is not a number: 'fast'" in err


def test_manifest_image_missing_exits_2(small_corpus, tiny_weights, tmp_path,
                                        capsys):
    corpus = tmp_path / "corpus"
    (corpus / "images").mkdir(parents=True)
    manifest = json.loads((small_corpus / "manifest.json").read_text())
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    for entry in manifest["samples"][1:]:
        (corpus / entry["file"]).write_bytes((small_corpus / entry["file"]).read_bytes())
    out = tmp_path / "r.json"
    _assert_config_error(capsys, out, "simulate",
                         "--scenario", cli.data_path("scenarios", "demo_fleet.json"),
                         "--weights", tiny_weights, "--corpus", corpus, "--out", out)


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
_REGRESSOR = read_json(cli.data_path("trained", "default_regressor.json"))
_NAN = float("nan")


def _add_layer(key, source):
    """A weights mutation: a copy with entry `key` added as a copy of the
    entry `source`."""
    def mutate(doc):
        doc = copy.deepcopy(doc)
        doc["layers"][key] = doc["layers"][source]
        return doc
    return mutate
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
    pytest.param("spec", _set(("layers", 2, "kind"), "Dropout"), "simulate",
                 id="spec-unknown-kind"),
    pytest.param("spec", _set(("layers", 1, "filters"), 0), "simulate",
                 id="spec-filters-0"),
    pytest.param("spec", _set(("layers", 10), _DROP), "simulate",
                 id="spec-no-softmax"),
    pytest.param("weights", _set(("layers", "1", "weight_shape"), _DROP), "simulate",
                 id="weights-no-weight-shape"),
    pytest.param("weights", _set(("layers", "9"), _DROP), "simulate",
                 id="weights-missing-layer"),
    pytest.param("weights", _add_layer("99", "9"), "simulate",
                 id="weights-extra-layer"),
    pytest.param("weights", _set(("layers", "1", "bias", 7), _DROP), "simulate",
                 id="weights-short-bias"),
    pytest.param("weights", _set(("layers", "1", "weight_shape"), [72, 1]), "simulate",
                 id="weights-shape-72x1"),
    pytest.param("weights", _add_layer("2", "1"), "simulate",
                 id="weights-pool-layer"),
    pytest.param("weights", _set(("layers", "1", "weight", 0), _NAN), "simulate",
                 id="weights-nan-element"),
    pytest.param("scenario", _set(("links", 0, "bandwidth_bytes_per_sec"), _NAN),
                 "partition", id="scenario-nan-bandwidth"),
    pytest.param("scenario", _set(("links", 0, "latency_sec"), _NAN), "partition",
                 id="scenario-nan-latency"),
    pytest.param("scenario", _set(("nodes", 1, "speed_flops_per_sec"), _NAN),
                 "partition", id="scenario-nan-speed"),
    pytest.param("scenario", _set(("radius_r",), _NAN), "partition",
                 id="scenario-nan-radius"),
    pytest.param("scenario", _set(("nodes", 1, "mem_free_bytes"), 1.9), "partition",
                 id="scenario-fractional-mem"),
    pytest.param("scenario", _set(("max_nodes",), 2.7), "partition",
                 id="scenario-fractional-max-nodes"),
    pytest.param("scenario", _set(("max_nodes",), True), "partition",
                 id="scenario-bool-max-nodes"),
    pytest.param("placement", _set(("assignments", 0, "layers"), [0.5, 1]), "simulate",
                 id="placement-fractional-layer"),
    pytest.param("placement", _set(("assignments", 0, "layers"), [0, 1, "junk"]),
                 "simulate", id="placement-three-values"),
    pytest.param("scenario", _set(("nodes", 1, "position"), [_NAN, 0.0]), "partition",
                 id="scenario-nan-position"),
    pytest.param("scenario", _set(("nodes", 1, "position"), [True, 0.0]), "partition",
                 id="scenario-bool-position"),
    pytest.param("report", lambda doc: {**_REPORT_OK, "input_labels": [-1]}, "report",
                 id="report-negative-label"),
    pytest.param("report", lambda doc: {**_REPORT_OK, "predictions": [0, 1]}, "report",
                 id="report-unpaired-predictions"),
    pytest.param("report", lambda doc: _set(("input_labels",), _DROP)(_REPORT_OK),
                 "report", id="report-no-labels-no-manifest"),
    pytest.param("regressor", lambda doc: {"beta": [0.0] * 6}, "estimate",
                 id="regressor-only-beta"),
    pytest.param("regressor", lambda doc: {"beta": [0.0] * (len(_FEATURES) + 1),
                                           "feature_names": _FEATURES, "mean": [0.0],
                                           "std": [1.0] * len(_FEATURES)}, "estimate",
                 id="regressor-short-mean"),
    pytest.param("regressor", lambda doc: {**_REGRESSOR,
                                           "feature_names": _FEATURES[::-1]}, "estimate",
                 id="regressor-other-features"),
    pytest.param("regressor", _set(("std", 0), 0.0), "estimate",
                 id="regressor-std-0"),
    pytest.param("manifest", _set(("samples",), _DROP), "simulate",
                 id="manifest-no-samples-simulate"),
    pytest.param("manifest", _set(("samples", 0, "file"), 5), "simulate",
                 id="manifest-int-file"),
    pytest.param("manifest", _set(("samples",), _DROP), "train",
                 id="manifest-no-samples-train"),
    pytest.param("image", lambda data: b"P6" + data[2:], "simulate",
                 id="image-p6-header"),
    pytest.param("traces", lambda data: b"", "rank-events", id="traces-empty"),
    pytest.param("scenario", _set(("nodes", 1, "speed_flops_per_sec"), 10**400),
                 "partition", id="scenario-speed-too-large-for-float"),
    pytest.param("scenario", _set(("nodes", 1, "position"), [10**400, 0]), "partition",
                 id="scenario-position-too-large-for-float"),
    pytest.param("faults", _set((0, "time_sec"), 10**400), "simulate",
                 id="faults-time-too-large-for-float"),
    pytest.param("baseline", _set(("total_latency_max_sec",), 10**400),
                 "simulate-baseline", id="baseline-latency-too-large-for-float"),
])
def test_malformed_input_exits_2(target, mutate, command, small_corpus,
                                 tiny_weights, tmp_path, capsys):
    docs = _shipped_inputs(tiny_weights)
    docs["report"] = {}
    docs["baseline"] = {"total_latency_max_sec": 1.0}
    docs["regressor"] = _REGRESSOR
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
        "simulate-baseline": [*_simulate_argv(files, corpus, out),
                              "--baseline", files["baseline"]],
        "partition": ["partition", "--scenario", files["scenario"], "--out", out],
        "report": ["report", "--report", files["report"], "--out", out],
        "estimate": ["estimate", "--regressor", files["regressor"],
                     "--node-free", 1000, "--out", out],
        "train": ["train", "--corpus", corpus, "--epochs", 1, "--out", out],
        "rank-events": ["rank-events", "--traces", files["traces"], "--out", out],
    }[command]
    _assert_config_error(capsys, out, *argv)


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
    pytest.param(["simulate", "--scenario", "fleet.json", "--weights", "w.json",
                  "--corpus", "corpus", "--placement", "p.json", "--nodes", 2],
                 "--nodes", id="placement-with-nodes"),
    pytest.param(["report", "--report", "r.json", "--baseline", "b.json"],
                 "--baseline", id="report-baseline"),
    # the reference fleet has four candidates: the parent and three children
    pytest.param(["partition", "--scenario",
                  cli.data_path("scenarios", "reference_fleet.json"), "--nodes", 9],
                 "--nodes must be in [1, 4]", id="nodes-above-candidates"),
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


# the values a mutation puts in place of one value of a valid input
_MUTATION_VALUES = [_DROP, "x", -1, None, [], [1]]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_mutated_inputs_fail_cleanly(data, mutation_sites, small_corpus,
                                     tiny_weights):
    target, path = data.draw(st.sampled_from(mutation_sites))
    value = data.draw(st.sampled_from(_MUTATION_VALUES))
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


def test_every_spec_mutation_exits_0_or_2(tmp_path, capsys):
    """Each single-value mutation of the shipped spec is read when `estimate`
    loads it: the command runs, or exits 2 with one `error: malformed` line."""
    spec = read_json(cli.data_path("default_model.json"))
    path = tmp_path / "spec.json"
    for key_path in _json_paths(spec):
        for value in _MUTATION_VALUES:
            path.write_text(json.dumps(_set(key_path, value)(spec)))
            code = run("--quiet", "estimate", "--model", path, "--node-free", 1000)
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (
                code == 2 and err.startswith(f"error: malformed {path}: ")
                and err.count("\n") == 1), (key_path, value, err)


@pytest.mark.parametrize("time_sec", [-1.0, _NAN], ids=["negative", "nan"])
def test_fault_time_below_0_exits_3(time_sec, small_corpus, tiny_weights, tmp_path,
                                    capsys):
    docs = _shipped_inputs(tiny_weights)
    docs["faults"] = [{"node_id": "c1", "time_sec": time_sec}]
    files = _write_inputs(tmp_path, docs)
    out = tmp_path / "out.json"
    assert run("--quiet", *_simulate_argv(files, small_corpus, out)) == 3
    assert capsys.readouterr().err == "error: fault time must be >= 0\n"
    assert not out.exists()


# --- pinned output bytes ---
#
# sha256 digests of the files each command writes, measured with per-image
# corpus loading and per-row report serialisation. test_forward_batch_bits_pinned
# pins the network's outputs; these pin how the CLI reads the corpus and
# serialises the outputs, the schedule and the training history.

def _pinned_commands(corpus: Path, out: Path) -> list[list]:
    weights = cli.data_path("trained", "default_weights.json")
    reference = cli.data_path("scenarios", "reference_fleet.json")
    common = ["--weights", weights, "--corpus", corpus]
    return [
        ["simulate", "--scenario", reference, *common, "--nodes", "parent-only",
         "--out", out / "solo.json"],
        ["simulate", "--scenario", reference, *common,
         "--placement", cli.data_path("scenarios", "reference_fleet_nodes4.json"),
         "--baseline", out / "solo.json", "--event-log", out / "events.csv",
         "--out", out / "placed.json"],
        ["simulate", "--scenario", reference, cli.data_path("scenarios", "demo_fleet.json"),
         *common, "--out", out / "fan"],
        ["simulate", "--scenario", reference, *common,
         "--placement", cli.data_path("scenarios", "reference_fleet_nodes2.json"),
         "--limit", 5, "--out", out / "limited.json"],
        ["train", "--corpus", corpus, "--epochs", 1, "--batch-size", 4,
         "--out", out / "weights.json", "--history", out / "history.json"],
    ]


_PINNED_DIGESTS = {
    "events.csv":
        "06a67a2c14feabb19ace82a9ce803094d1b7c011080cf1023bc7f6badc5a4a5c",
    "fan/demo_fleet_report.json":
        "63b67bbb8a0f7179cd00151722ab47f762b93b982e162c5b8ee2b0f2e4f0e478",
    "fan/reference_fleet_report.json":
        "b8624007edfc327334f7b0d30397bf170858661524690d5e923e4005a48c4ac1",
    "history.json":
        "67744efbe8a648707d365deefd6972d745d75ae59fb60b7d2ea47f249c9bbc94",
    "limited.json":
        "5dcd42c7c9993653630a46f5a77c62b946da7139de260193486d4a82ad200a94",
    "placed.json":
        "36485dc5e1292850849cdf4fdc580092acbc23f1aa740b599e21e964c0628170",
    "solo.json":
        "b8624007edfc327334f7b0d30397bf170858661524690d5e923e4005a48c4ac1",
    "weights.json":
        "9af3a8d055b707fd42ed4490b179c8687a6dd1ee2a09c7f1cb9e57bc76bbf2e5",
}


def test_cli_output_bytes_pinned(small_corpus, tmp_path):
    for argv in _pinned_commands(small_corpus, tmp_path):
        assert run("--quiet", *argv) == 0
    assert tree_digest(tmp_path) == _PINNED_DIGESTS


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_wrong_size_image_exits_3(command, small_corpus, tmp_path, capsys):
    """A 16x16 image in a 32x32 corpus. It lies in the test split, so a
    trainer that reads the images one at a time meets it only after training."""
    corpus = tmp_path / "corpus"
    shutil.copytree(small_corpus, corpus)
    samples = read_json(corpus / "manifest.json")["samples"]
    _, test_idx = features.split_corpus([s["label"] for s in samples], 0.7,
                                        cli._DEFAULT_SEED)
    features.write_pgm(features.GrayImage(16, [k % 251 for k in range(256)], 0),
                       corpus / samples[test_idx[0]]["file"])
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "simulate": ["simulate", "--scenario", cli.data_path("scenarios", "demo_fleet.json"),
                     "--weights", cli.data_path("trained", "default_weights.json"),
                     "--event-log", out / "events.csv"],
        "train": ["train", "--epochs", 1, "--batch-size", 4, "--history", out / "h.json"],
    }[command]
    assert run("--quiet", *argv, "--corpus", corpus, "--out", out / "o.json") == 3
    assert capsys.readouterr().err == "error: expected input (32, 32, 1), got (16, 16, 1)\n"
    assert list(out.iterdir()) == []
