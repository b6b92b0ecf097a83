"""The three benchmark workloads: ``corpus``, ``train`` and ``fleet``.

Every workload drives the public CLI in-process through ``edgemal.cli.main``
as a closed loop with one client: each command starts only after the
previous one returned. A workload has three phases:

* ``setup(r)`` prepares the inputs; the runner repeats it and reports the
  median as ``setup_s``;
* ``iterate(i)`` runs one timed iteration and returns the work items it
  completed (images written, samples trained, inputs simulated);
* ``check()`` runs after the timed loop and checks every output.

Outputs stay on disk until ``check`` has run. Each command records the paths
it writes, so the same command of two iterations can be compared by digest:
the same seed must give byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from edgemal import cli, cnn, features, partitioning, simulation

import fleetgen

MODEL_BYTES = 8_953_856          # default model at 1 KB per parameter
PLANTED_EVENTS = 5               # event_0 .. event_4 carry the class shifts
TRAIN_SEED = 42                  # the shipped training recipe's seed
SPEEDUP_4_NODES = (9.8, 0.98)    # calibrated 4-node reference speedup, +/- 10%

SIZES = {
    # per_class: corpus size; epochs: train command; ref_limit: inputs of
    # each reference-fleet simulation
    "full": {"per_class": 200, "epochs": 12, "ref_limit": 300},
    "tiny": {"per_class": 3, "epochs": 1, "ref_limit": 4},
}
CLASSES = 6
TRAIN_FRAC = 0.7


def tree_digest(paths) -> str:
    """SHA-256 over the bytes of each path in order; for a directory, over the
    relative names and bytes of every file under it. A missing path hashes
    differently from an empty file."""
    h = hashlib.sha256()
    for root in map(Path, paths):
        if root.is_dir():
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                h.update(str(path.relative_to(root)).encode() + b"\0"
                         + path.read_bytes() + b"\0")
        elif root.exists():
            h.update(b"file\0" + root.read_bytes() + b"\0")
        else:
            h.update(b"missing\0")
    return h.hexdigest()


def count_files(paths) -> int:
    total = 0
    for root in paths:
        root = Path(root)
        if root.is_dir():
            total += sum(1 for p in root.rglob("*") if p.is_file())
        elif root.exists():
            total += 1
    return total


class Command:
    """One CLI call: what was run, what it returned, what it wrote."""

    def __init__(self, argv, expect, outputs, phase, iteration, slot, run_id):
        self.argv = argv
        self.expect = expect
        self.outputs = [Path(p) for p in outputs]
        self.phase = phase
        self.iteration = iteration
        self.slot = slot
        self.run_id = run_id
        self.code = None
        self.wall = 0.0
        self.stdout = ""
        self.stderr = ""
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def summary(self) -> dict:
        return {"argv": self.argv, "phase": self.phase, "iteration": self.iteration,
                "code": self.code, "expect": self.expect, "wall_s": self.wall,
                "failures": self.failures}


class Bench:
    """Runs CLI commands for one workload and keeps their records."""

    def __init__(self, work: Path, tracer=None) -> None:
        self.work = work
        self.tracer = tracer
        self.commands: list[Command] = []
        self.phase = "setup"
        self.iteration = 0
        self._slot = 0
        self._run_id = 0

    def start(self, phase: str, iteration: int) -> None:
        self.phase = phase
        self.iteration = iteration
        self._slot = 0

    def cli(self, argv, *, outputs=(), expect: int = 0) -> Command:
        argv = [str(a) for a in argv]
        self._run_id += 1
        if self.tracer is not None:
            self.tracer.run_id = self._run_id
        cmd = Command(argv, expect, outputs, self.phase, self.iteration,
                      self._slot, self._run_id)
        self._slot += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cmd.code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            cmd.code = exc.code
        except Exception as exc:  # an escaped traceback is a failed command
            cmd.code = f"{type(exc).__name__}: {exc}"
        cmd.wall = time.perf_counter() - start
        cmd.stdout, cmd.stderr = out.getvalue(), err.getvalue()
        cmd.check(cmd.code == expect,
                  f"exit {cmd.code!r}, expected {expect}: {cmd.stderr.strip()[-300:]}")
        self.commands.append(cmd)
        return cmd

    def check_repeats(self) -> None:
        """The same command of every iteration (and of every set-up repeat)
        must leave byte-identical outputs."""
        first: dict[tuple[str, int], str] = {}
        for cmd in self.commands:
            if not cmd.outputs or cmd.expect != 0:
                continue
            digest = tree_digest(cmd.outputs)
            key = (cmd.phase, cmd.slot)
            if key not in first:
                first[key] = digest
            else:
                cmd.check(digest == first[key],
                          "outputs differ from the first repeat of this command")

    def failed(self) -> list[Command]:
        return [cmd for cmd in self.commands if cmd.failures]


def _gen_corpus_argv(seed: int, per_class: int, out: Path) -> list:
    return ["--seed", seed, "--quiet", "gen-corpus", "--out", out,
            "--per-class", per_class]


def _check_corpus(cmd: Command, out: Path, images: int) -> None:
    """Layout plus the generator's ground truth: the planted events rank on top."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        ranked = json.loads((out / "ranked_events.json").read_text())
    except (OSError, ValueError) as exc:
        cmd.check(False, f"corpus unreadable: {exc}")
        return
    cmd.check(len(manifest["samples"]) == images,
              f"{len(manifest['samples'])} samples, expected {images}")
    cmd.check(count_files([out / "images"]) == images, "image count differs")
    top = {entry["name"] for entry in ranked[:PLANTED_EVENTS]}
    planted = {f"event_{j}" for j in range(PLANTED_EVENTS)}
    cmd.check(top == planted, f"top-ranked events {sorted(top)}, planted {sorted(planted)}")


class CorpusWorkload:
    """``gen-corpus`` at defaults into a fresh directory per iteration."""

    name = "corpus"
    item = "images"

    def __init__(self, bench: Bench, seed: int, size: str) -> None:
        self.bench = bench
        self.seed = seed
        self.per_class = SIZES[size]["per_class"]
        self.images = CLASSES * self.per_class
        self.outs: dict[Command, Path] = {}

    def setup(self, repeat: int) -> None:
        """Nothing beyond the imports: gen-corpus takes only its seed."""

    def iterate(self, i: int) -> int:
        out = self.bench.work / f"corpus-{i}"
        cmd = self.bench.cli(_gen_corpus_argv(self.seed, self.per_class, out),
                             outputs=[out])
        self.outs[cmd] = out
        return self.images

    def check(self) -> None:
        for cmd, out in self.outs.items():
            _check_corpus(cmd, out, self.images)

    def summary(self) -> dict:
        return {}


class _CorpusSetup:
    """Set-up shared by ``train`` and ``fleet``: generate the corpus the timed
    commands read, once per set-up repeat, and keep the first."""

    def _setup_corpus(self, repeat: int) -> None:
        out = self.bench.work / f"setup-corpus-{repeat}"
        cmd = self.bench.cli(_gen_corpus_argv(self.seed, self.per_class, out),
                             outputs=[out])
        self.setup_cmds.append((cmd, out))
        if repeat == 0:
            self.corpus = out


class TrainWorkload(_CorpusSetup):
    """``train`` on the set-up corpus for a fixed number of epochs past the
    initial loss plateau (7 epochs at the shipped seed)."""

    name = "train"
    item = "samples"

    def __init__(self, bench: Bench, seed: int, size: str) -> None:
        self.bench = bench
        self.seed = seed
        self.per_class = SIZES[size]["per_class"]
        self.epochs = SIZES[size]["epochs"]
        self.train_samples = CLASSES * int(round(TRAIN_FRAC * self.per_class))
        self.setup_cmds: list[tuple[Command, Path]] = []
        self.runs: list[tuple[Command, Path]] = []
        self.corpus: Path | None = None

    def setup(self, repeat: int) -> None:
        self._setup_corpus(repeat)

    def iterate(self, i: int) -> int:
        weights = self.bench.work / f"weights-{i}.json"
        history = self.bench.work / f"history-{i}.json"
        cmd = self.bench.cli(
            ["--seed", TRAIN_SEED, "--quiet", "train", "--corpus", self.corpus,
             "--epochs", self.epochs, "--out", weights, "--history", history],
            outputs=[weights, history])
        self.runs.append((cmd, history))
        return self.epochs * self.train_samples

    def check(self) -> None:
        for cmd, out in self.setup_cmds:
            _check_corpus(cmd, out, CLASSES * self.per_class)
        for cmd, history in self.runs:
            try:
                doc = json.loads(history.read_text())
            except (OSError, ValueError) as exc:
                cmd.check(False, f"history unreadable: {exc}")
                continue
            losses = doc["epoch_loss"]
            cmd.check(len(losses) == self.epochs, f"{len(losses)} epoch losses")
            cmd.check(all(math.isfinite(v) for v in losses), "non-finite loss")
            cmd.check(doc["train_samples"] == self.train_samples,
                      f"{doc['train_samples']} train samples, expected {self.train_samples}")
            cmd.check(0.0 < doc["test_accuracy"] <= 1.0, "test accuracy out of range")
            self.test_accuracy = doc["test_accuracy"]

    def summary(self) -> dict:
        return {"test_accuracy": (getattr(self, "test_accuracy", float("nan")), "ratio")}


class FleetWorkload(_CorpusSetup):
    """The operator flow on seeded fleets whose parent cannot hold the model,
    a two-scenario ``simulate`` call, and the shipped reference fleet."""

    name = "fleet"
    item = "inputs"
    FLEETS = 2

    def __init__(self, bench: Bench, seed: int, size: str) -> None:
        self.bench = bench
        self.seed = seed
        self.per_class = SIZES[size]["per_class"]
        self.inputs = CLASSES * self.per_class
        self.ref_limit = SIZES[size]["ref_limit"]
        self.setup_cmds: list[tuple[Command, Path]] = []
        self.corpus: Path | None = None
        self.checks: list = []
        self.weights = cli.data_path("trained", "default_weights.json")
        self.reference = cli.data_path("scenarios", "reference_fleet.json")

    def setup(self, repeat: int) -> None:
        self._setup_corpus(repeat)
        spec = cnn.load_spec(cli.data_path("default_model.json"))
        self.model = cnn.weights_from_json(
            json.loads(self.weights.read_text()), spec)
        zero = cnn.Tensor(np.zeros(spec.input_shape, dtype=np.float32))
        rng = random.Random(self.seed)
        self.fleets = []
        for k, (doc, placement) in enumerate(
                fleetgen.gen_fleets(rng.getrandbits(64), self.FLEETS, self.model.spec)):
            path = self.bench.work / f"fleet{k}.json"
            path.write_text(json.dumps(doc, indent=1))
            fault = None
            if k == 0:
                node, when = fleetgen.fault_time(
                    rng, partitioning.scenario_from_json(doc), placement,
                    self.model, self.inputs, zero)
                fault = self.bench.work / "faults.json"
                fault.write_text(json.dumps([{"node_id": node, "time_sec": when}]))
            self.fleets.append(SimpleNamespace(path=path, doc=doc, placement=placement,
                                               faults=fault))

    def iterate(self, i: int) -> int:
        bench = self.bench
        rd = bench.work / f"round-{i}"
        rd.mkdir()
        common = ["--weights", self.weights, "--corpus", self.corpus]
        done = 0
        for k, fleet in enumerate(self.fleets):
            pre = rd / f"fleet{k}"
            parent_free = fleet.doc["nodes"][0]["mem_free_bytes"]
            est = bench.cli(["--quiet", "estimate", "--node-free", parent_free,
                             "--out", f"{pre}-estimate.json"],
                            outputs=[f"{pre}-estimate.json"])
            bad = bench.cli(["--quiet", "partition", "--scenario", fleet.path,
                             "--nodes", "parent-only", "--out", f"{pre}-parent-only.json"],
                            outputs=[f"{pre}-parent-only.json"], expect=3)
            part = bench.cli(["--quiet", "partition", "--scenario", fleet.path,
                              "--out", f"{pre}-placement.json"],
                             outputs=[f"{pre}-placement.json"])
            extra, outs = [], [f"{pre}-report.json"]
            if fleet.faults is not None:
                extra = ["--faults", fleet.faults, "--event-log", f"{pre}-events.csv"]
                outs.append(f"{pre}-events.csv")
            sim = bench.cli(["--quiet", "simulate", "--scenario", fleet.path, *common,
                             "--placement", f"{pre}-placement.json",
                             "--out", f"{pre}-report.json", *extra], outputs=outs)
            rep = bench.cli(["--quiet", "report", "--report", f"{pre}-report.json",
                             "--manifest", self.corpus / "manifest.json",
                             "--out", f"{pre}-metrics.json"],
                            outputs=[f"{pre}-metrics.json"])
            self.checks.append(partial(self._check_flow, fleet, est, bad, part,
                                       sim, rep, pre))
            done += self.inputs
        multi = rd / "multi"
        cmd = bench.cli(["--quiet", "simulate", "--scenario",
                         *[f.path for f in self.fleets], *common, "--out", multi],
                        outputs=[multi])
        for fleet in self.fleets:
            self.checks.append(partial(self._check_report, cmd,
                                       multi / f"{fleet.path.stem}_report.json",
                                       self.inputs))
        done += self.inputs * len(self.fleets)
        limit = ["--limit", self.ref_limit]
        base = rd / "reference-1.json"
        cmd = bench.cli(["--quiet", "simulate", "--scenario", self.reference, *common,
                         *limit, "--nodes", "parent-only", "--out", base],
                        outputs=[base])
        self.checks.append(partial(self._check_report, cmd, base, self.ref_limit))
        for k in (2, 3, 4):
            out = rd / f"reference-{k}.json"
            cmd = bench.cli(
                ["--quiet", "simulate", "--scenario", self.reference, *common, *limit,
                 "--placement",
                 cli.data_path("scenarios", f"reference_fleet_nodes{k}.json"),
                 "--baseline", base, "--out", out], outputs=[out])
            self.checks.append(partial(self._check_report, cmd, out, self.ref_limit))
            if k == 4:
                self.checks.append(partial(self._check_speedup, cmd, out, base))
        done += 4 * self.ref_limit
        return done

    # --- checks --------------------------------------------------------------

    def _expected_outputs(self) -> None:
        manifest = json.loads((self.corpus / "manifest.json").read_text())
        self.expected = {}
        self.labels = {}
        for entry in manifest["samples"]:
            img = features.read_pgm(self.corpus / entry["file"], entry["label"])
            out = cnn.forward(self.model, features.image_to_tensor(img)).array
            self.expected[entry["file"]] = out.astype(np.float64)
            self.labels[entry["file"]] = int(entry["label"])
        self.samples = [entry["file"] for entry in manifest["samples"]]
        self.accuracy = sum(int(np.argmax(self.expected[f])) == self.labels[f]
                            for f in self.samples) / len(self.samples)

    def _check_report(self, cmd: Command, path: Path, count: int) -> dict | None:
        """Every output bit-equal to ``cnn.forward`` on the same input."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            cmd.check(False, f"report unreadable: {exc}")
            return None
        files = doc.get("input_files") or []
        cmd.check(files == self.samples[:count], "report covers the wrong inputs")
        outputs = doc["outputs"]
        cmd.check(len(outputs) == count, f"{len(outputs)} outputs, expected {count}")
        for name, got in zip(files, outputs):
            want = self.expected.get(name)
            if want is None or not np.array_equal(np.asarray(got, dtype=np.float64), want):
                cmd.check(False, f"output for {name} differs from cnn.forward")
                break
        return doc

    def check(self) -> None:
        for cmd, out in self.setup_cmds:
            _check_corpus(cmd, out, self.inputs)
        self._expected_outputs()
        for check in self.checks:
            check()

    def _check_flow(self, fleet, est, bad, part, sim, rep, pre) -> None:
        if est.code == 0:
            doc = json.loads(Path(f"{pre}-estimate.json").read_text())
            est.check(doc["verdict"] == "Offload" and
                      doc["ground_truth_comparator"] == "Offload",
                      f"estimate verdict {doc['verdict']}, parent cannot hold the model")
            est.check(doc["model_bytes"] == MODEL_BYTES,
                      f"model_bytes {doc['model_bytes']}")
        bad.check(not Path(f"{pre}-parent-only.json").exists(),
                  "a failed partition left an output file")
        if part.code == 0:
            doc = json.loads(Path(f"{pre}-placement.json").read_text())
            part.check(doc == partitioning.placement_to_json(fleet.placement),
                       "placement differs from the library's auto-partition")
        if sim.code == 0:
            doc = self._check_report(sim, f"{pre}-report.json", self.inputs)
            if doc is not None and fleet.faults is not None:
                sim.check(doc["faults_handled"] == 1,
                          f"faults_handled {doc['faults_handled']}, expected 1")
                log = Path(f"{pre}-events.csv").read_text().splitlines()
                sim.check(log[:1] == ["time_sec,node_id,kind,bytes"] and
                          any(",fault_takeover," in line for line in log),
                          "event log lacks the fault takeover")
        if rep.code == 0:
            doc = json.loads(Path(f"{pre}-metrics.json").read_text())
            rep.check(doc["metrics"]["samples"] == self.inputs, "report sample count")
            rep.check(doc["metrics"]["accuracy"] == self.accuracy,
                      f"report accuracy {doc['metrics']['accuracy']},"
                      f" expected {self.accuracy}")

    def _check_speedup(self, cmd: Command, path: Path, base: Path) -> None:
        """The CLI's speedup is ``simulation.speedup`` and reproduces the
        calibrated 4-node figure."""
        if cmd.code != 0:
            return
        doc = json.loads(Path(path).read_text())
        base_doc = json.loads(Path(base).read_text())
        speed = simulation.speedup(
            SimpleNamespace(total_latency_max_sec=base_doc["total_latency_max_sec"]),
            SimpleNamespace(total_latency_max_sec=doc["total_latency_max_sec"]))
        cmd.check(doc.get("speedup_vs_baseline") == speed,
                  "report speedup differs from simulation.speedup")
        target, tol = SPEEDUP_4_NODES
        cmd.check(abs(speed - target) <= tol,
                  f"4-node reference speedup {speed:.3f}, expected {target} +/- {tol}")
        self.speedup = speed

    def summary(self) -> dict:
        return {"sim_speedup_x": (getattr(self, "speedup", float("nan")), "x")}


WORKLOADS = {w.name: w for w in (CorpusWorkload, TrainWorkload, FleetWorkload)}
