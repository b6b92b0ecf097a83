"""Tiny-size self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks two things on every workload at the tiny input size:

* each end-to-end metric (``--trace 0``) and each per-layer metric
  (``--trace 1``) of BENCHMARK.json is emitted with its unit, on a correct
  run, in a last line of the contract's shape;
* a deliberately corrupted output is counted as a failure.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SEED = 5


def run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(workload: str):
    """A cli.main wrapper that damages one output after the real command."""
    from edgemal import cli
    real = cli.main
    seen = {"n": 0}

    def damaged(argv):
        code = real(argv)
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        if workload == "corpus" and "gen-corpus" in argv:
            seen["n"] += 1
            if seen["n"] == 2:
                pgm = out / "images" / "img_000000.pgm"
                blob = bytearray(pgm.read_bytes())
                blob[-1] ^= 0xFF
                pgm.write_bytes(bytes(blob))
        elif workload == "train" and "train" in argv:
            seen["n"] += 1
            if seen["n"] == 2:
                out.write_text(out.read_text().replace("0", "1", 1))
        elif workload == "fleet" and "simulate" in argv and "--event-log" in argv:
            doc = json.loads(out.read_text())
            doc["outputs"][0][0] += 1e-3
            out.write_text(json.dumps(doc))
        return code

    return real, damaged


def main() -> int:
    sys.path.insert(0, "src")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_cli(workload, trace)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{workload}/trace{trace}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{workload}/trace{trace}: tiny run not correct: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != want:
                errors.append(f"{workload}/trace{trace}: metrics differ from "
                              f"BENCHMARK.json {key}: {sorted(set(got) ^ set(want))}")

        from edgemal import cli
        real, damaged = corrupt(workload)
        cli.main = damaged
        try:
            record = run.run(run.parse_args(["--workload", workload, "--seed", str(SEED),
                                             "--seconds", "1", "--size", "tiny"]))
        finally:
            cli.main = real
        result = record["result"]
        if result["correct"] or result["failed"] < 1:
            errors.append(f"{workload}: corrupted output not counted as failed: {result}")

    record = Path(f".perfbench/results/fleet-seed{SEED}-trace1.json")
    fleet = json.loads(record.read_text())
    ratios = fleet["summary"]["simulate_layer_forward_per_input"]["value"]
    if sorted(set(ratios)) != [1.0, 2.0]:
        errors.append(f"layer_forward_per_input per simulate command: {ratios}")

    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
