"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from edgemal import cnn, features, partitioning, resources, simulation
from edgemal.cli import data_path
from edgemal.errors import InfeasiblePartition, InsufficientResources
from edgemal.rng import SplitMix64

from conftest import INPUT_COUNTS, node_profiles, rand_tensor, read_json

MB = 1024 * 1024


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- 1 ---------------------------------------------------------------------

def test_criterion_1_parameter_count_oracle(default_spec):
    start = time.perf_counter()
    rng = SplitMix64(101)
    specs = [default_spec] + [resources.sample_model_spec(rng) for _ in range(199)]
    exact = True
    for i, spec in enumerate(specs):
        profile = resources.count_model_params(spec)
        model = cnn.build_model(spec, i)
        enumerated = sum(lw.weight.array.size + lw.bias.array.size
                         for lw in model.weights.values())
        if profile.total != enumerated:
            exact = False
            break
        for idx in range(len(profile.per_layer)):
            lw = model.weights.get(idx)
            have = lw.weight.array.size + lw.bias.array.size if lw else 0
            if profile.per_layer[idx] != have:
                exact = False
    elapsed = time.perf_counter() - start
    _report(1, "parameter-count oracle", exact and elapsed < 5.0,
            f"200 specs exact={exact} in {elapsed:.2f}s (< 5s)")


# -- 2 ---------------------------------------------------------------------

def _random_sim_case(seed: int):
    rng = SplitMix64(seed)
    spec = resources.sample_model_spec(rng)
    per = resources.layer_bytes(spec)
    n_nodes = 1 + rng.randint(4)
    node_specs = []
    for i in range(n_nodes):
        nid = "p" if i == 0 else f"c{i}"
        mem = max(per) + rng.randint(sum(per) + 1)
        node_specs.append(partitioning.NodeProfile(
            nid, mem, 10.0 ** (2 + rng.randint(4)), rng.uniform(0.0, 0.9),
            (float(i), 0.0)))
    links = []
    ids = [n.id for n in node_specs]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            links.append(partitioning.LinkProfile(
                a, b, rng.uniform(0.0, 0.1), 10.0 ** (3 + rng.randint(4))))
    net = partitioning.NetworkScenario(node_specs, links, 100.0, "p")
    try:
        placement = partitioning.partition_layers(spec, node_specs)
    except InfeasiblePartition:
        return None
    model = cnn.build_model(spec, seed)
    xs = [rand_tensor(spec.input_shape, seed * 977 + i, -40.0, 40.0)
          for i in range(INPUT_COUNTS[rng.randint(len(INPUT_COUNTS))])]
    faults = []
    children = [nid for nid, _ in placement.assignments if nid != "p"]
    if children and rng.randint(2):
        faults.append(simulation.FaultEvent(
            children[rng.randint(len(children))], rng.uniform(0.0, 1.0)))
    return net, placement, model, xs, faults


def test_criterion_2_distributed_inference_exactness():
    """`simulate_inference`'s batched outputs against per-sample `forward`."""
    start = time.perf_counter()
    checked = 0
    inputs = 0
    seed = 0
    exact = True
    while checked < 100:
        case = _random_sim_case(seed)
        seed += 1
        if case is None:
            continue
        net, placement, model, xs, faults = case
        report = simulation.simulate_inference(net, placement, model, xs, faults)
        for out, x in zip(report.outputs, xs):
            if not np.array_equal(out, cnn.forward(model, x).array):
                exact = False
        exact = exact and len(report.outputs) == len(xs)
        checked += 1
        inputs += len(xs)
    elapsed = time.perf_counter() - start
    _report(2, "distributed-inference exactness", exact and elapsed < 60.0,
            f"100 tuples ({inputs} inputs) bit-identical={exact} "
            f"in {elapsed:.2f}s (< 60s)")


# -- 3 ---------------------------------------------------------------------

def _random_small_model(seed: int):
    """Random conv/pool/dense stack under 5000 parameters. Weights are scaled
    so pre-activations clear the relu/pool kinks at the 1e-3 probe step."""
    rng = SplitMix64(seed)
    side = 5 + rng.randint(4)
    channels = 1 + rng.randint(2)
    layers = [cnn.LayerSpec("Input")]
    cur = (side, side, channels)
    if rng.randint(2):
        k = 2 + rng.randint(2)
        f = 1 + rng.randint(3)
        layers.append(cnn.LayerSpec("Conv", kernel_w=k, kernel_h=k, filters=f,
                                    activation="relu" if rng.randint(2) else "none"))
        cur = (cur[0] - k + 1, cur[1] - k + 1, f)
        if rng.randint(2) and min(cur[0], cur[1]) >= 2:
            layers.append(cnn.LayerSpec("Pool", pool_window=2))
            cur = (cur[0] // 2, cur[1] // 2, cur[2])
    layers.append(cnn.LayerSpec("Flatten"))
    if rng.randint(2):
        layers.append(cnn.LayerSpec("Dense", units=2 + rng.randint(6),
                                    activation="relu" if rng.randint(2) else "none"))
    layers.append(cnn.LayerSpec("Softmax", units=2 + rng.randint(4)))
    spec = cnn.ModelSpec((side, side, channels), tuple(layers))
    model = cnn.build_model(spec, seed * 7 + 1)
    for lw in model.weights.values():
        lw.weight = cnn.Tensor(lw.weight.array * np.float32(8.0))
        lw.bias = cnn.Tensor(lw.bias.array * np.float32(8.0))
    x = rand_tensor(spec.input_shape, seed * 13 + 5)
    label = SplitMix64(seed + 99).randint(spec.layers[-1].units)
    return model, x, label


def test_criterion_3_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model, x, label = _random_small_model(seed)
        n_params = sum(lw.weight.array.size + lw.bias.array.size
                       for lw in model.weights.values())
        assert n_params <= 5000
        worst = max(worst, cnn.backward_check(model, x, label))
    elapsed = time.perf_counter() - start
    _report(3, "gradient check", worst <= 1e-4 and elapsed < 60.0,
            f"max rel err {worst:.3e} (<= 1e-4) over 20 models in "
            f"{elapsed:.2f}s (< 60s)")


# -- 4 ---------------------------------------------------------------------

def test_criterion_4_regressor_fidelity():
    reg = resources.fit_regressor(resources.build_regressor_dataset(11, 600))
    xs, ys = resources.build_regressor_dataset(99, 1000)
    hits = 0
    for x, y in zip(xs, ys):
        pred = 1.0 if resources.regressor_score(reg, x) >= 0.5 else 0.0
        hits += pred == y
    rate = hits / len(ys)
    _report(4, "regressor fidelity", rate >= 0.95,
            f"agreement {rate:.3f} (>= 0.95) on 1000 held-out cases")


# -- 5 ---------------------------------------------------------------------

def _brute_force_prefix(candidates, model_bytes, max_nodes):
    for size in range(1, min(max_nodes, len(candidates)) + 1):
        if sum(n.mem_free_bytes for n in candidates[:size]) >= model_bytes:
            return [n.id for n in candidates[:size]]
    return None


def test_criterion_5_greedy_minimal_prefix():
    rng = SplitMix64(55)
    mismatches = 0
    for _ in range(500):
        n_nodes = 2 + rng.randint(9)  # up to 10 nodes
        nodes = [partitioning.NodeProfile("p", rng.randint(4 * MB), 1e6, 0.0,
                                          (0.0, 0.0))]
        links = []
        for i in range(n_nodes - 1):
            nid = f"c{i}"
            nodes.append(partitioning.NodeProfile(
                nid, rng.randint(4 * MB), 1e6, rng.uniform(), (float(i + 1), 0.0)))
            links.append(partitioning.LinkProfile(
                "p", nid, rng.uniform(0.0, 0.2), 10.0 ** (5 + rng.randint(3))))
        net = partitioning.NetworkScenario(nodes, links, 100.0, "p")
        model_bytes = 1 + rng.randint(10 * MB)
        max_nodes = 1 + rng.randint(6)
        candidates = partitioning.candidate_order(net, "p", 100.0)
        expected = _brute_force_prefix(candidates, model_bytes, max_nodes)
        try:
            chosen = [n.id for n in partitioning.select_nodes(
                net, "p", 100.0, model_bytes, max_nodes)]
        except InsufficientResources:
            chosen = None
        if chosen != expected:
            mismatches += 1
    _report(5, "greedy minimal prefix", mismatches == 0,
            f"{mismatches} mismatches vs brute force over 500 networks")


# -- 6 ---------------------------------------------------------------------

def test_criterion_6_detection_accuracy(default_spec):
    start = time.perf_counter()
    bundle = features.gen_synthetic_corpus(samples_per_class=200, seed=42)
    ranked = features.rank_events(bundle.traces)
    selected = features.select_top_events(ranked, 8)
    columns = [bundle.traces.event_names.index(name) for name in selected]
    images = features.corpus_images(bundle, columns)
    labels = [img.label for img in images]
    tensors = [features.image_to_tensor(img) for img in images]
    train_idx, test_idx = features.split_corpus(labels, 0.7, 42)

    model = cnn.build_model(default_spec, 42)
    trained, _ = cnn.train_model(
        model, np.stack([tensors[i].array for i in train_idx]), [labels[i] for i in train_idx],
        epochs=60, learning_rate=0.1, batch_size=32, seed=42, clip_norm=0.5)
    hits = sum(int(np.argmax(cnn.forward(trained, tensors[i]).array)) == labels[i]
               for i in test_idx)
    accuracy = hits / len(test_idx)
    elapsed = time.perf_counter() - start
    _report(6, "detection accuracy stand-in",
            accuracy >= 0.90 and elapsed < 600.0,
            f"test accuracy {accuracy:.4f} (>= 0.90) on {len(test_idx)} held-out"
            f" samples in {elapsed:.0f}s (< 600s)")


# -- 7 and 8 ------------------------------------------------------------------

def _reference_runs(default_spec):
    scenario = partitioning.scenario_from_json(
        read_json(data_path("scenarios", "reference_fleet.json")))
    model = cnn.build_model(default_spec, 42)
    x = rand_tensor((32, 32, 1), 0, -128.0, 127.0)
    # the on-device run, built as `--nodes parent-only` builds it
    solo = partitioning.select_nodes(scenario, scenario.parent_id, scenario.radius_r,
                                     resources.model_bytes(default_spec), 1)
    base = simulation.simulate_inference(
        scenario, partitioning.partition_layers(default_spec, solo), model, [x])
    runs = [(1, base)]
    for k in (2, 3, 4):
        placement = partitioning.placement_from_json(
            read_json(data_path("scenarios", f"reference_fleet_nodes{k}.json")))
        runs.append((k, simulation.simulate_inference(
            scenario, placement, model, [x])))
    return runs


def test_criterion_7_calibrated_latency(default_spec):
    runs = _reference_runs(default_spec)
    base = runs[0][1]
    latency = {k: report.total_latency_max_sec for k, report in runs}
    speed2 = simulation.speedup(base, runs[1][1])
    speed4 = simulation.speedup(base, runs[3][1])
    ok = (abs(latency[1] - 98.0) <= 0.98
          and abs(speed2 - 4.0) <= 0.4
          and abs(speed4 - 9.8) <= 0.98)
    series = [latency[k] for k, _ in runs]
    monotone = all(series[i] >= series[i + 1] for i in range(len(series) - 1))
    _report(7, "calibrated latency reproduction", ok and monotone,
            f"parent-only {latency[1]:.2f}s (98 +/- 1%), 2-node {speed2:.3f}x "
            f"(4.0 +/- 10%), 4-node {speed4:.3f}x (9.8 +/- 10%), "
            f"monotone={monotone} over {series}")


def test_criterion_8_resource_report_shape(default_spec):
    runs = _reference_runs(default_spec)
    shape_ok = True
    multi_runs = 0
    for k, report in runs[1:]:
        table = simulation.resource_report(report)
        parent_bytes = table[0]["bytes_consumed"]
        multi_runs += 1
        if any(parent_bytes <= row["bytes_consumed"] for row in table[1:]):
            shape_ok = False

    # demo fleet, automatically partitioned
    demo = partitioning.scenario_from_json(
        read_json(data_path("scenarios", "demo_fleet.json")))
    mem = resources.model_bytes(default_spec)
    chosen = partitioning.select_nodes(demo, demo.parent_id, demo.radius_r,
                                       mem, demo.max_nodes)
    placement = partitioning.partition_layers(default_spec, chosen)
    model = cnn.build_model(default_spec, 42)
    report = simulation.simulate_inference(demo, placement, model,
                                           [rand_tensor((32, 32, 1), 1)])
    table = simulation.resource_report(report)
    multi_runs += 1
    if any(table[0]["bytes_consumed"] <= row["bytes_consumed"]
           for row in table[1:]):
        shape_ok = False

    # a model estimated at exactly 4 MB reports exactly those bytes on one node
    four_mb_spec = cnn.ModelSpec((511, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Softmax", units=8),
    ))
    estimate = resources.model_bytes(four_mb_spec)
    assert estimate == 4 * MB
    solo = partitioning.NetworkScenario(
        [partitioning.NodeProfile("solo", 8 * MB, 1e6, 0.0, (0.0, 0.0))],
        [], 10.0, "solo")
    solo_model = cnn.build_model(four_mb_spec, 0)
    solo_nodes = partitioning.select_nodes(solo, "solo", solo.radius_r, estimate, 1)
    solo_report = simulation.simulate_inference(
        solo, partitioning.partition_layers(four_mb_spec, solo_nodes), solo_model,
        [rand_tensor((511, 1, 1), 2)])
    exact = solo_report.per_node["solo"].bytes_consumed == estimate
    _report(8, "resource-report shape", shape_ok and exact,
            f"parent > children in {multi_runs} multi-node runs; "
            f"single-node 4MB reports {solo_report.per_node['solo'].bytes_consumed}"
            f" bytes (expected {estimate})")


# -- 9 ---------------------------------------------------------------------

def _two_pass_rho(traces: features.TraceSet, column: int) -> float:
    x = traces.rows[:, column]
    best = 0.0
    best_abs = 0.0
    for k in range(len(traces.class_names)):
        y = (traces.labels == k).astype(np.float64)
        mx = x.mean()
        my = y.mean()
        cov = float(((x - mx) * (y - my)).mean())
        vx = float(((x - mx) ** 2).mean())
        vy = float(((y - my) ** 2).mean())
        if vx <= 0.0 or vy <= 0.0:
            continue
        r = cov / math.sqrt(vx * vy)
        if abs(r) > best_abs:
            best_abs = abs(r)
            best = r
    return best


def test_criterion_9_event_ranking_recovery():
    # with two classes the one-vs-rest indicators are complements, so the
    # per-class correlations tie at +/-|rho| exactly; the implementations may
    # break that tie either way, so the oracle compares magnitudes
    hits = 0
    max_gap = 0.0
    for seed in range(100):
        bundle = features.gen_synthetic_corpus(
            samples_per_class=12, events=17, noise=4.0, classes=2, seed=seed)
        ranked = features.rank_events(bundle.traces)
        planted = f"event_{bundle.planted[1][0]}"
        if ranked[0].name == planted:
            hits += 1
        by_name = {r.name: r.rho for r in ranked}
        for col, name in enumerate(bundle.traces.event_names):
            gap = abs(abs(by_name[name]) - abs(_two_pass_rho(bundle.traces, col)))
            max_gap = max(max_gap, gap)
    _report(9, "event-ranking recovery", hits >= 95 and max_gap <= 1e-9,
            f"planted event first in {hits}/100 seeds (>= 95); streaming vs "
            f"two-pass max |rho| gap {max_gap:.2e} (<= 1e-9)")


# -- 10 --------------------------------------------------------------------

def test_criterion_10_fault_resilience():
    handled = 0
    exact = 0
    for trial in range(50):
        rng = SplitMix64(3000 + trial)
        spec = resources.sample_model_spec(rng)
        per = resources.layer_bytes(spec)
        split = 1 + rng.randint(len(per) - 1)
        budgets = node_profiles([("p", sum(per[:split])), ("c", sum(per[split:]))])
        placement = partitioning.partition_layers(spec, budgets)
        nodes = [
            partitioning.NodeProfile("p", sum(per), 10.0 ** (2 + rng.randint(3)),
                                     rng.uniform(0.0, 0.5), (0.0, 0.0)),
            partitioning.NodeProfile("c", sum(per[split:]),
                                     10.0 ** (2 + rng.randint(3)),
                                     rng.uniform(0.0, 0.5), (1.0, 0.0)),
        ]
        net = partitioning.NetworkScenario(
            nodes, [partitioning.LinkProfile("p", "c", rng.uniform(0.0, 0.05),
                                             1e6)], 10.0, "p")
        model = cnn.build_model(spec, trial)
        xs = [rand_tensor(spec.input_shape, trial * 53 + i, -40.0, 40.0)
              for i in range(3)]
        clean = simulation.simulate_inference(net, placement, model, xs)
        # fault inside the child's active window, so work is still pending
        starts = [ev.time_sec for ev in clean.events
                  if ev.node_id == "c" and ev.kind == "compute_start"]
        mid = starts[0] + rng.uniform(0.0, 1.0) * (starts[-1] - starts[0])
        report = simulation.simulate_inference(
            net, placement, model, xs, [simulation.FaultEvent("c", mid)])
        if report.faults_handled == 1:
            handled += 1
        if all(np.array_equal(out, cnn.forward(model, x).array)
               for out, x in zip(report.outputs, xs)):
            exact += 1
    _report(10, "fault resilience", handled == 50 and exact == 50,
            f"faults handled in {handled}/50 trials, outputs exact in {exact}/50")
