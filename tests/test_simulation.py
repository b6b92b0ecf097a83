import hashlib
import json

import numpy as np
import pytest

from edgemal import cnn, partitioning, resources, simulation
from edgemal.cli import data_path
from edgemal.errors import (
    InfeasiblePartition,
    InsufficientResources,
    InvalidFault,
    InvalidPlacement,
    ShapeMismatch,
    UnroutableTransfer,
)
from edgemal.rng import SplitMix64

from conftest import INPUT_COUNTS, count_forward_batch, rand_tensor, read_json

MB = 1024 * 1024


def fleet(node_specs, links, parent="p", radius=100.0):
    nodes = [partitioning.NodeProfile(nid, mem, speed, wl, pos)
             for nid, mem, speed, wl, pos in node_specs]
    link_objs = [partitioning.LinkProfile(a, b, lat, bw) for a, b, lat, bw in links]
    return partitioning.NetworkScenario(nodes, link_objs, radius, parent)


def on_device(net, node_id, model, xs):
    """Whole-model inference on one node: the reference run for speedup."""
    placement = partitioning.Placement(
        [(node_id, (0, len(model.spec.layers)))], node_id)
    return simulation.simulate_inference(net, placement, model, xs)


@pytest.fixture(scope="module")
def balanced_spec():
    # flop chain [0, 0, 32, 16, 16]: layers 0-2 and 3-4 both cost 32
    return cnn.ModelSpec((8, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=2, activation="relu"),
        cnn.LayerSpec("Dense", units=4, activation="relu"),
        cnn.LayerSpec("Softmax", units=2),
    ))


# --- on-device timing ---

def test_on_device_busy_is_flops_over_speed(tiny_spec):
    model = cnn.build_model(tiny_spec, 1)
    flops = cnn.model_flops(tiny_spec)
    net = fleet([("p", 10 * MB, 10.0, 0.0, (0, 0))], [])
    report = on_device(net, "p", model, [rand_tensor((6, 6, 1), 0)])
    assert report.total_latency_max_sec == pytest.approx(flops / 10.0)
    assert report.per_node["p"].bytes_consumed == resources.model_bytes(tiny_spec)


def test_on_device_workload_halves_speed(tiny_spec):
    model = cnn.build_model(tiny_spec, 1)
    flops = cnn.model_flops(tiny_spec)
    net = fleet([("p", 10 * MB, 10.0, 0.5, (0, 0))], [])
    report = on_device(net, "p", model, [rand_tensor((6, 6, 1), 0)])
    assert report.total_latency_max_sec == pytest.approx(2 * flops / 10.0)


def test_on_device_outputs_match_forward(tiny_spec):
    model = cnn.build_model(tiny_spec, 2)
    xs = [rand_tensor((6, 6, 1), i) for i in range(4)]
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0))], [])
    report = on_device(net, "p", model, xs)
    for out, x in zip(report.outputs, xs):
        assert np.array_equal(out, cnn.forward(model, x).array)


def test_on_device_insufficient_memory(tiny_spec):
    model = cnn.build_model(tiny_spec, 1)
    net = fleet([("p", 10, 10.0, 0.0, (0, 0))], [])
    with pytest.raises(InvalidPlacement, match="MemoryExceeded"):
        on_device(net, "p", model, [])


def test_on_device_no_spare_capacity(tiny_spec):
    model = cnn.build_model(tiny_spec, 1)
    net = fleet([("p", 10 * MB, 10.0, 1.0, (0, 0))], [])
    with pytest.raises(InsufficientResources):
        on_device(net, "p", model, [])


def test_on_device_unknown_or_offline_node(tiny_spec):
    model = cnn.build_model(tiny_spec, 1)
    net = partitioning.NetworkScenario(
        [partitioning.NodeProfile("p", 10 * MB, 10.0),
         partitioning.NodeProfile("q", 10 * MB, 10.0, online=False)],
        [], 100.0, "p")
    for node_id, kind in (("x", "UnknownNode"), ("q", "NodeOffline")):
        with pytest.raises(InvalidPlacement, match=kind):
            on_device(net, node_id, model, [])


def test_on_device_is_single_node_placement(tiny_spec):
    model = cnn.build_model(tiny_spec, 2)
    xs = [rand_tensor((6, 6, 1), i) for i in range(5)]
    net = fleet([("p", 10 * MB, 1e3, 0.25, (0, 0))], [])
    solo = on_device(net, "p", model, xs)
    assert list(solo.per_node) == ["p"]
    assert solo.per_node["p"].layers_executed == len(xs) * len(tiny_spec.layers)
    # back-to-back inputs: each starts when the previous one ends
    per_input = cnn.model_flops(tiny_spec) / (1e3 * 0.75)
    expected = []
    clock = 0.0
    for _ in xs:
        expected.append((clock, "compute_start"))
        clock += per_input
        expected.append((clock, "compute_end"))
    assert [(e.time_sec, e.kind) for e in solo.events] == expected
    assert solo.total_latency_pipeline_sec == per_input


# --- pipeline timing ---

def test_equal_split_halves_latency(balanced_spec):
    model = cnn.build_model(balanced_spec, 3)
    net = fleet([("p", MB, 8.0, 0.0, (0, 0)), ("c", MB, 8.0, 0.0, (1, 0))],
                [("p", "c", 0.0, 1e12)])
    placement = partitioning.Placement([("p", (0, 3)), ("c", (3, 5))], "p")
    xs = [rand_tensor((8, 1, 1), i) for i in range(10)]
    base = on_device(net, "p", model, xs)
    par = simulation.simulate_inference(net, placement, model, xs)
    assert simulation.speedup(base, par) == pytest.approx(2.0)


def test_latency_non_increasing_in_node_count(balanced_spec):
    # zero communication cost and balanced splits: more nodes never slower
    model = cnn.build_model(balanced_spec, 3)
    net = fleet([("p", MB, 8.0, 0.0, (0, 0)), ("c1", MB, 8.0, 0.0, (1, 0)),
                 ("c2", MB, 8.0, 0.0, (2, 0))],
                [("p", "c1", 0.0, 1e12), ("c1", "c2", 0.0, 1e12)])
    xs = [rand_tensor((8, 1, 1), i) for i in range(8)]
    one = on_device(net, "p", model, xs)
    two = simulation.simulate_inference(
        net, partitioning.Placement([("p", (0, 3)), ("c1", (3, 5))], "p"),
        model, xs)
    three = simulation.simulate_inference(
        net, partitioning.Placement(
            [("p", (0, 3)), ("c1", (3, 4)), ("c2", (4, 5))], "p"),
        model, xs)
    series = [r.total_latency_max_sec for r in (one, two, three)]
    assert series[0] >= series[1] >= series[2]


def test_transfer_time_enters_pipeline_metric(balanced_spec):
    model = cnn.build_model(balanced_spec, 3)
    net = fleet([("p", MB, 8.0, 0.0, (0, 0)), ("c", MB, 8.0, 0.0, (1, 0))],
                [("p", "c", 0.25, 16.0)])
    placement = partitioning.Placement([("p", (0, 3)), ("c", (3, 5))], "p")
    par = simulation.simulate_inference(net, placement, model,
                                        [rand_tensor((8, 1, 1), 0)])
    # one 8-byte cut (two float32s) at 16 B/s plus 0.25 s latency
    expected = 32 / 8.0 + 32 / 8.0 + 0.25 + 8 / 16.0
    assert par.total_latency_pipeline_sec == pytest.approx(expected)
    assert par.per_node["p"].transfer_sec == pytest.approx(0.25 + 8 / 16.0)


def test_conservation_of_layer_executions(tiny_spec):
    model = cnn.build_model(tiny_spec, 4)
    net = fleet([("p", MB, 1e3, 0.0, (0, 0)), ("c", MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.01, 1e6)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    xs = [rand_tensor((6, 6, 1), i) for i in range(5)]
    report = simulation.simulate_inference(net, placement, model, xs)
    total = sum(u.layers_executed for u in report.per_node.values())
    assert total == len(tiny_spec.layers) * len(xs)


def test_latency_recomputable_from_event_log(tiny_spec):
    model = cnn.build_model(tiny_spec, 4)
    net = fleet([("p", MB, 1e3, 0.0, (0, 0)), ("c", MB, 2e3, 0.0, (1, 0))],
                [("p", "c", 0.02, 1e5)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    xs = [rand_tensor((6, 6, 1), i) for i in range(4)]
    report = simulation.simulate_inference(net, placement, model, xs)
    busy = {nid: 0.0 for nid in report.per_node}
    starts = {}
    for ev in report.events:
        if ev.kind == "compute_start":
            starts.setdefault(ev.node_id, []).append(ev.time_sec)
        elif ev.kind == "compute_end":
            busy[ev.node_id] += ev.time_sec - starts[ev.node_id].pop(0)
    for nid, usage in report.per_node.items():
        assert busy[nid] == pytest.approx(usage.busy_sec)
    recomputed = max(busy[nid] + report.per_node[nid].transfer_sec
                     for nid in report.per_node)
    assert recomputed == pytest.approx(report.total_latency_max_sec)


# --- distributed exactness ---

def random_case(seed):
    rng = SplitMix64(seed)
    spec = resources.sample_model_spec(rng)
    per = resources.layer_bytes(spec)
    n_nodes = 1 + rng.randint(4)
    node_specs = []
    links = []
    for i in range(n_nodes):
        nid = "p" if i == 0 else f"c{i}"
        mem = max(per) + rng.randint(sum(per) + 1)
        node_specs.append((nid, mem, 10.0 ** (2 + rng.randint(4)),
                           rng.uniform(0.0, 0.9), (float(i), 0.0)))
    ids = [ns[0] for ns in node_specs]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            links.append((a, b, rng.uniform(0.0, 0.1), 10.0 ** (3 + rng.randint(4))))
    net = fleet(node_specs, links)
    try:
        placement = partitioning.partition_layers(spec, net.nodes)
    except InfeasiblePartition:
        return None
    model = cnn.build_model(spec, seed)
    xs = [rand_tensor(spec.input_shape, seed * 31 + i, -40.0, 40.0)
          for i in range(INPUT_COUNTS[rng.randint(len(INPUT_COUNTS))])]
    faults = []
    children = [nid for nid, _ in placement.assignments if nid != "p"]
    if children and rng.randint(2):
        faults.append(simulation.FaultEvent(children[rng.randint(len(children))],
                                            rng.uniform(0.0, 1.0)))
    return net, placement, model, xs, faults


def test_distributed_outputs_exact_randomized():
    """`simulate_inference`'s batched outputs against per-sample `forward`,
    on random models, placements, faults and input counts."""
    checked = 0
    seed = 0
    while checked < 30:
        assert seed < 1000, f"only {checked} feasible cases in {seed} seeds"
        case = random_case(seed)
        seed += 1
        if case is None:
            continue
        net, placement, model, xs, faults = case
        report = simulation.simulate_inference(net, placement, model, xs, faults)
        assert len(report.outputs) == len(xs)
        for out, x in zip(report.outputs, xs):
            assert np.array_equal(out, cnn.forward(model, x).array)
        checked += 1


def test_event_log_deterministic(tiny_spec):
    model = cnn.build_model(tiny_spec, 4)
    net = fleet([("p", MB, 1e3, 0.0, (0, 0)), ("c", MB, 1e3, 0.2, (1, 0))],
                [("p", "c", 0.01, 1e6)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    xs = [rand_tensor((6, 6, 1), i) for i in range(3)]
    faults = [simulation.FaultEvent("c", 0.02)]
    a = simulation.simulate_inference(net, placement, model, xs, faults)
    b = simulation.simulate_inference(net, placement, model, xs, faults)
    assert a.events == b.events


# --- faults ---

def test_child_fault_redirects_to_parent(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)), ("c", 10 * MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.001, 1e7)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    xs = [rand_tensor((6, 6, 1), i) for i in range(6)]
    clean = simulation.simulate_inference(net, placement, model, xs)
    mid = clean.total_latency_max_sec / 3.0
    faulty = simulation.simulate_inference(net, placement, model, xs,
                                           [simulation.FaultEvent("c", mid)])
    assert faulty.faults_handled == 1
    assert faulty.per_node["p"].busy_sec > clean.per_node["p"].busy_sec
    for out, x in zip(faulty.outputs, xs):
        assert np.array_equal(out, cnn.forward(model, x).array)


def test_fault_before_start_takes_everything(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)), ("c", 10 * MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.001, 1e7)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    report = simulation.simulate_inference(net, placement, model,
                                           [rand_tensor((6, 6, 1), 0)],
                                           [simulation.FaultEvent("c", 0.0)])
    assert report.faults_handled == 1
    assert report.per_node["c"].layers_executed == 0
    assert report.per_node["p"].layers_executed == 6
    # everything ran on the parent, so nothing crossed the link
    assert report.per_node["p"].transfer_sec == 0.0
    assert not [ev for ev in report.events if ev.kind == "transfer"]


def test_parent_over_capacity_warns_but_continues(tiny_spec):
    per = resources.layer_bytes(tiny_spec)
    parent_mem = sum(per[:4]) + 1  # own range only, no headroom for the rest
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", parent_mem, 1e3, 0.0, (0, 0)),
                 ("c", 10 * MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.001, 1e7)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    report = simulation.simulate_inference(net, placement, model,
                                           [rand_tensor((6, 6, 1), 0)],
                                           [simulation.FaultEvent("c", 0.0)])
    assert report.faults_handled == 1
    assert any(w.startswith("ParentOverCapacity") for w in report.warnings)


def test_fault_on_parent_rejected(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0))], [])
    placement = partitioning.Placement([("p", (0, 6))], "p")
    with pytest.raises(InvalidFault):
        simulation.simulate_inference(net, placement, model, [],
                                      [simulation.FaultEvent("p", 1.0)])


def test_unroutable_fault_transfer(tiny_spec):
    # c1 fails; stage 2 runs on the parent, then stage 3 needs p -> c2
    # which has no link
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)),
                 ("c1", 10 * MB, 1e3, 0.0, (1, 0)),
                 ("c2", 10 * MB, 1e3, 0.0, (2, 0))],
                [("p", "c1", 0.001, 1e7), ("c1", "c2", 0.001, 1e7)])
    placement = partitioning.Placement(
        [("p", (0, 2)), ("c1", (2, 4)), ("c2", (4, 6))], "p")
    with pytest.raises(UnroutableTransfer):
        simulation.simulate_inference(net, placement, model,
                                      [rand_tensor((6, 6, 1), 0)],
                                      [simulation.FaultEvent("c1", 0.0)])


def test_invalid_placement_rejected(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0))], [])
    bad = partitioning.Placement([("p", (0, 3))], "p")  # misses layers 3..5
    with pytest.raises(InvalidPlacement):
        simulation.simulate_inference(net, bad, model, [])


def test_simulate_inference_rejects_mixed_shapes(tiny_spec):
    """The inputs are stacked for `forward_batch`; an input of another shape
    is the model's shape error, not a failed stack."""
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0))], [])
    placement = partitioning.Placement([("p", (0, 6))], "p")
    xs = [rand_tensor((6, 6, 1), 0), rand_tensor((6, 5, 1), 1), rand_tensor((6, 6, 1), 2)]
    with pytest.raises(ShapeMismatch, match=r"expected input \(6, 6, 1\), got \(6, 5, 1\)"):
        simulation.simulate_inference(net, placement, model, xs)


# --- speedup and resource report ---

def test_speedup_identity_and_guard(tiny_spec):
    model = cnn.build_model(tiny_spec, 1)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0))], [])
    report = on_device(net, "p", model, [rand_tensor((6, 6, 1), 0)])
    assert simulation.speedup(report, report) == 1.0
    empty = on_device(net, "p", model, [])
    assert simulation.speedup(report, empty) == float("inf")
    assert simulation.speedup(empty, empty) == 1.0


def test_resource_report_parent_exceeds_children(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)),
                 ("c1", 10 * MB, 1e3, 0.0, (1, 0)),
                 ("c2", 10 * MB, 1e3, 0.0, (2, 0))],
                [("p", "c1", 0.001, 1e7), ("c1", "c2", 0.001, 1e7),
                 ("p", "c2", 0.001, 1e7)])
    placement = partitioning.Placement(
        [("p", (0, 2)), ("c1", (2, 4)), ("c2", (4, 6))], "p")
    report = simulation.simulate_inference(net, placement, model,
                                           [rand_tensor((6, 6, 1), 0)])
    table = simulation.resource_report(report)
    assert table[0]["node_id"] == "p"
    parent_bytes = table[0]["bytes_consumed"]
    for row in table[1:]:
        assert parent_bytes > row["bytes_consumed"]


def test_single_node_bytes_equal_model_estimate(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0))], [])
    report = on_device(net, "p", model, [rand_tensor((6, 6, 1), 0)])
    assert report.per_node["p"].bytes_consumed == resources.model_bytes(tiny_spec)


def test_equal_children_consume_equal_bytes():
    spec = cnn.ModelSpec((4, 1, 1), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Dense", units=4),
        cnn.LayerSpec("Dense", units=4),
        cnn.LayerSpec("Dense", units=4),
        cnn.LayerSpec("Softmax", units=2),
    ))
    model = cnn.build_model(spec, 1)
    net = fleet([("p", MB, 1e3, 0.0, (0, 0)), ("c1", MB, 1e3, 0.0, (1, 0)),
                 ("c2", MB, 1e3, 0.0, (2, 0))],
                [("p", "c1", 0.001, 1e7), ("c1", "c2", 0.001, 1e7)])
    placement = partitioning.Placement(
        [("p", (0, 3)), ("c1", (3, 4)), ("c2", (4, 6))], "p")
    report = simulation.simulate_inference(net, placement, model,
                                           [rand_tensor((4, 1, 1), 0)])
    # dense 4->4 ranges have identical parameter bytes
    c1 = report.per_node["c1"].bytes_consumed
    per = resources.layer_bytes(spec)
    assert c1 == per[3]
    assert report.per_node["c2"].bytes_consumed == per[4] + per[5]


# --- schedule ---

def _takeover_case(tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)), ("c", 10 * MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.001, 1e7)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    xs = [rand_tensor((6, 6, 1), i) for i in range(6)]
    clean = simulation.simulate_inference(net, placement, model, xs)
    faults = [simulation.FaultEvent("c", clean.total_latency_max_sec / 3.0)]
    return net, placement, model, xs, faults


def _reference_case(default_spec):
    model = cnn.weights_from_json(
        read_json(data_path("trained", "default_weights.json")), default_spec)
    net = partitioning.scenario_from_json(
        read_json(data_path("scenarios", "reference_fleet.json")))
    placement = partitioning.placement_from_json(
        read_json(data_path("scenarios", "reference_fleet_nodes4.json")))
    xs = [rand_tensor(default_spec.input_shape, i) for i in range(3)]
    return net, placement, model, xs, []


@pytest.mark.parametrize("case, spec_fixture", [(_takeover_case, "tiny_spec"),
                                                (_reference_case, "default_spec")])
def test_schedule_matches_simulate_inference(case, spec_fixture, request,
                                             monkeypatch):
    spec = request.getfixturevalue(spec_fixture)
    net, placement, model, xs, faults = case(spec)
    calls = count_forward_batch(monkeypatch)
    full = simulation.simulate_inference(net, placement, model, xs, faults)
    assert calls == [len(xs)]
    timed = simulation.schedule(net, placement, spec, len(xs), faults)
    assert calls == [len(xs)]  # schedule ran no layer
    assert timed.outputs == []
    assert timed.per_node == full.per_node
    assert timed.events == full.events
    assert timed.total_latency_max_sec == full.total_latency_max_sec
    assert timed.total_latency_pipeline_sec == full.total_latency_pipeline_sec
    assert timed.makespan_sec == full.makespan_sec
    assert timed.warnings == full.warnings
    assert timed.faults_handled == full.faults_handled
    assert full.faults_handled == len(faults)


def _digest_reference(default_spec):
    net = partitioning.scenario_from_json(
        read_json(data_path("scenarios", "reference_fleet.json")))
    placement = partitioning.placement_from_json(
        read_json(data_path("scenarios", "reference_fleet_nodes4.json")))
    return net, placement, default_spec, 32, []


def _digest_child_takeover(tiny_spec):
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)), ("c", 10 * MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.001, 1e7)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    return net, placement, tiny_spec, 6, [simulation.FaultEvent("c", 2.0)]


def _digest_unreachable_takeover(tiny_spec):
    # from the third input c1 is down, so c2's stage would come from the
    # parent over a link that does not exist: the parent takes c2's stage too
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)),
                 ("c1", 10 * MB, 1e3, 0.0, (1, 0)),
                 ("c2", 10 * MB, 2e3, 0.0, (2, 0))],
                [("p", "c1", 0.001, 1e7), ("c1", "c2", 0.002, 1e6)])
    placement = partitioning.Placement(
        [("p", (0, 2)), ("c1", (2, 4)), ("c2", (4, 6))], "p")
    faults = [simulation.FaultEvent("c2", 5.0), simulation.FaultEvent("c1", 1.5),
              simulation.FaultEvent("c2", 2.0)]
    return net, placement, tiny_spec, 5, faults


def _digest_over_capacity(tiny_spec):
    parent_mem = sum(resources.layer_bytes(tiny_spec)[:4]) + 1
    net = fleet([("p", parent_mem, 1e3, 0.0, (0, 0)),
                 ("c", 10 * MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.001, 1e7)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    # two faults at one time: the first one's time, 0.0, is the takeover's
    faults = [simulation.FaultEvent("c", 0.0), simulation.FaultEvent("c", -0.0)]
    return net, placement, tiny_spec, 3, faults


@pytest.mark.parametrize("case, spec_fixture, digest", [
    (_digest_reference, "default_spec",
     "2568d621c8958c3238f2b87800d9f0dc886706c408e4ab67ae3288c42382465b"),
    (_digest_child_takeover, "tiny_spec",
     "91b3b17ce01231cd8d297f708c6370c98bceb6e091d12706bf3605b33f6a11d9"),
    (_digest_unreachable_takeover, "tiny_spec",
     "0ae4a331880a938871980d912d1f799de044db65ff3498dded313a93033bcc40"),
    (_digest_over_capacity, "tiny_spec",
     "57d524695f22900362fa79e9658f9400f3459ea0529ecbf81f41a1d3b6915f83"),
], ids=["reference-nodes4", "child-takeover", "unreachable-takeover",
        "parent-over-capacity"])
def test_schedule_bits_pinned(case, spec_fixture, digest, request, tmp_path):
    """sha256 of the report JSON then the event log bytes, measured before
    `schedule` was restructured: every time, byte count and warning to the
    last bit."""
    net, placement, spec, n_inputs, faults = case(request.getfixturevalue(spec_fixture))
    report = simulation.schedule(net, placement, spec, n_inputs, faults)
    log = tmp_path / "events.csv"
    simulation.write_event_log(report, log)
    doc = json.dumps(simulation.report_to_json(report), sort_keys=True)
    assert hashlib.sha256(doc.encode() + log.read_bytes()).hexdigest() == digest


def test_makespan_reference_fleet(default_spec):
    """The makespan is when the last compute ends: one input's critical path,
    then one more 10.01 s busiest-node period per pipelined input."""
    net = partitioning.scenario_from_json(
        read_json(data_path("scenarios", "reference_fleet.json")))
    placement = partitioning.placement_from_json(
        read_json(data_path("scenarios", "reference_fleet_nodes4.json")))
    one = simulation.schedule(net, placement, default_spec, 1)
    many = simulation.schedule(net, placement, default_spec, 32)
    assert one.makespan_sec == pytest.approx(27.675160, abs=1e-6)
    assert one.total_latency_max_sec == pytest.approx(10.011152, abs=1e-6)
    assert one.makespan_sec == pytest.approx(one.total_latency_pipeline_sec)
    assert many.makespan_sec == pytest.approx(337.67516, abs=1e-5)
    assert many.total_latency_max_sec == pytest.approx(320.356864, abs=1e-6)
    for report in (one, many):
        ends = [ev.time_sec for ev in report.events if ev.kind == "compute_end"]
        assert report.makespan_sec == max(ends)
        assert simulation.report_to_json(report)["makespan_sec"] == report.makespan_sec
    assert simulation.schedule(net, placement, default_spec, 0).makespan_sec == 0.0


# --- interchange ---

def test_report_json_and_event_log(tmp_path, tiny_spec):
    model = cnn.build_model(tiny_spec, 5)
    net = fleet([("p", 10 * MB, 1e3, 0.0, (0, 0)), ("c", 10 * MB, 1e3, 0.0, (1, 0))],
                [("p", "c", 0.001, 1e7)])
    placement = partitioning.Placement([("p", (0, 4)), ("c", (4, 6))], "p")
    xs = [rand_tensor((6, 6, 1), i) for i in range(2)]
    report = simulation.simulate_inference(net, placement, model, xs)
    doc = simulation.report_to_json(report)
    assert "aggregation" not in doc
    assert len(doc["outputs"]) == 2
    assert doc["predictions"] == [int(np.argmax(o)) for o in report.outputs]
    log = tmp_path / "events.csv"
    simulation.write_event_log(report, log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "time_sec,node_id,kind,bytes"
    assert len(lines) == len(report.events) + 1
