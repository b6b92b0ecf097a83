import json
import math

import pytest

from edgemal import cnn, partitioning, resources, simulation
from edgemal.errors import InfeasiblePartition, InsufficientResources, NoRoute
from edgemal.rng import SplitMix64

from conftest import node_profiles

MB = 1024 * 1024


def star_network(parent_free, child_frees, radius=100.0, max_nodes=4,
                 workloads=None, bandwidth=1e6):
    nodes = [partitioning.NodeProfile("p", parent_free, 1e6, 0.0, (0.0, 0.0))]
    links = []
    for i, free in enumerate(child_frees):
        wl = workloads[i] if workloads else 0.0
        nodes.append(partitioning.NodeProfile(f"c{i}", free, 1e6, wl,
                                              (float(i + 1), 0.0)))
        links.append(partitioning.LinkProfile("p", f"c{i}", 0.01 * (i + 1),
                                              bandwidth))
    return partitioning.NetworkScenario(nodes, links, radius, "p", max_nodes)


# --- select_nodes ---

def test_parent_alone_when_sufficient():
    net = star_network(4 * MB, [2 * MB, 2 * MB])
    chosen = partitioning.select_nodes(net, "p", 100.0, 4 * MB, 4)
    assert [n.id for n in chosen] == ["p"]


def test_greedy_prefix_of_two():
    net = star_network(2 * MB, [2 * MB, 2 * MB, 2 * MB])
    chosen = partitioning.select_nodes(net, "p", 100.0, 4 * MB, 4)
    assert [n.id for n in chosen] == ["p", "c0"]


def test_insufficient_when_all_offline_but_parent():
    nodes = [
        partitioning.NodeProfile("p", 0, 1e6, 0.0, (0.0, 0.0)),
        partitioning.NodeProfile("c0", 8 * MB, 1e6, 0.0, (1.0, 0.0), online=False),
    ]
    net = partitioning.NetworkScenario(
        nodes, [partitioning.LinkProfile("p", "c0", 0.01, 1e6)], 100.0, "p")
    with pytest.raises(InsufficientResources):
        partitioning.select_nodes(net, "p", 100.0, 4 * MB, 4)


def test_radius_excludes_far_nodes():
    nodes = [
        partitioning.NodeProfile("p", MB, 1e6, 0.0, (0.0, 0.0)),
        partitioning.NodeProfile("far", 16 * MB, 1e6, 0.0, (500.0, 0.0)),
        partitioning.NodeProfile("near", 16 * MB, 1e6, 0.0, (5.0, 0.0)),
    ]
    links = [partitioning.LinkProfile("p", "far", 0.001, 1e9),
             partitioning.LinkProfile("p", "near", 0.02, 1e6)]
    net = partitioning.NetworkScenario(nodes, links, 50.0, "p")
    chosen = partitioning.select_nodes(net, "p", 50.0, 4 * MB, 4)
    assert [n.id for n in chosen] == ["p", "near"]


def test_max_nodes_cap_raises():
    net = star_network(MB, [MB, MB, MB, MB, MB], max_nodes=3)
    with pytest.raises(InsufficientResources):
        partitioning.select_nodes(net, "p", 100.0, 10 * MB, 3)


def test_no_route_to_unlinked_child():
    nodes = [
        partitioning.NodeProfile("p", MB, 1e6, 0.0, (0.0, 0.0)),
        partitioning.NodeProfile("island", 16 * MB, 1e6, 0.0, (1.0, 0.0)),
    ]
    net = partitioning.NetworkScenario(nodes, [], 100.0, "p")
    with pytest.raises(NoRoute):
        partitioning.select_nodes(net, "p", 100.0, 4 * MB, 4)


def test_ordering_comm_cost_then_workload_then_id():
    nodes = [
        partitioning.NodeProfile("p", 0, 1e6, 0.0, (0.0, 0.0)),
        partitioning.NodeProfile("slow", 2 * MB, 1e6, 0.1, (1.0, 0.0)),
        partitioning.NodeProfile("fast", 2 * MB, 1e6, 0.9, (2.0, 0.0)),
        partitioning.NodeProfile("busy", 2 * MB, 1e6, 0.8, (3.0, 0.0)),
        partitioning.NodeProfile("calm", 2 * MB, 1e6, 0.2, (4.0, 0.0)),
    ]
    links = [
        partitioning.LinkProfile("p", "slow", 1.0, 1e6),
        partitioning.LinkProfile("p", "fast", 0.0, 1e9),
        partitioning.LinkProfile("p", "busy", 0.5, 1e6),
        partitioning.LinkProfile("p", "calm", 0.5, 1e6),
    ]
    net = partitioning.NetworkScenario(nodes, links, 100.0, "p")
    order = [n.id for n in partitioning.candidate_order(net, "p", 100.0)]
    # cheap link first; equal-cost pair ordered by workload
    assert order == ["p", "fast", "calm", "busy", "slow"]


def brute_force_prefix(candidates, model_bytes, max_nodes):
    total = 0
    for size in range(1, min(max_nodes, len(candidates)) + 1):
        total = sum(n.mem_free_bytes for n in candidates[:size])
        if total >= model_bytes:
            return candidates[:size]
    return None


def test_minimal_prefix_matches_brute_force():
    rng = SplitMix64(23)
    for trial in range(150):
        n_children = 1 + rng.randint(9)
        child_frees = [rng.randint(4 * MB) for _ in range(n_children)]
        workloads = [rng.uniform() for _ in range(n_children)]
        net = star_network(rng.randint(2 * MB), child_frees, workloads=workloads)
        model_bytes = 1 + rng.randint(8 * MB)
        candidates = partitioning.candidate_order(net, "p", 100.0)
        expected = brute_force_prefix(candidates, model_bytes, 4)
        if expected is None:
            with pytest.raises(InsufficientResources):
                partitioning.select_nodes(net, "p", 100.0, model_bytes, 4)
        else:
            chosen = partitioning.select_nodes(net, "p", 100.0, model_bytes, 4)
            assert [n.id for n in chosen] == [n.id for n in expected]


# --- partition_layers ---

def test_single_node_gets_everything(default_spec):
    placement = partitioning.partition_layers(
        default_spec, node_profiles([("solo", 10 * MB)]))
    assert placement.assignments == [("solo", (0, 11))]


def test_two_equal_nodes_split(default_spec):
    free = 5 * MB
    placement = partitioning.partition_layers(
        default_spec, node_profiles([("n1", free), ("n2", free)]))
    assert len(placement.assignments) == 2
    per = resources.layer_bytes(default_spec)
    (id1, (lo1, hi1)), (id2, (lo2, hi2)) = placement.assignments
    assert (lo1, hi2) == (0, 11) and hi1 == lo2
    assert sum(per[lo1:hi1]) <= free
    assert sum(per[lo2:hi2]) <= free
    # greedy fill oracle: node 1 holds the longest prefix that fits
    assert sum(per[lo1:hi1 + 1]) > free


def test_every_node_gets_a_layer_when_memory_is_plentiful(default_spec):
    placement = partitioning.partition_layers(
        default_spec, node_profiles([("a", 10 ** 9), ("b", 10 ** 9), ("c", 10 ** 9)]))
    assert [nid for nid, _ in placement.assignments] == ["a", "b", "c"]
    assert all(hi > lo for _, (lo, hi) in placement.assignments)


def test_oversized_layer_infeasible(default_spec):
    # the big dense layer exceeds every node
    with pytest.raises(InfeasiblePartition):
        partitioning.partition_layers(
            default_spec, node_profiles([("a", 3 * MB), ("b", 3 * MB), ("c", 3 * MB)]))


def test_combined_shortfall_infeasible(default_spec):
    with pytest.raises(InfeasiblePartition):
        partitioning.partition_layers(default_spec,
                                      node_profiles([("a", MB), ("b", MB)]))


def test_partition_properties_random(default_spec):
    rng = SplitMix64(31)
    successes = 0
    for trial in range(500):
        spec = resources.sample_model_spec(rng)
        per = resources.layer_bytes(spec)
        total = sum(per)
        n_nodes = 1 + rng.randint(4)
        budgets = [("n%d" % i, rng.randint(total + 1) + max(per))
                   for i in range(n_nodes)]
        try:
            placement = partitioning.partition_layers(spec, node_profiles(budgets))
        except InfeasiblePartition:
            continue
        successes += 1
        covered = []
        frees = dict(budgets)
        for nid, (lo, hi) in placement.assignments:
            assert lo < hi
            covered.extend(range(lo, hi))
            assert sum(per[lo:hi]) <= frees[nid]
        assert covered == list(range(len(per)))
        again = partitioning.partition_layers(spec, node_profiles(budgets))
        assert again.assignments == placement.assignments
    assert successes >= 250


def test_unfit_node_is_skipped_for_a_later_one(default_spec):
    # b cannot hold layer 8 and c can, so b takes nothing
    placement = partitioning.partition_layers(
        default_spec, node_profiles([("a", 5 * MB), ("b", 1), ("c", 10 * MB)]))
    assert placement.assignments == [("a", (0, 8)), ("c", (8, 11))]


# --- layer_costs ---

def test_cut_bytes_examples():
    spec = cnn.ModelSpec((18, 18, 2), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Conv", kernel_w=3, kernel_h=3, filters=8),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Softmax", units=4),
    ))
    # the input 18x18x2, the conv output 16x16x8, its flattening, the logits
    assert partitioning.layer_costs(spec).out_bytes == [
        18 * 18 * 2 * 4, 16 * 16 * 8 * 4, 16 * 16 * 8 * 4, 4 * 4]

    spec2 = cnn.ModelSpec((4, 4, 16), (
        cnn.LayerSpec("Input"),
        cnn.LayerSpec("Flatten"),
        cnn.LayerSpec("Softmax", units=4),
    ))
    assert partitioning.layer_costs(spec2).out_bytes[1] == 256 * 4


def test_layer_costs_match_per_layer_sums():
    rng = SplitMix64(47)
    for trial in range(200):
        spec = resources.sample_model_spec(rng)
        bytes_per_param = (1, 7, resources.KB)[trial % 3]
        costs = partitioning.layer_costs(spec, bytes_per_param=bytes_per_param)
        per_bytes = resources.layer_bytes(spec, bytes_per_param=bytes_per_param)
        layers = cnn.resolve_spec(spec).layers
        per_flops = [cnn.layer_flops(layer) for layer in layers]
        n = len(layers)
        assert len(costs.mem) == len(costs.flops) == n + 1
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                assert costs.mem[hi] - costs.mem[lo] == sum(per_bytes[lo:hi])
                assert costs.flops[hi] - costs.flops[lo] == sum(per_flops[lo:hi])
        assert costs.out_bytes == [math.prod(layer.out_shape) * 4 for layer in layers]


def test_greedy_cut_is_a_valid_two_way_split(default_spec):
    # the greedy boundary splits the layers in two, and the schedule sends the
    # activation of the layer before it across the cut
    net = star_network(5 * MB, [5 * MB])
    placement = partitioning.partition_layers(default_spec, net.nodes)
    (_, (_, cut)), (_, (after, _)) = placement.assignments
    assert 0 < cut == after < len(resources.layer_bytes(default_spec))
    report = simulation.schedule(net, placement, default_spec, 1)
    shape = cnn.resolve_spec(default_spec).layers[cut - 1].out_shape
    assert [event.bytes for event in report.events if event.kind == "transfer"] == [
        math.prod(shape) * 4]


# --- validate_placement ---

def test_validate_accepts_partition_output(default_spec):
    net = star_network(5 * MB, [5 * MB])
    placement = partitioning.partition_layers(default_spec, net.nodes)
    assert partitioning.validate_placement(placement, net, default_spec) == []


def test_validate_reports_offline_node(default_spec):
    nodes = [
        partitioning.NodeProfile("p", 10 * MB, 1e6, 0.0, (0.0, 0.0)),
        partitioning.NodeProfile("c0", 10 * MB, 1e6, 0.0, (1.0, 0.0), online=False),
    ]
    net = partitioning.NetworkScenario(
        nodes, [partitioning.LinkProfile("p", "c0", 0.01, 1e6)], 100.0, "p")
    placement = partitioning.Placement([("p", (0, 8)), ("c0", (8, 11))], "p")
    kinds = {v.kind for v in
             partitioning.validate_placement(placement, net, default_spec)}
    assert kinds == {"NodeOffline"}


def test_validate_reports_coverage_gap(default_spec):
    net = star_network(10 * MB, [10 * MB])
    placement = partitioning.Placement([("p", (0, 3)), ("c0", (4, 11))], "p")
    kinds = {v.kind for v in
             partitioning.validate_placement(placement, net, default_spec)}
    assert "CoverageGap" in kinds


def test_validate_reports_unknown_parent(default_spec):
    net = star_network(10 * MB, [10 * MB])
    placement = partitioning.Placement([("p", (0, 11))], "ghost")
    violations = partitioning.validate_placement(placement, net, default_spec)
    assert [v.kind for v in violations] == ["UnknownNode"]
    assert "ghost" in violations[0].message


def test_validate_reports_memory_and_link_issues(default_spec):
    nodes = [
        partitioning.NodeProfile("p", 100, 1e6, 0.0, (0.0, 0.0)),
        partitioning.NodeProfile("c0", 10 * MB, 1e6, 0.0, (1.0, 0.0)),
    ]
    net = partitioning.NetworkScenario(nodes, [], 100.0, "p")
    placement = partitioning.Placement([("p", (0, 8)), ("c0", (8, 11))], "p")
    kinds = {v.kind for v in
             partitioning.validate_placement(placement, net, default_spec)}
    assert "MemoryExceeded" in kinds
    assert "MissingLink" in kinds


def test_validate_reports_unknown_node(default_spec):
    net = star_network(10 * MB, [])
    placement = partitioning.Placement([("ghost", (0, 11))], "ghost")
    kinds = {v.kind for v in
             partitioning.validate_placement(placement, net, default_spec)}
    assert "UnknownNode" in kinds


def test_validate_charges_a_malformed_range_what_its_slice_holds(default_spec):
    per = resources.layer_bytes(default_spec)
    net = star_network(0, [])
    for lo, hi in [(-3, 11), (-20, 5), (8, 40), (5, 2), (-3, -1), (0, -4), (12, 15)]:
        placement = partitioning.Placement([("p", (lo, hi))], "p")
        held = sum(per[lo:min(hi, len(per))])
        memory = [v.message for v in
                  partitioning.validate_placement(placement, net, default_spec)
                  if v.kind == "MemoryExceeded"]
        assert memory == ([f"node 'p' holds {held} bytes, free 0"] if held else [])


# --- JSON round trips ---

def test_scenario_round_trip():
    net = star_network(3 * MB, [2 * MB, MB], workloads=[0.5, 0.25])
    back = partitioning.scenario_from_json(
        json.loads(json.dumps(partitioning.scenario_to_json(net))))
    assert back.parent_id == net.parent_id
    assert back.radius_r == net.radius_r
    assert back.max_nodes == net.max_nodes
    assert back.nodes == net.nodes
    assert back.links == net.links


def test_placement_round_trip(default_spec):
    placement = partitioning.partition_layers(
        default_spec, node_profiles([("n1", 5 * MB), ("n2", 5 * MB)]))
    doc = partitioning.placement_to_json(placement)
    assert sorted(doc) == ["assignments", "parent_id"]
    back = partitioning.placement_from_json(json.loads(json.dumps(doc)))
    assert back.assignments == placement.assignments
    assert back.parent_id == placement.parent_id
    # an older file's cut sizes are ignored, whatever they say
    older = partitioning.placement_from_json({**doc, "cut_bytes": [5, 7, -3]})
    assert older.assignments == placement.assignments
