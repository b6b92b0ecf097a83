"""Seeded fleet scenarios for the ``fleet`` workload.

Each fleet is a parent plus 2..5 children, fully meshed, with node speed,
``workload_frac``, link latency and link bandwidth drawn from the seed. The
parent's free memory always stays below the default model's bytes, so the
operator flow has to offload and partition. Draws that the greedy
partitioner cannot place are rejected and redrawn, so every generated fleet
has a valid auto-partition with at least one child stage.

The inputs come from ``random.Random`` rather than the package's own
SplitMix64, so that the benchmark's inputs do not depend on the code under
test.
"""

from __future__ import annotations

import math
import random

from edgemal import partitioning, resources, simulation
from edgemal.errors import InfeasiblePartition, InsufficientResources

MAX_NODES = 4
RADIUS = 100.0


def gen_fleet(rng: random.Random, model_bytes: int, largest_layer_bytes: int) -> dict:
    """One scenario document in the ``partitioning.scenario_from_json`` format."""
    children = rng.randint(2, 5)
    nodes = [{
        "id": "gw",
        "mem_free_bytes": rng.randint(model_bytes // 10, model_bytes * 9 // 10),
        "speed_flops_per_sec": 10.0 ** rng.uniform(5.5, 6.5),
        "workload_frac": rng.uniform(0.0, 0.6),
        "position": [0.0, 0.0],
        "online": True,
    }]
    for k in range(children):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(5.0, 0.8 * RADIUS)
        nodes.append({
            "id": f"c{k + 1}",
            "mem_free_bytes": rng.randint(largest_layer_bytes, model_bytes),
            "speed_flops_per_sec": 10.0 ** rng.uniform(5.5, 6.5),
            "workload_frac": rng.uniform(0.0, 0.6),
            "position": [round(dist * math.cos(angle), 3),
                         round(dist * math.sin(angle), 3)],
            "online": True,
        })
    links = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            links.append({
                "a": nodes[i]["id"],
                "b": nodes[j]["id"],
                "latency_sec": rng.uniform(0.001, 0.05),
                "bandwidth_bytes_per_sec": 10.0 ** rng.uniform(5.5, 7.0),
            })
    return {"nodes": nodes, "links": links, "radius_r": RADIUS,
            "parent_id": "gw", "max_nodes": MAX_NODES}


def gen_fleets(seed: int, count: int, spec) -> list[tuple[dict, object]]:
    """``count`` fleets that the package can auto-partition, each with its
    placement."""
    rng = random.Random(seed)
    per_layer = resources.layer_bytes(spec)
    model_bytes = sum(per_layer)
    fleets = []
    while len(fleets) < count:
        doc = gen_fleet(rng, model_bytes, max(per_layer))
        scenario = partitioning.scenario_from_json(doc)
        try:
            chosen = partitioning.select_nodes(scenario, scenario.parent_id,
                                               scenario.radius_r, model_bytes,
                                               scenario.max_nodes)
            placement = partitioning.partition_layers(spec, chosen)
        except (InfeasiblePartition, InsufficientResources):
            continue
        if len(placement.assignments) > 1:
            fleets.append((doc, placement))
    return fleets


def fault_time(rng: random.Random, scenario, placement, model, inputs: int,
               zero_input) -> tuple[str, float]:
    """A fault on one child stage, timed inside that child's active window.

    A one-input clean run gives the child's first compute start ``t0`` and its
    per-input stage cost ``c``. Over ``inputs`` pipelined inputs the child
    starts its last input no earlier than ``t0 + (inputs - 1) * c``, so any
    time strictly between the two falls inside the window.
    """
    children = [node_id for node_id, _ in placement.assignments
                if node_id != placement.parent_id]
    child = rng.choice(children)
    clean = simulation.simulate_inference(scenario, placement, model, [zero_input])
    t0 = min(ev.time_sec for ev in clean.events
             if ev.node_id == child and ev.kind == "compute_start")
    cost = clean.per_node[child].busy_sec
    return child, t0 + rng.uniform(0.2, 0.8) * (inputs - 1) * cost
