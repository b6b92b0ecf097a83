"""Logical-time simulation of distributed inference over an IoT fleet.

`schedule` is the cost model: it validates the placement and the fault
schedule, picks each stage's executor, and times compute and transfers
(per-stage compute cost from the flop counter, transfer cost from link
latency plus payload over bandwidth, pipelined input streaming: a stage
starts the next input as soon as it is free). It reads no weights and runs
no layer. The placement and the faults decide only timing and memory: the
stages together apply every layer, in order, through the same kernels as
`cnn.forward`, so a distributed run's outputs are `forward`'s outputs.
`simulate_inference` pairs one scenario's schedule with them, computed in one
`cnn.forward_batch` call, which is bit-identical to `forward` per input.

Fault model: when a child node is offline at the moment it would start a
stage, the parent executes that stage from its full parameter replica. The
parent keeps a replica of every partition precisely so this takeover needs
no recovery traffic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cnn, resources
from .cnn import Tensor
from .errors import (
    InsufficientResources,
    InvalidFault,
    InvalidPlacement,
    UnroutableTransfer,
)
from .partitioning import (
    NetworkScenario,
    Placement,
    cut_bytes,
    validate_placement,
)

@dataclass(frozen=True)
class FaultEvent:
    """Node going offline at a logical time (seconds)."""

    node_id: str
    time_sec: float

    def __post_init__(self) -> None:
        if not isinstance(self.node_id, str):
            raise ValueError(f"fault node id must be a string, got {self.node_id!r}")


@dataclass
class NodeUsage:
    busy_sec: float = 0.0
    transfer_sec: float = 0.0
    bytes_consumed: int = 0
    layers_executed: int = 0


class SimEvent(NamedTuple):
    """One timeline entry; the field order is the timeline's sort order."""

    time_sec: float
    node_id: str
    kind: str  # compute_start | compute_end | transfer | fault_takeover
    bytes: int = 0


@dataclass
class SimReport:
    """One simulated run. `total_latency_max_sec` is the busiest node's busy
    plus transfer time, a throughput bound; `total_latency_pipeline_sec` is
    one input's critical path; `makespan_sec` is when the last compute ends."""

    per_node: dict[str, NodeUsage]
    total_latency_max_sec: float
    total_latency_pipeline_sec: float
    makespan_sec: float
    parent_id: str
    outputs: list[np.ndarray] = field(default_factory=list)
    faults_handled: int = 0
    speedup_vs_baseline: float | None = None
    warnings: list[str] = field(default_factory=list)
    events: list[SimEvent] = field(default_factory=list)
    input_labels: list[int] | None = None
    input_files: list[str] | None = None


def _effective_speed(node) -> float:
    speed = node.speed_flops_per_sec * (1.0 - node.workload_frac)
    if speed <= 0.0:
        raise InsufficientResources(
            f"node {node.id!r} has no spare compute capacity")
    return speed


def _range_flops(rspec: cnn.ModelSpec, lo: int, hi: int) -> int:
    return sum(cnn.layer_flops(layer) for layer in rspec.layers[lo:hi])


def simulate_inference(scenario: NetworkScenario, placement: Placement,
                       model: cnn.Model, inputs: list[Tensor],
                       faults: list[FaultEvent] = ()) -> SimReport:
    """Run placed inference with pipelined inputs and fault takeover: the
    `schedule` of `inputs`, with their `cnn.forward_batch` outputs.

    Outputs are exact regardless of placement and faults: a failed stage runs
    on the parent from its replica, with the stage's compute charged to the
    parent at the parent's effective speed. Memory is checked at the default
    bytes per parameter; `schedule` takes another.
    """
    report = schedule(scenario, placement, model.spec, len(inputs), faults)
    report.outputs = cnn.forward_batch(model, inputs)
    return report


def schedule(scenario: NetworkScenario, placement: Placement, spec: cnn.ModelSpec,
             n_inputs: int, faults: list[FaultEvent] = (), *,
             bytes_per_param: int = resources.KB) -> SimReport:
    """The timing of `n_inputs` pipelined inputs through `placement`, with
    fault takeover: per-node usage, events, latencies and warnings, and no
    outputs. Reads no weights and runs no layer.

    A failed stage runs on the parent, with its compute charged at the
    parent's effective speed. An invalid placement raises InvalidPlacement,
    a fault on an unknown node, on the parent or before time 0 InvalidFault.
    """
    violations = validate_placement(placement, scenario, spec,
                                    bytes_per_param=bytes_per_param)
    if violations:
        raise InvalidPlacement("; ".join(f"{v.kind}: {v.message}" for v in violations))

    parent_id = placement.parent_id
    fault_time: dict[str, float] = {}
    for fault in faults:
        if not scenario.has_node(fault.node_id):
            raise InvalidFault(f"fault on unknown node {fault.node_id!r}")
        if fault.node_id == parent_id:
            raise InvalidFault("the parent node cannot be the fault target")
        if fault.time_sec < 0.0:
            raise InvalidFault("fault time must be >= 0")
        prev = fault_time.get(fault.node_id)
        fault_time[fault.node_id] = (fault.time_sec if prev is None
                                     else min(prev, fault.time_sec))

    rspec = cnn.resolve_spec(spec)
    stages = placement.assignments
    cuts = cut_bytes(rspec, placement)
    per_layer_bytes = resources.layer_bytes(rspec, bytes_per_param=bytes_per_param)
    range_bytes = [sum(per_layer_bytes[lo:hi]) for _, (lo, hi) in stages]

    parent = scenario.node(parent_id)
    stage_cost = []
    parent_cost = []
    for node_id, (lo, hi) in stages:
        flops = _range_flops(rspec, lo, hi)
        stage_cost.append(flops / _effective_speed(scenario.node(node_id)))
        parent_cost.append(flops / _effective_speed(parent))

    usage = {node_id: NodeUsage() for node_id, _ in stages}
    usage.setdefault(parent_id, NodeUsage())
    events: list[SimEvent] = []
    warnings: list[str] = []
    avail: dict[str, float] = {}
    redirected: set[str] = set()
    fallback_bytes = 0
    over_capacity_reported = False

    def transfer_cost(sender: str, receiver: str, payload: int) -> float:
        if sender == receiver:
            return 0.0
        link = scenario.link_between(sender, receiver)
        if link is None:
            raise UnroutableTransfer(
                f"no link for transfer {sender!r} -> {receiver!r}")
        return link.transfer_sec(payload)

    parent_range_bytes = sum(b for (node_id, _), b in zip(stages, range_bytes)
                             if node_id == parent_id)

    for _ in range(n_inputs):
        prev_executor = None
        prev_done = 0.0
        for j, (node_id, (lo, hi)) in enumerate(stages):
            payload = cuts[j - 1] if j > 0 else 0
            # decide the executor before charging anything: the nominal node
            # runs the stage unless it is offline when it would start
            executor = node_id
            cost = stage_cost[j]
            if executor != parent_id and executor in fault_time:
                tentative = prev_done
                if prev_executor is not None:
                    try:
                        tentative += transfer_cost(prev_executor, executor,
                                                   payload)
                    except UnroutableTransfer:
                        tentative = math.inf  # unreachable; takeover applies
                tentative = max(avail.get(executor, 0.0), tentative)
                if tentative >= fault_time[executor]:
                    if executor not in redirected:
                        redirected.add(executor)
                        fallback_bytes += range_bytes[j]
                        events.append(SimEvent(fault_time[executor], executor,
                                               "fault_takeover"))
                        if (not over_capacity_reported
                                and parent_range_bytes + fallback_bytes
                                > parent.mem_free_bytes):
                            over_capacity_reported = True
                            warnings.append(
                                "ParentOverCapacity: fault fallback needs "
                                f"{parent_range_bytes + fallback_bytes} bytes,"
                                f" parent has {parent.mem_free_bytes};"
                                " continuing for availability")
                    executor = parent_id
                    cost = parent_cost[j]

            ready = prev_done
            if prev_executor is not None and prev_executor != executor:
                hop = transfer_cost(prev_executor, executor, payload)
                usage[prev_executor].transfer_sec += hop
                events.append(SimEvent(prev_done, prev_executor, "transfer",
                                       payload))
                ready = prev_done + hop
            start = max(avail.get(executor, 0.0), ready)

            events.append(SimEvent(start, executor, "compute_start"))
            done = start + cost
            avail[executor] = done
            usage[executor].busy_sec += cost
            usage[executor].layers_executed += hi - lo
            events.append(SimEvent(done, executor, "compute_end"))
            prev_executor = executor
            prev_done = done

    # memory accounting: the parent stores replicas of every partition plus
    # the activation buffers for each boundary; children store their own range
    total_model_bytes = sum(range_bytes)
    for (node_id, _), rbytes in zip(stages, range_bytes):
        usage[node_id].bytes_consumed += rbytes
    usage[parent_id].bytes_consumed = total_model_bytes + sum(cuts)

    total_max = max(u.busy_sec + u.transfer_sec for u in usage.values())
    pipeline = sum(stage_cost)
    for j, payload in enumerate(cuts):
        pipeline += transfer_cost(stages[j][0], stages[j + 1][0], payload)

    # entries that tie on every field are equal, so the order is total
    events.sort()
    return SimReport(
        per_node=usage,
        total_latency_max_sec=total_max,
        total_latency_pipeline_sec=pipeline,
        makespan_sec=max(avail.values(), default=0.0),
        parent_id=parent_id,
        faults_handled=len(redirected),
        warnings=warnings,
        events=events,
    )


def speedup(baseline: SimReport, parallel: SimReport) -> float:
    """baseline latency / parallel latency, guarded against zero."""
    if parallel.total_latency_max_sec == 0.0:
        return 1.0 if baseline.total_latency_max_sec == 0.0 else float("inf")
    return baseline.total_latency_max_sec / parallel.total_latency_max_sec


def resource_report(report: SimReport) -> list[dict]:
    """Per-node consumption table, parent first, children by id."""
    order = sorted(report.per_node,
                   key=lambda nid: (nid != report.parent_id, nid))
    return [
        {
            "node_id": nid,
            "bytes_consumed": report.per_node[nid].bytes_consumed,
            "busy_sec": report.per_node[nid].busy_sec,
            "transfer_sec": report.per_node[nid].transfer_sec,
            "layers_executed": report.per_node[nid].layers_executed,
        }
        for nid in order
    ]


# --- report interchange ----------------------------------------------------------

def report_to_json(report: SimReport) -> dict:
    doc = {
        "parent_id": report.parent_id,
        "total_latency_max_sec": report.total_latency_max_sec,
        "total_latency_pipeline_sec": report.total_latency_pipeline_sec,
        "makespan_sec": report.makespan_sec,
        "faults_handled": report.faults_handled,
        "warnings": list(report.warnings),
        "per_node": {
            nid: {
                "busy_sec": u.busy_sec,
                "transfer_sec": u.transfer_sec,
                "bytes_consumed": u.bytes_consumed,
                "layers_executed": u.layers_executed,
            }
            for nid, u in sorted(report.per_node.items())
        },
        "outputs": [[float(v) for v in out] for out in report.outputs],
        "predictions": [int(np.argmax(out)) for out in report.outputs],
    }
    if report.speedup_vs_baseline is not None:
        doc["speedup_vs_baseline"] = report.speedup_vs_baseline
    if report.input_labels is not None:
        doc["input_labels"] = list(report.input_labels)
    if report.input_files is not None:
        doc["input_files"] = list(report.input_files)
    return doc


def write_event_log(report: SimReport, path) -> None:
    """CSV event log: time, node, event kind, bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_sec", "node_id", "kind", "bytes"])
        for event in report.events:
            writer.writerow([repr(event.time_sec), event.node_id, event.kind,
                             event.bytes])
