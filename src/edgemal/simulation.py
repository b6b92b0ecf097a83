"""Logical-time simulation of distributed inference over an IoT fleet.

`schedule` is the cost model: it validates the placement and the fault
schedule, picks each stage's executor, and times compute and transfers. Each
stage's flops, bytes and outgoing payload come from `partitioning.layer_costs`;
compute costs flops over the executor's effective speed, a transfer link
latency plus payload over bandwidth, and inputs stream pipelined: a stage
starts the next input as soon as it is free. It reads no weights and runs no
layer.

Transfer model: a transfer only delays its receiver. It occupies neither its
sender, which may compute or send again at once, nor the link, which may
carry any number of transfers at a time; its duration is charged to the
sender's `transfer_sec`. The last stage's output is not sent back to the
parent.

The placement and the faults decide only timing and memory: the stages
together cover every layer once, in order, and a stage taken over runs the
same layers, so a distributed run's outputs are `forward`'s outputs.
`simulate_inference` pairs one scenario's schedule with them, computed in one
`cnn.forward_batch` call over the stacked inputs, which is bit-identical to
`forward` per input. A report carries them as one (inputs, classes) array,
and `report_to_json` writes it with one `tolist`.

Fault model: when a child node is offline at the moment it would start a
stage, the parent executes that stage from its full parameter replica. The
parent keeps a replica of every partition precisely so this takeover needs
no recovery traffic. A child with a fault that the previous stage's executor
cannot reach is taken over at once; one without a fault raises
UnroutableTransfer.
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
    ShapeMismatch,
    UnroutableTransfer,
)
from .partitioning import (
    NetworkScenario,
    Placement,
    layer_costs,
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
    plus transfer time. It bounds throughput only while transfers are small:
    a transfer occupies neither its sender nor the link, so when transfers
    dominate it can exceed `makespan_sec`. `total_latency_pipeline_sec` is
    one input's critical path; `makespan_sec` is when the last compute ends.
    `outputs` is `cnn.forward_batch`'s (inputs, classes) float32 array, or []
    for a `schedule` that ran no layer."""

    per_node: dict[str, NodeUsage]
    total_latency_max_sec: float
    total_latency_pipeline_sec: float
    makespan_sec: float
    parent_id: str
    outputs: np.ndarray | list = field(default_factory=list)
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


def simulate_inference(scenario: NetworkScenario, placement: Placement,
                       model: cnn.Model, inputs: list[Tensor],
                       faults: list[FaultEvent] = ()) -> SimReport:
    """Run placed inference with pipelined inputs and fault takeover: the
    `schedule` of `inputs`, with the `cnn.forward_batch` outputs of their
    stack. An input of another shape than the model's raises ShapeMismatch.

    Outputs are exact regardless of placement and faults: a failed stage runs
    on the parent from its replica, with the stage's compute charged to the
    parent at the parent's effective speed. Memory is checked at the default
    bytes per parameter; `schedule` takes another.
    """
    report = schedule(scenario, placement, model.spec, len(inputs), faults)
    xs = np.empty((len(inputs), *model.spec.input_shape), dtype=np.float32)
    for row, x in zip(xs, inputs):
        if x.shape != row.shape:
            raise ShapeMismatch(f"expected input {row.shape}, got {x.shape}")
        row[...] = x.array
    report.outputs = cnn.forward_batch(model, xs)
    return report


def schedule(scenario: NetworkScenario, placement: Placement, spec: cnn.ModelSpec,
             n_inputs: int, faults: list[FaultEvent] = (), *,
             bytes_per_param: int = resources.KB) -> SimReport:
    """The timing of `n_inputs` pipelined inputs through `placement`, with
    fault takeover: per-node usage, events, latencies and warnings, and no
    outputs. Reads no weights and runs no layer.

    A failed stage runs on the parent, with its compute charged at the
    parent's effective speed. An invalid placement raises InvalidPlacement,
    a fault on an unknown node, on the parent or at a time that is not >= 0
    (a negative or NaN time) InvalidFault.
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
        if not fault.time_sec >= 0.0:
            raise InvalidFault("fault time must be >= 0")
        fault_time[fault.node_id] = min(fault_time.get(fault.node_id, fault.time_sec),
                                        fault.time_sec)

    costs = layer_costs(spec, bytes_per_param=bytes_per_param)
    stages = placement.assignments
    cuts = [costs.out_bytes[hi - 1] for _, (_, hi) in stages[:-1]]
    range_bytes = [costs.mem[hi] - costs.mem[lo] for _, (lo, hi) in stages]

    parent = scenario.node(parent_id)
    stage_cost = []
    parent_cost = []
    for node_id, (lo, hi) in stages:
        flops = costs.flops[hi] - costs.flops[lo]
        stage_cost.append(flops / _effective_speed(scenario.node(node_id)))
        parent_cost.append(flops / _effective_speed(parent))

    usage = {node_id: NodeUsage() for node_id, _ in stages}
    usage.setdefault(parent_id, NodeUsage())
    events: list[SimEvent] = []
    warnings: list[str] = []
    avail: dict[str, float] = {}
    redirected: set[str] = set()
    # what the parent holds: its own ranges, then each range it takes over
    parent_bytes = sum(b for (node_id, _), b in zip(stages, range_bytes)
                       if node_id == parent_id)

    def hop(sender: str | None, receiver: str, payload: int) -> float:
        if sender is None or sender == receiver:
            return 0.0
        link = scenario.link_between(sender, receiver)
        if link is None:
            raise UnroutableTransfer(
                f"no link for transfer {sender!r} -> {receiver!r}")
        return link.transfer_sec(payload)

    for _ in range(n_inputs):
        sender = None
        done = 0.0
        for j, (node_id, (lo, hi)) in enumerate(stages):
            payload = cuts[j - 1] if j > 0 else 0
            # the nominal node runs the stage unless it is offline when it would start
            executor, cost = node_id, stage_cost[j]
            if node_id in fault_time:
                try:
                    start = max(avail.get(node_id, 0.0),
                                done + hop(sender, node_id, payload))
                except UnroutableTransfer:
                    start = math.inf  # the sender cannot reach it: taken over
                if start >= fault_time[node_id]:
                    if node_id not in redirected:
                        redirected.add(node_id)
                        parent_bytes += range_bytes[j]
                        events.append(SimEvent(fault_time[node_id], node_id,
                                               "fault_takeover"))
                        if not warnings and parent_bytes > parent.mem_free_bytes:
                            warnings.append(
                                "ParentOverCapacity: fault fallback needs "
                                f"{parent_bytes} bytes, parent has "
                                f"{parent.mem_free_bytes}; continuing for availability")
                    executor, cost = parent_id, parent_cost[j]

            transfer = hop(sender, executor, payload)
            if sender not in (None, executor):
                usage[sender].transfer_sec += transfer
                events.append(SimEvent(done, sender, "transfer", payload))
            start = max(avail.get(executor, 0.0), done + transfer)
            events.append(SimEvent(start, executor, "compute_start"))
            avail[executor] = done = start + cost
            usage[executor].busy_sec += cost
            usage[executor].layers_executed += hi - lo
            events.append(SimEvent(done, executor, "compute_end"))
            sender = executor

    # memory accounting: the parent stores replicas of every partition plus
    # the activation buffers for each boundary; children store their own range
    for (node_id, _), rbytes in zip(stages, range_bytes):
        usage[node_id].bytes_consumed += rbytes
    usage[parent_id].bytes_consumed = sum(range_bytes) + sum(cuts)

    # a left fold in cut order: from Python 3.12 `sum` compensates float sums
    pipeline = sum(stage_cost)
    for (a, _), (b, _), payload in zip(stages, stages[1:], cuts):
        pipeline += hop(a, b, payload)

    # entries that tie on every field are equal, so the order is total
    events.sort()
    return SimReport(
        per_node=usage,
        total_latency_max_sec=max(u.busy_sec + u.transfer_sec for u in usage.values()),
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
    outputs = np.asarray(report.outputs)
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
        "outputs": outputs.tolist(),
        "predictions": outputs.argmax(axis=1).tolist() if len(outputs) else [],
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
