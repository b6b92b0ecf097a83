"""Node selection and contiguous layer-range placement.

Given a fleet snapshot and a model too large for the parent node, pick the
cheapest nearby children until their combined free memory covers the model,
then hand each chosen node the longest run of consecutive layers that fits
its memory. All ordering rules are total, so the same inputs always produce
the same placement.

`layer_costs` is the one source of what a layer range costs: its bytes, its
flops and the activation crossing the cut after it. Partitioning, placement
checks and the simulator's schedule all read it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from . import cnn, resources
from .errors import (
    InfeasiblePartition,
    InsufficientResources,
    NoRoute,
)

# probe size used to price one transfer on a link when ordering candidates
COMM_PROBE_BYTES = 1 << 20

ACTIVATION_BYTES = 4  # float32 elements crossing a cut


def _integer(value, name: str) -> int:
    """A JSON integer field: an int, or a float with an integral value. A bool,
    a string or a fraction raises ValueError instead of being truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _check_node_ids(ids) -> None:
    for node_id in ids:
        if not isinstance(node_id, str):
            raise ValueError(f"node id must be a string, got {node_id!r}")


@dataclass(frozen=True)
class NodeProfile:
    """One simulated IoT device."""

    id: str
    mem_free_bytes: int
    speed_flops_per_sec: float
    workload_frac: float = 0.0
    position: tuple[float, float] = (0.0, 0.0)
    online: bool = True

    def __post_init__(self) -> None:
        _check_node_ids([self.id])
        if self.mem_free_bytes < 0:
            raise ValueError(f"node {self.id}: mem_free_bytes must be >= 0")
        if not 0.0 <= self.workload_frac <= 1.0:
            raise ValueError(f"node {self.id}: workload_frac must be in [0, 1]")
        if not self.speed_flops_per_sec > 0.0:
            raise ValueError(f"node {self.id}: speed must be positive")
        if not isinstance(self.online, bool):
            raise ValueError(f"node {self.id}: online must be true or false")
        if len(self.position) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v) for v in self.position):
            raise ValueError(f"node {self.id}: position must be two finite numbers")


@dataclass(frozen=True)
class LinkProfile:
    """Bidirectional link between two nodes."""

    a: str
    b: str
    latency_sec: float
    bandwidth_bytes_per_sec: float

    def __post_init__(self) -> None:
        if not self.latency_sec >= 0.0:
            raise ValueError(f"link {self.a}-{self.b}: latency must be >= 0")
        if not self.bandwidth_bytes_per_sec > 0.0:
            raise ValueError(f"link {self.a}-{self.b}: bandwidth must be positive")

    def transfer_sec(self, n_bytes: int) -> float:
        return self.latency_sec + n_bytes / self.bandwidth_bytes_per_sec


@dataclass
class NetworkScenario:
    """Fleet snapshot: nodes, links, selection radius, parent, node cap."""

    nodes: list[NodeProfile]
    links: list[LinkProfile]
    radius_r: float
    parent_id: str
    max_nodes: int = 4

    def __post_init__(self) -> None:
        if not self.radius_r >= 0.0:
            raise ValueError("radius_r must be >= 0")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        if self.parent_id not in set(ids):
            raise ValueError(f"parent {self.parent_id!r} is not in the fleet")
        known = set(ids)
        seen_pairs = set()
        for link in self.links:
            if link.a not in known or link.b not in known:
                raise ValueError(f"link {link.a}-{link.b} references unknown node")
            pair = frozenset((link.a, link.b))
            if pair in seen_pairs:
                raise ValueError(f"duplicate link {link.a}-{link.b}")
            seen_pairs.add(pair)
        self._by_id = {n.id: n for n in self.nodes}
        self._links = {frozenset((l.a, l.b)): l for l in self.links}

    def node(self, node_id: str) -> NodeProfile:
        return self._by_id[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._by_id

    def link_between(self, a: str, b: str) -> LinkProfile | None:
        return self._links.get(frozenset((a, b)))


@dataclass
class Placement:
    """Contiguous layer ranges per node in execution order, as
    (node_id, (start, stop)) with half-open ranges."""

    assignments: list[tuple[str, tuple[int, int]]]
    parent_id: str


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class LayerCosts:
    """Prefix sums of layer bytes and flops, so layers lo..hi-1 hold
    mem[hi] - mem[lo] bytes and run flops[hi] - flops[lo] flops, and each
    layer's output bytes, the payload of a cut after it."""

    mem: list[int]
    flops: list[int]
    out_bytes: list[int]


def layer_costs(spec: cnn.ModelSpec, *,
                bytes_per_param: int = resources.KB) -> LayerCosts:
    """The LayerCosts of `spec` at `bytes_per_param`, in integers."""
    rspec = cnn.resolve_spec(spec)
    per_layer = resources.layer_bytes(rspec, bytes_per_param=bytes_per_param)
    return LayerCosts(list(accumulate(per_layer, initial=0)),
                      list(accumulate(map(cnn.layer_flops, rspec.layers), initial=0)),
                      [math.prod(l.out_shape) * ACTIVATION_BYTES for l in rspec.layers])


def _distance(a: NodeProfile, b: NodeProfile) -> float:
    return math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])


def candidate_order(network: NetworkScenario, parent_id: str,
                    radius_r: float) -> list[NodeProfile]:
    """Online nodes within the radius, parent first, the rest sorted by the
    cost of one probe transfer on their direct parent link, then workload,
    then id. Nodes without a parent link sort last."""
    parent = network.node(parent_id)
    out = [parent]
    rest = []
    for node in network.nodes:
        if node.id == parent_id or not node.online:
            continue
        if _distance(node, parent) > radius_r:
            continue
        link = network.link_between(parent_id, node.id)
        cost = link.transfer_sec(COMM_PROBE_BYTES) if link else math.inf
        rest.append((cost, node.workload_frac, node.id, node))
    rest.sort(key=lambda item: item[:3])
    out.extend(item[3] for item in rest)
    return out


def select_nodes(network: NetworkScenario, parent_id: str, radius_r: float,
                 model_bytes: int, max_nodes: int) -> list[NodeProfile]:
    """Shortest prefix of the candidate order whose combined free memory
    reaches the model's bytes, capped at max_nodes."""
    if not network.has_node(parent_id):
        raise InsufficientResources(f"parent {parent_id!r} is not in the fleet")
    parent = network.node(parent_id)
    if not parent.online:
        raise InsufficientResources(f"parent {parent_id!r} is offline")

    candidates = candidate_order(network, parent_id, radius_r)
    chosen: list[NodeProfile] = []
    cumulative = 0
    for node in candidates:
        if len(chosen) == max_nodes:
            break
        chosen.append(node)
        cumulative += node.mem_free_bytes
        if cumulative >= model_bytes:
            break
    if cumulative < model_bytes:
        raise InsufficientResources(
            f"{len(chosen)} candidate nodes hold {cumulative} bytes,"
            f" model needs {model_bytes}")
    for child in chosen[1:]:
        if network.link_between(parent_id, child.id) is None:
            raise NoRoute(f"chosen child {child.id!r} has no link to the parent")
    return chosen


def partition_layers(spec: cnn.ModelSpec, nodes: list[NodeProfile], *,
                     bytes_per_param: int = resources.KB) -> Placement:
    """Assign contiguous layer ranges front to back, in the order of `nodes`;
    the first node is the parent.

    Each node takes the longest prefix of the remaining layers whose
    cumulative bytes fit its free memory, trimmed so every later node can
    still receive at least one layer. A node whose memory cannot hold even
    the next layer is skipped when some later node can hold it; when no
    remaining node can, the partition is infeasible.
    """
    if not nodes:
        raise InfeasiblePartition("no nodes given")
    mem = layer_costs(spec, bytes_per_param=bytes_per_param).mem
    if sum(node.mem_free_bytes for node in nodes) < mem[-1]:
        raise InfeasiblePartition(f"combined free bytes < model bytes ({mem[-1]})")

    n_layers = len(mem) - 1
    assignments: list[tuple[str, tuple[int, int]]] = []
    start = 0
    for j, node in enumerate(nodes):
        if start == n_layers:
            break
        nodes_after = len(nodes) - j - 1
        # layer bytes are >= 0, so mem is sorted: the longest run that fits
        take = bisect_right(mem, mem[start] + node.mem_free_bytes) - 1 - start
        take = min(take, max(n_layers - start - nodes_after, 1))
        if take == 0:
            layer = mem[start + 1] - mem[start]
            if any(layer <= other.mem_free_bytes for other in nodes[j + 1:]):
                continue
            raise InfeasiblePartition(f"layer {start} ({layer} bytes) exceeds"
                                      " every remaining node's free memory")
        assignments.append((node.id, (start, start + take)))
        start += take
    if start < n_layers:
        raise InfeasiblePartition(
            f"layers {start}..{n_layers - 1} left unassigned after the last node")
    return Placement(assignments, nodes[0].id)


def validate_placement(placement: Placement, network: NetworkScenario,
                       spec: cnn.ModelSpec, *,
                       bytes_per_param: int = resources.KB) -> list[Violation]:
    """Check coverage, contiguity, memory bounds, node status and links.

    Returns every violation found; an empty list means the placement is ok.
    """
    violations: list[Violation] = []
    mem = layer_costs(spec, bytes_per_param=bytes_per_param).mem
    n_layers = len(mem) - 1

    if not placement.assignments:
        return [Violation("CoverageGap", "placement assigns no layers")]

    expected = 0
    for node_id, (lo, hi) in placement.assignments:
        if lo >= hi:
            violations.append(Violation("NotContiguous",
                                        f"empty range {lo}..{hi} on {node_id}"))
            continue
        if lo > expected:
            violations.append(Violation(
                "CoverageGap", f"layers {expected}..{lo - 1} are unassigned"))
        elif lo < expected:
            violations.append(Violation(
                "NotContiguous", f"range starting at {lo} overlaps earlier ranges"))
        expected = max(expected, hi)
    if expected < n_layers:
        violations.append(Violation(
            "CoverageGap", f"layers {expected}..{n_layers - 1} are unassigned"))
    if expected > n_layers:
        violations.append(Violation(
            "NotContiguous", f"ranges extend past the last layer ({n_layers - 1})"))

    if not network.has_node(placement.parent_id):
        violations.append(Violation(
            "UnknownNode", f"parent {placement.parent_id!r} not in fleet"))
    for node_id, (lo, hi) in placement.assignments:
        if not network.has_node(node_id):
            violations.append(Violation("UnknownNode", f"node {node_id!r} not in fleet"))
            continue
        node = network.node(node_id)
        if not node.online:
            violations.append(Violation("NodeOffline", f"node {node_id!r} is offline"))
        # a malformed range costs what slicing the layers with it holds
        lo, hi, _ = slice(lo, min(hi, n_layers)).indices(n_layers)
        assigned = mem[max(lo, hi)] - mem[lo]
        if assigned > node.mem_free_bytes:
            violations.append(Violation(
                "MemoryExceeded",
                f"node {node_id!r} holds {assigned} bytes, free {node.mem_free_bytes}"))

    for i in range(len(placement.assignments) - 1):
        a = placement.assignments[i][0]
        b = placement.assignments[i + 1][0]
        if network.has_node(a) and network.has_node(b) and a != b:
            if network.link_between(a, b) is None:
                violations.append(Violation(
                    "MissingLink", f"no link between consecutive nodes {a!r} and {b!r}"))
    return violations


# --- JSON interchange ---------------------------------------------------------------

def scenario_to_json(scenario: NetworkScenario) -> dict:
    return {
        "radius_r": scenario.radius_r,
        "parent_id": scenario.parent_id,
        "max_nodes": scenario.max_nodes,
        "nodes": [
            {
                "id": n.id,
                "mem_free_bytes": n.mem_free_bytes,
                "speed_flops_per_sec": n.speed_flops_per_sec,
                "workload_frac": n.workload_frac,
                "position": list(n.position),
                "online": n.online,
            }
            for n in scenario.nodes
        ],
        "links": [
            {
                "a": l.a,
                "b": l.b,
                "latency_sec": l.latency_sec,
                "bandwidth_bytes_per_sec": l.bandwidth_bytes_per_sec,
            }
            for l in scenario.links
        ],
    }


def scenario_from_json(doc: dict) -> NetworkScenario:
    nodes = [
        NodeProfile(
            id=entry["id"],
            mem_free_bytes=_integer(entry["mem_free_bytes"], "mem_free_bytes"),
            speed_flops_per_sec=float(entry["speed_flops_per_sec"]),
            workload_frac=float(entry.get("workload_frac", 0.0)),
            position=tuple(entry.get("position", (0.0, 0.0))),
            online=entry.get("online", True),
        )
        for entry in doc["nodes"]
    ]
    links = [
        LinkProfile(
            a=entry["a"],
            b=entry["b"],
            latency_sec=float(entry["latency_sec"]),
            bandwidth_bytes_per_sec=float(entry["bandwidth_bytes_per_sec"]),
        )
        for entry in doc["links"]
    ]
    return NetworkScenario(nodes, links, float(doc["radius_r"]),
                           doc["parent_id"], _integer(doc.get("max_nodes", 4), "max_nodes"))


def placement_to_json(placement: Placement) -> dict:
    return {
        "parent_id": placement.parent_id,
        "assignments": [
            {"node_id": node_id, "layers": [lo, hi]}
            for node_id, (lo, hi) in placement.assignments
        ],
    }


def placement_from_json(doc: dict) -> Placement:
    pairs = [(entry["node_id"], entry["layers"]) for entry in doc["assignments"]]
    assignments = [(node_id, (_integer(lo, "layers"), _integer(hi, "layers")))
                   for node_id, (lo, hi) in pairs]
    _check_node_ids([doc["parent_id"], *(node_id for node_id, _ in assignments)])
    return Placement(assignments, doc["parent_id"])
