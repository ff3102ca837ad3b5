"""Topology index for the radial feeder.

One walk reads the topology (`walk_feeder`): the source, the nodes
breadth first with the edge feeding each, the node each load hangs on,
and every problem on the way.  `validate` reports the problems, and the
index is built from the same walk of a valid model.

The index is the feeder compiled once for a run: per-supernode lists the
power-flow sweep iterates over, built in walk order, plus the name maps a
run reads (each node's supernode, each load's node, each line's
configured status).  A line is orientation-free; a transformer's `from`
end must be the one nearer the source, since its ratio steps the voltage
down from there.  The islands of one set of line statuses are per
supernode, with the live supernodes' sweep rows; the engine's line
`status` writer computes them once per status change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import EDGE_CLASSES, LINE_CLASSES, NODE_CLASSES, GridObject, ScenarioModel

DEFAULT_NOMINAL_VOLTS = 7200.0
LOAD_CLASSES = frozenset({"house", "zipload", "waterheater", "solar"})


@dataclass
class NetworkIndex:
    """The feeder compiled for a run: the tree the power-flow sweep
    iterates over, and the name maps a run reads.

    Every node reached through a zero-impedance `parent:` link is merged
    into its upstream node's supernode.  Supernodes are numbered in
    topological order (the source's is 0), and position `s` of each list
    describes supernode `s` and the edge feeding it.
    """

    names: list[str]  # representative: the supernode's topmost node
    parent: list[int]  # parent supernode; -1 for the source
    impedance: list[complex]  # feeding edge, secondary side
    ratio: list[float]
    nominal: list[float]  # representative's nominal voltage
    edge: list[str]  # feeding edge's name; "" for the source
    position: dict[str, int]  # every node -> its supernode, in walk order
    attach_node: dict[str, str]  # load -> its node
    attachments: dict[str, list[str]]  # node -> its loads, in model order
    switchable: dict[str, str]  # line, switch or fuse -> its configured status, in walk order


class Feeder(NamedTuple):
    """One reading of the feeder's topology, of a valid model or not."""

    source: str | None  # the SWING node, when there is exactly one
    order: list[str]  # the nodes reached from the source, breadth first
    # node -> (edge name, upstream node, edge object or None on a `parent:` link)
    feed: dict[str, tuple[str, str, GridObject | None]]
    attach_node: dict[str, str]  # load -> its node
    problems: list[tuple[str, str, str]]  # (location, code, message)


def walk_feeder(model: ScenarioModel, names: dict[str, GridObject]) -> Feeder:
    """Read the topology of `model` (whose `by_name()` is `names`); never raises.

    A house hangs on a node; an appliance or solar panel on a node, or on a
    house that hangs on one.  The network is every named node-class object,
    joined by line and transformer edges and by the `parent:` link of each
    node whose class has a `parent` property (a `node` has none); the walk
    reaches every node of a radial feeder once."""
    from .kernel import PROPERTIES  # not at the top: kernel imports this module

    problems: list[tuple[str, str, str]] = []
    attach_node = {}
    for obj in model.objects:
        if obj.cls not in LOAD_CLASSES:
            continue
        parent = names.get(obj.ref("parent") or "")
        if parent is None:  # absent or dangling, as reported elsewhere
            continue
        if parent.cls == "house" and obj.cls != "house":  # that house reports its own parent
            parent = names.get(parent.ref("parent") or "")
            if parent is None or parent.cls not in NODE_CLASSES:
                continue
        elif parent.cls not in NODE_CLASSES:
            rule = "a meter" if obj.cls == "house" else "a house"
            loc = obj.name or f"<{obj.cls}@{obj.line}>"
            problems.append((loc, "BAD_PARENT", f"{obj.cls} parent must be {rule} or node"))
            continue
        attach_node[obj.name] = parent.name

    unwalked = Feeder(None, [], {}, attach_node, problems)
    nodes = [o.name for o in model.objects if o.cls in NODE_CLASSES and o.name]
    sources = [o.name for o in model.of_class("node") if o.name and o.ref("bustype") == "SWING"]
    if not sources:
        problems.append(("<network>", "NO_SOURCE", "no node with bustype SWING"))
    elif len(sources) > 1:
        problems.append(("<network>", "MULTI_SOURCE", f"{len(sources)} SWING nodes: {sorted(sources)}"))

    # undirected: node -> (neighbour, edge name, edge object)
    adjacency: dict[str, list[tuple[str, str, GridObject | None]]] = {n: [] for n in nodes}
    edge_count = 0
    for obj in model.objects:
        if obj.name is None:
            continue
        if obj.cls in EDGE_CLASSES:
            a, b = obj.ref("from"), obj.ref("to")
            if a in adjacency and b in adjacency:
                if a == b:
                    problems.append((obj.name, "NOT_RADIAL", "self-loop edge"))
                    continue
                adjacency[a].append((b, obj.name, obj))
                adjacency[b].append((a, obj.name, obj))
                edge_count += 1
            else:
                for endpoint in (a, b):
                    if endpoint in names and endpoint not in adjacency:
                        problems.append((obj.name, "BAD_ENDPOINT", f"'{endpoint}' is not an electrical node"))
        elif obj.cls in NODE_CLASSES and "parent" in PROPERTIES[obj.cls]:  # not `node`
            parent = obj.ref("parent")
            if parent in adjacency:
                link = f"parent:{obj.name}"
                adjacency[parent].append((obj.name, link, None))
                adjacency[obj.name].append((parent, link, None))
                edge_count += 1
            elif parent in names:
                problems.append((obj.name, "BAD_PARENT", f"{obj.cls} parent must be a node"))
    if len(sources) != 1:
        return unwalked

    source = sources[0]
    order, feed, cycle = [source], {}, False
    for node in order:  # appended to as nodes are reached: breadth first
        via = feed[node][0] if node in feed else None
        for other, link, obj in adjacency[node]:
            if link == via:
                continue
            if other in feed or other == source:
                cycle = True
                continue
            feed[other] = (link, node, obj)
            order.append(other)
            if obj is not None and obj.cls == "transformer" and obj.ref("from") != node:
                ends = f"its 'to' end '{node}': 'from' must be the end nearer the source, not '{other}'"
                problems.append((link, "BAD_ENDPOINT", f"transformer fed from {ends}"))
    if cycle or edge_count >= len(nodes):
        problems.append(("<network>", "NOT_RADIAL", "electrical network contains a cycle"))
    unreached = sorted(set(nodes) - set(order))
    if unreached:
        problems.append(("<network>", "NOT_RADIAL", f"nodes not connected to the source: {unreached}"))
    return Feeder(source, order, feed, attach_node, problems)


def build_network_index(model: ScenarioModel) -> NetworkIndex:
    """Precondition: validate(model) reported no errors."""
    names = model.by_name()
    feeder = walk_feeder(model, names)
    index = NetworkIndex([], [], [], [], [], [], {}, feeder.attach_node, {n: [] for n in feeder.order}, {})
    volts = {}  # every node's nominal voltage; the walk reaches a node's upstream node first
    for node in feeder.order:
        link, upstream, obj = feeder.feed.get(node, ("", None, None))
        ratio = float(obj.get("ratio", 1.0)) if obj is not None and obj.cls == "transformer" else 1.0
        explicit = names[node].get("nominal_voltage")
        if explicit is not None:
            volts[node] = float(explicit)
        else:
            volts[node] = volts[upstream] / ratio if upstream else DEFAULT_NOMINAL_VOLTS
        if upstream is not None and obj is None:  # a `parent:` link
            index.position[node] = index.position[upstream]
            continue
        index.position[node] = len(index.names)
        index.names.append(node)
        index.parent.append(index.position[upstream] if upstream else -1)
        index.impedance.append(complex(obj.get("impedance", 0j)) if obj else 0j)
        index.ratio.append(ratio)
        index.nominal.append(volts[node])
        index.edge.append(link)
        if obj is not None and obj.cls in LINE_CLASSES:
            index.switchable[link] = obj.ref("status") or "CLOSED"
    for load, node in feeder.attach_node.items():
        index.attachments[node].append(load)
    return index


class Islands(NamedTuple):
    """Under one set of line statuses: whether each supernode is energized,
    and the sweep row of each live one but the source, in topological order."""

    live: tuple[bool, ...]
    rows: tuple[tuple[int, int, float, complex, float], ...]  # (s, parent, ratio, impedance, nominal)


def compute_islands(index: NetworkIndex, statuses: dict[str, str]) -> Islands:
    """A supernode is live iff every edge on its path to the source is
    CLOSED.  Edges missing from `statuses` are closed; a `parent:` link is
    never switchable, so the supernode's feeding edge decides."""
    live, rows = [True], []
    for s in range(1, len(index.names)):
        p = index.parent[s]
        on = live[p] and statuses.get(index.edge[s], "CLOSED") == "CLOSED"
        live.append(on)
        if on:
            rows.append((s, p, index.ratio[s], index.impedance[s], index.nominal[s]))
    return Islands(tuple(live), tuple(rows))
