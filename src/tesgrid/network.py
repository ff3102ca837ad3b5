"""Topology index for the radial feeder.

One walk reads the topology (`walk_feeder`): the source, the nodes
breadth first with the edge feeding each, the node each load hangs on,
and every problem on the way.  `validate` reports the problems, and the
index is built from the same walk of a valid model.

The index holds the electrical nodes in topological order, the edges
oriented away from the source, the point of attachment for every
load-bearing object (houses, appliances, solar), and the compiled tree
the power-flow sweep iterates over.  The islands of one set of line
statuses are per supernode of that tree, with the live supernodes' sweep
rows; the line-status board computes them once per status change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .model import EDGE_CLASSES, LINE_CLASSES, NODE_CLASSES, GridObject, ScenarioModel

DEFAULT_NOMINAL_VOLTS = 7200.0
LOAD_CLASSES = frozenset({"house", "zipload", "waterheater", "solar"})


@dataclass(frozen=True)
class NetworkEdge:
    name: str
    cls: str  # line class, "transformer", or "parent"
    parent: str
    child: str
    impedance: complex
    ratio: float  # primary/secondary turns ratio; 1.0 for lines
    switchable: bool


@dataclass(frozen=True)
class SweepTree:
    """The feeder as the power-flow sweep sees it.

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
    position: dict[str, int]  # every node -> its supernode, in index order


@dataclass
class NetworkIndex:
    source: str
    order: list[str]  # topological, source first
    edges_by_name: dict[str, NetworkEdge]  # oriented away from the source
    nominal_volts: dict[str, float]
    tree: SweepTree
    attachments: dict[str, list[str]] = field(default_factory=dict)
    attach_node: dict[str, str] = field(default_factory=dict)  # object -> node


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
    if cycle or edge_count >= len(nodes):
        problems.append(("<network>", "NOT_RADIAL", "electrical network contains a cycle"))
    unreached = sorted(set(nodes) - set(order))
    if unreached:
        problems.append(("<network>", "NOT_RADIAL", f"nodes not connected to the source: {unreached}"))
    return Feeder(source, order, feed, attach_node, problems)


def _network_edge(child: str, link: str, upstream: str, obj: GridObject | None) -> NetworkEdge:
    """The edge feeding `child`, from its `feed` entry."""
    if obj is None:
        return NetworkEdge(link, "parent", upstream, child, 0j, 1.0, False)
    ratio = float(obj.get("ratio", 1.0)) if obj.cls == "transformer" else 1.0
    impedance = complex(obj.get("impedance", 0j))
    return NetworkEdge(link, obj.cls, upstream, child, impedance, ratio, obj.cls in LINE_CLASSES)


def build_network_index(model: ScenarioModel) -> NetworkIndex:
    """Precondition: validate(model) reported no errors."""
    names = model.by_name()
    feeder = walk_feeder(model, names)
    source = feeder.source
    feed_edge = {node: _network_edge(node, *link) for node, link in feeder.feed.items()}
    nominal = {source: float(names[source].get("nominal_voltage", DEFAULT_NOMINAL_VOLTS))}
    for node, edge in feed_edge.items():  # in walk order, so upstream first
        explicit = names[node].get("nominal_voltage")
        nominal[node] = float(explicit) if explicit is not None else nominal[edge.parent] / edge.ratio
    index = NetworkIndex(
        source=source,
        order=feeder.order,
        edges_by_name={edge.name: edge for edge in feed_edge.values()},
        nominal_volts=nominal,
        tree=compile_sweep_tree(feeder.order, feed_edge, nominal),
        attachments={n: [] for n in feeder.order},
        attach_node=feeder.attach_node,
    )
    for load, node in feeder.attach_node.items():
        index.attachments[node].append(load)
    return index


def compile_sweep_tree(
    order: list[str], feed_edge: dict[str, NetworkEdge], nominal: dict[str, float]
) -> SweepTree:
    """Merge `parent:` links into supernodes; `order` must be topological,
    so a node's upstream supernode is numbered before the node is seen."""
    tree = SweepTree([], [], [], [], [], [], {})
    for node in order:
        edge = feed_edge.get(node)
        if edge is not None and edge.cls == "parent":
            tree.position[node] = tree.position[edge.parent]
            continue
        tree.position[node] = len(tree.names)
        tree.names.append(node)
        tree.parent.append(tree.position[edge.parent] if edge else -1)
        tree.impedance.append(edge.impedance if edge else 0j)
        tree.ratio.append(edge.ratio if edge else 1.0)
        tree.nominal.append(nominal[node])
        tree.edge.append(edge.name if edge else "")
    return tree


class Islands(NamedTuple):
    """Under one set of line statuses: whether each supernode is energized,
    and the sweep row of each live one but the source, in topological order."""

    live: tuple[bool, ...]
    rows: tuple[tuple[int, int, float, complex, float], ...]  # (s, parent, ratio, impedance, nominal)


def compute_islands(index: NetworkIndex, statuses: dict[str, str]) -> Islands:
    """A supernode is live iff every edge on its path to the source is
    CLOSED.  Edges missing from `statuses` are closed; a `parent:` link is
    never switchable, so the supernode's feeding edge decides."""
    tree = index.tree
    live, rows = [True], []
    for s in range(1, len(tree.names)):
        p = tree.parent[s]
        on = live[p] and statuses.get(tree.edge[s], "CLOSED") == "CLOSED"
        live.append(on)
        if on:
            rows.append((s, p, tree.ratio[s], tree.impedance[s], tree.nominal[s]))
    return Islands(tuple(live), tuple(rows))
