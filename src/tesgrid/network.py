"""Topology index for the radial feeder.

Built once after validation: the electrical nodes in topological order,
the edges oriented away from the source, the point of attachment for
every load-bearing object (houses, appliances, solar), and the compiled
tree the power-flow sweep iterates over.  The islands of one set of line
statuses are per supernode of that tree, with the live supernodes' sweep
rows; the line-status board computes them once per status change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .model import EDGE_CLASSES, LINE_CLASSES, NODE_CLASSES, ScenarioModel

DEFAULT_NOMINAL_VOLTS = 7200.0


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


def _electrical_node_for(model_names, obj) -> str | None:
    """Walk parent references until an electrical node is reached."""
    current = obj
    for _ in range(32):  # attachment chains are short; bound defends cycles
        if current.cls in NODE_CLASSES:
            return current.name
        parent_name = current.ref("parent")
        if parent_name is None:
            return None
        current = model_names.get(parent_name)
        if current is None:
            return None
    return None


def build_network_index(model: ScenarioModel) -> NetworkIndex:
    """Precondition: validate(model) reported no errors."""
    names = model.by_name()
    source = next(
        o.name
        for o in model.of_class("node")
        if "bustype" in o.properties and str(o.properties["bustype"].value) == "SWING"
    )

    adjacency: dict[str, list[NetworkEdge]] = {
        o.name: [] for o in model.objects if o.cls in NODE_CLASSES
    }
    for obj in model.objects:
        if obj.cls in EDGE_CLASSES:
            z = obj.get("impedance", 0j)
            edge = NetworkEdge(
                name=obj.name,
                cls=obj.cls,
                parent=obj.ref("from"),
                child=obj.ref("to"),
                impedance=complex(z),
                ratio=float(obj.get("ratio", 1.0)) if obj.cls == "transformer" else 1.0,
                switchable=obj.cls in LINE_CLASSES,
            )
            adjacency[edge.parent].append(edge)
            adjacency[edge.child].append(edge)
        elif obj.cls in NODE_CLASSES:
            parent = obj.ref("parent")
            if parent is not None:
                edge = NetworkEdge(
                    name=f"parent:{obj.name}",
                    cls="parent",
                    parent=parent,
                    child=obj.name,
                    impedance=0j,
                    ratio=1.0,
                    switchable=False,
                )
                adjacency[parent].append(edge)
                adjacency[obj.name].append(edge)

    order = [source]
    feed_edge: dict[str, NetworkEdge] = {}  # node -> edge from its parent
    nominal = {source: float(names[source].get("nominal_voltage", DEFAULT_NOMINAL_VOLTS))}
    edges_by_name: dict[str, NetworkEdge] = {}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for edge in adjacency[node]:
                other = edge.child if edge.parent == node else edge.parent
                if other in nominal:  # reached already
                    continue
                # orient the edge away from the source
                if edge.parent != node:
                    edge = NetworkEdge(
                        edge.name, edge.cls, node, other, edge.impedance, edge.ratio, edge.switchable
                    )
                feed_edge[other] = edge
                edges_by_name[edge.name] = edge
                explicit = names[other].get("nominal_voltage")
                nominal[other] = float(explicit) if explicit is not None else nominal[node] / edge.ratio
                order.append(other)
                nxt.append(other)
        frontier = nxt

    index = NetworkIndex(
        source=source,
        order=order,
        edges_by_name=edges_by_name,
        nominal_volts=nominal,
        tree=compile_sweep_tree(order, feed_edge, nominal),
        attachments={n: [] for n in order},
    )
    for obj in model.objects:
        if obj.cls in ("house", "zipload", "waterheater", "solar"):
            node = _electrical_node_for(names, obj)
            if node is not None:
                index.attachments[node].append(obj.name)
                index.attach_node[obj.name] = node
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


def deenergized_objects(index: NetworkIndex, islands: Islands) -> set[str]:
    """Model objects whose every electrical attachment is de-energized.

    Edge objects count when both endpoints are dead; an OPEN boundary edge
    with a live parent therefore does not count.
    """
    live, position = islands.live, index.tree.position
    dead: set[str] = set()
    for node, s in position.items():
        if not live[s]:
            dead.add(node)
            dead.update(index.attachments[node])
    for edge in index.edges_by_name.values():
        if edge.cls != "parent" and not live[position[edge.parent]] and not live[position[edge.child]]:
            dead.add(edge.name)
    return dead
