"""Topology index tests: depths, orientation, islanding against an
independent reachability oracle, and the hand-traced outage set."""

from oracles import deenergized_objects, reachability_oracle

from tesgrid.network import build_network_index, compute_islands


def node_islands(index, islands):
    """Node name -> energized, read through each node's supernode."""
    return {node: islands.live[index.tree.position[node]] for node in index.order}


def test_depths(small_model):
    index = build_network_index(small_model)
    assert index.source == "n1"
    parent_of = {edge.child: edge.parent for edge in index.edges_by_name.values()}
    depth = {}
    for node in index.order:  # topological: a parent's depth is known first
        depth[node] = depth[parent_of[node]] + 1 if node in parent_of else 1
    assert depth == {
        "n1": 1, "n2": 2, "tn1": 2,
        "tm1": 3, "tm2": 3, "tn2": 3,
        "tm3": 4, "tm4": 4,
    }
    deepest = max(depth[n] for n in index.order if n.startswith("tm"))
    assert deepest == 4


def test_orientation_and_nominal_voltages(small_model):
    index = build_network_index(small_model)
    tree, edges = index.tree, index.edges_by_name
    assert tree.parent[tree.position["n2"]] == tree.position["n1"]
    assert tree.position["tm3"] == tree.position["tn2"]  # merged over its parent link
    assert edges["UL1"].parent == "n1" and edges["UL1"].child == "n2"
    assert edges["parent:tm3"].parent == "tn2"
    assert edges["T1"].ratio == 30.0
    assert edges["parent:tm1"].cls == "parent"
    assert edges["parent:tm1"].impedance == 0j
    assert index.nominal_volts["n1"] == 7200.0
    assert index.nominal_volts["tm3"] == 240.0


def test_attachments(small_model):
    index = build_network_index(small_model)
    assert index.attach_node["h1"] == "tm1"
    assert index.attach_node["z1"] == "tm3"
    assert index.attach_node["s1"] == "tm1"
    assert sorted(index.attachments["tm3"]) == ["h3", "z1"]


def test_islands_match_oracle(small_model):
    index = build_network_index(small_model)
    for statuses in ({}, {"UL1": "OPEN"}, {"UL1": "CLOSED"}):
        islands = compute_islands(index, statuses)
        assert node_islands(index, islands) == reachability_oracle(index, statuses)


def test_hand_traced_outage_set(small_model):
    """Opening UL1 de-energizes exactly the downstream leg."""
    index = build_network_index(small_model)
    islands = compute_islands(index, {"UL1": "OPEN"})
    dead = deenergized_objects(index, islands)
    assert dead == {"n2", "T2", "tn2", "tm3", "tm4", "h3", "h4", "z1", "w1"}
    assert len(dead) == 9
    # the OPEN line itself still has a live parent, so it is not counted
    assert "UL1" not in dead
    live = {n for n, on in node_islands(index, islands).items() if on}
    assert live == {"n1", "tn1", "tm1", "tm2"}


def test_closed_everything_energized(small_model):
    index = build_network_index(small_model)
    islands = compute_islands(index, {})
    assert all(islands.live)
    assert len(islands.rows) == len(index.tree.names) - 1
    assert deenergized_objects(index, islands) == set()
