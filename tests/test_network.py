"""Topology index tests: depths, orientation, islanding against an
independent reachability oracle, and the hand-traced outage set."""

from oracles import deenergized_objects, reachability_oracle

from tesgrid.network import build_network_index, compute_islands, walk_feeder


def node_islands(index, islands):
    """Node name -> energized, read through each node's supernode."""
    return {node: islands.live[s] for node, s in index.position.items()}


def test_depths(small_model):
    index = build_network_index(small_model)
    assert index.names[0] == "n1"  # the source
    feed = walk_feeder(small_model, small_model.by_name()).feed
    depth = {}
    for node in index.position:  # walk order: a parent's depth is known first
        depth[node] = depth[feed[node][1]] + 1 if node in feed else 1
    assert depth == {
        "n1": 1, "n2": 2, "tn1": 2,
        "tm1": 3, "tm2": 3, "tn2": 3,
        "tm3": 4, "tm4": 4,
    }
    deepest = max(depth[n] for n in index.position if n.startswith("tm"))
    assert deepest == 4


def test_orientation_and_nominal_voltages(small_model):
    index = build_network_index(small_model)
    position = index.position
    assert list(position) == ["n1", "n2", "tn1", "tn2", "tm1", "tm2", "tm3", "tm4"]  # walk order
    assert index.parent[position["n2"]] == position["n1"]
    assert position["tm3"] == position["tn2"]  # merged over its parent link
    assert index.edge[position["n2"]] == "UL1"  # UL1 feeds n2 from n1
    assert index.ratio[position["tn1"]] == 30.0  # T1
    assert index.impedance[position["tn1"]] == 0.02 + 0.04j
    assert index.nominal[position["n1"]] == 7200.0
    assert index.nominal[position["tm3"]] == 240.0


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
        assert node_islands(index, islands) == reachability_oracle(small_model, statuses)


def test_hand_traced_outage_set(small_model):
    """Opening UL1 de-energizes exactly the downstream leg."""
    index = build_network_index(small_model)
    islands = compute_islands(index, {"UL1": "OPEN"})
    dead = deenergized_objects(small_model, index, islands)
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
    assert len(islands.rows) == len(index.names) - 1
    assert deenergized_objects(small_model, index, islands) == set()
