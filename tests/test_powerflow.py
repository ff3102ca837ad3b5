"""Power-flow tests against two independent oracles: the 2-bus closed
form and a dense nodal (admittance-matrix) direct solve."""

import math

import numpy as np
import pytest

from tesgrid.errors import SolverDivergence
from tesgrid.glm import parse_scenario
from tesgrid.network import build_network_index, compute_islands
from tesgrid.powerflow import SYSTEM_BASE_VA, VOLTAGE_TOLERANCE_PU, solve_powerflow

from oracles import demand_list, dense_powerflow_oracle as dense_oracle

TWO_BUS = """
object node { name s; bustype SWING; nominal_voltage 7200 V; }
object node { name b; nominal_voltage 7200 V; }
object overhead_line { name l1; from s; to b; impedance 1+2j Ohm; }
"""


def test_two_bus_closed_form():
    index = build_network_index(parse_scenario(TWO_BUS))
    P, Q = 500e3, 100e3
    state = solve_powerflow(index, demand_list(index, [("b", complex(P, Q))]))
    R, X = 1.0, 2.0
    vs = 7200.0
    z2 = R * R + X * X
    # |V|^4 + (2(PR+QX) - |Vs|^2)|V|^2 + (P^2+Q^2)|Z|^2 = 0
    bq = 2.0 * (P * R + Q * X) - vs * vs
    disc = bq * bq - 4.0 * (P * P + Q * Q) * z2
    vmag = math.sqrt((-bq + math.sqrt(disc)) / 2.0)
    assert abs(abs(state.voltages["b"]) - vmag) / vs < 1e-9


def test_two_bus_no_load_flat():
    index = build_network_index(parse_scenario(TWO_BUS))
    state = solve_powerflow(index, demand_list(index, []))
    assert state.voltages["b"] == pytest.approx(7200.0 + 0j)
    assert state.iterations <= 2


def test_dense_oracle_two_bus():
    model = parse_scenario(TWO_BUS)
    index = build_network_index(model)
    loads = [("b", complex(300e3, 60e3))]
    state = solve_powerflow(index, demand_list(index, loads))
    oracle = dense_oracle(model, loads)
    for node, s in index.position.items():
        assert abs(state.voltages[node] - oracle[node]) / index.nominal[s] < 1e-6


def test_dense_oracle_small_fixture(small_model):
    """Eight-bus fixture with two transformer legs and parent links."""
    index = build_network_index(small_model)
    loads = [
        ("tm1", complex(1200.0, 200.0)),
        ("tm2", complex(900.0, 100.0)),
        ("tm3", complex(2500.0, 400.0)),
        ("tm4", complex(1800.0, 300.0)),
    ]
    state = solve_powerflow(index, demand_list(index, loads))
    oracle = dense_oracle(small_model, loads)
    for node, s in index.position.items():
        assert abs(state.voltages[node] - oracle[node]) / index.nominal[s] < 1e-6


def test_power_balance(small_model):
    index = build_network_index(small_model)
    loads = [
        ("tm1", complex(3000.0, 500.0)),
        ("tm3", complex(4000.0, 800.0)),
        ("tm4", complex(-900.0, 0.0)),  # injection (solar)
    ]
    state = solve_powerflow(index, demand_list(index, loads))
    assert state.power_mismatch_pu() < 1e-6
    assert state.source_power_va.real > 0


def test_transformer_secondary_voltage(small_model):
    index = build_network_index(small_model)
    state = solve_powerflow(index, demand_list(index, []))
    assert abs(state.voltages["tn1"]) == pytest.approx(240.0)
    assert state.voltages["tm1"] == state.voltages["tn1"]  # zero-impedance link


def test_open_line_deenergizes(small_model):
    index = build_network_index(small_model)
    loads = [("tm3", complex(2000.0, 0.0)), ("tm1", complex(1000.0, 0.0))]
    state = solve_powerflow(index, demand_list(index, loads), compute_islands(index, {"UL1": "OPEN"}))
    assert state.voltages["n2"] == 0j
    assert state.voltages["tm3"] == 0j
    assert abs(state.voltages["tm1"]) > 200.0
    assert state.load_power_va == pytest.approx(complex(1000.0, 0.0))
    assert state.power_mismatch_pu() < 1e-6


def test_divergence_raises():
    index = build_network_index(parse_scenario(TWO_BUS))
    with pytest.raises(SolverDivergence) as err:
        solve_powerflow(index, demand_list(index, [("b", complex(1e9, 0.0))]))
    assert err.value.worst_residual > VOLTAGE_TOLERANCE_PU


def test_contract_tolerance_iterations(small_model):
    index = build_network_index(small_model)
    loads = [("tm3", complex(5000.0, 1000.0))]
    state = solve_powerflow(index, demand_list(index, loads), tolerance_pu=VOLTAGE_TOLERANCE_PU)
    assert state.iterations <= 50


def test_system_base():
    assert SYSTEM_BASE_VA == 100e3


SMALL_LOADS = [
    ("tm1", complex(1200.0, 200.0)),
    ("tm3", complex(2500.0, 400.0)),
    ("tm4", complex(-900.0, 0.0)),
]


def _max_gap_pu(index, a, b):
    return max(abs(a.voltages[n] - b.voltages[n]) / index.nominal[s] for n, s in index.position.items())


def test_warm_start_matches_cold_solve(small_model):
    index = build_network_index(small_model)
    earlier = solve_powerflow(index, demand_list(index, [("tm2", complex(4000.0, 900.0))]))
    warm = solve_powerflow(index, demand_list(index, SMALL_LOADS), start=earlier)
    cold = solve_powerflow(index, demand_list(index, SMALL_LOADS))
    assert _max_gap_pu(index, warm, cold) < 1e-9
    assert warm.power_mismatch_pu() < 1e-6
    # from its own solution the sweep has nothing left to do
    assert solve_powerflow(index, demand_list(index, SMALL_LOADS), start=cold).iterations == 1


def test_reenergized_subtree_starts_from_nominal(small_model):
    index = build_network_index(small_model)
    opened = compute_islands(index, {"UL1": "OPEN"})
    closed = compute_islands(index, {"UL1": "CLOSED"})
    outage = solve_powerflow(index, demand_list(index, SMALL_LOADS), opened)
    assert outage.voltages["tm3"] == 0j
    restored = solve_powerflow(index, demand_list(index, SMALL_LOADS), closed, start=outage)
    cold = solve_powerflow(index, demand_list(index, SMALL_LOADS), closed)
    assert _max_gap_pu(index, restored, cold) < 1e-9
    assert restored.power_mismatch_pu() < 1e-6
    # After one sweep the re-energized leg equals a flat start's first sweep:
    # its currents only depend on its own (nominal) start voltages.  From
    # 0 V it would carry no current and still read nominal.
    first = solve_powerflow(index, demand_list(index, SMALL_LOADS), start=outage, tolerance_pu=1.0)
    flat_first = solve_powerflow(index, demand_list(index, SMALL_LOADS), tolerance_pu=1.0)
    assert first.iterations == flat_first.iterations == 1
    for node in ("n2", "tn2", "tm3", "tm4"):
        assert first.voltages[node] == flat_first.voltages[node]
    assert abs(first.voltages["tm3"]) < 240.0


def test_islands_from_the_caller(small_model):
    index = build_network_index(small_model)
    islands = compute_islands(index, {"UL1": "OPEN"})
    demand = demand_list(index, SMALL_LOADS)
    state = solve_powerflow(index, demand, islands)
    assert state.islands is islands
    assert state.voltages == solve_powerflow(index, demand, compute_islands(index, {"UL1": "OPEN"})).voltages


def test_islands_carry_the_live_sweep_rows(small_model):
    index = build_network_index(small_model)
    islands = compute_islands(index, {"UL1": "OPEN"})
    assert islands.live == (True, False, True, False)
    assert [row[:2] for row in islands.rows] == [(2, 0)]  # T1 from n1 to tn1
    first = solve_powerflow(index, demand_list(index, SMALL_LOADS), islands)
    second = solve_powerflow(index, demand_list(index, SMALL_LOADS[:1]), islands, start=first)
    assert first.islands is second.islands is islands
    assert first.islands.rows is second.islands.rows  # no per-solve copy
    assert solve_powerflow(index, demand_list(index, SMALL_LOADS)).islands.live == (True,) * 4


def test_merged_meters_report_their_supernode(small_model):
    index = build_network_index(small_model)
    assert index.names == ["n1", "n2", "tn1", "tn2"]
    assert index.parent == [-1, 0, 0, 1]
    assert index.edge == ["", "UL1", "T1", "T2"]
    assert index.ratio == [1.0, 1.0, 30.0, 30.0]
    assert index.position["tm3"] == index.position["tm4"] == index.position["tn2"] == 3
    state = solve_powerflow(index, demand_list(index, SMALL_LOADS))
    assert state.voltages["tm3"] == state.voltages["tm4"] == state.voltages["tn2"]
    assert list(state.voltages) == list(index.position)


def test_divergence_names_the_worst_node():
    index = build_network_index(parse_scenario(TWO_BUS))
    with pytest.raises(SolverDivergence) as err:
        solve_powerflow(index, demand_list(index, [("b", complex(1e9, 0.0))]))
    assert err.value.node == "b"
    assert "worst at b" in str(err.value)



def test_state_that_is_not_finite_is_a_divergence(small_text):
    # ratio 1e-300 on T2: the sweep settles on NaN, which no voltage step counted as far
    text = "ratio 1e-300;".join(small_text.rsplit("ratio 30;", 1))
    index = build_network_index(parse_scenario(text))
    with pytest.raises(SolverDivergence) as err:
        solve_powerflow(index, demand_list(index, SMALL_LOADS))
    assert err.value.node == "n2" and math.isnan(err.value.worst_residual)
    assert "not finite (at n2)" in str(err.value)


def test_finite_state_whose_sum_overflows_is_solved(small_text):
    # each secondary sits at 1.44e308 V: finite, though the screening sum is not
    index = build_network_index(parse_scenario(small_text.replace("ratio 30;", "ratio 5e-305;")))
    state = solve_powerflow(index, [0j] * len(index.names))
    assert abs(state.voltages["tn1"]) == abs(state.voltages["tn2"]) == 7200 / 5e-305
