"""Randomized oracle checks on generated radial feeders.

Hypothesis draws radial trees of lines, switches and fuses (each with a
configured status or none), transformers (ratio != 1) and zero-impedance
`parent:` links, with random loads and solar injections.  The compiled
sweep must agree with the dense nodal solve at every node, merged nodes
included, the islanding must agree with undirected reachability for
random OPEN/CLOSED statuses, and the index must hold each line's
configured status, which a run's statuses start from.  After each of a
run's status writes its islands and load plan must be those of its
statuses.  The sweep must also repeat `sweep_reference`, the sweep that
scans every step of every pass, bit for bit: cold and warm starts,
converged or diverged.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import demand_list, dense_powerflow_oracle, reachability_oracle, sweep_reference

from tesgrid import kernel
from tesgrid.errors import SolverDivergence
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.model import Value
from tesgrid.network import build_network_index, compute_islands, walk_feeder
from tesgrid.powerflow import solve_powerflow
from tesgrid.validate import validate

SOURCE_VOLTS = 7200.0
BASE_VA = 100e3  # impedances and loads are drawn per unit of this base
LINES = ("overhead_line", "underground_line", "switch", "fuse")


@st.composite
def radial_feeders(draw):
    """(scenario text, node names, nominal volts, loads, each line's drawn
    status: OPEN, CLOSED or None where the line sets none)."""
    n = draw(st.integers(min_value=2, max_value=24))
    nodes = [f"n{i}" for i in range(n)]
    nominal = [SOURCE_VOLTS]
    objects = [f"object node {{ name n0; bustype SWING; nominal_voltage {SOURCE_VOLTS} V; }}"]
    lines = {}
    for i in range(1, n):
        up = draw(st.integers(min_value=0, max_value=i - 1))
        kind = draw(st.sampled_from(LINES + ("transformer", "parent")))
        ratio = draw(st.sampled_from([0.5, 2.0, 4.0, 30.0]))
        if kind == "transformer" and not 100.0 <= nominal[up] / ratio <= 20000.0:
            kind = LINES[0]  # keep every voltage level in a sane range
        volts = nominal[up] / ratio if kind == "transformer" else nominal[up]
        nominal.append(volts)
        if kind == "parent":
            objects.append(f"object meter {{ name n{i}; parent n{up}; }}")
            continue
        objects.append(f"object node {{ name n{i}; }}")
        r = draw(st.floats(min_value=1e-3, max_value=1e-2))
        x = draw(st.floats(min_value=1e-3, max_value=2e-2))
        scale = volts * volts / BASE_VA
        impedance = f"{r * scale:.10f}+{x * scale:.10f}j Ohm"
        if kind == "transformer":
            objects.append(
                f"object transformer {{ name e{i}; from n{up}; to n{i}; ratio {ratio}; "
                f"impedance {impedance}; }}"
            )
        else:
            status = lines[f"e{i}"] = draw(st.sampled_from(["OPEN", "CLOSED", None]))
            set_status = f" status {status};" if status else ""
            objects.append(
                f"object {kind} {{ name e{i}; from n{up}; to n{i}; impedance {impedance};{set_status} }}"
            )
    loads = []
    for i in range(1, n):
        # up to 3% of the base per node; negative values are solar injections
        p = draw(st.floats(min_value=-0.01, max_value=0.03))
        q = draw(st.floats(min_value=0.0, max_value=0.01))
        if p or q:
            loads.append((nodes[i], complex(p, q) * BASE_VA))
    return "\n".join(objects) + "\n", nodes, nominal, loads, lines


@settings(max_examples=60, deadline=None)
@given(radial_feeders())
def test_compiled_sweep_matches_dense_oracle(feeder):
    text, nodes, nominal, loads, _ = feeder
    model = parse_scenario(text)
    index = build_network_index(model)
    state = solve_powerflow(index, demand_list(index, loads))
    oracle = dense_powerflow_oracle(model, loads)
    assert set(state.voltages) == set(nodes)
    for i, node in enumerate(nodes):
        assert index.nominal[index.position[node]] == nominal[i]
        assert abs(state.voltages[node] - oracle[node]) / nominal[i] < 1e-6
    assert state.power_mismatch_pu() < 1e-6


@settings(max_examples=60, deadline=None)
@given(radial_feeders(), st.data())
def test_islands_match_reachability(feeder, data):
    text, _, _, _, lines = feeder
    model = parse_scenario(text)
    index = build_network_index(model)
    statuses = {
        name: data.draw(st.sampled_from(["OPEN", "CLOSED"]), label=name) for name in lines
    }
    islands = compute_islands(index, statuses)
    live = {n: islands.live[s] for n, s in index.position.items()}
    assert live == reachability_oracle(model, statuses)


@settings(max_examples=60, deadline=None)
@given(radial_feeders())
def test_switchable_holds_each_line_configured_status(feeder):
    text, _, _, _, lines = feeder
    model = parse_scenario(text)
    index = build_network_index(model)
    walked = [link for link, _, _ in walk_feeder(model, model.by_name()).feed.values()]
    assert list(index.switchable) == [link for link in walked if link in lines]
    assert index.switchable == {name: status or "CLOSED" for name, status in lines.items()}


CLOCK = 'clock { start "2013-07-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep 60 s; }\n'


def with_loads(text, loads):
    """`text` plus a clock and, on each loaded node, a house beside a
    zipload, or beside a panel where the load is an injection."""
    return text + CLOCK + "".join(
        f"object house {{ name h_{node}; parent {node}; }}\n"
        + (f"object zipload {{ name z_{node}; parent {node}; base_power {va.real / 1e3:.3f} kW; }}\n"
           if va.real >= 0 else f"object solar {{ name pv_{node}; parent {node}; rating {-va.real / 1e3:.3f} kW; }}\n")
        for node, va in loads
    )


def plan_by_name(engine):
    """The engine's load plan, each load by its name."""
    houses, uncontrolled, appliances, panels = engine._plan
    return (
        [(house.name, slot) for house, slot in houses], [house.name for house in uncontrolled],
        [(app.name, slot) for app, slot in appliances], [(panel.name, slot) for panel, slot in panels],
    )


@settings(max_examples=25, deadline=None)
@given(radial_feeders(), st.data())
def test_status_writes_keep_the_islands_and_plan_current(feeder, data):
    text, _, _, loads, lines = feeder
    text = with_loads(text, loads)
    model, scratch = parse_scenario(text), parse_scenario(text)
    assert validate(model).runnable
    engine = Engine(model)
    assert engine.statuses == engine.index.switchable
    writers = {line: engine._bind(line, "status", write=True) for line in lines}
    writes = data.draw(
        st.lists(st.tuples(st.sampled_from(sorted(lines)), st.sampled_from(["OPEN", "CLOSED"])), max_size=8)
        if lines else st.just([])
    )
    computed = changed = 0
    for line, new in writes:
        with patch.object(kernel, "compute_islands", wraps=compute_islands) as compute:
            changed += writers[line](new) != new
        computed += compute.call_count
        assert computed == changed
        assert engine.islands == compute_islands(engine.index, engine.statuses)
        # a plan built from scratch: a run whose lines are configured as the statuses are now
        for obj in scratch.objects:
            if obj.name in lines:
                obj.properties["status"] = Value("REF", engine.statuses[obj.name])
        assert plan_by_name(Engine(scratch)) == plan_by_name(engine)


def _outcome(solve, *args, **kwargs):
    """(the solve's floats as reprs, or the divergence it raised; the state or None)"""
    try:
        state = solve(*args, **kwargs)
    except SolverDivergence as exc:
        return ("diverged", str(exc), repr(exc.worst_residual), exc.node), None
    powers = (state.source_power_va, state.load_power_va, state.loss_power_va)
    return (repr(state.v), repr(state.cur), repr(powers), state.iterations), state


@settings(max_examples=30, deadline=None)
@given(radial_feeders(), st.data())
def test_sweep_matches_reference_bit_for_bit(feeder, data):
    text, _, _, loads, lines = feeder
    index = build_network_index(parse_scenario(text))
    demand = demand_list(index, loads)
    if data.draw(st.booleans(), label="nan load") and loads:
        demand[index.position[loads[0][0]]] = complex("nan")  # its steps read NaN
    tol = data.draw(st.sampled_from([1e-10, 1e-6, 1e-3, 0.0]), label="tolerance")
    statuses = {name: data.draw(st.sampled_from(["OPEN", "CLOSED"]), label=name) for name in lines}
    islands = compute_islands(index, statuses)
    scale = data.draw(st.floats(min_value=0.5, max_value=1.5), label="load scale")
    moved = [d * scale for d in demand]

    def both(*args, **kwargs):
        """The sweep's state, after checking it against the reference's."""
        got, state = _outcome(solve_powerflow, *args, **kwargs)
        assert got == _outcome(sweep_reference, *args, **kwargs)[0]
        return state

    state = both(index, demand, tolerance_pu=tol)
    # too few iterations to converge from a flat start: the same worst step and node
    both(index, demand, max_iterations=3)
    if state is None:
        return
    # warm starts (both from the same, equal, state) over other islands,
    # then over the same islands object
    state = both(index, moved, islands, tol, start=state)
    if state is not None:
        both(index, demand, islands, tol, start=state)


# One parent `p` feeding c1, c2, c3 and, through meter m (a `parent:` link
# merged into p's supernode), c4, at ratios 30, 30, 2 and 30; c1 feeds g.
# Breadth first, g's row falls between c3's and c4's, so the sweep meets
# siblings with one ratio, then another, then p again after a grandchild.
FAN_OUT = "".join(
    f"object {obj} {{ {body} }}\n"
    for obj, body in [
        ("node", "name n0; bustype SWING; nominal_voltage 7200 V;"),
        ("node", "name p;"),
        ("overhead_line", "name l0; from n0; to p; impedance 0.3+0.6j Ohm;"),
        ("node", "name c1;"),
        ("node", "name c2;"),
        ("node", "name c3;"),
        ("transformer", "name t1; from p; to c1; ratio 30; impedance 0.01+0.02j Ohm;"),
        ("transformer", "name t2; from p; to c2; ratio 30; impedance 0.012+0.025j Ohm;"),
        ("transformer", "name t3; from p; to c3; ratio 2; impedance 1.5+3j Ohm;"),
        ("meter", "name m; parent p;"),  # after t1-t3: the walk reaches m after c1-c3
        ("node", "name g;"),
        ("node", "name c4;"),
        ("underground_line", "name lg; from c1; to g; impedance 0.004+0.002j Ohm;"),
        ("transformer", "name t4; from m; to c4; ratio 30; impedance 0.011+0.021j Ohm;"),
    ]
)
FAN_OUT_LOADS = [("p", 4e3 + 1e3j), ("c1", 9e3 + 2e3j), ("c2", 12e3 + 3e3j), ("c3", 30e3 + 8e3j),
                 ("g", 6e3 + 1e3j), ("m", 2e3 + 0.5e3j), ("c4", 15e3 - 2e3j)]


def test_fan_out_sweep_matches_reference_bit_for_bit():
    index = build_network_index(parse_scenario(FAN_OUT))
    names = index.names
    rows = compute_islands(index, {}).rows
    assert [(names[s], names[p], r) for s, p, r, _, _ in rows] == [
        ("p", "n0", 1.0), ("c1", "p", 30.0), ("c2", "p", 30.0), ("c3", "p", 2.0),
        ("g", "c1", 1.0), ("c4", "p", 30.0),
    ]
    demand = demand_list(index, FAN_OUT_LOADS)

    def both(*args, **kwargs):
        got, state = _outcome(solve_powerflow, index, *args, **kwargs)
        assert got == _outcome(sweep_reference, index, *args, **kwargs)[0]
        return got, state

    (_, _, _, iterations), state = both(demand)
    assert 2 < iterations < 50
    assert both(demand, tolerance_pu=0.0)[0][0] == "diverged"  # every pass scans every step
    moved = [d * 1.3 for d in demand]
    assert both(moved, state.islands, start=state)[0][3] > 1  # warm start over the same islands
    both(moved, state.islands, tolerance_pu=0.0, start=state)
