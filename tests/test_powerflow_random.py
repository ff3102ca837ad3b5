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
converged or diverged; so must hand-made feeders at the edges of the
generated code (more than 255 locals, signed-zero impedances, names that
are not Python identifiers), whose source holds no scenario text.
"""

import io
import math
import re
import tokenize
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import demand_list, dense_powerflow_oracle, reachability_oracle, sweep_reference

from tesgrid import kernel, powerflow
from tesgrid.errors import SolverDivergence
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.model import Value
from tesgrid.network import build_network_index, compute_islands, walk_feeder
from tesgrid.powerflow import MAX_ITERATIONS, solve_powerflow
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


def _never_met(index, demand):
    """A tolerance of 0.0 is never met: the solve raises after
    `MAX_ITERATIONS` passes with the reference's worst step."""
    with pytest.raises(SolverDivergence, match=f"did not converge in {MAX_ITERATIONS} iterations") as got:
        solve_powerflow(index, demand, tolerance_pu=0.0)
    with pytest.raises(SolverDivergence) as expected:
        sweep_reference(index, demand, tolerance_pu=0.0)
    assert repr(got.value.worst_residual) == repr(expected.value.worst_residual)


@settings(max_examples=30, deadline=None)
@given(radial_feeders(), st.data())
def test_sweep_matches_reference_bit_for_bit(feeder, data):
    text, _, _, loads, lines = feeder
    index = build_network_index(parse_scenario(text))
    demand = demand_list(index, loads)
    if data.draw(st.booleans(), label="nan load") and loads:
        demand[index.position[loads[0][0]]] = complex("nan")  # its steps read NaN
    tol = data.draw(st.sampled_from([1e-10, 1e-6, 1e-3]), label="tolerance")
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
    _never_met(index, demand)
    moved = [d * 1.3 for d in demand]
    assert both(moved, state.islands, start=state)[0][3] > 1  # warm start over the same islands


def _matches_reference(text, loads):
    """Solve the feeder of `text` under `loads` from a flat start, in
    three, one and no iterations and warm from the flat start's solution,
    each bit for bit as `sweep_reference`, and with a tolerance never met;
    returns the index and the flat start's state."""
    index = build_network_index(parse_scenario(text))
    demand = demand_list(index, loads)

    def both(*args, **kwargs):
        got, state = _outcome(solve_powerflow, index, *args, **kwargs)
        assert got == _outcome(sweep_reference, index, *args, **kwargs)[0]
        return got, state

    (_, _, _, iterations), state = both(demand)
    assert 1 < iterations < 50
    _never_met(index, demand)
    for iterations in (3, 1, 0):
        both(demand, max_iterations=iterations)
    both([d * 1.3 for d in demand], state.islands, start=state)
    return index, state


def _feeder(edges, source="n0"):
    """A SWING node `source` and, per (node, edge object, upstream node,
    impedance), that node fed from its upstream one."""
    lines = [f"object node {{ name {source}; bustype SWING; nominal_voltage 7200 V; }}"]
    for node, edge, up, impedance in edges:
        lines.append(f"object node {{ name {node}; }}")
        lines.append(f"object {edge}; from {up}; to {node}; impedance {impedance}; }}")
    return "\n".join(lines) + "\n"


CHAIN = _feeder(
    (f"n{i}", f"overhead_line {{ name l{i}", f"n{i - 1}", "0.01+0.02j Ohm") for i in range(1, 301)
)
# 300 siblings under p, fed by lines and transformers in runs of each
SIBLINGS = _feeder(
    [("p", "overhead_line { name lp", "n0", "0.2+0.4j Ohm")] + [
        (f"c{i}", f"transformer {{ name t{i}; ratio 30" if i % 50 < 25 else f"underground_line {{ name u{i}",
         "p", "0.01+0.02j Ohm")
        for i in range(1, 301)
    ]
)


@pytest.mark.parametrize("text, loaded", [(CHAIN, "n"), (SIBLINGS, "c")], ids=["chain", "siblings"])
def test_sweeps_with_more_than_255_locals_match_reference(text, loaded):
    index, state = _matches_reference(text, [(f"{loaded}{i}", 1e3 + 2e2j) for i in range(1, 301)])
    assert index.sweeps[state.islands.live].run.__code__.co_nlocals > 255


def test_zero_and_negative_zero_impedances_match_reference():
    """l1's impedance has a -0.0 imaginary part (a unit would scale it to
    +0.0) and sw has none.  The feeder is resistive and its loads real, so
    every current's imaginary part is a zero whose sign the sweep must keep."""
    text = _feeder([("a", "overhead_line { name l1", "n0", "0.3-0j"), ("b", "switch { name sw", "a", "0j"),
                    ("c", "overhead_line { name l2", "b", "0.2 Ohm")])
    index, state = _matches_reference(text, [("a", 5e3), ("b", 8e3), ("c", 3e3)])
    assert math.copysign(1.0, index.impedance[1].imag) == -1.0 and index.impedance[2] == 0j
    assert all(c.imag == 0.0 for c in state.cur)


@pytest.mark.parametrize("impedance", ["0.3-0j", "-0.3+0j", "-0-0j", "0-0.2j", "-0.0+0.2j", "0.3+0.6j"])
def test_impedance_keeps_its_signed_parts_with_or_without_a_unit(impedance):
    reached = []
    for spelled in (impedance, f"{impedance} Ohm"):
        index = build_network_index(parse_scenario(_feeder([("a", "overhead_line { name l1", "n0", spelled)])))
        z = index.impedance[index.position["a"]]
        reached.append((z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)))
    assert reached[0] == reached[1]
    assert reached[0][0] == complex(impedance)


ODD_NAMES = _feeder([("lambda", "overhead_line { name def", "class", "0.3+0.6j Ohm"),
                     ("n-1", "switch { name import", "lambda", "0.1+0.1j Ohm"),
                     ("attack:a", "transformer { name x-y; ratio 30", "n-1", "0.01+0.02j Ohm"),
                     ("return", "underground_line { name line:b", "lambda", "0.2+0.1j Ohm")], source="class")
# the identifiers every generated sweep is written with
SWEEP_WORDS = {"def", "run", "worst", "v", "demand", "cur", "consts", "tol", "last", "iteration",
               "while", "True", "False", "if", "not", "and", "else", "break", "return", "abs", "conjugate",
               "far", "i", "f", "x", "loss", "step", "at", "_"}


def test_sweep_source_holds_no_scenario_name():
    """Names that are Python keywords or no identifiers at all solve as
    `sweep_reference` does, and no scenario text reaches the generated
    source: only fixed words and one local per supernode and list."""
    with patch.object(powerflow, "_compile", wraps=powerflow._compile) as compiled:
        index, _ = _matches_reference(ODD_NAMES, [("lambda", 4e3 + 1e3j), ("attack:a", 2e3), ("return", 1e3)])
    assert index.names == ["class", "lambda", "n-1", "return", "attack:a"]
    sources = [call.args[0] for call in compiled.call_args_list]
    assert [src.split("(")[0].split()[-1] for src in sources] == ["run", "worst"]
    for src in sources:
        tokens = list(tokenize.generate_tokens(io.StringIO(src).readline))
        kinds = {tokenize.tok_name[tok.type] for tok in tokens}
        assert kinds <= {"NAME", "NUMBER", "OP", "NEWLINE", "NL", "INDENT", "DEDENT", "ENDMARKER"}
        words = {tok.string for tok in tokens if tok.type == tokenize.NAME}
        assert all(word in SWEEP_WORDS or re.fullmatch(r"[vcdrzn][0-9]+", word) for word in words), words
        # a supernode index, or one of the zeros sums and steps start from: no value of a row
        numbers = {tok.string for tok in tokens if tok.type == tokenize.NUMBER}
        assert all(re.fullmatch(r"[0-9]+|0j|0\.0", number) for number in numbers), numbers
