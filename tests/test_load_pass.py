"""The per-step load pass against the plain per-node build it replaced.

The kernel works out every load's kW once per step, in its loads phase,
and the solver's demand, the market round's unresponsive kW and the
recorders all read that.  Float order is part of the output contract,
so at every step each of them must equal, with ``==``, a reference built
the plain way in this file from the loads' own state:

- the per-supernode demand list: a per-node dict in first-seen order
  (houses, appliances, then minus solar, in kW), scaled by 1000 per
  node, added into supernodes;
- the unresponsive kW: appliances, uncontrolled houses, minus solar;
- each recorded load kW (``hvac_load_kw``, ``power_kw``), and each
  meter's ``measured_power_kw``, its loads summed in attachment order
  (which on tm1 of the small feeder is not the slot order), powered and
  unpowered.

The pass carries its sums from step to step and re-sums only what
changed, so the reference runs also write loads between steps: a player
on an appliance's ``base_power``, a schedule entry on a panel's
``rating``, and a ``deadband`` write after which a house flips mode
every few steps.

Also checked: a load plan made for each new islands object, the lazily
built ``voltages`` and ``currents`` dicts, the warm start by list copy,
and one weather sample per step.
"""

import pytest
from conftest import load_fixture

from tesgrid.feedergen import gen_feeder, gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.model import format_time
from tesgrid.loads import hvac_power, solar_output
from tesgrid.network import compute_islands
from tesgrid.powerflow import solve_powerflow

# the feeder_small hour under changing irradiance, with UL1 open 00:20-00:40
# and an appliance beside house h1 and panel s1, where (1 + 0.35) - solar
# and (1 - solar) + 0.35 differ in the last bit
SMALL_WEATHER = (
    "time,temperature_degF,irradiance_fraction\n"
    "2013-07-01 00:00:00,88.0,0.15\n"
    "2013-07-01 00:13:00,91.5,0.62\n"
    "2013-07-01 00:31:00,95.25,0.9\n"
    "2013-07-01 00:47:00,93.0,0.37\n"
)
SMALL_EXTRA = (
    "weather { file w.csv; }\n"
    "object zipload { name z2; parent tm1; base_power 0.35 kW; }\n"
    "schedule {\n"
    '    entry "2013-07-01 00:10:00" h2 cooling_setpoint 81 degF;\n'
    '    entry "2013-07-01 00:20:00" UL1 status OPEN;\n'
    '    entry "2013-07-01 00:40:00" UL1 status CLOSED;\n'
    "}\n"
)
# houses h4 and h5 share meter tm4 and only h5 has no controller; z1's
# base_power is written once.  UL1 opens at the first step, where h5 is
# cooling but unpowered, closes at 00:20 and opens again at 00:40: new
# islands with the live set of the first step's
CONTROLLED_EXTRA = (
    "weather { file w.csv; }\n"
    "object house { name h5; parent tm4; air_temperature 77 degF; cooling_setpoint 74 degF; hvac_rating 2.5 kW; }\n"
    + "".join(
        f"object controller {{ name c{i}; house h{i}; market A1; t_min 66 degF; t_base 70 degF; "
        "t_max 76 degF; k_ramp 2; }\n"
        for i in range(1, 5)
    )
    + "schedule {\n"
    '    entry "2013-07-01 00:00:00" UL1 status OPEN;\n'
    '    entry "2013-07-01 00:20:00" UL1 status CLOSED;\n'
    '    entry "2013-07-01 00:30:00" z1 base_power 0.45 kW;\n'
    '    entry "2013-07-01 00:40:00" UL1 status OPEN;\n'
    "}\n"
)
# feeder_small under writes that change loads between steps: a player on
# z1's base_power, whose rows fall on steps with no event (00:07 and
# 00:52), s1's rating raised at 00:17, and h2, on the panel's supernode
# but in a slot of its own, moved to 80 degF with a 0.05 degF deadband,
# so that it flips mode every few steps until the afternoon heat of 00:31
# holds it cooling; UL1 is open 00:20-00:40, and the irradiance moves at
# 00:13, 00:31 and 00:47
WRITES_PLAYER = (
    "time,value\n"
    "2013-07-01 00:00:00,1.2\n"
    "2013-07-01 00:07:00,3.5\n"
    "2013-07-01 00:25:00,0.6\n"
    "2013-07-01 00:52:00,2.25\n"
)
WRITES_EXTRA = (
    "weather { file w.csv; }\n"
    "player { name p1; target z1; property base_power; file z1.csv; }\n"
    "schedule {\n"
    '    entry "2013-07-01 00:05:00" h2 cooling_setpoint 80 degF;\n'
    '    entry "2013-07-01 00:05:00" h2 deadband 0.05 degF;\n'
    '    entry "2013-07-01 00:17:00" s1 rating 2.5 kW;\n'
    '    entry "2013-07-01 00:20:00" UL1 status OPEN;\n'
    '    entry "2013-07-01 00:40:00" UL1 status CLOSED;\n'
    "}\n"
)
# the generated 30-house day with its trunk open over the noon hour
FEEDER_EXTRA = (
    "schedule {\n"
    '    entry "2013-07-01 12:00:00" trunk status OPEN;\n'
    '    entry "2013-07-01 13:00:00" trunk status CLOSED;\n'
    "}\n"
)


def reference_load_pass(engine, t):
    """Demand and totals built the plain way from the engine's live state."""
    live, position = engine.islands.live, engine.index.position
    energized = {node: live[s] for node, s in position.items()}
    attach = engine.index.attach_node
    per_node: dict[str, float] = {}
    hvac = 0.0
    for name, house in engine.houses.items():
        node = attach[name]
        if energized[node]:
            kw = hvac_power(house)
            per_node[node] = per_node.get(node, 0.0) + kw
            hvac += kw
    for name, app in engine.appliances.items():
        node = attach[name]
        if energized[node]:
            per_node[node] = per_node.get(node, 0.0) + app.power_kw
    _, irradiance = engine.weather.sample(t)
    for name, panel in engine.solars.items():
        node = attach[name]
        if energized[node]:
            per_node[node] = per_node.get(node, 0.0) - solar_output(
                panel.rating_kw, panel.efficiency, irradiance
            )
    demand = [0j] * len(engine.index.names)
    for node, kw in per_node.items():
        demand[engine.index.position[node]] += complex(kw * 1000.0, 0.0)
    # left to right: builtin sum compensates on Python 3.12+, the kernel does not
    load = 0.0
    for kw in per_node.values():
        load += kw
    return demand, {"load": load, "hvac": hvac}


# the kW each load and meter records, the classes the reader oracle covers
LOAD_READS = {
    "house": "hvac_load_kw",
    "zipload": "power_kw",
    "waterheater": "power_kw",
    "solar": "power_kw",
    "triplex_meter": "measured_power_kw",
    "meter": "measured_power_kw",
}


def with_load_recorders(text, part=""):
    """`text` plus a recorder at every step on the kW of each load and meter
    whose name, or whose parent's, holds `part`."""
    model = parse_scenario(text)
    return text + "".join(
        f"recorder {{ name oracle_{obj.name}; target {obj.name}; property {LOAD_READS[obj.cls]}; "
        f"interval {model.clock.timestep} s; file oracle_{obj.name}.csv; }}\n"
        for obj in model.objects
        if obj.cls in LOAD_READS and part in obj.name + str(obj.get("parent"))
    )


def reference_signed_kw(engine, name, irradiance):
    """Load `name`'s kW from its own state; a panel's output counts negative."""
    if name in engine.houses:
        return hvac_power(engine.houses[name])
    if name in engine.appliances:
        return engine.appliances[name].power_kw
    panel = engine.solars[name]
    return -solar_output(panel.rating_kw, panel.efficiency, irradiance)


def reference_load_read(engine, target, prop, irradiance):
    """(value, flag) of a load's or meter's recorded kW, the plain way: the
    load's own kW, or a meter's signed loads summed in attachment order."""
    node = engine.index.attach_node.get(target, target)
    if not engine.islands.live[engine.index.position[node]]:
        return 0.0, "DEENERGIZED"
    if prop == "measured_power_kw":
        total = 0.0
        for name in engine.index.attachments[node]:
            total += reference_signed_kw(engine, name, irradiance)
        return total, ""
    kw = reference_signed_kw(engine, target, irradiance)
    return (-kw if target in engine.solars else kw), ""


def reference_unresponsive_kw(engine, model):
    """Appliances, uncontrolled HVAC, minus solar, over energized nodes, the
    plain way; the controlled houses are read from `model`."""
    live, position, attach = engine.islands.live, engine.index.position, engine.index.attach_node
    controlled = {obj.ref("house") for obj in model.of_class("controller")}
    total = 0.0
    for name, app in engine.appliances.items():
        if live[position[attach[name]]]:
            total += app.power_kw
    for name, house in engine.houses.items():
        if name not in controlled and live[position[attach[name]]]:
            total += hvac_power(house)
    _, irradiance = engine.weather.sample(engine.step_time)
    for name, panel in engine.solars.items():
        if live[position[attach[name]]]:
            total -= solar_output(panel.rating_kw, panel.efficiency, irradiance)
    return max(total, 0.0)


def run_against_reference(engine, model, monkeypatch):
    """Run `engine`, built from `model`, checking every step's load pass,
    unresponsive kW and load reads, and after the run each `oracle_*` row's
    flag; returns the step count.  Every class of `LOAD_READS` in the
    scenario must be read, and some reads must be unpowered."""
    checked, reads, flags = [], {}, {}
    build = Engine.build_load_injections
    loads = Engine._phase_loads
    read = Engine.read_property

    def phase_loads(self, t, dt, first):
        self.step_time, (_, self.step_irradiance) = t, self.weather.sample(t)
        loads(self, t, dt, first)
        assert self._unresp_kw == reference_unresponsive_kw(self, model), t

    def checked_read(self, target, prop):
        got = read(self, target, prop)
        cls = self._classes[target]
        if cls in LOAD_READS and prop == LOAD_READS[cls]:
            value, flag = reference_load_read(self, target, prop, self.step_irradiance)
            assert got == value, (self.step_time, target)
            flags[format_time(self.step_time), target] = flag
            reads.setdefault(self.step_time, set()).add((cls, flag))
        return got

    def checked_build(self):
        demand = build(self)
        want_demand, want_totals = reference_load_pass(self, self.step_time)
        assert demand == want_demand, self.step_time
        assert {"load": self._load_kw, "hvac": self._hvac_kw} == want_totals, self.step_time
        checked.append(not all(self.islands.live))
        return demand

    monkeypatch.setattr(Engine, "_phase_loads", phase_loads)
    monkeypatch.setattr(Engine, "build_load_injections", checked_build)
    monkeypatch.setattr(Engine, "read_property", checked_read)
    result = engine.run()
    assert result.complete
    assert len(checked) == len(reads) == result.metadata["executed_steps"] + 1
    assert any(checked) and not all(checked)  # steps with and without dead slots
    seen = set().union(*reads.values())
    assert {cls for cls, _ in seen} == {obj.cls for obj in model.objects if obj.cls in LOAD_READS}
    assert {flag for _, flag in seen} == {"", "DEENERGIZED"}
    oracles = [cfg for cfg in model.recorders if cfg.name.startswith("oracle_")]
    for cfg in oracles:
        for row in result.tables[cfg.name].rows:
            assert row[-1] == flags[row[0], cfg.target], (cfg.name, row[0])
    assert oracles
    return len(checked)


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_small_feeder_demand_matches_plain_build(tmp_path, monkeypatch, topology):
    (tmp_path / "w.csv").write_text(SMALL_WEATHER)
    model = parse_scenario(with_load_recorders(load_fixture("feeder_small.glm") + SMALL_EXTRA))
    engine = Engine(model, topology=topology, base_dir=str(tmp_path))
    assert run_against_reference(engine, model, monkeypatch) == 61
    assert engine.houses["h2"].mode == "COOL" and engine.houses["h2"].t_set == 81.0


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_load_plan_is_made_for_each_islands_object(tmp_path, monkeypatch, topology):
    (tmp_path / "w.csv").write_text(SMALL_WEATHER)
    model = parse_scenario(with_load_recorders(load_fixture("feeder_small.glm") + CONTROLLED_EXTRA))
    engine = Engine(model, topology=topology, base_dir=str(tmp_path))
    plans = {}  # islands object -> the plan the step's load pass used
    remade = []  # per applied event: (whether it changed a line's status, whether the plan was remade)
    loads, apply = Engine._phase_loads, Engine.apply_event

    def phase_loads(self, t, dt, first):
        loads(self, t, dt, first)
        islands = self.islands
        assert plans.setdefault(id(islands), (islands, self._plan))[1] is self._plan

    def apply_event(self, event):
        plan = self._plan
        apply(self, event)
        row = self.audit[-1]
        remade.append((row.prop == "status" and row.old_value != row.new_value, self._plan is not plan))

    monkeypatch.setattr(Engine, "_phase_loads", phase_loads)  # runs inside the check's wrapper
    monkeypatch.setattr(Engine, "apply_event", apply_event)
    assert run_against_reference(engine, model, monkeypatch) == 61
    # UL1 opens, closes, z1 changes, UL1 opens again: remade at each status change only
    assert remade == [(True, True), (True, True), (False, False), (True, True)]
    opened, closed, reopened = [islands for islands, _ in plans.values()]
    assert reopened is not opened and reopened == opened and closed != opened
    assert len({id(plan) for _, plan in plans.values()}) == 3
    assert engine.appliances["z1"].power_kw == 0.45
    assert "h5" not in {ctl.house for ctl, _ in engine.auctions["A1"].bidders}


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_writes_between_steps_match_plain_build(tmp_path, monkeypatch, topology):
    (tmp_path / "w.csv").write_text(SMALL_WEATHER)
    (tmp_path / "z1.csv").write_text(WRITES_PLAYER)
    model = parse_scenario(with_load_recorders(load_fixture("feeder_small.glm") + WRITES_EXTRA))
    engine = Engine(model, topology=topology, base_dir=str(tmp_path))
    assert run_against_reference(engine, model, monkeypatch) == 61
    players = [(format_time(row.time), row.new_value) for row in engine.audit if row.origin == "player"]
    assert players == [("2013-07-01 00:07:00", 3.5), ("2013-07-01 00:25:00", 0.6), ("2013-07-01 00:52:00", 2.25)]
    assert engine.solars["s1"].rating_kw == 2.5
    h2_kw = [row[1] for row in engine.tables["oracle_h2"].rows]
    # the steps, one a minute, at which h2 flipped mode: from the writes at
    # 00:05 on, and mostly at steps with no event, player write or new irradiance
    flips = {i for i in range(1, len(h2_kw)) if h2_kw[i] != h2_kw[i - 1]}
    assert min(flips) == 5 and len(flips - {5, 7, 13, 17, 20, 25, 31, 40, 47, 52}) >= 8


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_generated_feeder_demand_matches_plain_build(tmp_path, monkeypatch, topology):
    (tmp_path / "weather.csv").write_text(gen_weather())
    # the first lateral's loads and meters, the panel's among them: the
    # reads of all 91 would make this test five times as long
    model = parse_scenario(with_load_recorders(gen_feeder(30, 0) + FEEDER_EXTRA, part="_0_"))
    engine = Engine(model, topology=topology, base_dir=str(tmp_path))
    assert run_against_reference(engine, model, monkeypatch) == 1441


@pytest.fixture()
def outage_engine(small_text):
    model = parse_scenario(small_text + SMALL_EXTRA.replace("weather { file w.csv; }\n", ""))
    model.clock.stop = model.clock.start.replace(minute=30)  # ends inside the outage
    engine = Engine(model)
    engine.run()
    return engine


@pytest.mark.parametrize("outage", [True, False])
def test_lazy_dicts_equal_an_eager_build(outage_engine, outage):
    index, state = outage_engine.index, outage_engine.network_state
    position = index.position
    assert not state.islands.live[position["tm3"]]
    if not outage:
        demand = [complex(1000.0 * s, 100.0) for s in range(len(index.names))]
        state = solve_powerflow(index, demand, compute_islands(index, {"UL1": "CLOSED"}))
        assert all(state.islands.live) and all(state.cur[1:])
    eager_v = {node: state.v[s] for node, s in position.items()}
    assert list(state.voltages) == list(position)
    assert state.voltages == eager_v
    assert (state.voltages["tm3"] == 0j) == (state.cur[position["tn2"]] == 0j) == outage  # T2 feeds tn2
    assert state.voltages is state.voltages  # built once


@pytest.mark.parametrize("tolerance_pu", [1.0, 1e-10])
def test_warm_start_copy_equals_name_keyed_start(outage_engine, tolerance_pu):
    engine = outage_engine
    start = engine.network_state
    demand = engine.build_load_injections()
    demand = [d * 1.5 for d in demand]  # moved loads, so the sweep has work to do
    islands = engine.islands
    assert start.islands is islands
    copied = solve_powerflow(engine.index, demand, islands, tolerance_pu=tolerance_pu, start=start)
    # equal islands in another object: the start is read per supernode
    keyed = solve_powerflow(engine.index, demand, compute_islands(engine.index, engine.statuses),
                            tolerance_pu=tolerance_pu, start=start)
    assert keyed.islands is not start.islands and keyed.islands == islands
    for field in ("v", "cur", "iterations", "source_power_va", "load_power_va", "loss_power_va"):
        assert getattr(copied, field) == getattr(keyed, field), field
    assert copied.v is not start.v


def test_weather_is_sampled_once_per_step(small_text, monkeypatch):
    text = small_text + (
        "recorder { name rec_s1; target s1; property power_kw; interval 60 s; file s1.csv; }\n"
    )
    engine = Engine(parse_scenario(text))
    calls = []
    sample = engine.weather.sample

    def counted(t):
        calls.append(t)
        return sample(t)

    monkeypatch.setattr(engine.weather, "sample", counted)
    result = engine.run()
    executed = result.metadata["executed_steps"] + 1
    assert executed == 61
    assert len(calls) == executed and len(set(calls)) == executed
