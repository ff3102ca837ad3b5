"""Kernel tests: step fenceposts, event ordering, audit log, player and
schedule application, outage/restore behavior, and determinism."""

import copy
import inspect
import os
import tempfile
import tracemalloc
from collections import deque
from dataclasses import replace
from datetime import datetime, timedelta
from functools import partial
from itertools import islice
from pathlib import Path
from types import MethodType
from unittest.mock import patch

import pytest
from conftest import SECOND_AUCTION, load_fixture
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tesgrid import kernel, powerflow
from tesgrid.attack import ATTACKS
from tesgrid.glm import parse_scenario
from tesgrid.kernel import PROPERTIES, Engine, event_stream, out_of_bounds
from tesgrid.loads import BTU_PER_KWH, HouseState
from tesgrid.market import Bid, Controller, Market
from tesgrid.model import AttackConfig, Diagnostic, RecorderConfig
from tesgrid.recorder import write_results
from tesgrid.validate import NUMERIC_KINDS, validate

START = datetime(2013, 7, 1, 0, 0, 0)


def run_small(text, **kwargs):
    model = parse_scenario(text)
    engine = Engine(model, **kwargs)
    return engine, engine.run()


def test_fencepost_row_count(small_text):
    _, result = run_small(small_text)
    # one hour at 60 s: boundaries at 00:00 .. 01:00 inclusive = 61 rows
    for table in result.tables.values():
        assert len(table.rows) == 61
    assert result.summary["steps"] == 60


def test_market_round_every_period(small_text):
    engine, _ = run_small(small_text)
    # 300 s period over [0, 3600] inclusive: rounds at 0, 5, ..., 60 min
    assert engine.auctions["A1"].market.current_period == 13


def test_run_applies_passed_events_in_order(small_text):
    # a run's events come from its scenario's schedules and attacks
    text = small_text + (
        'schedule {\n'
        '  entry "2013-07-01 00:10:00" h1 cooling_setpoint 71 degF;\n'
        '  entry "2013-07-01 00:10:00" h1 cooling_setpoint 72 degF;\n'
        '  entry "2013-07-01 00:11:00" h1 cooling_setpoint 73 degF;\n'
        '}\n'
    )
    engine, _ = run_small(text)
    t = START + timedelta(minutes=10)
    rows = [(r.time, r.new_value) for r in engine.audit]
    assert rows == [(t, 71.0), (t, 72.0), (t + timedelta(minutes=1), 73.0)]


def test_same_time_events_last_wins(small_text):
    text = small_text + (
        'schedule {\n'
        '  entry "2013-07-01 00:10:00" h1 cooling_setpoint 71 degF;\n'
        '  entry "2013-07-01 00:10:00" h1 cooling_setpoint 72 degF;\n'
        '}\n'
    )
    engine, result = run_small(text)
    assert engine.houses["h1"].t_set == 72.0
    rows = [r for r in result.audit if r.prop == "cooling_setpoint"]
    assert [(r.old_value, r.new_value) for r in rows] == [(70.0, 71.0), (71.0, 72.0)]
    assert all(r.origin == "schedule" for r in rows)


def test_schedule_repeat_expansion():
    model = parse_scenario(
        'schedule { name s; entry "2013-07-01 00:05:00" h1 cooling_setpoint 71 degF; repeat 1200 s; }'
    )
    events = event_stream(model.schedules, [], START, START + timedelta(hours=1))
    assert [e.time for e in events] == [START + timedelta(minutes=m) for m in (5, 25, 45)]


def test_out_of_window_warning(small_text):
    model = parse_scenario(
        small_text + 'schedule { name s; entry "2013-06-30 23:00:00" h1 cooling_setpoint 71 degF; }'
    )
    assert list(event_stream(model.schedules, [], START, START + timedelta(hours=1))) == []
    assert validate(model).warnings == [
        Diagnostic("<clock>", "OUT_OF_WINDOW", "schedule event at 2013-06-30 23:00:00 for h1.cooling_setpoint dropped")
    ]


def test_ties_keep_schedule_file_order_then_attacks(small_text):
    # the second schedule's repeat and the attack land at 00:10 too
    text = small_text + (
        'schedule { entry "2013-07-01 00:10:00" h1 cooling_setpoint 71 degF; }\n'
        'schedule { entry "2013-07-01 00:00:00" h2 deadband 3 degF; repeat 600 s; }\n'
        'attack { name a1; kind LINE_STATUS; start "2013-07-01 00:10:00"; end "2013-07-01 00:20:00"; '
        'lines UL1; status OPEN; }\n'
    )
    _, result = run_small(text)
    at_ten = [(r.target, r.prop, r.origin) for r in result.audit if r.time == START + timedelta(minutes=10)]
    assert at_ten == [
        ("h1", "cooling_setpoint", "schedule"), ("h2", "deadband", "schedule"), ("UL1", "status", "attack"),
    ]


def test_repeats_before_start_give_one_warning(small_text):
    entry = 'schedule {{ entry "{}" h2 deadband 3 degF; repeat 60 s; }}\n'
    early_text, at_start_text = (small_text + entry.format(t) for t in ("2012-07-01 00:00:00", "2013-07-01 00:00:00"))
    _, early = run_small(early_text)
    _, at_start = run_small(at_start_text)
    assert validate(parse_scenario(early_text)).warnings == [Diagnostic(
        "<clock>", "OUT_OF_WINDOW",
        "schedule event at 2012-07-01 00:00:00 for h2.deadband "
        "and its repeats before 2013-07-01 00:00:00 dropped (525600 events)"
    )]
    assert validate(parse_scenario(at_start_text)).warnings == []
    assert early.audit == at_start.audit and len(early.audit) == 61


def test_repeat_stream_holds_only_its_next_event():
    # a 30-day clock at 1 s would need 2.6 million queued events made up front
    model = parse_scenario('schedule { entry "2013-07-01 00:00:00" h1 deadband 3 degF; repeat 1 s; }')
    tracemalloc.start()
    try:
        events = event_stream(model.schedules, [], START, START + timedelta(days=30))
        last = deque(islice(events, 1000), maxlen=1)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last.time == START + timedelta(seconds=999)
    assert peak < 64 * 1024


def _error_codes(model, topology="auxiliary"):
    """What `validate` reports of a model that `Engine` would otherwise bind."""
    return {d.code for d in validate(model, topology).errors}


def test_unknown_property_aborts(small_text):
    model = parse_scenario(small_text + 'schedule { entry "2013-07-01 00:00:00" h1 paint_color 1; }\n')
    assert _error_codes(model) == {"UNKNOWN_PROPERTY"}


def test_event_on_transformer_status_aborts(small_text):
    model = parse_scenario(small_text + 'schedule { entry "2013-07-01 00:00:00" T1 status OPEN; }\n')
    assert _error_codes(model) == {"UNKNOWN_PROPERTY"}


def test_player_sets_property(small_text, tmp_path):
    csv = tmp_path / "zip.csv"
    csv.write_text(
        "time,value\n2013-07-01 00:00:00,1.2\n2013-07-01 00:30:00,2.5\n"
    )
    text = small_text + (
        f'player {{ name p1; target z1; property base_power; file {csv.name}; }}\n'
    )
    engine, result = run_small(text, base_dir=str(tmp_path))
    assert engine.appliances["z1"].power_kw == 2.5
    player_rows = [r for r in result.audit if r.origin == "player"]
    # step-hold: only the 00:30 change is a mutation (00:00 matches the model)
    assert [(r.time.minute, r.new_value) for r in player_rows] == [(30, 2.5)]


def test_line_attack_outage_and_restore(small_text):
    text = small_text + (
        'attack { name phys; kind LINE_STATUS; start "2013-07-01 00:20:00"; '
        'end "2013-07-01 00:30:00"; lines UL1; status OPEN; }\n'
    )
    engine, result = run_small(text)
    tm3 = {r[0]: r for r in result.tables["rec_tm3"].rows}
    before = tm3["2013-07-01 00:10:00"]
    during = tm3["2013-07-01 00:25:00"]
    after = tm3["2013-07-01 00:45:00"]
    assert float(during[1]) == 0.0 and float(during[2]) == 0.0  # voltage, power
    assert during[3] == "0" and "DEENERGIZED" in during[4]
    assert after[1] == before[1] and after[2] == before[2]  # steady state restored
    statuses = [r for r in result.audit if r.prop == "status"]
    assert [(r.time.minute, r.new_value) for r in statuses] == [(20, "OPEN"), (30, "CLOSED")]
    assert all(r.origin == "attack" for r in statuses)


def test_deenergized_house_drifts_without_hvac(small_text):
    text = small_text + (
        'attack { name phys; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:50:00"; lines UL1; status OPEN; }\n'
    )
    engine, _ = run_small(text)
    # h3 lost power for 40 min and warmed; h1 kept cooling
    assert engine.houses["h3"].t_in > engine.houses["h1"].t_in


def test_islands_computed_once_per_status_change(small_text, monkeypatch):
    calls = []
    compute = kernel.compute_islands

    def counted(index, statuses):
        calls.append({line: status for line, status in statuses.items() if status == "OPEN"})
        return compute(index, statuses)

    monkeypatch.setattr(kernel, "compute_islands", counted)
    engine = Engine(parse_scenario(small_text + EVERY_CLASS + (
        "schedule {\n"
        '    entry "2013-07-01 00:20:00" UL1 status OPEN;\n'
        '    entry "2013-07-01 00:30:00" UL1 status OPEN;\n'  # no change: islands kept
        '    entry "2013-07-01 00:40:00" UL1 status CLOSED;\n'
        "}\n"
        'attack { name cut; kind LINE_STATUS; start "2013-07-01 00:50:00"; end "2013-07-01 00:55:00"; '
        "lines OL1, SW1; status OPEN; }\n"
    )))
    assert len(calls) == 1
    result = engine.run()
    assert result.complete
    # the attack opens, then closes, each of its two lines: one computation per line
    assert calls == [
        {}, {"UL1": "OPEN"}, {}, {"OL1": "OPEN"}, {"OL1": "OPEN", "SW1": "OPEN"}, {"SW1": "OPEN"}, {},
    ]


def test_status_writer_keeps_the_islands_until_a_status_changes(small_text):
    engine = Engine(parse_scenario(small_text))
    write, tm3 = engine._bind("UL1", "status", write=True), engine.index.position["tm3"]
    closed, plan = engine.islands, engine._plan
    assert engine.statuses == {"UL1": "CLOSED"} and closed.live[tm3] is True
    assert write("CLOSED") == "CLOSED"  # a repeated write keeps both objects
    assert engine.islands is closed and engine._plan is plan
    assert write("OPEN") == "CLOSED"
    opened, dead = engine.islands, engine._plan
    assert engine.statuses == {"UL1": "OPEN"} and opened.live[tm3] is False and dead is not plan
    assert write("OPEN") == "OPEN"
    assert engine.islands is opened and engine._plan is dead
    assert write("CLOSED") == "OPEN"  # closing restores the live flags and the plan
    assert engine.islands is not closed and engine.islands == closed and engine._plan == plan


def test_power_balance_every_step(small_text):
    _, result = run_small(small_text)
    assert result.summary["powerflow_worst_mismatch_pu"] < 1e-6
    assert result.summary["complete"] == 1


def test_summary_has_no_wall_clock(small_text):
    _, result = run_small(small_text)
    assert set(result.summary) == {
        "start", "stop", "timestep_s", "steps", "seed", "topology", "attacks",
        "complete", "powerflow_solves", "powerflow_max_iterations",
        "powerflow_worst_mismatch_pu", "max_clearing_price",
    }


def test_divergence_reports_time_and_node():
    text = load_fixture("two_bus_overload.glm")
    assert validate(parse_scenario(text)).runnable
    _, result = run_small(text)
    assert not result.complete
    assert result.metadata["executed_steps"] == 4
    assert result.summary["incomplete_reason"] == "solver_divergence"
    assert result.summary["divergence_time"] == "2013-07-01 00:05:00"
    assert result.summary["divergence_node"] == "b"


def test_determinism_byte_identical(small_text, tmp_path):
    text = small_text + (
        'attack { name phys; kind LINE_STATUS; start "2013-07-01 00:20:00"; '
        'end "2013-07-01 00:30:00"; lines UL1; status OPEN; }\n'
    )
    outputs = []
    for sub in ("a", "b"):
        _, result = run_small(text, seed=3)
        out = tmp_path / sub
        manifest = write_results(result, str(out))
        blob = {}
        for name in manifest:
            with open(out / name, "rb") as fh:
                blob[name] = fh.read()
        outputs.append(blob)
    assert outputs[0] == outputs[1]


def test_direct_topology_runs(small_text):
    engine, result = run_small(small_text, topology="direct")
    assert result.complete
    assert engine.auctions["A1"].mirror is None


def test_auxiliary_creates_mirror_market(small_text):
    engine, _ = run_small(small_text, topology="auxiliary")
    assert list(engine.auctions) == ["A1"]
    assert engine.auctions["A1"].mirror.name == "A1_aux"


def test_market_attack_under_direct_topology_rejected(small_text):
    model = parse_scenario(small_text)
    model.attacks.append(
        AttackConfig("a", "SELLER_PRICE_OVERRIDE", START + timedelta(minutes=10),
                     START + timedelta(minutes=20), params={"price": 0.63})
    )
    assert _error_codes(model, "direct") == {"BAD_TOPOLOGY"}
    assert _error_codes(model, "auxiliary") == set()


# feeder_small plus one object of each recordable class it lacks
EVERY_CLASS = """
object meter { name m1; parent n2; }
object overhead_line { name OL1; from n2; to n3; impedance 0.2+0.4j Ohm; }
object node { name n3; nominal_voltage 7200 V; }
object switch { name SW1; from n3; to n4; }
object node { name n4; nominal_voltage 7200 V; }
object fuse { name F1; from n4; to n5; }
object node { name n5; nominal_voltage 7200 V; }
"""


def record_every_property(model):
    """Replace `model`'s recorders by one per class, on the first object of
    the class, recording every recordable property."""
    model.recorders = []
    for cls, accessors in sorted(PROPERTIES.items()):
        props = sorted(prop for prop, accessor in accessors.items() if accessor.read)
        if props:
            target = next(o.name for o in model.objects if o.cls == cls)
            model.recorders.append(RecorderConfig(f"rec_{cls}", target, props, 60, f"{cls}.csv"))


def test_every_recordable_property_binds(small_text):
    model = parse_scenario(small_text + EVERY_CLASS)
    record_every_property(model)
    assert validate(model).runnable
    engine = Engine(model)
    result = engine.run()
    assert result.complete
    for cfg in model.recorders:
        rows = result.tables[cfg.name].rows
        assert len(rows) == 61 and all(len(r) == len(cfg.properties) + 2 for r in rows)
    # readers see the live state: the last row matches the house now
    table = result.tables["rec_house"]
    last = dict(zip(table.header, table.rows[-1]))
    house = engine.houses["h1"]
    assert float(last["air_temperature"]) == pytest.approx(house.t_in, rel=1e-5)
    assert last["hvac_mode"] == house.mode


# per settable (class, property): the value a schedule sets, that value in
# canonical units, and where the engine keeps it
SET_TO = {
    ("house", "air_temperature"): ("81 degF", 81.0, lambda e, t: e.houses[t].t_in),
    ("house", "cooling_setpoint"): ("72 degF", 72.0, lambda e, t: e.houses[t].t_set),
    ("house", "deadband"): ("3 degF", 3.0, lambda e, t: e.houses[t].deadband),
    ("house", "internal_gains"): ("1500", 1500.0, lambda e, t: e.houses[t].internal_gains),
    ("zipload", "base_power"): ("2000 W", 2.0, lambda e, t: e.appliances[t].power_kw),
    ("waterheater", "base_power"): ("0.5 kW", 0.5, lambda e, t: e.appliances[t].power_kw),
    ("solar", "rating"): ("2 kW", 2.0, lambda e, t: e.solars[t].rating_kw),
    **{
        (cls, "status"): ("OPEN", "OPEN", lambda e, t: e.statuses[t])
        for cls in ("underground_line", "overhead_line", "switch", "fuse")
    },
}
ATTACK = (
    'attack { name a; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:30:00"; '
    'end "2013-07-01 00:40:00"; price 0.5 $/kWh; }\n'
)


def test_every_settable_property_applies(small_text):
    settable = {(cls, prop) for cls, props in PROPERTIES.items() for prop, a in props.items() if a.write}
    assert settable == set(SET_TO)
    model = parse_scenario(small_text + EVERY_CLASS + ATTACK)
    targets = {o.cls: o.name for o in reversed(model.objects)}  # the first of each class
    text = "".join(
        f'entry "2013-07-01 00:10:00" {targets[cls]} {prop} {value};'
        for (cls, prop), (value, _, _) in sorted(SET_TO.items())
    )
    model.schedules = parse_scenario(f"schedule {{ {text} }}").schedules
    assert validate(model).runnable
    engine = Engine(model)
    before = {pair: probe(engine, targets[pair[0]]) for pair, (_, _, probe) in SET_TO.items()}
    for event in event_stream(model.schedules, [], START, engine.clock.stop):  # all at 00:10
        engine.apply_event(event)
    rows = {(row.target, row.prop): row for row in engine.audit if row.origin == "schedule"}
    assert len(rows) == len(engine.audit) == len(SET_TO)
    for (cls, prop), (_, new, probe) in SET_TO.items():
        row = rows[targets[cls], prop]
        assert (row.old_value, row.new_value) == (before[cls, prop], new)
        assert type(row.old_value) is type(row.new_value)
        assert probe(engine, targets[cls]) == new
    # a market attack's switch is its transform, set by the attack's own events
    switch = engine.attacks[0].transform
    assert switch.name == "a"
    for event, active in zip(engine.attacks[0].events, (True, False)):
        engine.apply_event(event)
        assert switch.active is active
    assert [(r.target, r.prop, r.old_value, r.new_value, r.origin) for r in engine.audit[-2:]] == [
        ("attack:a", "active", False, True, "attack"), ("attack:a", "active", True, False, "attack"),
    ]


def test_schedule_on_unsettable_property_fails_at_construction(small_text):
    model = parse_scenario(small_text + EVERY_CLASS)
    targets = {o.cls: o.name for o in reversed(model.objects)}
    unsettable = [
        (targets[cls], prop) for cls, props in sorted(PROPERTIES.items()) if cls in targets
        for prop, accessor in sorted(props.items()) if accessor.write is None
    ]
    assert ("h1", "hvac_mode") in unsettable and ("n1", "voltage_mag") in unsettable
    for target, prop in unsettable:
        model.schedules = [parse_scenario(
            f'schedule {{ entry "2013-07-01 00:10:00" {target} {prop} 1; }}'
        ).schedules[0]]
        assert _error_codes(model) == {"UNKNOWN_PROPERTY"}, (target, prop)


@pytest.mark.parametrize(
    "target, prop",
    [("z1", "paint_color"), ("z1", "base_power"), ("s1", "rating"), ("T1", "status"),
     ("tm3", "total_load_kw"), ("h1", "voltage_mag")],
)
def test_unbindable_recorder_fails_at_construction(small_text, target, prop):
    model = parse_scenario(small_text)
    model.recorders.append(RecorderConfig("bad", target, [prop], 60, "bad.csv"))
    assert _error_codes(model) == {"UNKNOWN_PROPERTY"}


def test_recorder_on_missing_target_fails_at_construction(small_text):
    model = parse_scenario(small_text)
    model.recorders.append(RecorderConfig("bad", "nowhere", ["voltage_mag"], 60, "bad.csv"))
    assert _error_codes(model) == {"DANGLING_REF"}


def test_load_injections_are_a_supernode_demand_list(small_text):
    engine, _ = run_small(small_text)
    demand = engine.build_load_injections()
    index = engine.index
    assert len(demand) == len(index.names) and all(type(d) is complex for d in demand)
    # tn1 carries h1 (1 kW) minus solar s1 (0.45 kW at irradiance 0.5) on
    # tm1 plus h2 (1 kW) on tm2; tn2 carries h3 and z1 (2.2 kW) on tm3 plus
    # h4 and w1 (1.8 kW) on tm4; every house cools all hour
    assert all(house.mode == "COOL" for house in engine.houses.values())
    assert demand == [0j, 0j, complex(1550.0, 0.0), complex(4000.0, 0.0)]
    assert index.position["tm1"] == index.position["tm2"] == 2
    assert engine.read_property("n1", "total_load_kw") == 5.55
    assert engine.read_property("n1", "total_hvac_kw") == 4.0
    assert engine._load_kw == pytest.approx(sum(d.real for d in demand) / 1000.0)


def test_load_injections_leave_the_slot_loads_alone(small_text):
    # the loads phase sums each slot once; the injections only read them
    engine, _ = run_small(small_text)
    slot_kw = list(engine._slot_kw)
    first = engine.build_load_injections()
    assert engine._slot_kw == slot_kw
    assert engine.build_load_injections() == first


def test_solar_read_before_the_first_step(small_text):
    text = small_text + "recorder { name rec_s1; target s1; property power_kw; interval 60 s; file s1.csv; }\n"
    engine = Engine(parse_scenario(text))
    # constant weather: irradiance 0.5 on a 1 kW panel at efficiency 0.9
    assert engine.read_property("s1", "power_kw") == 0.45


# one object of each class whose optional properties the engine falls back
# on, carrying only what validate requires
BARE = """
clock { start "2013-07-01 00:00:00"; stop "2013-07-01 00:10:00"; timestep 60 s; }
object node { name n1; bustype SWING; }
object house { name h; parent n1; }
object zipload { name z; parent n1; }
object solar { name s; parent n1; rating 1 kW; }
object auction { name a; period 300 s; }
object controller { name c; house h; market a; t_min 65 degF; t_base 72 degF; t_max 80 degF; k_ramp 2; }
"""


@pytest.mark.parametrize("topology", ["direct", "auxiliary"])
def test_defaults_of_bare_objects(topology):
    model = parse_scenario(BARE)
    assert validate(model).errors == []
    engine = Engine(model, topology=topology)
    house = engine.houses["h"]
    assert (house.t_in, house.t_set, house.deadband, house.capacitance) == (75.0, 75.0, 2.0, 2000.0)
    assert (house.ua, house.internal_gains, house.hvac_kw, house.cop) == (550.0, 1800.0, 4.0, 3.5)
    assert engine.appliances["z"].power_kw == 0.0
    assert engine.solars["s"].efficiency == 1.0
    auction = engine.auctions["a"]
    markets = [m for m in (auction.market, auction.mirror) if m is not None]
    assert len(markets) == (2 if topology == "auxiliary" else 1)
    for market in markets:  # an auction without sellers warms up from its initial price
        assert (market.price_cap, market.last_clearing.price) == (0.63, 0.10)
        assert (market.p_avg, market.p_std) == (0.10, 0.1 * 0.10)
    assert [(c.sigma_floor, house) for c, house in auction.bidders] == [(0.003, engine.houses["h"])]


# the run object each class's properties fill, by `Prop.field`
RUN_OBJECTS = {
    "house": HouseState,
    "zipload": kernel._Appliance,
    "waterheater": kernel._Appliance,
    "solar": kernel._Solar,
    "auction": Market,
    "controller": Controller,
    "generator_seller": Bid,
}


def test_every_field_reaches_the_engine(monkeypatch):
    # what `Engine` passes to each run object's constructor, for objects that
    # carry only their required properties, plus `hvac_rating 4000 W` and
    # `period 5 min`, which arrive canonical (4.0 kW, 300 s) and typed
    text = BARE.replace("parent n1; }", "parent n1; hvac_rating 4000 W; }", 1).replace("period 300 s", "period 5 min")
    text += "object waterheater { name w; parent n1; }\n"
    text += "object generator_seller { name g; market a; price 0.1 $/kWh; capacity 5 kW; }\n"
    given = {  # every other field takes its default
        "h": {"hvac_kw": 4.0},
        "z": {},
        "w": {},
        "s": {"rating_kw": 1.0},
        "a": {"period_seconds": 300},
        "c": {"house": "h", "market": "a", "t_min": 65.0, "t_base": 72.0, "t_max": 80.0, "k_ramp": 2.0},
        "g": {"price": 0.1, "quantity": 5.0},
    }
    made = {}

    def record(run_class):
        def make(name, *args, **fields):
            made[name] = fields
            return run_class(name, *args, **fields)
        return make

    for run_class in set(RUN_OBJECTS.values()):
        monkeypatch.setattr(kernel, run_class.__name__, record(run_class))
    model = parse_scenario(text)
    assert validate(model).errors == []
    Engine(model, topology="direct")
    for obj in model.objects:
        if obj.cls in RUN_OBJECTS:
            specs = PROPERTIES[obj.cls].values()
            expected = {spec.field: spec.default for spec in specs if spec.field and not spec.required}
            expected.update(given[obj.name])
            # the `PROPERTIES` fields; a market also takes its offers, an offer its side and period
            fields = {f: v for f, v in made[obj.name].items() if f in {spec.field for spec in specs}}
            assert fields == expected, obj.name
            assert {f: type(v) for f, v in fields.items()} == {f: type(v) for f, v in expected.items()}


def test_property_table_is_consistent():
    for cls in PROPERTIES:
        for prop, spec in PROPERTIES[cls].items():
            if spec.field is not None:  # `Engine` passes it by name to the run object
                assert spec.field in inspect.signature(RUN_OBJECTS[cls]).parameters, (cls, prop)
            if spec.write is not None:  # schedule and player checks go by the kind
                assert spec.kind in NUMERIC_KINDS or spec.kind == "enum", (cls, prop)
            if spec.required:
                assert spec.default is None, (cls, prop)
            if spec.default is not None:
                assert out_of_bounds(prop, spec, spec.default) is None, (cls, prop)
            assert spec.bound in (None, "positive", "nonnegative"), (cls, prop)
            if spec.flagged:  # a flagged property is recorded
                assert spec.read is not None, (cls, prop)


# each value a run object works out once when it is built, with its class
# and the properties it derives from: a writer for any of them would leave it stale
RUN_CONSTANTS = {
    "extraction": ("house", ("hvac_rating", "cop")),
    "span": ("controller", tuple(PROPERTIES["controller"])),
}


def test_no_property_a_run_constant_derives_from_is_settable():
    for derived, (cls, props) in RUN_CONSTANTS.items():
        settable = [prop for prop in props if PROPERTIES[cls][prop].write is not None]
        assert not settable, f"{cls} {settable} has a writer, which leaves `{derived}` stale"


def test_a_replaced_or_copied_run_object_derives_its_constants_again():
    house = HouseState("h", 75.0, 75.0, 2.0, 2000.0, 550.0, 1800.0, hvac_kw=4.5, cop=3.2)
    ctl = Controller("c", "h", "m", t_min=65.0, t_base=72.0, t_max=80.5, k_ramp=2.0)
    for copied in (replace(house), replace(house, hvac_kw=2.5, cop=4.1), copy.deepcopy(house)):
        assert copied.extraction == copied.hvac_kw * copied.cop * BTU_PER_KWH, "extraction"
    for copied in (replace(ctl), replace(ctl, t_base=70.0, t_max=79.3), copy.deepcopy(ctl)):
        assert copied.span == copied.t_max - copied.t_base, "span"


def callables_in(bound):
    """Every callable in `bound`, also within a partial's function and
    arguments and within lists and tuples."""
    if isinstance(bound, (list, tuple)):
        return [f for item in bound for f in callables_in(item)]
    if isinstance(bound, partial):
        return [bound, *callables_in(bound.func), *callables_in(bound.args)]
    return [bound] if callable(bound) else []


def test_readers_and_writers_are_partials_over_run_objects(small_text, tmp_path):
    # a closure is copied as itself by `copy.deepcopy`, so a copied engine
    # would read and set the original's objects through it
    (tmp_path / "zip.csv").write_text("time,value\n2013-07-01 00:00:00,1.5\n")
    model = parse_scenario(
        small_text + EVERY_CLASS + ATTACK
        # ends before the schedule sets UL1's status, which its end would undo
        + 'attack { name cut; kind LINE_STATUS; start "2013-07-01 00:02:00"; end "2013-07-01 00:05:00"; '
        'lines UL1; status OPEN; }\n'
        + "player { name p1; target z1; property base_power; file zip.csv; }\n"
    )
    record_every_property(model)
    targets = {o.cls: o.name for o in reversed(model.objects)}
    text = "".join(
        f'entry "2013-07-01 00:10:00" {targets[cls]} {prop} {value};'
        for (cls, prop), (value, _, _) in SET_TO.items()
    )
    model.schedules = parse_scenario(f"schedule {{ {text} }}").schedules
    assert validate(model).runnable
    engine = Engine(model, base_dir=str(tmp_path))
    bound = [*engine._readers.values(), *engine._writers.values(), *(write for _, _, write in engine.players)]
    assert len(engine._readers) == sum(len(cfg.properties) for cfg in model.recorders)
    # the schedule and attack `cut` share UL1's status writer; `a` has its switch
    assert len(bound) == len(engine._readers) + len(SET_TO) + 1 + len(model.players)
    for f in bound:
        assert isinstance(f, (partial, MethodType)), f
        assert all(getattr(g, "__closure__", None) is None for g in callables_in(f)), f


# feeder_small plus a controller and a recorder on h1, schedule entries on h2
# and UL1, and a market attack
FORKED = (
    "object controller { name c1; house h1; market A1; t_min 65 degF; t_base 72 degF; t_max 80 degF; k_ramp 2; }\n"
    "recorder { name rh; target h1; property air_temperature, hvac_mode; interval 60 s; file rh.csv; }\n"
    'schedule { entry "2013-07-01 00:10:00" h2 cooling_setpoint 76 degF; '
    'entry "2013-07-01 00:20:00" UL1 status OPEN; entry "2013-07-01 00:40:00" UL1 status CLOSED; }\n'
    + ATTACK
)


def test_deep_copied_engine_runs_on_its_own_objects(small_text, tmp_path):
    engine = Engine(parse_scenario(small_text + FORKED))
    twin, probe = copy.deepcopy(engine), copy.deepcopy(engine)
    # the original runs first: a copy that set or read its objects would
    # start where the original ended
    outputs = []
    for run in (engine, twin):
        out = tmp_path / str(len(outputs))
        manifest = write_results(run.run(), str(out))
        outputs.append({name: (out / name).read_bytes() for name in manifest})
    assert sorted(outputs[0]) == ["audit.csv", "rh.csv", "src.csv", "summary.txt", "tm3.csv", "ul1.csv"]
    assert outputs[0] == outputs[1]
    assert twin.houses["h2"].t_set == engine.houses["h2"].t_set == 76.0
    probe.houses["h1"].t_in = 99.0
    assert probe.read_property("h1", "air_temperature") == 99.0
    assert engine.houses["h1"].t_in != 99.0
    # the run's last power flow is over the engine's own islands
    assert engine.network_state.islands is engine.islands and twin.network_state.islands is twin.islands
    islands, tm3 = twin.islands, twin.index.position["tm3"]
    assert probe._writers["UL1", "status"]("OPEN") == "CLOSED"
    assert probe.islands.live[tm3] is False
    assert twin.islands is islands and islands.live[tm3] and engine.islands.live[tm3]
    # a round on a copy books, holds bids and rolls statistics in the copy's own record
    auction = engine.auctions["A1"]
    auction.market.submit(Bid("x", "BUY", 0.2, 1.0, auction.market.current_period))
    before = auction_state(auction)
    assert before[-1] and before[0][0]  # held bids, and a bid in the main book
    probe._market_round(probe.auctions["A1"])
    assert auction_state(auction) == before
    assert probe.auctions["A1"].market.current_period == 1 and probe.auctions["A1"].held_bids


def auction_state(auction):
    """Copies of an auction's books and statistics, and its held bids."""
    books = [
        (list(m.buys), list(m.round_offers), list(m.history), m.p_avg, m.p_std) for m in (auction.market, auction.mirror)
    ]
    return books + [list(auction.held_bids)]


def test_a_second_run_does_no_more_work(small_text):
    engine = Engine(parse_scenario(small_text + FORKED))
    first = engine.run()
    rows = {name: list(table.rows) for name, table in first.tables.items()}
    audit, summary = len(first.audit), dict(first.summary)
    second = engine.run()
    assert {name: table.rows for name, table in second.tables.items()} == rows
    assert len(second.audit) == audit == 5 and second.summary == summary
    assert summary["powerflow_solves"] == 61 and second.metadata == {"executed_steps": 60}


# feeder_small plus FORKED's controller and recorder, a schedule with a
# repeating entry, a player and an attack that opens UL1 for 00:20-00:40
RESUMED = FORKED[: FORKED.index("schedule")] + (
    'schedule { entry "2013-07-01 00:10:00" h2 cooling_setpoint 76 degF; }\n'
    'schedule { entry "2013-07-01 00:05:00" h3 deadband 3 degF; repeat 600 s; }\n'
    "player { name p1; target z1; property base_power; file zip.csv; }\n"
    'attack { name cut; kind LINE_STATUS; start "2013-07-01 00:20:00"; end "2013-07-01 00:40:00"; '
    "lines UL1; status OPEN; }\n"
)
PLAYED = "time,value\n2013-07-01 00:00:00,1.5\n2013-07-01 00:25:00,0.5\n2013-07-01 00:50:00,2\n"


def written(result) -> dict[str, bytes]:
    """The bytes of each file `write_results` writes of `result`."""
    with tempfile.TemporaryDirectory() as out:
        return {name: Path(out, name).read_bytes() for name in write_results(result, out)}


@pytest.fixture(scope="module")
def resumable(small_text, tmp_path_factory):
    """Per case, a maker of its fresh engine and the files of its uninterrupted run."""
    base_dir = tmp_path_factory.mktemp("resumed")
    (base_dir / "zip.csv").write_text(PLAYED)
    cases = {
        "auxiliary": ("auxiliary", small_text + RESUMED + ATTACK),  # the market attack runs 00:30-00:40
        "direct": ("direct", small_text + RESUMED),
        "diverged": ("auxiliary", load_fixture("two_bus_overload.glm")),  # at 00:05
    }
    made = {}
    for case, (topology, text) in cases.items():
        model = parse_scenario(text)
        assert validate(model, topology).runnable
        build = partial(Engine, model, topology, base_dir=str(base_dir))
        made[case] = build, written(build().run())
    return made


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(["auxiliary", "direct", "diverged"]), cut=st.integers(-1, 61))
@example(case="auxiliary", cut=35).via("inside both attack windows")
@example(case="direct", cut=30).via("inside the outage")
@example(case="diverged", cut=3).via("before the divergence")
@example(case="diverged", cut=7).via("after the divergence")
def test_a_copy_taken_at_any_step_finishes_the_run(resumable, case, cut):
    build, whole = resumable[case]
    engine = build()
    engine.advance(START + timedelta(minutes=cut))
    assert engine.step == min(max(cut + 1, 0), 61 if case != "diverged" else 5)
    twin = copy.deepcopy(engine)
    assert written(twin.run()) == whole
    assert written(engine.run()) == whole  # the original finishes after its copy


# a market attack of each other `ATTACKS` row inside RESUMED's outage `cut`
# (00:20-00:40): `scale` at 00:25-00:45, and ATTACK's `a` at 00:30-00:40
SCALE = (
    'attack { name scale; kind BUYER_BID_SCALE; start "2013-07-01 00:25:00"; '
    'end "2013-07-01 00:45:00"; lambda 0.2; }\n'
)
# each attack kind with each topology it runs under
ARMABLE = [
    (kind, topology) for kind, spec in ATTACKS.items() for topology in ("auxiliary", "direct")
    if spec.point is None or topology == "auxiliary"
]
MINUTE = timedelta(minutes=1)


@pytest.fixture(scope="module")
def armable(small_text, tmp_path_factory):
    """Per topology, RESUMED's model with every attack the topology allows,
    and a maker of its engine built with only the given attacks."""
    base_dir = tmp_path_factory.mktemp("armed")
    (base_dir / "zip.csv").write_text(PLAYED)
    made = {}
    for topology, text in (("auxiliary", small_text + RESUMED + SCALE + ATTACK), ("direct", small_text + RESUMED)):
        model = parse_scenario(text)
        assert validate(model, topology).runnable
        made[topology] = model, partial(built_with, model, topology, str(base_dir))
    return made


def built_with(model, topology, base_dir, attacks):
    """The engine of `model` with only `attacks`."""
    return Engine(replace(model, attacks=attacks), topology, base_dir=base_dir)


@pytest.mark.parametrize("copied", [False, True], ids=["itself", "a-copy"])
@pytest.mark.parametrize("first", [True, False], ids=["before-the-first-step", "at-its-start"])
@pytest.mark.parametrize("kind, topology", ARMABLE)
def test_an_armed_baseline_writes_the_attacked_run(armable, kind, topology, first, copied):
    """The fork relation: the attack-free engine, advanced to any step up to
    an attack's start and armed with it (or its copy armed), writes every
    file of the attacked run, `summary.txt` included.  The repeating
    schedule entry and the player are active across the arming step."""
    model, build = armable[topology]
    cfg = next(a for a in model.attacks if a.kind == kind)
    engine = build([])
    if not first:
        engine.advance(cfg.start - MINUTE)  # the next step is the attack's first event's
    assert engine.step == (0 if first else (cfg.start - START) // MINUTE)
    fork = copy.deepcopy(engine) if copied else engine
    fork.arm([cfg])
    assert fork.summary["attacks"] == cfg.name and [c.config for c in fork.attacks] == [cfg]
    assert written(fork.run()) == written(build([cfg]).run())
    if copied:  # the original stays the baseline
        assert engine.attacks == [] and written(engine.run()) == written(build([]).run())


def test_overlapping_attacks_armed_at_different_steps(armable):
    model, build = armable["auxiliary"]
    cut, scale, override = model.attacks
    assert [cut.kind, scale.kind, override.kind] == ["LINE_STATUS", "BUYER_BID_SCALE", "SELLER_PRICE_OVERRIDE"]
    engine = build([])
    engine.arm([cut])  # before the first step
    engine.advance(scale.start - MINUTE)
    fork = copy.deepcopy(engine)
    fork.arm([scale])  # inside `cut`'s outage
    fork.advance(override.start - MINUTE)
    fork.arm([override])  # inside both
    assert fork.summary["attacks"] == "cut;scale;a"
    assert written(fork.run()) == written(build(model.attacks).run())
    assert written(engine.run()) == written(build([cut]).run())


@pytest.mark.parametrize("kind, topology", ARMABLE)
def test_arming_after_an_attack_starts_raises(armable, kind, topology):
    """An attack whose start has passed is refused, and so are the others
    armed with it: the engine runs on as the baseline."""
    model, build = armable[topology]
    cfg = next(a for a in model.attacks if a.kind == kind)
    pending = [a for a in model.attacks if a.start > cfg.start]  # each still armable alone
    engine = build([])
    engine.advance(cfg.start)  # one step after the one before its start
    with pytest.raises(ValueError, match=f"attack '{cfg.name}' has an event before the next step"):
        engine.arm([*pending, cfg])
    assert engine.attacks == [] and engine.summary["attacks"] == "none"
    assert all(not points for points in engine._rewriters.values())
    assert written(engine.run()) == written(build([]).run())


# feeder_small with SECOND_AUCTION's three sellers and two controllers, a
# repeating schedule entry and a UL1 outage; under the auxiliary topology,
# which alone runs market attacks, half the sellers and half the
# controllers are drawn as well
DETACHED = SECOND_AUCTION + (
    'schedule { entry "2013-07-01 00:05:00" h3 deadband 3 degF; repeat 600 s; }\n'
    'attack { name out; kind LINE_STATUS; start "2013-07-01 00:40:00"; end "2013-07-01 00:50:00"; '
    "lines UL1; status OPEN; }\n"
)
DETACHED_MARKET = (
    'attack { name ovr; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:20:00"; end "2013-07-01 00:40:00"; '
    "fraction 0.5; seed 3; price 0.5 $/kWh; }\n"
    'attack { name bid; kind BUYER_BID_SCALE; start "2013-07-01 00:30:00"; end "2013-07-01 00:45:00"; '
    "fraction 0.5; seed 1; lambda 0.2; }\n"
)


def drawn(engine):
    """Each armed attack's draw: a market attack's compromised set, a line attack's lines."""
    return [c.transform.compromised if c.transform else {ev.target for ev in c.events} for c in engine.attacks]


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_the_engine_reads_its_scenario_only_while_it_is_built(small_text, topology):
    """With the model's objects, schedules and attacks rebound to empty
    lists after `Engine(model)`, the run writes every file of an untouched
    one, `summary.txt` included; and a deep copy of its attack-free
    baseline, armed after the same rebinding, draws each compromised set
    the untouched run draws and writes its files too."""
    text = small_text + DETACHED + (DETACHED_MARKET if topology == "auxiliary" else "")
    assert validate(parse_scenario(text), topology).runnable
    untouched = Engine(parse_scenario(text), topology)
    whole = written(untouched.run())
    model = parse_scenario(text)
    attacks, bare = model.attacks, replace(model, attacks=[])
    engine, baseline = Engine(model, topology), Engine(bare, topology)
    for built in (model, bare):
        built.objects, built.schedules, built.attacks = [], [], []
    assert written(engine.run()) == whole
    baseline.advance(START + timedelta(minutes=19))  # the step before the first attack's start
    fork = copy.deepcopy(baseline)
    fork.arm(attacks)
    assert drawn(fork) == drawn(untouched)
    assert [len(s) for s in drawn(fork)] == ([1, 2, 1] if topology == "auxiliary" else [1])
    assert written(fork.run()) == whole


# UL1 opens on every even minute and closes on every odd one, all hour
TOGGLED = (
    'schedule { entry "2013-07-01 00:00:00" UL1 status OPEN; repeat 120 s; }\n'
    'schedule { entry "2013-07-01 00:01:00" UL1 status CLOSED; repeat 120 s; }\n'
)


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_a_run_compiles_one_sweep_per_set_of_live_supernodes(small_text, topology):
    """Validating and building compile no sweep; the run compiles one for
    UL1 open and one for it closed, and reuses each as the line toggles
    back; a copy taken mid-run reuses them too and finishes the run."""
    model = parse_scenario(small_text + TOGGLED)
    with patch.object(powerflow, "_Sweep", wraps=powerflow._Sweep) as compiled:
        assert validate(model, topology).runnable
        engine, cut = Engine(model, topology), Engine(model, topology)
        assert compiled.call_count == 0
        result = engine.run()
        assert compiled.call_count == 2
        cut.advance(START + timedelta(minutes=30))
        twin = copy.deepcopy(cut)
        twin_files = written(twin.run())
        assert compiled.call_count == 4  # `cut`'s own two, none for its copy
    assert [row.new_value for row in result.audit if row.target == "UL1"] == ["OPEN", "CLOSED"] * 30 + ["OPEN"]
    assert set(engine.index.sweeps) == set(twin.index.sweeps) == {
        kernel.compute_islands(engine.index, {"UL1": status}).live for status in ("OPEN", "CLOSED")
    }
    assert twin_files == written(result) == written(cut.run())


def test_flags_mark_the_rows_that_read_a_dead_targets_own_state(small_text):
    # UL1 is open all hour, so tn2 and everything behind it is dead
    recorders = {
        "alive": ("tn2", "energized"),
        "volts": ("tn2", "energized, voltage_mag"),
        "line": ("UL1", "status, current_mag"),
        "zip": ("z1", "power_kw"),
        "house": ("h3", "hvac_mode, air_temperature"),
    }
    text = small_text.replace("status CLOSED;", "status OPEN;") + "".join(
        f"recorder {{ name {name}; target {target}; property {props}; interval 60 s; file {name}.csv; }}\n"
        for name, (target, props) in recorders.items()
    )
    engine, result = run_small(text)
    rows = {name: result.tables[name].rows for name in recorders}
    assert all(len(table) == 61 for table in rows.values())
    assert {tuple(r[1:]) for r in rows["alive"]} == {("0", "")}
    assert {tuple(r[1:]) for r in rows["volts"]} == {("0", "0", "DEENERGIZED")}
    assert {tuple(r[1:]) for r in rows["line"]} == {("OPEN", "0", "")}
    assert {tuple(r[1:]) for r in rows["zip"]} == {("0", "DEENERGIZED")}
    assert engine.appliances["z1"].power_kw == 1.2  # a dead appliance keeps its base power
    # a dead house reads its own state: it starts cooling, then drifts without HVAC
    house = rows["house"]
    assert {r[-1] for r in house} == {"DEENERGIZED"}
    assert house[0][1:3] == ["COOL", "80"]
    assert house[-1][1] == engine.houses["h3"].mode
    assert float(house[-1][2]) == pytest.approx(engine.houses["h3"].t_in, rel=1e-5) and float(house[-1][2]) > 80.0
