"""Metamorphic relations between runs: an edit of a scenario that must not
move an output leaves its bytes alone.

A null attack is an attack of each `ATTACKS` kind with its identity
parameters: a bid scale by 0 of every buyer, a price override of no
seller, a line set to the status it already has.  Its window, drawn on
the step grid of the hour, opens and closes, so `audit.csv` and the
summary's `attacks` line change, but every recorder CSV and every other
summary line must be byte-identical to the run without it.

An idle write is a schedule entry that writes the value a property
already holds.  At times drawn on the step grid, it adds its row to
`audit.csv`, and every recorder CSV and `summary.txt` must be
byte-identical to the run without it.

A time shift moves the clock, every schedule entry, attack window,
player row and weather row by the same drawn number of whole days, over
the whole range of years `datetime` holds.  Every recorder CSV,
`audit.csv` and `summary.txt` must equal the unshifted run's once every
time in them is moved back.
"""

import re
from datetime import datetime, timedelta
from functools import cache

import pytest
from conftest import load_fixture
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_golden import EXTRA
from test_kernel import START, written

from tesgrid.attack import ATTACKS
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.model import format_time, parse_time
from tesgrid.validate import validate

# kind -> (topologies, the attack's parameters), UL1 being closed until 00:20
NULL_ATTACKS = {
    "BUYER_BID_SCALE": (("auxiliary",), "lambda 0; fraction 1;"),
    "SELLER_PRICE_OVERRIDE": (("auxiliary",), "fraction 0; price 0.5 $/kWh;"),
    "LINE_STATUS": (("auxiliary", "direct"), "lines UL1; status CLOSED;"),
}


def outputs(text: str, topology: str) -> dict[str, bytes]:
    """The bytes of each file a run of feeder_small plus `text` writes."""
    model = parse_scenario(load_fixture("feeder_small.glm") + EXTRA + text)
    assert validate(model, topology).runnable
    return written(Engine(model, topology).run())


def test_every_attack_kind_has_a_null_attack():
    assert set(NULL_ATTACKS) == set(ATTACKS)


@cache
def baseline(topology: str) -> dict[str, bytes]:
    return outputs("", topology)


def windows(last: int):
    """An attack window's first and last minute, on the step grid of the
    hour up to minute `last`."""
    return st.lists(st.integers(0, last), min_size=2, max_size=2, unique=True).map(sorted)


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
@settings(max_examples=20, deadline=None)
# EXTRA opens UL1 at 00:20, and a line attack ending then or later would undo
# that entry, which `validate` rejects: the line's window ends by 00:19
@given(market=windows(60), line=windows(19))
@example(market=[5, 15], line=[5, 15])
@example(market=[0, 60], line=[0, 19]).via("the longest windows")
@example(market=[59, 60], line=[18, 19]).via("one step at their ends")
def test_null_attacks_leave_every_recorder_alone(topology, market, line):
    baseline_files = baseline(topology)
    for kind, (topologies, params) in NULL_ATTACKS.items():
        if topology not in topologies:
            continue
        start, end = (format_time(START + timedelta(minutes=m)) for m in (line if kind == "LINE_STATUS" else market))
        window = f'start "{start}"; end "{end}";'
        attacked = outputs(f"attack {{ name null; kind {kind}; {window} {params} }}\n", topology)
        assert attacked.keys() == baseline_files.keys()
        assert attacked["audit.csv"] != baseline_files["audit.csv"], kind
        for name in baseline_files.keys() - {"audit.csv", "summary.txt"}:
            assert attacked[name] == baseline_files[name], (kind, name)
        assert b"attacks null" in attacked["summary.txt"].splitlines()
        assert summary_but_attacks(attacked) == summary_but_attacks(baseline_files), kind


def summary_but_attacks(files: dict[str, bytes]) -> list[bytes]:
    return [line for line in files["summary.txt"].splitlines() if not line.startswith(b"attacks ")]


# (target, property, value) that a run of feeder_small plus EXTRA holds
# constant, each written as it is held; EXTRA holds UL1 open from 00:20
# until it closes it at 00:40, after an entry at that minute in file order
IDLE_WRITES = {
    ("z1", "base_power", "1.2 kW"): st.integers(0, 60),
    ("h2", "deadband", "2 degF"): st.integers(0, 60),
    ("h4", "internal_gains", "1800"): st.integers(0, 60),
    ("UL1", "status", "CLOSED"): st.integers(0, 19) | st.integers(40, 60),
}


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
@settings(max_examples=12, deadline=None)
@given(minutes=st.tuples(*IDLE_WRITES.values()))
@example(minutes=(10, 15, 0, 10)).via("the times checked by hand")
@example(minutes=(60, 60, 60, 40)).via("at the stop, and as EXTRA closes UL1")
def test_idle_writes_change_only_the_audit(topology, minutes):
    baseline_files = baseline(topology)
    entries = "".join(
        f'schedule {{ entry "{format_time(START + timedelta(minutes=m))}" {target} {prop} {value}; }}\n'
        for (target, prop, value), m in zip(IDLE_WRITES, minutes)
    )
    written_files = outputs(entries, topology)
    assert written_files.keys() == baseline_files.keys()
    audit, base_audit = written_files["audit.csv"].splitlines(), baseline_files["audit.csv"].splitlines()
    assert len(audit) == len(base_audit) + len(IDLE_WRITES)
    for name in baseline_files.keys() - {"audit.csv"}:
        assert written_files[name] == baseline_files[name], name


# an hour of feeder_small with a repeating and a one-shot schedule entry, a
# line attack, a player and a weather file; under `auxiliary`, a market
# attack too (`direct` rejects one)
SHIFTED = EXTRA[: EXTRA.index("schedule")] + EXTRA[EXTRA.index("recorder"):] + (
    'schedule { entry "2013-07-01 00:05:00" h3 deadband 3 degF; repeat 600 s; }\n'
    'schedule { entry "2013-07-01 00:10:00" h2 cooling_setpoint 76 degF; }\n'
    "player { name p1; target z1; property base_power; file zip.csv; }\n"
    'weather { file "weather.csv"; }\n'
    'attack { name cut; kind LINE_STATUS; start "2013-07-01 00:20:00"; end "2013-07-01 00:40:00"; '
    "lines UL1; status OPEN; }\n"
)
SHIFTED_MARKET_ATTACK = (
    'attack { name override; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:15:00"; '
    'end "2013-07-01 00:45:00"; fraction 0.5; seed 3; price 0.4 $/kWh; }\n'
)
SHIFTED_FILES = {  # each with a row before the start and rows inside the hour
    "zip.csv": "time,value\n2013-06-30 23:00:00,1.5\n2013-07-01 00:25:00,0.5\n2013-07-01 00:50:00,2\n",
    "weather.csv": "time,temperature_degF,irradiance_fraction\n2013-06-30 23:30:00,84,0\n"
    "2013-07-01 00:12:00,97,0.3\n2013-07-01 00:30:00,103,0.9\n",
}
STAMP = re.compile(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d")
FIRST_ROW, LAST_STOP = datetime(2013, 6, 30, 23), datetime(2013, 7, 1, 1)


def shifted(text: str, days: int) -> str:
    """`text` with every time in it moved by `days` days."""
    return STAMP.sub(lambda m: format_time(parse_time(m[0]) + timedelta(days=days)), text)


def shifted_outputs(topology: str, days: int, base_dir) -> dict[str, str]:
    """The files of the shifted day's run, with their times moved back."""
    for name, data in SHIFTED_FILES.items():
        (base_dir / name).write_text(shifted(data, days))
    attacks = SHIFTED_MARKET_ATTACK if topology == "auxiliary" else ""
    model = parse_scenario(shifted(load_fixture("feeder_small.glm") + SHIFTED + attacks, days))
    assert validate(model, topology).runnable
    files = written(Engine(model, topology, base_dir=str(base_dir)).run())
    return {name: shifted(data.decode(), -days) for name, data in files.items()}


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(days=st.integers((datetime.min - FIRST_ROW).days + 1, (datetime.max - LAST_STOP).days))
@example(days=1).via("the next day")
@example(days=-4955).via("to 1999-12-31, across a century's leap day")
@example(days=(datetime.min - FIRST_ROW).days + 1).via("the player's first row on 0001-01-01")
@example(days=(datetime.max - LAST_STOP).days).via("the stop on 9999-12-31")
def test_a_time_shift_moves_every_output_time(topology, days, tmp_path):
    unshifted = shifted_outputs(topology, 0, tmp_path)
    origins = {row.rsplit(",", 1)[1] for row in unshifted["audit.csv"].splitlines()[1:]}
    assert origins == {"attack", "player", "schedule"}
    assert shifted_outputs(topology, days, tmp_path) == unshifted
