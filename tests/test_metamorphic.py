"""Metamorphic relations between runs: an edit of a scenario that must not
move an output leaves its bytes alone.

A null attack is an attack of each `ATTACKS` kind with its identity
parameters: a bid scale by 0 of every buyer, a price override of no
seller, a line set to the status it already has.  Its window, drawn on
the step grid of the hour, opens and closes, so `audit.csv` and the
summary's `attacks` line change, but every recorder CSV and every other
summary line must be byte-identical to the run without it.
"""

from datetime import timedelta
from functools import cache

import pytest
from conftest import load_fixture
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import EXTRA
from test_kernel import START, written

from tesgrid.attack import ATTACKS
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.model import format_time
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
