"""Metamorphic relations between runs: an edit of a scenario that must not
move an output leaves its bytes alone.

A null attack is an attack of each `ATTACKS` kind with its identity
parameters: a bid scale by 0 of every buyer, a price override of no
seller, a line set to the status it already has.  Its window opens and
closes, so `audit.csv` and the summary's `attacks` line change, but every
recorder CSV and every other summary line must be byte-identical to the
run without it.
"""

import pytest
from conftest import load_fixture
from test_golden import EXTRA
from test_kernel import written

from tesgrid.attack import ATTACKS
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.validate import validate

WINDOW = 'start "2013-07-01 00:05:00"; end "2013-07-01 00:15:00";'

# kind -> (topologies, the attack's parameters), UL1 being closed before the window
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


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_null_attacks_leave_every_recorder_alone(topology):
    baseline = outputs("", topology)
    for kind, (topologies, params) in NULL_ATTACKS.items():
        if topology not in topologies:
            continue
        attacked = outputs(f"attack {{ name null; kind {kind}; {WINDOW} {params} }}\n", topology)
        assert attacked.keys() == baseline.keys()
        assert attacked["audit.csv"] != baseline["audit.csv"], kind
        for name in baseline.keys() - {"audit.csv", "summary.txt"}:
            assert attacked[name] == baseline[name], (kind, name)
        assert b"attacks null" in attacked["summary.txt"].splitlines()
        assert summary_but_attacks(attacked) == summary_but_attacks(baseline), kind


def summary_but_attacks(files: dict[str, bytes]) -> list[bytes]:
    return [line for line in files["summary.txt"].splitlines() if not line.startswith(b"attacks ")]
