"""Golden output digests: a fixed scenario must write fixed bytes.

feeder_small.glm, with two controlled houses, a second seller, a setpoint
entry that cycles one uncontrolled house and recorders on every load,
node and line reader, is run for its hour under both topologies while a
schedule opens UL1 at 00:20 and closes it at 00:40.  A third case runs
the auxiliary hour under two market attacks, active 00:15-00:45: a
`BUYER_BID_SCALE` on c1 and c3 and a `SELLER_PRICE_OVERRIDE` on one of
the two sellers, so the bid-transform path and the setpoint c1 derives
from the prices are pinned too.  The sha256 of
every recorder CSV and of `audit.csv` is pinned, so a change that moves
any written number, even in its last printed digit, fails here and not
only in the benchmark.  Each case is also stopped at 00:30, inside UL1's
outage and the attack window, and deep-copied: the copy must finish the
hour to the same pins.

The runtime uses only the standard library, so the same pins must hold
on every supported interpreter.  Without pytest, run it as a script:

    PYTHONPATH=src python tests/test_golden.py

which prints each case's digests, whole and resumed, and exits 1 on
any mismatch.
"""

import copy
import hashlib
import os
import sys
import tempfile
from datetime import datetime

from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.recorder import write_results

FEEDER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "feeder_small.glm")

EXTRA = """
object controller { name c1; house h1; market A1; t_min 68 degF; t_base 72 degF; t_max 78 degF; k_ramp 1; }
object controller { name c3; house h3; market A1; t_min 68 degF; t_base 72 degF; t_max 78 degF; k_ramp 1; }
object generator_seller { name g2; market A1; price 0.25 $/kWh; capacity 2 kW; }
schedule {
    entry "2013-07-01 00:10:00" h2 cooling_setpoint 81 degF;
    entry "2013-07-01 00:20:00" UL1 status OPEN;
    entry "2013-07-01 00:40:00" UL1 status CLOSED;
}
recorder { name rec_tm1; target tm1; property voltage_mag, voltage_ang, measured_power_kw; interval 60 s; file tm1.csv; }
recorder { name rec_n2; target n2; property voltage_mag, voltage_ang, energized; interval 60 s; file n2.csv; }
recorder { name rec_tm4; target tm4; property voltage_mag, measured_power_kw; interval 60 s; file tm4.csv; }
recorder { name rec_s1; target s1; property power_kw; interval 60 s; file s1.csv; }
recorder { name rec_z1; target z1; property power_kw; interval 60 s; file z1.csv; }
recorder { name rec_h2; target h2; property air_temperature, hvac_load_kw, hvac_mode; interval 60 s; file h2.csv; }
recorder { name rec_h3; target h3; property air_temperature, hvac_load_kw, hvac_mode; interval 60 s; file h3.csv; }
recorder { name rec_t2; target T2; property current_mag; interval 60 s; file t2.csv; }
recorder { name rec_a1; target A1; property clearing_price, cleared_quantity; interval 300 s; file a1.csv; }
"""

ATTACKS = """
attack { name scale; kind BUYER_BID_SCALE; start "2013-07-01 00:15:00"; end "2013-07-01 00:45:00";
    fraction 1; seed 1; lambda 0.5; }
attack { name override; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:15:00"; end "2013-07-01 00:45:00";
    fraction 0.5; seed 3; price 0.4 $/kWh; }
recorder { name rec_c1; target h1; property cooling_setpoint; interval 60 s; file h1_setpoint.csv; }
"""

# case -> (topology, scenario text added to the fixture)
CASES = {
    "auxiliary": ("auxiliary", EXTRA),
    "direct": ("direct", EXTRA),
    "auxiliary_attacked": ("auxiliary", EXTRA + ATTACKS),
}

PINS = {
    "auxiliary": {
        "a1.csv": "eff6dcef1b1b581f45099b6b9e969242341c56319e0fc37fec53198ee8f73671",
        "audit.csv": "408232dff2db57ce6512316988484a039c32d450d35e254fd64bcde29beb363c",
        "h2.csv": "30fe97ceb0f4431aae91319b3ed02b7f72be763835d9bb4135d320389e430cf3",
        "h3.csv": "d4e6698976bce164ea5dbaaf8f2ef6bdccea4a917fa81317a34333b030d342aa",
        "n2.csv": "67d307d812d7f0f27956e0dc54ef38db088a296216fb0be54950c981319650b2",
        "s1.csv": "c2b416187bf1eace1414be41bfa090b5011de772fd035178ac1d860d7f493b4e",
        "src.csv": "690aa63a8b000c71c3a79bea2fc5b96838929284ac57f4c90f36bbe6d8eaaa3c",
        "t2.csv": "03c66d30b8bbcb6e6cc680673c466961e2b10250ecde9f05f6a54136a0ce1849",
        "tm1.csv": "1c4302687bce67328163c98bccc18a3290c95c8c5b14c86638c564922dc5c676",
        "tm3.csv": "f557cb7dcf1fb42f5bddd95086ce97df037c58d02c039948a0b62a24a6812e8a",
        "tm4.csv": "8c5ecd763ecf2ac6beda9d51fcc72c42b683ce3d5d2e2a04cc2aaaba94bea332",
        "ul1.csv": "221eb3acfc7cdcddd94feb9d3dd3f028cf5d4cebb150ad98d9252ed5a8b36bb3",
        "z1.csv": "1e1c94eba366e179bd70c82261532b95142ab689d92c8770692920eae9a81934",
    },
    "direct": {
        "a1.csv": "7d73db50eeb00e6305e12d99a1866ee98c231399cdb3f65bdcd8da8eeab58b67",
        "audit.csv": "408232dff2db57ce6512316988484a039c32d450d35e254fd64bcde29beb363c",
        "h2.csv": "30fe97ceb0f4431aae91319b3ed02b7f72be763835d9bb4135d320389e430cf3",
        "h3.csv": "d4e6698976bce164ea5dbaaf8f2ef6bdccea4a917fa81317a34333b030d342aa",
        "n2.csv": "67d307d812d7f0f27956e0dc54ef38db088a296216fb0be54950c981319650b2",
        "s1.csv": "c2b416187bf1eace1414be41bfa090b5011de772fd035178ac1d860d7f493b4e",
        "src.csv": "690aa63a8b000c71c3a79bea2fc5b96838929284ac57f4c90f36bbe6d8eaaa3c",
        "t2.csv": "03c66d30b8bbcb6e6cc680673c466961e2b10250ecde9f05f6a54136a0ce1849",
        "tm1.csv": "1c4302687bce67328163c98bccc18a3290c95c8c5b14c86638c564922dc5c676",
        "tm3.csv": "f557cb7dcf1fb42f5bddd95086ce97df037c58d02c039948a0b62a24a6812e8a",
        "tm4.csv": "8c5ecd763ecf2ac6beda9d51fcc72c42b683ce3d5d2e2a04cc2aaaba94bea332",
        "ul1.csv": "221eb3acfc7cdcddd94feb9d3dd3f028cf5d4cebb150ad98d9252ed5a8b36bb3",
        "z1.csv": "1e1c94eba366e179bd70c82261532b95142ab689d92c8770692920eae9a81934",
    },
    "auxiliary_attacked": {
        "a1.csv": "fd6beae502abe2d7c17707d2e022aace0d4c3989094c0d38e3ecd1b9aa4dceae",
        "audit.csv": "ae26070fe9aebd1ba34d49fa4aaa1f4bc8def5e33e42e1ad2556412f711fb59c",
        "h1_setpoint.csv": "f0ef2e50df8707b4f0b6ca550ff42dd4eba4bdadc734e57865242e66de0297f0",
        "h2.csv": "30fe97ceb0f4431aae91319b3ed02b7f72be763835d9bb4135d320389e430cf3",
        "h3.csv": "d4e6698976bce164ea5dbaaf8f2ef6bdccea4a917fa81317a34333b030d342aa",
        "n2.csv": "67d307d812d7f0f27956e0dc54ef38db088a296216fb0be54950c981319650b2",
        "s1.csv": "c2b416187bf1eace1414be41bfa090b5011de772fd035178ac1d860d7f493b4e",
        "src.csv": "690aa63a8b000c71c3a79bea2fc5b96838929284ac57f4c90f36bbe6d8eaaa3c",
        "t2.csv": "03c66d30b8bbcb6e6cc680673c466961e2b10250ecde9f05f6a54136a0ce1849",
        "tm1.csv": "1c4302687bce67328163c98bccc18a3290c95c8c5b14c86638c564922dc5c676",
        "tm3.csv": "f557cb7dcf1fb42f5bddd95086ce97df037c58d02c039948a0b62a24a6812e8a",
        "tm4.csv": "8c5ecd763ecf2ac6beda9d51fcc72c42b683ce3d5d2e2a04cc2aaaba94bea332",
        "ul1.csv": "221eb3acfc7cdcddd94feb9d3dd3f028cf5d4cebb150ad98d9252ed5a8b36bb3",
        "z1.csv": "1e1c94eba366e179bd70c82261532b95142ab689d92c8770692920eae9a81934",
    },
}


CUT = datetime(2013, 7, 1, 0, 30)


def digests(case: str, cut: bool = False) -> dict[str, str]:
    """sha256 of each written CSV of one case's outage hour, by file name;
    with `cut`, of a deep copy of the engine stopped after the `CUT` step."""
    topology, extra = CASES[case]
    with open(FEEDER, encoding="utf-8") as fh:
        engine = Engine(parse_scenario(fh.read() + extra), topology=topology)
    if cut:
        engine.advance(CUT)
        engine = copy.deepcopy(engine)
    with tempfile.TemporaryDirectory() as out:
        manifest = write_results(engine.run(), out)
        found = {}
        for name in manifest:
            if name.endswith(".csv"):
                with open(os.path.join(out, name), "rb") as fh:
                    found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def test_auxiliary_outputs_match_pins():
    assert digests("auxiliary") == PINS["auxiliary"]


def test_direct_outputs_match_pins():
    assert digests("direct") == PINS["direct"]


def test_attacked_outputs_match_pins():
    assert digests("auxiliary_attacked") == PINS["auxiliary_attacked"]


def test_resumed_copies_match_pins():
    for case, pins in PINS.items():
        assert digests(case, cut=True) == pins, case


if __name__ == "__main__":
    failed = False
    for case, pins in PINS.items():
        for cut in (False, True):
            found = digests(case, cut)
            for name in sorted(found):
                print(case, "resumed" if cut else "whole", name, found[name],
                      "ok" if pins.get(name) == found[name] else "MISMATCH")
            failed |= found != pins
    print(f"Python {sys.version.split()[0]}: {'MISMATCH' if failed else 'all digests match'}")
    sys.exit(1 if failed else 0)
