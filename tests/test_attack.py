"""Attack-compilation tests: seeded compromise draws, bid transforms,
window events, topology requirements, and a run of each attack kind."""

from datetime import datetime

import pytest
from conftest import load_fixture

from tesgrid.attack import (
    ATTACKS,
    BidTransform,
    compile_attack,
    compromised_set,
    scale_buyer_bid,
    seller_override,
)
from tesgrid.cli import main
from tesgrid.feedergen import gen_feeder, gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.market import Bid
from tesgrid.model import AttackConfig
from tesgrid.network import build_network_index
from tesgrid.validate import validate

T0 = datetime(2013, 7, 1, 10, 0, 0)
T1 = datetime(2013, 7, 1, 12, 0, 0)


def test_compromised_set_size_and_determinism():
    population = [f"ctl_{i}" for i in range(50)]
    chosen = compromised_set(population, 0.20, seed=7)
    assert len(chosen) == 10
    assert chosen == compromised_set(population, 0.20, seed=7)
    assert chosen != compromised_set(population, 0.20, seed=8)
    assert chosen <= set(population)


def test_compromised_set_order_independent():
    population = [f"t{i}" for i in range(20)]
    shuffled = list(reversed(population))
    assert compromised_set(population, 0.5, 3) == compromised_set(shuffled, 0.5, 3)


def test_compromised_set_extremes():
    population = ["a", "b", "c", "d"]
    assert compromised_set(population, 1.0, 0) == set(population)
    assert compromised_set(population, 0.0, 0) == frozenset()


def test_scale_buyer_bid_formula():
    bid = Bid("b", "BUY", 0.10, 5.0, 0)
    scaled = scale_buyer_bid(bid, {"lambda": 0.2}, market_price=0.15, price_cap=0.63)
    assert scaled.price == pytest.approx(0.10 + 0.2 * 0.15)
    assert (scaled.quantity, scaled.trader) == (5.0, "b")


def test_scale_lambda_zero_is_identity():
    bid = Bid("b", "BUY", 0.10, 5.0, 0)
    assert scale_buyer_bid(bid, {"lambda": 0.0}, 0.99, 0.63) == bid


def test_scale_clamps_at_cap():
    bid = Bid("b", "BUY", 0.60, 5.0, 0)
    assert scale_buyer_bid(bid, {"lambda": 1.0}, 0.50, 0.63).price == 0.63


def test_seller_override():
    bid = Bid("g", "SELL", 0.10, 5.0, 0)
    assert seller_override(bid, {"price": 0.63}, 0.1, 0.63).price == 0.63


def test_transform_only_touches_compromised_when_active():
    # a bid left alone comes back as the same object: callers count
    # rewrites by identity
    for kind, price in (("SELLER_PRICE_OVERRIDE", 0.63), ("BUYER_BID_SCALE", 0.10 + 0.5 * 0.1)):
        tr = BidTransform("a", kind, frozenset({"t1"}), {"price": 0.63, "lambda": 0.5})
        hit = Bid("t1", "SELL", 0.10, 5.0, 0)
        miss = Bid("t2", "SELL", 0.10, 5.0, 0)
        assert tr.apply(hit, 0.1, 0.63) is hit  # inactive
        tr.active = True
        rewritten = tr.apply(hit, 0.1, 0.63)
        assert rewritten is not hit
        assert rewritten == hit._replace(price=price)
        assert tr.apply(miss, 0.1, 0.63) is miss


def _classes(model):
    """The engine's name-to-class map, which `compile_attack` draws from."""
    return {name: obj.cls for name, obj in model.by_name().items()}


def _codes(model, cfg, topology="auxiliary"):
    """The codes of the errors `validate` reports at attack `cfg`, added to `model`."""
    if cfg not in model.attacks:
        model.attacks.append(cfg)
    return {d.code for d in validate(model, topology).errors if d.location == cfg.name}


def test_compile_market_attack_needs_auxiliary(small_model):
    cfg = AttackConfig("a", "SELLER_PRICE_OVERRIDE", T0, T1, params={"price": 0.63})
    assert "BAD_TOPOLOGY" in _codes(small_model, cfg, "direct")
    assert "BAD_TOPOLOGY" not in _codes(small_model, cfg, "auxiliary")
    compiled = compile_attack(cfg, _classes(small_model), {})
    assert compiled.transform.compromised == {"g1"}
    assert [(e.time, e.value) for e in compiled.events] == [(T0, True), (T1, False)]
    assert compiled.events[0].target == "attack:a"


def test_compile_buyer_attack_targets_controllers(small_model):
    cfg = AttackConfig("a", "BUYER_BID_SCALE", T0, T1, fraction=0.5, params={"lambda": 0.1})
    compiled = compile_attack(cfg, _classes(parse_scenario(gen_feeder(2))), {})
    assert len(compiled.transform.compromised) == 1
    assert compiled.transform.compromised <= {"ctl_0_0", "ctl_0_1"}
    assert "NO_TARGETS" in _codes(small_model, cfg)  # the fixture has no controller


def test_compile_line_status_window_events(small_model):
    cfg = AttackConfig("a", "LINE_STATUS", T0, T1, params={"lines": ["UL1"], "status": "OPEN"})
    compiled = compile_attack(cfg, _classes(small_model), build_network_index(small_model).switchable)
    assert compiled.transform is None
    events = [(e.time, e.target, e.value) for e in compiled.events]
    assert events == [(T0, "UL1", "OPEN"), (T1, "UL1", "CLOSED")]


def test_compile_line_status_unknown_line(small_model):
    cfg = AttackConfig("a", "LINE_STATUS", T0, T1, params={"lines": ["nope"], "status": "OPEN"})
    assert "DANGLING_REF" in _codes(small_model, cfg, "direct")


def test_compile_empty_window(small_model):
    cfg = AttackConfig("a", "LINE_STATUS", T1, T0, params={"lines": ["UL1"], "status": "OPEN"})
    assert "EMPTY_WINDOW" in _codes(small_model, cfg, "direct")


def _run(tmp_path, text: str) -> list[list[str]]:
    """Run scenario `text` under the auxiliary topology; the rows of its audit.csv."""
    (tmp_path / "s.glm").write_text(text)
    assert main(["run", str(tmp_path / "s.glm"), "--out", str(tmp_path / "out")]) == 0
    return [row.split(",") for row in (tmp_path / "out" / "audit.csv").read_text().splitlines()[1:]]


# per kind: its parameters in a block, and the (target, property, value
# before, value in the window) its two edges write; a kind added to
# ATTACKS without an entry here fails the test below
WINDOW_EDGES = {
    "SELLER_PRICE_OVERRIDE": ("price 0.5 $/kWh;", ("attack:a", "active", "0", "1")),
    "BUYER_BID_SCALE": ("lambda 0.2;", ("attack:a", "active", "0", "1")),
    "LINE_STATUS": ("lines trunk; status OPEN;", ("trunk", "status", "CLOSED", "OPEN")),
}


@pytest.mark.parametrize("kind", sorted(ATTACKS))
def test_every_kind_runs_one_window(tmp_path, kind):
    body, (target, prop, before, during) = WINDOW_EDGES[kind]
    (tmp_path / "weather.csv").write_text(gen_weather())
    text = gen_feeder(5).replace('stop "2013-07-02 00:00:00";', 'stop "2013-07-01 01:00:00";')
    text += (f'attack {{ name a; kind {kind}; start "2013-07-01 00:10:00"; '
             f'end "2013-07-01 00:20:00"; fraction 1; {body} }}\n')
    assert _run(tmp_path, text) == [
        ["2013-07-01 00:10:00", target, prop, before, during, "attack"],
        ["2013-07-01 00:20:00", target, prop, during, before, "attack"],
    ]


def test_line_status_ends_at_the_configured_status(tmp_path):
    """Closing a closed line for a window leaves it closed after the window;
    the end used to write the opposite of the attack's status."""
    text = load_fixture("feeder_small.glm")
    assert "status CLOSED;" in text  # UL1's configured status
    text += ('attack { name a; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
             'end "2013-07-01 00:20:00"; lines UL1; status CLOSED; }\n')
    assert _run(tmp_path, text) == [
        ["2013-07-01 00:10:00", "UL1", "status", "CLOSED", "CLOSED", "attack"],
        ["2013-07-01 00:20:00", "UL1", "status", "CLOSED", "CLOSED", "attack"],
    ]
    statuses = [row.split(",")[1] for row in (tmp_path / "out" / "ul1.csv").read_text().splitlines()[1:]]
    assert len(statuses) == 61 and set(statuses) == {"CLOSED"}


def test_line_status_ends_at_a_configured_open(tmp_path):
    """Closing a line configured OPEN for a window opens it again at the end."""
    text = load_fixture("feeder_small.glm").replace("status CLOSED;", "status OPEN;")
    text += ('attack { name a; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
             'end "2013-07-01 00:20:00"; lines UL1; status CLOSED; }\n')
    assert _run(tmp_path, text) == [
        ["2013-07-01 00:10:00", "UL1", "status", "OPEN", "CLOSED", "attack"],
        ["2013-07-01 00:20:00", "UL1", "status", "CLOSED", "OPEN", "attack"],
    ]
    rows = [row.split(",") for row in (tmp_path / "out" / "ul1.csv").read_text().splitlines()[1:]]
    statuses = {time[-8:-3]: status for time, status, *_ in rows}
    assert len(rows) == 61
    assert {statuses[minute] for minute in ("00:00", "00:09", "00:20", "00:30", "01:00")} == {"OPEN"}
    assert {statuses[f"00:{m}"] for m in range(10, 20)} == {"CLOSED"}
