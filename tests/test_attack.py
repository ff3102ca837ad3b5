"""Attack-compilation tests: seeded compromise draws, bid transforms,
window events, and topology requirements."""

from datetime import datetime

import pytest

from tesgrid.attack import (
    BidTransform,
    compile_attack,
    compromised_set,
    scale_buyer_bid,
    seller_override,
)
from tesgrid.errors import ConfigError, EmptyWindow, UnknownTarget
from tesgrid.market import Bid
from tesgrid.model import AttackConfig

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
    scaled = scale_buyer_bid(bid, lam=0.2, market_price=0.15, price_cap=0.63)
    assert scaled.price == pytest.approx(0.10 + 0.2 * 0.15)
    assert (scaled.quantity, scaled.trader) == (5.0, "b")


def test_scale_lambda_zero_is_identity():
    bid = Bid("b", "BUY", 0.10, 5.0, 0)
    assert scale_buyer_bid(bid, 0.0, 0.99, 0.63) == bid


def test_scale_clamps_at_cap():
    bid = Bid("b", "BUY", 0.60, 5.0, 0)
    assert scale_buyer_bid(bid, 1.0, 0.50, 0.63).price == 0.63


def test_seller_override():
    bid = Bid("g", "SELL", 0.10, 5.0, 0)
    assert seller_override(bid, 0.63).price == 0.63


def test_transform_only_touches_compromised_when_active():
    # a bid left alone comes back as the same object: callers count
    # rewrites by identity
    for kind, price in (("SELLER_PRICE_OVERRIDE", 0.63), ("BUYER_BID_SCALE", 0.10 + 0.5 * 0.1)):
        tr = BidTransform("a", kind, frozenset({"t1"}), price=0.63, lam=0.5)
        hit = Bid("t1", "SELL", 0.10, 5.0, 0)
        miss = Bid("t2", "SELL", 0.10, 5.0, 0)
        assert tr.apply(hit, 0.1, 0.63) is hit  # inactive
        tr.active = True
        rewritten = tr.apply(hit, 0.1, 0.63)
        assert rewritten is not hit
        assert rewritten == hit._replace(price=price)
        assert tr.apply(miss, 0.1, 0.63) is miss


def test_compile_market_attack_needs_auxiliary(small_model):
    cfg = AttackConfig("a", "SELLER_PRICE_OVERRIDE", T0, T1, price=0.63)
    with pytest.raises(ConfigError):
        compile_attack(cfg, small_model, ["g1"], [], topology="direct")
    compiled = compile_attack(cfg, small_model, ["g1"], [], topology="auxiliary")
    assert compiled.transform.compromised == {"g1"}
    assert [(e.time, e.value) for e in compiled.events] == [(T0, True), (T1, False)]
    assert compiled.events[0].target == "attack:a"


def test_compile_buyer_attack_targets_controllers(small_model):
    cfg = AttackConfig("a", "BUYER_BID_SCALE", T0, T1, fraction=0.5, lam=0.1)
    compiled = compile_attack(cfg, small_model, ["g1"], ["c1", "c2"], "auxiliary")
    assert len(compiled.transform.compromised) == 1
    with pytest.raises(UnknownTarget):
        compile_attack(cfg, small_model, ["g1"], [], "auxiliary")


def test_compile_line_status_window_events(small_model):
    cfg = AttackConfig("a", "LINE_STATUS", T0, T1, lines=["UL1"], status="OPEN")
    compiled = compile_attack(cfg, small_model, [], [], "direct")
    assert compiled.transform is None
    events = [(e.time, e.target, e.value) for e in compiled.events]
    assert events == [(T0, "UL1", "OPEN"), (T1, "UL1", "CLOSED")]


def test_compile_line_status_unknown_line(small_model):
    cfg = AttackConfig("a", "LINE_STATUS", T0, T1, lines=["nope"], status="OPEN")
    with pytest.raises(UnknownTarget):
        compile_attack(cfg, small_model, [], [], "direct")


def test_compile_empty_window(small_model):
    cfg = AttackConfig("a", "LINE_STATUS", T1, T0, lines=["UL1"], status="OPEN")
    with pytest.raises(EmptyWindow):
        compile_attack(cfg, small_model, [], [], "direct")
