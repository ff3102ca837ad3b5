"""The kernel's market round against a plain reference round.

`reference_round` is the market round written as a plain loop: ramp
bids, setpoint re-centering, one-period-late forwarding and the attack
transforms are spelled out from their formulas, without the kernel's
compiled bidder lists or the controller and transform methods.  A
generated 30-house day must clear every main and auxiliary market at
the same (price, quantity, marginal buy, marginal sell, period) and end
with the same setpoints, compared with ``==``.
"""

from datetime import datetime
from functools import partial

import pytest

from tesgrid.errors import PriceCapViolation, StalePeriod
from tesgrid.feedergen import gen_feeder, gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.market import UNRESPONSIVE_TRADER, Bid, Market, seller_bids
from tesgrid.model import AttackConfig

ATTACKS = {
    "override": AttackConfig(
        "ovr", "SELLER_PRICE_OVERRIDE", datetime(2013, 7, 1, 10), datetime(2013, 7, 1, 12),
        fraction=0.5, seed=7, params={"price": 0.63},
    ),
    "bidscale": AttackConfig(
        "scale", "BUYER_BID_SCALE", datetime(2013, 7, 1, 10), datetime(2013, 7, 1, 13),
        fraction=0.5, seed=7, params={"lambda": 0.2},
    ),
}


@pytest.fixture(scope="module")
def feeder_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("round")
    (d / "weather.csv").write_text(gen_weather())
    return d


def ramp_bid(ctl, house, market):
    if house.t_in <= ctl.t_min:
        return None
    sigma = max(market.p_std, ctl.sigma_floor)
    price = market.p_avg + (house.t_in - ctl.t_base) * ctl.k_ramp * sigma / (ctl.t_max - ctl.t_base)
    price = min(max(price, 0.0), market.price_cap)
    return Bid(ctl.name, "BUY", price, house.hvac_kw, market.current_period)


def recenter(ctl, house, market, clearing):
    sigma = max(market.p_std, ctl.sigma_floor)
    t_set = ctl.t_base + (clearing.price - market.p_avg) * (ctl.t_max - ctl.t_base) / (ctl.k_ramp * sigma)
    house.t_set = min(max(t_set, ctl.t_min), ctl.t_max)


def transformed(engine, bid, kind, market_price, price_cap):
    for tr in engine.transforms.values():
        if tr.kind == kind and tr.active and bid.trader in tr.compromised:
            if kind == "SELLER_PRICE_OVERRIDE":
                price = tr.params["price"]
            else:
                price = min(bid.price + tr.params["lambda"] * market_price, price_cap)
            bid = Bid(bid.trader, bid.side, price, bid.quantity, bid.period)
    return bid


def reference_round(engine, held, market_name):
    """One market round; `held` maps a controller to its last auxiliary bid."""
    market = engine.markets[market_name]
    ctls = engine.controllers[market_name]
    unresp_kw = engine._unresp_kw  # the loads phase's sum, checked in test_load_pass.py
    offers = seller_bids(engine.sellers[market_name], market.current_period)
    for bid in offers:
        market.submit(bid)
    if engine.topology == "direct":
        for ctl in ctls:
            bid = ramp_bid(ctl, engine.houses[ctl.house], market)
            if bid is not None:
                market.submit(bid)
        if unresp_kw > 0:
            market.submit(Bid(UNRESPONSIVE_TRADER, "BUY", market.price_cap, unresp_kw, market.current_period))
        clearing = market.clear()
        for ctl in ctls:
            recenter(ctl, engine.houses[ctl.house], market, clearing)
        return

    aux = engine.aux_markets[market_name]
    for offer in offers:
        replica = Bid(offer.trader, "SELL", offer.price, offer.quantity, aux.current_period)
        aux.submit(transformed(engine, replica, "SELLER_PRICE_OVERRIDE", market.last_clearing.price, aux.price_cap))
    for ctl in ctls:
        last = held.get(ctl.name)
        if last is not None:
            forwarded = Bid(last.trader, last.side, last.price, last.quantity, market.current_period)
            market.submit(
                transformed(engine, forwarded, "BUYER_BID_SCALE", market.last_clearing.price, market.price_cap)
            )
    for ctl in ctls:
        bid = ramp_bid(ctl, engine.houses[ctl.house], aux)
        if bid is not None:
            aux.submit(bid)
        held[ctl.name] = bid
    if unresp_kw > 0:
        market.submit(Bid(UNRESPONSIVE_TRADER, "BUY", market.price_cap, unresp_kw, market.current_period))
        aux.submit(Bid(UNRESPONSIVE_TRADER, "BUY", aux.price_cap, unresp_kw, aux.current_period))
    market.clear()
    clearing = aux.clear()
    for ctl in ctls:
        recenter(ctl, engine.houses[ctl.house], aux, clearing)


def day_run(feeder_dir, topology, attack, reference):
    model = parse_scenario(gen_feeder(30, 0))
    if attack is not None:
        model.attacks.append(attack)
    engine = Engine(model, topology=topology, seed=0, base_dir=str(feeder_dir))
    if reference:
        engine._market_round = partial(reference_round, engine, {})
    assert engine.run().complete
    return {name: house.t_set for name, house in engine.houses.items()}


@pytest.mark.parametrize(
    "topology, attack", [("auxiliary", "override"), ("auxiliary", "bidscale"), ("direct", None)]
)
def test_round_matches_plain_reference(feeder_dir, monkeypatch, topology, attack):
    clearings = []
    clear = Market.clear

    def recording_clear(market):
        clearing = clear(market)
        clearings.append((market.name, clearing))
        return clearing

    monkeypatch.setattr(Market, "clear", recording_clear)
    cfg = ATTACKS.get(attack)
    set_points = day_run(feeder_dir, topology, cfg, reference=False)
    kernel_clearings = list(clearings)
    clearings.clear()
    assert set_points == day_run(feeder_dir, topology, cfg, reference=True)
    assert len(kernel_clearings) == (2 if topology == "auxiliary" else 1) * 289
    assert kernel_clearings == clearings
    assert any(c.quantity > 0 for _, c in clearings)


def _record_books(monkeypatch, record):
    """Call `record(market)` on each market's book just before it clears:
    the round books its bids a list at a time, so the books are the place
    to observe what it submitted."""
    clear = Market.clear

    def recording_clear(market):
        record(market)
        return clear(market)

    monkeypatch.setattr(Market, "clear", recording_clear)


def test_forwarded_bid_carries_new_period_and_is_checked(feeder_dir, monkeypatch):
    engine = Engine(parse_scenario(gen_feeder(5, 0)), topology="auxiliary", base_dir=str(feeder_dir))
    main = engine.markets["market"]
    controllers = {ctl.name for ctl in engine.controllers["market"]}
    submitted = []
    _record_books(monkeypatch, lambda market: submitted.extend(
        (market.name, market.current_period, bid) for bid in market.buys + market.sells))
    engine._market_round("market")
    assert not [bid for name, _, bid in submitted if name == "market" and bid.trader in controllers]
    submitted.clear()
    engine._market_round("market")
    forwarded = [(period, bid) for name, period, bid in submitted if name == "market" and bid.trader in controllers]
    assert len(forwarded) == len(controllers)
    assert all(bid.period == period == 1 for period, bid in forwarded)

    with pytest.raises(StalePeriod):
        main.submit(forwarded[0][1])  # the main market has moved on to period 2
    held = engine._held_bids["market"]
    held[0] = held[0]._replace(price=main.price_cap + 0.01)
    with pytest.raises(PriceCapViolation):
        engine._market_round("market")


def test_aux_replicas_are_the_main_offers_unless_overridden(feeder_dir, monkeypatch):
    model = parse_scenario(gen_feeder(5, 0))
    model.attacks.append(ATTACKS["override"])
    engine = Engine(model, topology="auxiliary", base_dir=str(feeder_dir))
    override = engine.transforms["attack:ovr"]
    books = {engine.markets["market"]: [], engine.aux_markets["market"]: []}
    main, aux = books.values()
    _record_books(monkeypatch, lambda market: books[market].extend(market.sells))
    engine._market_round("market")
    assert len(main) == len(aux) > 1
    assert all(replica is offer for offer, replica in zip(main, aux))

    override.active = True
    assert 0 < len(override.compromised) < len(main)
    main.clear()
    aux.clear()
    engine._market_round("market")
    assert len(main) == len(aux)
    for offer, replica in zip(main, aux):
        if offer.trader in override.compromised:
            assert replica == offer._replace(price=override.params["price"]) != offer
        else:
            assert replica is offer
