"""The kernel's market round against a plain reference round.

`reference_round` is the market round written as a plain loop: ramp
bids, setpoint re-centering, one-period-late forwarding and the attack
transforms are spelled out from their formulas, without the kernel's
compiled bidder lists, standing offers or the controller and transform
methods.  It keeps books of its own, which book every seller's offer
afresh each round and restamp every forwarded bid with the main market's
period, and each auction's sellers and controllers are read from the
scenario.  A generated 30-house day, and an hour of a feeder with two
auctions, must clear every main and auxiliary market at the same (price,
quantity, marginal buy, marginal sell, period) and end with the same
setpoints, compared with ``==``.
"""

from collections import Counter
from datetime import datetime
from functools import partial

import pytest
from conftest import SECOND_AUCTION, load_fixture
from hypothesis import given, settings
from hypothesis import strategies as st

from tesgrid.errors import PriceCapViolation, StalePeriod
from tesgrid.feedergen import gen_feeder, gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.market import (
    DEFAULT_INIT_PRICE,
    DEFAULT_PRICE_CAP,
    DEFAULT_SIGMA_FLOOR,
    PRICE,
    UNRESPONSIVE_TRADER,
    Bid,
    Controller,
    Market,
)
from tesgrid.model import AttackConfig
from tesgrid.validate import validate

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


def number(obj, prop, default=None):
    value = obj.properties.get(prop)
    return default if value is None else float(value.canonical())


def own_books(engine, name, offers):
    """Auction `name`'s main market and, under the auxiliary topology, its
    mirror, as books that hold no offer between rounds.  Each warms up from
    the mean of `offers` summed left to right, and 10% of it; the mirror
    numbers each period as the main period its bids are forwarded into."""
    obj = next(obj for obj in engine.model.objects if obj.name == name)
    cap, init = number(obj, "price_cap", DEFAULT_PRICE_CAP), number(obj, "init_price", DEFAULT_INIT_PRICE)
    total = 0.0
    for offer in offers:
        total += offer.price
    seed = total / len(offers) if offers else init
    books = [Market(name, number(obj, "period"), cap, init)]
    if engine.summary["topology"] == "auxiliary":
        books.append(Market(f"{name}_aux", number(obj, "period"), cap, init, first_period=1))
    for book in books:
        book.p_avg, book.p_std = seed, 0.1 * seed
    return books


def reference_round(engine, state, auction):
    """One round of `auction`'s market and mirror, with the sellers and
    controllers whose `market` names it, in books of the reference's own;
    `state` maps an auction to those books and each of its controllers to
    its last auxiliary bid."""
    name = auction.market.name
    traders = [obj for obj in engine.model.objects if obj.ref("market") == name]
    ctls = [
        Controller(obj.name, obj.ref("house"), name, number(obj, "t_min"), number(obj, "t_base"),
                   number(obj, "t_max"), number(obj, "k_ramp"), number(obj, "sigma_floor", DEFAULT_SIGMA_FLOOR))
        for obj in traders if obj.cls == "controller"
    ]
    unresp_kw = engine._unresp_kw  # the loads phase's sum, checked in test_load_pass.py
    offers = [
        Bid(obj.name, "SELL", number(obj, "price"), number(obj, "capacity"), 0)
        for obj in traders if obj.cls == "generator_seller"
    ]
    if name not in state:
        state[name] = own_books(engine, name, offers), {}
    books, held = state[name]
    market = books[0]
    for offer in offers:
        market.submit(Bid(offer.trader, "SELL", offer.price, offer.quantity, market.current_period))
    if engine.summary["topology"] == "direct":
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

    aux = books[1]
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


# each feeder's text, and the rounds of its run per market
FEEDERS = {
    "gen30": (lambda: gen_feeder(30, 0), 289),
    "two_auctions": (lambda: load_fixture("feeder_small.glm") + SECOND_AUCTION, 13 + 7),
}


def day_run(feeder_dir, feeder, topology, attack, reference):
    model = parse_scenario(FEEDERS[feeder][0]())
    if attack is not None:
        model.attacks.append(attack)
    engine = Engine(model, topology=topology, seed=0, base_dir=str(feeder_dir))
    if reference:
        engine._market_round = partial(reference_round, engine, {})
    assert engine.run().complete
    return {name: house.t_set for name, house in engine.houses.items()}


@pytest.mark.parametrize("feeder, topology, attack", [
    pytest.param("gen30", "auxiliary", "override", id="auxiliary-override"),
    pytest.param("gen30", "auxiliary", "bidscale", id="auxiliary-bidscale"),
    pytest.param("gen30", "direct", None, id="direct-None"),
    pytest.param("two_auctions", "auxiliary", None, id="two_auctions-auxiliary"),
    pytest.param("two_auctions", "direct", None, id="two_auctions-direct"),
])
def test_round_matches_plain_reference(feeder_dir, monkeypatch, feeder, topology, attack):
    clearings = []
    clear = Market.clear

    def recording_clear(market):
        clearing = clear(market)
        clearings.append((market.name, clearing))
        return clearing

    monkeypatch.setattr(Market, "clear", recording_clear)
    cfg = ATTACKS.get(attack)
    set_points = day_run(feeder_dir, feeder, topology, cfg, reference=False)
    kernel_clearings = list(clearings)
    clearings.clear()
    assert set_points == day_run(feeder_dir, feeder, topology, cfg, reference=True)
    assert len(kernel_clearings) == (2 if topology == "auxiliary" else 1) * FEEDERS[feeder][1]
    assert kernel_clearings == clearings
    assert any(c.quantity > 0 for _, c in clearings)


def _record_books(monkeypatch, record):
    """Call `record(market)` on each market's book just before it clears:
    the round books its bids a list at a time, so the books are the place
    to observe what it submitted.  A market's sells are in two lists: the
    offers the period clears against, and the sells booked besides them."""
    clear = Market.clear

    def recording_clear(market):
        record(market)
        return clear(market)

    monkeypatch.setattr(Market, "clear", recording_clear)


def test_forwarded_bid_carries_new_period_and_is_checked(feeder_dir, monkeypatch):
    engine = Engine(parse_scenario(gen_feeder(5, 0)), topology="auxiliary", base_dir=str(feeder_dir))
    auction = engine.auctions["market"]
    main = auction.market
    controllers = {ctl.name for ctl, _ in auction.bidders}
    submitted = []
    _record_books(monkeypatch, lambda market: submitted.extend(
        (market.name, market.current_period, bid) for bid in market.buys + market.round_offers + market.sells))
    engine._market_round(auction)
    assert not [bid for name, _, bid in submitted if name == "market" and bid.trader in controllers]
    submitted.clear()
    held = list(auction.held_bids)
    engine._market_round(auction)
    forwarded = [(period, bid) for name, period, bid in submitted if name == "market" and bid.trader in controllers]
    assert len(forwarded) == len(controllers)
    assert all(bid.period == period == 1 for period, bid in forwarded)
    # with no forwarded transform active, the main book holds the held bids themselves
    assert len(held) == len(forwarded) and all(bid is last for (_, bid), last in zip(forwarded, held))

    with pytest.raises(StalePeriod):
        main.submit(forwarded[0][1])  # the main market has moved on to period 2
    held = auction.held_bids
    held[0] = held[0]._replace(price=main.price_cap + 0.01)
    with pytest.raises(PriceCapViolation):
        engine._market_round(auction)


def test_aux_replicas_are_the_main_offers_unless_overridden(feeder_dir, monkeypatch):
    model = parse_scenario(gen_feeder(5, 0))
    model.attacks.append(ATTACKS["override"])
    engine = Engine(model, topology="auxiliary", base_dir=str(feeder_dir))
    override = engine.transforms["attack:ovr"]
    auction = engine.auctions["market"]
    books = {auction.market: [], auction.mirror: []}
    main, aux = books.values()
    _record_books(monkeypatch, lambda market: books[market].extend(market.round_offers + market.sells))
    engine._market_round(auction)
    assert len(main) == len(aux) > 1
    assert all(replica is offer for offer, replica in zip(main, aux))

    override.active = True
    assert 0 < len(override.compromised) < len(main)
    main.clear()
    aux.clear()
    engine._market_round(auction)
    assert len(main) == len(aux)
    # a rewritten list is sorted by its own prices: pair each offer with its replica by trader
    replicas = {replica.trader: replica for replica in aux}
    assert len(replicas) == len(main)
    for offer in main:
        replica = replicas[offer.trader]
        if offer.trader in override.compromised:
            assert replica == offer._replace(price=override.params["price"]) != offer
        else:
            assert replica is offer


# each auction of the two-auction feeder: its sellers, its controllers, and its sellers' mean offer
OWN = {"A1": ({"g1"}, {"c1"}, 0.10), "A2": ({"g2", "g3"}, {"c3"}, (0.12 + 0.15) / 2)}


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
def test_each_auction_books_its_own_traders_and_warms_up_from_its_own_offers(small_text, monkeypatch, topology):
    model = parse_scenario(small_text + SECOND_AUCTION)
    assert validate(model, topology).runnable
    engine = Engine(model, topology=topology)
    for name, (_, _, mean_offer) in OWN.items():
        auction = engine.auctions[name]
        markets = [auction.market] if topology == "direct" else [auction.market, auction.mirror]
        assert [(m.p_avg, m.p_std) for m in markets] == [(mean_offer, 0.1 * mean_offer)] * len(markets)
    # without its sellers, A2 warms up from its initial price
    text = "".join(line for line in (small_text + SECOND_AUCTION).splitlines(True) if "market A2; price" not in line)
    bare = Engine(parse_scenario(text), topology=topology).auctions["A2"]
    assert bare.offers == bare.market.offers == [] and (bare.market.p_avg, bare.market.p_std) == (0.2, 0.1 * 0.2)
    assert bare.mirror is None or (bare.mirror.p_avg, bare.mirror.p_std) == (0.2, 0.1 * 0.2)

    books = []
    _record_books(monkeypatch, lambda market: books.append((
        market.name.removesuffix("_aux"),
        {bid.trader for bid in market.round_offers + market.sells},
        {bid.trader for bid in market.buys},
    )))
    assert engine.run().complete
    copies = 1 if topology == "direct" else 2
    assert Counter(name for name, _, _ in books) == {"A1": 13 * copies, "A2": 7 * copies}
    for name, (sellers, controllers, _) in OWN.items():
        assert all(sells == sellers for market, sells, _ in books if market == name)
        bidders = set().union(*(buys for market, _, buys in books if market == name))
        assert bidders == controllers | {UNRESPONSIVE_TRADER}


# a few prices and capacities, so that draws tie on price and offer nothing
PRICES = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.63])
CAPACITIES = st.sampled_from([0.0, -0.0, 1.0, 2.5, 10.0])


@settings(max_examples=150, deadline=None)
@given(
    offers=st.lists(st.tuples(PRICES, CAPACITIES), max_size=8),
    rounds=st.lists(st.tuples(
        st.lists(st.tuples(PRICES, CAPACITIES), max_size=6),  # the round's buys
        st.none() | st.tuples(st.sets(st.integers(0, 7)), PRICES),  # (rewritten offers, their price)
    ), min_size=1, max_size=4),
)
def test_standing_offers_clear_as_offers_booked_each_round(offers, rounds):
    # the offers checked and sorted once, against the same offers booked and
    # sorted every round; a rewritten list, in seller order as the round
    # makes it, replaces them for its round alone
    offers = [Bid(f"g{i}", "SELL", price, capacity, 0) for i, (price, capacity) in enumerate(offers)]
    standing, booked = Market("m", 300, offers=offers), Market("m", 300)
    assert standing.offers == sorted(offers, key=PRICE)
    for buys, rewrite in rounds:
        replicas = offers
        if rewrite is not None:
            hit, price = rewrite
            replicas = [offer._replace(price=price) if i in hit else offer for i, offer in enumerate(offers)]
            standing.replace_offers(replicas)
        booked.submit_all([replica._replace(period=booked.current_period) for replica in replicas])
        for market in (standing, booked):
            market.submit_all([Bid(f"b{i}", "BUY", p, q, market.current_period) for i, (p, q) in enumerate(buys)])
        assert repr(standing.clear()) == repr(booked.clear())
        assert standing.last_bid_counts == booked.last_bid_counts == (len(buys), len(offers))
        assert standing.round_offers is standing.offers


def counted_feeder():
    """The 30-house feeder recording its auction's counts every round.  At
    03:00, 09:00, 15:00 and 21:00 a schedule cools 3, 6, 9 and 12 houses below
    their controllers' `t_min` (70 degF), so that they do not bid for a while."""
    text = gen_feeder(30, 0)
    houses = [obj.name for obj in parse_scenario(text).objects if obj.cls == "house"]
    entries = "".join(
        f'  entry "2013-07-01 {hour:02d}:00:00" {house} air_temperature 66 degF;\n'
        for n, hour in enumerate((3, 9, 15, 21), start=1) for house in houses[:3 * n]
    )
    return (text + f"schedule {{\n{entries}}}\n"
            "recorder { name counts; target market; property bid_count_buy, bid_count_sell; interval 300 s; "
            "file c.csv; }\n")


@pytest.mark.parametrize("topology, attack", [("auxiliary", None), ("direct", None), ("auxiliary", "override")])
def test_bid_counts_are_the_scenario_traders(feeder_dir, topology, attack):
    # every round's recorded counts: the sellers, and the controllers whose
    # bids the main market books (this round's bidders under direct wiring,
    # last round's forwarded ones under auxiliary) plus the unresponsive bid
    model = parse_scenario(counted_feeder())
    if attack is not None:
        model.attacks.append(ATTACKS[attack])
    assert validate(model, topology).runnable
    engine = Engine(model, topology=topology, base_dir=str(feeder_dir))
    sellers = sum(obj.cls == "generator_seller" for obj in model.objects)
    ctls = [(number(obj, "t_min"), obj.ref("house")) for obj in model.objects if obj.cls == "controller"]
    market_round, expected, last, overridden = engine._market_round, [], 0, 0

    def counting_round(auction):
        nonlocal last, overridden
        overridden += any(tr.active for tr in engine.transforms.values())
        bidding = sum(engine.houses[house].t_in > t_min for t_min, house in ctls)
        unresp = int(engine._unresp_kw > 0)
        market_round(auction)
        expected.append(((last if topology == "auxiliary" else bidding) + unresp, sellers))
        if auction.mirror is not None:
            assert auction.mirror.last_bid_counts == (bidding + unresp, sellers)
        last = bidding

    engine._market_round = counting_round
    result = engine.run()
    assert result.complete and len(expected) == FEEDERS["gen30"][1]
    assert [(int(buys), int(sells)) for _, buys, sells, _ in result.tables["counts"].rows] == expected
    assert len({buys for buys, _ in expected}) > 2 and {sells for _, sells in expected} == {50}
    assert overridden == (24 if attack == "override" else 0)  # 10:00-12:00 replaces the replicas
