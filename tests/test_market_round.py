"""The kernel's market round against a plain reference round.

`reference_round` (in `oracles.py`) is the market round written as a
plain loop: ramp bids, setpoint re-centering, one-period-late forwarding
and the attack transforms are spelled out from their formulas, without
the kernel's compiled bidder lists, standing offers or the controller
and transform methods.  It keeps books of its own, which take every
seller's offer afresh each round through `replace_offers` and restamp
every forwarded bid with the main market's period, and each auction's
sellers and controllers are read from the scenario.  A generated 30-house
day, and an hour of a feeder with two auctions, must clear every main and
auxiliary market at the same (price, quantity, marginal buy, marginal
sell, period) and end with the same setpoints, compared with ``==``.
"""

from collections import Counter
from datetime import datetime

import pytest
from conftest import SECOND_AUCTION, load_fixture
from oracles import number, reference_round
from hypothesis import given, settings
from hypothesis import strategies as st

from tesgrid.errors import PriceCapViolation, StalePeriod
from tesgrid.feedergen import gen_feeder, gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.market import PRICE, UNRESPONSIVE_TRADER, Bid, Market, clear_book
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
        state, transforms = {}, [c.transform for c in engine.attacks if c.transform is not None]
        engine._market_round = lambda auction: reference_round(
            model, state, auction.market.name, engine.houses, engine._unresp_kw, topology, transforms)
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
    """The kernel's main market clears every period against its standing
    offers, resuming the walk its top buy remembers, while the reference's
    books take their offers through `replace_offers` and walk from the
    start: each case compares the remembered walk with the plain one."""
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
    to observe what it submitted.  A market's sells are the offers the
    period clears against, `round_offers`."""
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
        (market.name, market.current_period, bid) for bid in market.buys + market.round_offers))
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
    override = engine.attacks[0].transform
    assert override.name == "ovr"
    auction = engine.auctions["market"]
    books = {auction.market: [], auction.mirror: []}
    main, aux = books.values()
    _record_books(monkeypatch, lambda market: books[market].extend(market.round_offers))
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
        {bid.trader for bid in market.round_offers},
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
    # the offers checked and sorted once, against `clear_book`, the pure
    # clearing rule, given the round's buys and offers; a rewritten list, in
    # seller order as the round makes it, replaces them for its round alone
    offers = [Bid(f"g{i}", "SELL", price, capacity, 0) for i, (price, capacity) in enumerate(offers)]
    standing = Market("m", 300, offers=offers)
    assert standing.offers == sorted(offers, key=PRICE)
    for buys, rewrite in rounds:
        replicas = offers
        if rewrite is not None:
            hit, price = rewrite
            replicas = [offer._replace(price=price) if i in hit else offer for i, offer in enumerate(offers)]
            standing.replace_offers(replicas)
        bids = [Bid(f"b{i}", "BUY", p, q, standing.current_period) for i, (p, q) in enumerate(buys)]
        standing.submit_all(bids)
        expected = clear_book(bids, replicas, standing.last_clearing.price, standing.current_period)
        assert repr(standing.clear()) == repr(expected)
        assert standing.last_bid_counts == (len(buys), len(offers))
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
        overridden += any(c.transform.active for c in engine.attacks)
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
