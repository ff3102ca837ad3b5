"""Double-auction tests: worked midpoint examples, random books against
the unit-expansion oracle and, bit for bit, against the earlier clearing
walk, rolling statistics, controller formulas, and the book's checks
applied a list of bids at a time.  A market's sells are its offers: these
tests give them as `offers=` or through `replace_offers`."""

import math
import operator
import random
import struct
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import SECOND_AUCTION
from oracles import auction_oracle, clear_book_reference

from tesgrid.errors import BadQuantity, PriceCapViolation, StalePeriod
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.loads import HouseState
from tesgrid.market import (
    Bid,
    Clearing,
    Controller,
    Market,
    clear_book,
    controller_bids,
    respond_to_clearing,
)


def B(price, qty, side="BUY", trader="t", period=0):
    return Bid(trader, side, price, qty, period)


def test_midpoint_simple_cross():
    clearing = clear_book([B(0.20, 10)], [B(0.10, 10, "SELL")], 0.05, 0)
    assert clearing.price == pytest.approx(0.15)
    assert clearing.quantity == 10
    assert (clearing.marginal_buy, clearing.marginal_sell) == (0.20, 0.10)


def test_equal_price_buys_clear_in_arrival_order():
    # float addition is not associative: the cleared quantity shows the order
    buys = [B(0.20, 0.1, trader="a"), B(0.20, 0.2, trader="b"), B(0.20, 0.3, trader="c")]
    clearing = clear_book(buys, [B(0.10, 50.0, "SELL")], 0.05, 0)
    assert clearing.quantity == (0.1 + 0.2) + 0.3 == 0.6000000000000001
    assert clearing.quantity != (0.3 + 0.2) + 0.1


def test_partial_cross_marginal_pair():
    buys = [B(0.30, 5), B(0.12, 5)]
    sells = [B(0.10, 5, "SELL"), B(0.20, 5, "SELL")]
    clearing = clear_book(buys, sells, 0.05, 0)
    # second buyer (0.12) cannot afford the second seller (0.20)
    assert clearing.quantity == 5
    assert clearing.price == pytest.approx((0.30 + 0.10) / 2)


def test_no_cross_repeats_prior_price():
    clearing = clear_book([B(0.10, 5)], [B(0.20, 5, "SELL")], 0.42, 7)
    assert clearing.price == 0.42
    assert clearing.quantity == 0.0
    assert clearing.marginal_buy is None


def test_empty_book():
    clearing = clear_book([], [], 0.33, 0)
    assert (clearing.price, clearing.quantity) == (0.33, 0.0)


def test_unequal_quantities_split():
    buys = [B(0.25, 7)]
    sells = [B(0.10, 3, "SELL"), B(0.15, 3, "SELL"), B(0.30, 5, "SELL")]
    clearing = clear_book(buys, sells, 0.05, 0)
    assert clearing.quantity == 6
    assert clearing.price == pytest.approx((0.25 + 0.15) / 2)


def random_book(rng):
    buys = [
        B(round(rng.uniform(0.01, 0.5), 4), rng.randint(1, 5))
        for _ in range(rng.randint(0, 10))
    ]
    sells = [
        B(round(rng.uniform(0.01, 0.5), 4), rng.randint(1, 5), "SELL")
        for _ in range(rng.randint(0, 10))
    ]
    return buys, sells


def test_thousand_random_books_match_oracle():
    rng = random.Random(12345)
    for _ in range(1000):
        buys, sells = random_book(rng)
        clearing = clear_book(buys, sells, 0.07, 0)
        price, qty = auction_oracle(buys, sells, 0.07)
        assert clearing.quantity == qty
        assert clearing.price == price


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 50), st.integers(1, 5)), max_size=10),
    st.lists(st.tuples(st.integers(1, 50), st.integers(1, 5)), max_size=10),
)
def test_clearing_matches_oracle_property(buy_spec, sell_spec):
    buys = [B(p / 100.0, q) for p, q in buy_spec]
    sells = [B(p / 100.0, q, "SELL") for p, q in sell_spec]
    clearing = clear_book(buys, sells, 0.09, 0)
    price, qty = auction_oracle(buys, sells, 0.09)
    assert clearing.quantity == qty
    assert clearing.price == price


# ties in price and in remaining quantity, signed zeros and NaN prices, where the
# walk's comparisons and `min` pick one operand of two
_BOOK_PRICE = st.sampled_from([0.05, 0.1, 0.1 + 1e-16, 0.2, 0.3, 0.63, math.nan])
_BOOK_QUANTITY = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 2.0]), st.floats(-1.0, 50.0, allow_nan=False)
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_BOOK_PRICE, _BOOK_QUANTITY), max_size=8),
    st.lists(st.tuples(_BOOK_PRICE, _BOOK_QUANTITY), max_size=8),
)
@example([(0.2, 1.0), (0.2, -0.0)], [(0.1, 1.0), (0.1, 0.0)])
@example([(0.2, -0.0), (0.2, 0.3)], [(0.1, 0.0), (0.1, 0.3)])
@example([(0.3, 0.1), (0.2, 0.2)], [(0.1, 0.3), (0.2, 0.0)])
def test_clearing_walk_matches_reference_bit_for_bit(buy_spec, sell_spec):
    buys = [B(p, q, trader=f"b{i}") for i, (p, q) in enumerate(buy_spec)]
    sells = [B(p, q, "SELL", trader=f"s{i}") for i, (p, q) in enumerate(sell_spec)]
    got = clear_book(buys, sells, 0.09, 4)
    assert repr(got) == repr(clear_book_reference(buys, sells, 0.09, 4))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_BOOK_PRICE, st.one_of(_BOOK_QUANTITY, st.just(math.nan))), max_size=8),
    st.lists(st.tuples(_BOOK_PRICE, st.one_of(_BOOK_QUANTITY, st.just(math.nan))), max_size=8),
)
@example([(0.2, math.nan)], [(0.1, 1.0)])
@example([(0.2, 1.0)], [(0.1, math.nan)])
def test_clearing_walk_ends_on_nan_quantities(buy_spec, sell_spec):
    """A NaN quantity is used up like an empty one, so the walk moves on."""
    buys = [B(p, q, trader=f"b{i}") for i, (p, q) in enumerate(buy_spec)]
    sells = [B(p, q, "SELL", trader=f"s{i}") for i, (p, q) in enumerate(sell_spec)]
    assert clear_book(buys, sells, 0.09, 4).period == 4


# signed zeros and ints beside equal floats, which a memo keyed with `==` would confuse
_MEMO_PRICE = st.sampled_from([-0.0, 0.0, 0, 0.1, 0.2, 0.5, 1, 1.0])
_MEMO_QUANTITY = st.sampled_from([-0.0, 0.0, 0, 1.0, 2.5, 10, 10.0])
_MEMO_BOOK = st.lists(st.tuples(_MEMO_PRICE, _MEMO_QUANTITY), max_size=6)
# the top buys: few values, so that two of the three are often equal but not the same
_MEMO_TOP = st.tuples(st.sampled_from([-0.0, 0.0, 0, 0.5, 1, 1.0]), st.sampled_from([-0.0, 0.0, 0, 2.5, 10, 10.0]))
_QUIET = ([], 2, None)  # a period with the third top buy alone against the standing offers


@settings(max_examples=150, deadline=None)
@given(
    offers=_MEMO_BOOK,
    pool=st.lists(_MEMO_TOP, min_size=3, max_size=3),
    periods=st.lists(st.tuples(
        st.lists(st.tuples(st.none() | _MEMO_PRICE, _MEMO_QUANTITY), max_size=5),  # None: at the top price
        st.integers(0, 2),  # the period's top buy, from the pool
        st.none() | _MEMO_BOOK,  # the offers `replace_offers` gives, if any
    ), min_size=8, max_size=8),
)
@example(  # 0.0 then -0.0 at the top: an `==` key would resume the first one's walk
    offers=[(-0.0, 5.0)], pool=[(0.0, 1.0), (-0.0, 1.0), (0.1, 1.0)],
    periods=[([], 0, None), ([], 1, None)] + [_QUIET] * 6,
)
@example(  # 1 then 1.0: the marginal buy price shows which
    offers=[(0.1, 20.0)], pool=[(1, 10.0), (1.0, 10.0), (0.1, 1.0)],
    periods=[([], 0, None), ([], 1, None)] + [_QUIET] * 6,
)
@example(  # the same top buy against the standing offers and then against replaced ones
    offers=[(0.1, 5.0)], pool=[(0.5, 1.0), (0.2, 1.0), (0.1, 1.0)],
    periods=[([], 0, None), ([], 0, [(0.2, 5.0)])] + [_QUIET] * 6,
)
def test_remembered_walk_clears_as_the_reference(offers, pool, periods):
    # one market over 8 periods, each booking drawn buys and then its top
    # buy, which takes the memo's hit, miss and replacement in turn; a bid
    # drawn at the top price is booked before it, and so sorts first
    offers = [B(p, q, "SELL", trader=f"g{i}") for i, (p, q) in enumerate(offers)]
    market = Market("m", 300, price_cap=1.0, offers=offers)
    for buys, top, replaced in periods:
        period, (top_price, top_quantity) = market.current_period, pool[top]
        book = [B(top_price if p is None else p, q, trader=f"b{i}", period=period) for i, (p, q) in enumerate(buys)]
        book.append(B(top_price, top_quantity, trader="top", period=period))
        sells = offers
        if replaced is not None:
            sells = [B(p, q, "SELL", trader=f"r{i}") for i, (p, q) in enumerate(replaced)]
            market.replace_offers(sells)
        market.submit_all(book)
        expected = clear_book_reference(book, sells, market.last_clearing.price, period)
        assert list(map(repr, market.clear())) == list(map(repr, expected))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=2, max_size=300))
@example([0.1, 0.1])
@example([0.0, -0.0, 0.0])
@example([1e308, 1e308, -1e308])
@example([math.inf, -math.inf])
def test_statistics_match_generator_formula(window):
    market = Market("m", 300)
    market.history = deque(window, maxlen=len(window))

    def statistics():
        market._recompute_statistics()
        return market.p_avg, market.p_std

    def reference():
        n = len(window)
        mean = math.fsum(window) / n
        return mean, math.sqrt(math.fsum((p - mean) * (p - mean) for p in window) / n)

    def outcome(fn):
        try:
            return repr(fn())
        # a partial sum past the largest float, or infinities of both signs
        except (OverflowError, ValueError) as exc:
            return repr(exc)

    assert outcome(statistics) == outcome(reference)


def test_built_bids_are_bids(small_text):
    h = house(80.0)
    bid = controller().make_bid(h, Market("m", 300))
    assert type(bid) is Bid and bid == Bid("c", "BUY", bid.price, h.hvac_kw, 0)
    # `Engine` builds each seller as its offer, at period 0, in seller order per auction
    auctions = Engine(parse_scenario(small_text + SECOND_AUCTION)).auctions
    offers = [offer for auction in auctions.values() for offer in auction.offers]
    assert all(type(offer) is Bid for offer in offers)
    assert offers == [
        Bid("g1", "SELL", 0.10, 50.0, 0), Bid("g2", "SELL", 0.12, 3.0, 0), Bid("g3", "SELL", 0.15, 40.0, 0)
    ]


def test_market_submit_clear_cycle():
    market = Market("m", period_seconds=300, price_cap=0.63, init_price=0.10, offers=[B(0.10, 10, "SELL")])
    market.submit(B(0.20, 10, period=0))
    clearing = market.clear()
    assert clearing.price == pytest.approx(0.15)
    assert market.current_period == 1
    assert market.last_bid_counts == (1, 1)
    with pytest.raises(StalePeriod):
        market.submit(B(0.20, 10, period=0))


def test_price_cap_enforced():
    market = Market("m", 300, price_cap=0.63)
    with pytest.raises(PriceCapViolation):
        market.submit(B(0.64, 1, period=0))
    market.submit(B(0.63, 1, period=0))  # exactly at the cap is legal
    market.replace_offers([B(0.63, 1, "SELL")])  # for an offer too


def test_nan_price_refused():
    market = Market("m", 300, price_cap=0.63)
    with pytest.raises(PriceCapViolation):
        market.submit(B(math.nan, 1, period=0))
    assert market.buys == []


@pytest.mark.parametrize("quantity", [math.nan, -1.0, -1e-300])
def test_nan_or_negative_quantity_refused(quantity):
    market = Market("m", 300)
    with pytest.raises(BadQuantity):
        market.submit(B(0.10, quantity, period=0))
    with pytest.raises(BadQuantity):
        market.replace_offers([B(0.10, quantity, "SELL", period=0)])
    assert market.buys == [] and market.round_offers is market.offers == []
    market.submit(B(0.10, 0.0, period=0))  # an empty bid is legal
    market.replace_offers([B(0.10, -0.0, "SELL", period=0)])  # and an empty offer


def test_statistics_exact_recomputation():
    market = Market("m", 3600)  # 24-sample window
    prices = [0.10, 0.12, 0.11, 0.15, 0.13]
    for p in prices:
        market.submit(B(p, 1, period=market.current_period))
        market.replace_offers([B(p, 1, "SELL")])
        market.clear()
    mean = sum(prices) / len(prices)
    var = sum((p - mean) ** 2 for p in prices) / len(prices)
    assert market.p_avg == pytest.approx(mean)
    assert market.p_std == pytest.approx(var ** 0.5)


def test_statistics_window_rolls():
    market = Market("m", 3600)  # maxlen 24
    for i in range(30):
        p = 0.10 + 0.001 * i
        market.submit(B(p, 1, period=market.current_period))
        market.replace_offers([B(p, 1, "SELL")])
        market.clear()
    window = [0.10 + 0.001 * i for i in range(6, 30)]
    assert list(market.history) == pytest.approx(window)
    assert market.p_avg == pytest.approx(sum(window) / 24)


def offering(*prices):
    """The offers of sellers offering `prices`."""
    return [B(price, 5.0, "SELL", trader=f"g{i}") for i, price in enumerate(prices)]


def test_warmup_seeds_until_two_samples():
    market = Market("m", 300, init_price=0.10, offers=offering(0.12))
    assert market.p_avg == 0.12 and market.p_std == pytest.approx(0.012)
    market.clear()  # one (no-cross) sample: still seeded
    assert market.p_avg == 0.12 and market.history[0] == 0.10


def test_warmup_seeds_are_the_mean_offer_summed_left_to_right():
    prices = (0.1, 0.2, 0.3, 1e-17)
    total = 0.0
    for price in prices:
        total += price
    market = Market("m", 300, init_price=0.5, offers=offering(*prices))
    assert (market.p_avg, market.p_std) == (total / 4, 0.1 * (total / 4))
    assert market.last_clearing.price == 0.5  # the prior price stays the initial price
    bare = Market("m", 300, init_price=0.5)
    assert (bare.p_avg, bare.p_std) == (0.5, 0.1 * 0.5)


@pytest.mark.parametrize("price, quantity, error", [
    (0.64, 1.0, PriceCapViolation), (math.nan, 1.0, PriceCapViolation),
    (0.10, math.nan, BadQuantity), (0.10, -1.0, BadQuantity),
])
def test_standing_offers_are_checked_once_given(price, quantity, error):
    bad = B(price, quantity, "SELL", period=0)
    with pytest.raises(error):
        Market("m", 300, price_cap=0.63, offers=[bad])
    market = Market("m", 300, price_cap=0.63, offers=offering(0.10))
    with pytest.raises(error):
        market.replace_offers([*market.offers, bad])
    assert market.round_offers is market.offers
    # an offer stands for every period: its own is not checked
    Market("m", 300, offers=[B(0.10, 1.0, "SELL", period=7)]).clear()


def house(t_in):
    return HouseState("h", t_in, 75.0, 2.0, 2000.0, 550.0, 1800.0, 5.0, 3.5)


def controller(**overrides):
    params = dict(name="c", house="h", market="m", t_min=70.0, t_base=75.0,
                  t_max=85.0, k_ramp=1.0, sigma_floor=0.003)
    params.update(overrides)
    return Controller(**params)


def test_controller_ramp_bid():
    market = Market("m", 300, offers=offering(0.10))
    ctl = controller()
    bid = ctl.make_bid(house(80.0), market)
    # p_avg + (T - T_base) * k * sigma / (T_max - T_base), sigma floored
    assert bid.price == pytest.approx(0.10 + 5.0 * 1.0 * 0.01 / 10.0)
    assert bid.quantity == 5.0
    assert bid.side == "BUY"


def test_controller_no_bid_when_cold():
    market = Market("m", 300)
    assert controller().make_bid(house(69.0), market) is None


def test_controller_bid_clamped_to_cap():
    market = Market("m", 300, price_cap=0.63, offers=offering(0.62))
    ctl = controller(k_ramp=100.0)
    bid = ctl.make_bid(house(84.0), market)
    assert bid.price == 0.63


def test_controller_sigma_floor():
    market = Market("m", 300)
    market.p_std = 0.0  # degenerate statistics
    ctl = controller()
    h = house(80.0)
    bid = ctl.make_bid(h, market)
    assert bid is not None  # the floor keeps the ramp well-defined
    respond_to_clearing([(ctl, h)], market, Clearing(market.p_avg, 0.0, None, None, 0))
    assert h.t_set == pytest.approx(75.0)  # price at the mean -> base setpoint


def test_respond_to_clearing_moves_setpoint():
    market = Market("m", 300, offers=offering(0.10))
    ctl = controller()
    h = house(76.0)
    respond_to_clearing([(ctl, h)], market, Clearing(0.63, 1.0, None, None, 0))
    assert h.t_set == 85.0  # clamped at t_max for an extreme price
    respond_to_clearing([(ctl, h)], market, Clearing(0.0, 1.0, None, None, 0))
    assert h.t_set == 70.0  # clamped at t_min


def _reference_bid_price(ctl, house, market):
    """make_bid's price with the clamps written as max/min."""
    sigma = max(market.p_std, ctl.sigma_floor)
    price = market.p_avg + (house.t_in - ctl.t_base) * ctl.k_ramp * sigma / (ctl.t_max - ctl.t_base)
    return min(max(price, 0.0), market.price_cap)


def _reference_t_set(ctl, market, price):
    """respond_to_clearing's setpoint with the clamps written as max/min."""
    sigma = max(market.p_std, ctl.sigma_floor)
    t_set = ctl.t_base + (price - market.p_avg) * (ctl.t_max - ctl.t_base) / (ctl.k_ramp * sigma)
    return min(max(t_set, ctl.t_min), ctl.t_max)


def _outcome(fn):
    """The bits of fn()'s float (sign of zero included), or the error it raises."""
    try:
        x = fn()
    except ZeroDivisionError:
        return "ZeroDivisionError"
    if x is None:
        return None
    return struct.pack("<d", x), math.copysign(1.0, x)


# ties with the clamp bounds and signed zeros, where max/min pick an operand
_SPECIAL = st.sampled_from([0.0, -0.0, 0.003, 0.63, 70.0, 75.0, 85.0, -1.0])
_NUMBER = st.one_of(_SPECIAL, st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(p_avg=_NUMBER, p_std=_NUMBER, floor=_NUMBER, cap=_NUMBER, price=_NUMBER, t_in=_NUMBER,
       t_min=_NUMBER, t_base=_NUMBER, t_max=_NUMBER, k_ramp=_NUMBER)
@example(p_avg=-0.0, p_std=0.003, floor=0.003, cap=0.0, price=0.0, t_in=-0.0, t_min=-1.0,
         t_base=0.0, t_max=85.0, k_ramp=1.0)  # bid price -0.0 against 0.0 and a cap of 0.0
@example(p_avg=0.0, p_std=0.003, floor=0.003, cap=0.63, price=-0.0, t_in=75.0, t_min=0.0,
         t_base=-0.0, t_max=85.0, k_ramp=1.0)  # setpoint -0.0 against t_min 0.0
@example(p_avg=0.0, p_std=0.003, floor=0.003, cap=0.63, price=-0.0, t_in=75.0, t_min=-1.0,
         t_base=-0.0, t_max=0.0, k_ramp=1.0)  # setpoint -0.0 against t_max 0.0
@example(p_avg=-0.0, p_std=-0.0, floor=0.0, cap=0.63, price=0.1, t_in=80.0, t_min=70.0,
         t_base=75.0, t_max=85.0, k_ramp=1.0)  # p_std ties the floor: sigma keeps p_std's sign
@example(p_avg=0.63, p_std=0.0, floor=0.003, cap=0.63, price=0.63, t_in=75.0, t_min=70.0,
         t_base=75.0, t_max=85.0, k_ramp=1.0)  # bid price at the cap, setpoint at t_base
def test_controller_clamps_match_max_min(p_avg, p_std, floor, cap, price, t_in, t_min, t_base, t_max, k_ramp):
    market = Market("m", 300, price_cap=cap)
    market.p_avg, market.p_std = p_avg, p_std
    ctl = controller(t_min=t_min, t_base=t_base, t_max=t_max, k_ramp=k_ramp, sigma_floor=floor)
    h = house(t_in)

    def bid_price():
        bid = ctl.make_bid(h, market)
        return None if bid is None else bid.price

    def reference_price():
        return None if h.t_in <= ctl.t_min else _reference_bid_price(ctl, h, market)

    assert _outcome(bid_price) == _outcome(reference_price)
    clearing = Clearing(price, 0.0, None, None, 0)

    def t_set():
        respond_to_clearing([(ctl, h)], market, clearing)
        return h.t_set

    assert _outcome(t_set) == _outcome(lambda: _reference_t_set(ctl, market, price))


_BIDDER = st.builds(
    lambda t_min, t_base, t_max, k_ramp, floor, t_in, hvac_kw: (
        controller(t_min=t_min, t_base=t_base, t_max=t_max, k_ramp=k_ramp, sigma_floor=floor),
        HouseState("h", t_in, 75.0, 2.0, 2000.0, 550.0, 1800.0, hvac_kw, 3.5),
    ),
    _NUMBER, _NUMBER, _NUMBER, _NUMBER, _NUMBER, _NUMBER, st.sampled_from([5.0, 0.0, -0.0]),
)


@settings(max_examples=200, deadline=None)
@given(bidders=st.lists(_BIDDER, max_size=6), p_avg=_NUMBER, p_std=_NUMBER, cap=_NUMBER,
       period=st.integers(0, 3))
@example(  # a bid price of -0.0 against 0.0 and a cap of 0.0, after a warm house
    bidders=[(controller(), house(80.0)), (controller(t_min=-1.0, t_base=0.0, t_max=85.0), house(-0.0))],
    p_avg=-0.0, p_std=0.003, cap=0.0, period=1)
def test_controller_bids_match_the_clamp_oracle(bidders, p_avg, p_std, cap, period):
    market = Market("m", 300, price_cap=cap)
    market.p_avg, market.p_std, market.current_period = p_avg, p_std, period
    for i, (ctl, _) in enumerate(bidders):
        ctl.name = f"c{i}"
    expected = []  # cold houses skipped; the first division by zero raises for the whole list
    for ctl, h in bidders:
        if h.t_in > ctl.t_min:
            price = _outcome(lambda: _reference_bid_price(ctl, h, market))
            if price == "ZeroDivisionError":
                with pytest.raises(ZeroDivisionError):
                    controller_bids(bidders, market)
                return
            expected.append((ctl.name, price, struct.pack("<d", h.hvac_kw)))
    bids = controller_bids(bidders, market)
    assert all(type(bid) is Bid and bid.side == "BUY" and bid.period == period for bid in bids)
    assert [(bid.trader, _outcome(lambda: bid.price), struct.pack("<d", bid.quantity)) for bid in bids] == expected


_BOOKED = st.builds(
    Bid,
    trader=st.sampled_from(["a", "b"]),
    side=st.just("BUY"),
    price=st.sampled_from([0.1, 0.0, 0.63, 0.64, math.nan]),
    quantity=st.sampled_from([1.0, 0.0, -0.0, -1.0, math.nan]),
    period=st.sampled_from([2, 2, 2, 1]),
)


@settings(max_examples=200, deadline=None)
@given(bids=st.lists(_BOOKED, max_size=6))
def test_submit_all_is_submit_in_turn(bids):
    def book(submit):
        market = Market("m", 300, price_cap=0.63)
        market.current_period = 2
        try:
            submit(market)
            error = None
        except (PriceCapViolation, BadQuantity, StalePeriod) as exc:
            error = (type(exc), str(exc))
        return error, market.buys

    def in_turn(market):
        for bid in bids:
            market.submit(bid)

    error, buys = book(lambda market: market.submit_all(bids))
    ref_error, ref_buys = book(in_turn)
    assert error == ref_error
    assert len(buys) == len(ref_buys) and all(map(operator.is_, buys, ref_buys))
