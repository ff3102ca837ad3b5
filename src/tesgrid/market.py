"""Double-auction market, transactive HVAC controllers, and the
main/auxiliary market wiring used for bid-interception experiments.

Clearing rule: buy bids sorted descending and sell bids ascending by
price; the cleared quantity is the largest cumulative quantity at which
the buy price still meets or exceeds the sell price, and the clearing
price is the midpoint of the marginal (last accepted) buy and sell
prices.  When the curves do not cross, the prior period's price repeats
with zero quantity.

In addition to controller bids, each market receives one buy bid at the
price cap for the feeder's unresponsive load (appliances and houses that
do not bid), mirroring how retail double auctions anchor the demand
curve; without it a supply-side price manipulation could never clear.

Price statistics: a rolling 24 h window of clearing prices gives p_avg
and p_std, recomputed after every clearing from correctly rounded sums
(`math.fsum`), so every interpreter computes the same floats.  Until the
window holds two samples they hold warm-up seeds, which a market works
out when it is built from the sellers it is given: their mean offer and
10% of it, or without sellers its initial price and 10% of that; the
window never holds fewer than two samples again.  Controllers apply a
small floor to p_std so a long run of identical prices does not make the
ramp formulas degenerate.

Bids are immutable tuples (`Bid` is a `NamedTuple`): a rewritten bid is
a new tuple, never an edited one, and an attack transform that does not
rewrite a bid returns the very object it was given.  `controller_bids`
and the transforms build one with `tuple.__new__(Bid, fields)`, skipping
the `NamedTuple`'s Python-level `__new__`; the book and the clearing walk
read its fields by index.

A market's sells are its offers.  Its sellers make constant offers, given
as `SELL` bids when it is built, checked once as `submit` checks a bid's
price and quantity, and sorted stably by price once.  Each period clears
its booked buys against these standing offers, or against the list
`replace_offers` gives for that period alone (a rewritten copy of them,
say); an offer's `period` is never checked, and `last_bid_counts` counts
the offers the period cleared against as sells.

A market numbers its periods from `first_period`.  An auxiliary market
starts one ahead of its main market, numbering each period as the main
period its bids are forwarded into, so a forwarded bid passes the main
market's period check as it is and is booked there as the very object.

A round works a list at a time: `controller_bids` builds every
controller's ramp bid in one loop, reading the market's statistics, cap
and period once, and `Market.submit_all` books a list of buys with the
cap, quantity and period checks of `submit`.  `Controller.make_bid` and
`Market.submit` are their one-item cases.

A controller's setpoint span, `span = t_max - t_base`, which every bid
and every re-centering uses, is worked out once, in `__post_init__`.  It
cannot go stale in a run: no controller property has a `write` in
`kernel.PROPERTIES`, and a writer added for `t_base` or `t_max` must
refresh it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import BadQuantity, PriceCapViolation, StalePeriod
from .loads import HouseState

STATS_WINDOW_HOURS = 24.0
DEFAULT_PRICE_CAP = 0.63  # $/kWh, maximum price the market accepts
DEFAULT_INIT_PRICE = 0.10  # $/kWh, the prior price of the first round
DEFAULT_SIGMA_FLOOR = 0.003  # $/kWh, keeps the setpoint ramp well-defined
# $/kWh, the most any price may be: a 24 h window of 1 s periods then sums
# its 86,400 squared deviations (each below MAX_PRICE ** 2) far below 1.8e308
MAX_PRICE = 1e100
UNRESPONSIVE_TRADER = "feeder_unresponsive"
PRICE = itemgetter(2)  # a bid's price, the books' sort key


class Bid(NamedTuple):
    trader: str
    side: str  # BUY | SELL
    price: float  # $/kWh
    quantity: float  # kW
    period: int


@dataclass(frozen=True)
class Clearing:
    price: float
    quantity: float
    marginal_buy: float | None
    marginal_sell: float | None
    period: int


def clear_book(
    buys: list[Bid], sells: list[Bid], prior_price: float, period: int
) -> Clearing:
    """Pure clearing of one order book (see module docstring for the rule)."""
    # stable: FIFO within a price
    return clear_sorted(sorted(buys, key=PRICE, reverse=True), sorted(sells, key=PRICE), prior_price, period)


def clear_sorted(b: list[Bid], s: list[Bid], prior_price: float, period: int) -> Clearing:
    """`clear_book` of a book already sorted: buys by descending and sells
    by ascending price, each stably."""
    nb, ns = len(b), len(s)
    i = j = 0
    remaining_b = b[0][3] if b else 0.0
    remaining_s = s[0][3] if s else 0.0
    quantity = 0.0
    marginal_buy = marginal_sell = None
    while i < nb and j < ns:
        buy_price, sell_price = b[i][2], s[j][2]
        if not buy_price >= sell_price:  # `not`: a NaN price ends the walk too
            break
        # min(remaining_b, remaining_s), the same operand on a tie
        take = remaining_s if remaining_s < remaining_b else remaining_b
        quantity += take
        marginal_buy, marginal_sell = buy_price, sell_price
        remaining_b -= take
        remaining_s -= take
        # `not ... > 0.0`: a NaN quantity is used up too, so the walk always ends
        if not remaining_b > 0.0:
            i += 1
            remaining_b = b[i][3] if i < nb else 0.0
        if not remaining_s > 0.0:
            j += 1
            remaining_s = s[j][3] if j < ns else 0.0
    if quantity <= 0.0:
        return Clearing(prior_price, 0.0, None, None, period)
    return Clearing((marginal_buy + marginal_sell) / 2.0, quantity, marginal_buy, marginal_sell, period)


class Market:
    """Book of buys, standing offers, clearing history, and rolling price
    statistics, seeded from `offers`, the constant `SELL` offers of the
    sellers attached to it.  Its periods are numbered from `first_period`."""

    def __init__(
        self,
        name: str,
        period_seconds: int,
        price_cap: float = DEFAULT_PRICE_CAP,
        init_price: float = DEFAULT_INIT_PRICE,
        offers: Sequence[Bid] = (),
        first_period: int = 0,
    ):
        self.name = name
        self.period_seconds = period_seconds
        self.price_cap = price_cap
        self.current_period = first_period
        window = max(2, int(STATS_WINDOW_HOURS * 3600 / period_seconds))
        self.history: deque[float] = deque(maxlen=window)
        total, n = 0.0, 0
        for offer in offers:  # left to right, as builtin `sum` is compensated on 3.12+
            total += offer[2]
            n += 1
        self.p_avg = seed = total / n if n else init_price
        self.p_std = 0.1 * seed
        self.offers = self._checked_offers(offers)  # standing, sorted by price
        self.round_offers = self.offers  # what the current period clears against
        self.buys: list[Bid] = []
        self.last_clearing = Clearing(init_price, 0.0, None, None, first_period - 1)
        self.last_bid_counts = (0, 0)

    def _refuse(self, bid: Bid) -> None:
        """Raise the error of the first check `bid` fails: a price above the
        cap (or NaN), a quantity that is not a number >= 0, another period."""
        _, _, price, quantity, period = bid
        if not price <= self.price_cap:  # `not`: a NaN price is refused too
            raise PriceCapViolation(f"{self.name}: bid price {price:g} exceeds cap {self.price_cap:g}")
        if not quantity >= 0.0:
            raise BadQuantity(f"{self.name}: bid quantity {quantity:g} is not a number >= 0")
        raise StalePeriod(f"{self.name}: bid for period {period}, current is {self.current_period}")

    def _checked_offers(self, offers: Sequence[Bid]) -> list[Bid]:
        """`offers` sorted stably by price, each checked as `submit` checks
        a bid's price and quantity."""
        cap = self.price_cap
        for offer in offers:
            if not (offer[2] <= cap and offer[3] >= 0.0):
                self._refuse(offer)
        return sorted(offers, key=PRICE)

    def submit_all(self, bids: Iterable[Bid]) -> None:
        """Book `bids`, buys, in order.  A bid priced above the cap (or NaN),
        with a quantity that is not a number >= 0, or for another period is
        refused with an error; the bids before it stay booked."""
        cap, current, book = self.price_cap, self.current_period, self.buys.append
        for bid in bids:
            _, _, price, quantity, period = bid
            if not (price <= cap and quantity >= 0.0 and period == current):
                self._refuse(bid)
            book(bid)

    def submit(self, bid: Bid) -> None:
        self.submit_all((bid,))

    def replace_offers(self, offers: Sequence[Bid]) -> None:
        """Clear the current period against `offers` in place of the standing
        offers, with the checks they had."""
        self.round_offers = self._checked_offers(offers)

    def clear(self) -> Clearing:
        """Clear the buys against the period's offers, publish the price, roll statistics."""
        buys, sells = sorted(self.buys, key=PRICE, reverse=True), self.round_offers
        clearing = clear_sorted(buys, sells, self.last_clearing.price, self.current_period)
        self.last_bid_counts = (len(buys), len(sells))
        self.buys = []
        self.round_offers = self.offers
        self.last_clearing = clearing
        self.history.append(clearing.price)
        self._recompute_statistics()
        self.current_period += 1
        return clearing

    def _recompute_statistics(self) -> None:
        n = len(self.history)
        if n < 2:  # the warm-up seeds stand
            return
        mean = math.fsum(self.history) / n
        deviations = list(map(sub, self.history, repeat(mean)))  # without a generator frame
        var = math.fsum(map(mul, deviations, deviations)) / n
        self.p_avg = mean
        self.p_std = math.sqrt(var)


@dataclass
class Controller:
    """Price-responsive HVAC agent: bids for its house's rated power and
    moves the cooling setpoint with the published clearing price."""

    name: str
    house: str
    market: str
    t_min: float
    t_base: float
    t_max: float
    k_ramp: float
    sigma_floor: float = DEFAULT_SIGMA_FLOOR
    span: float = field(init=False)  # degF, the setpoint ramp's width, derived once

    def __post_init__(self):
        self.span = self.t_max - self.t_base

    def make_bid(self, house: HouseState, market: Market) -> Bid | None:
        """Ramp bid around the market's mean price, or no bid when cold."""
        bids = controller_bids([(self, house)], market)
        return bids[0] if bids else None


def controller_bids(bidders: list[tuple[Controller, HouseState]], market: Market) -> list[Bid]:
    """Each controller's ramp bid around `market`'s mean price, in bidder
    order; a controller whose house is at or below its `t_min` does not bid."""
    p_avg, p_std, cap, period = market.p_avg, market.p_std, market.price_cap, market.current_period
    new, bids = tuple.__new__, []
    for ctl, house in bidders:
        t_in = house.t_in
        if t_in <= ctl.t_min:
            continue
        # max(p_std, floor) and min(max(price, 0.0), cap), the same operand on a tie
        sigma = ctl.sigma_floor if ctl.sigma_floor > p_std else p_std
        price = p_avg + (t_in - ctl.t_base) * ctl.k_ramp * sigma / ctl.span
        price = 0.0 if 0.0 > price else price
        price = cap if cap < price else price
        bids.append(new(Bid, (ctl.name, "BUY", price, house.hvac_kw, period)))
    return bids


def respond_to_clearing(
    bidders: list[tuple[Controller, HouseState]], market: Market, clearing: Clearing
) -> None:
    """Re-center each controller's thermostat from the price `market` published."""
    shift, p_std = clearing.price - market.p_avg, market.p_std
    for ctl, house in bidders:  # max(p_std, floor), clamps: the same operand on a tie
        sigma = ctl.sigma_floor if ctl.sigma_floor > p_std else p_std
        t_set = ctl.t_base + shift * ctl.span / (ctl.k_ramp * sigma)
        t_set = ctl.t_min if ctl.t_min > t_set else t_set
        house.t_set = ctl.t_max if ctl.t_max < t_set else t_set

