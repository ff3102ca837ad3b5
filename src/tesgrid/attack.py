"""The attack kinds, compiled into kernel events and standing bid transforms.

`ATTACKS` is the one table of attack kinds: a row gives the kind's
parameters with their kinds and bounds, the class `fraction` draws the
seeded compromised set from, and for a market attack the bids its
transform rewrites and the rewrite of one bid.  SELLER_PRICE_OVERRIDE
gives replicated seller offers a fixed `price`; BUYER_BID_SCALE moves
forwarded controller bids to p + lambda * p_m, clamped at the price cap;
LINE_STATUS sets the listed `lines` to `status`, and at the window's end
back to their configured status (`CLOSED` when the object sets none).
Market attacks act on the auxiliary bidders, so `validate` rejects them
under the direct topology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .market import Bid
from .model import LINE_CLASSES, LINE_STATUSES, AttackConfig, Event, ScenarioModel


def compromised_set(population: list[str], fraction: float, seed: int) -> frozenset[str]:
    """Seeded draw without replacement of round(fraction * n) members."""
    count = round(fraction * len(population))
    rng = random.Random(seed)
    return frozenset(rng.sample(sorted(population), count))


def attacked_lines(cfg: AttackConfig) -> list[str]:
    """The lines a LINE_STATUS attack sets: those listed, or below a `fraction` of 1 a seeded draw."""
    lines = cfg.params["lines"]
    return sorted(compromised_set(lines, cfg.fraction, cfg.seed)) if cfg.fraction < 1.0 else lines


def scale_buyer_bid(bid: Bid, params: dict, market_price: float, price_cap: float) -> Bid:
    """p_hat = p + lambda * p_m, clamped to the market's price cap."""
    trader, side, price, quantity, period = bid
    return tuple.__new__(Bid, (trader, side, min(price + params["lambda"] * market_price, price_cap), quantity, period))


def seller_override(bid: Bid, params: dict, market_price: float, price_cap: float) -> Bid:
    trader, side, _, quantity, period = bid
    return tuple.__new__(Bid, (trader, side, params["price"], quantity, period))


class Param(NamedTuple):  # one parameter of an attack kind
    kind: str  # a unit class ("PRICE"), "number" (dimensionless), "lines" or "status"
    bound: object = None  # "nonnegative", the classes a listed line may be, or the words a status may be


class AttackKind(NamedTuple):
    params: dict[str, Param]  # by field name, in the order a block is printed
    population: str | None  # the class `fraction` draws from; None: the listed lines
    point: str | None = None  # the bids a market attack rewrites: "replicas" or "forwarded"
    rewrite: Callable | None = None  # rewrite(bid, params, market_price, price_cap) -> Bid


ATTACKS: dict[str, AttackKind] = {
    "SELLER_PRICE_OVERRIDE": AttackKind(
        {"price": Param("PRICE", "nonnegative")}, "generator_seller", "replicas", seller_override
    ),
    "BUYER_BID_SCALE": AttackKind(
        {"lambda": Param("number", "nonnegative")}, "controller", "forwarded", scale_buyer_bid
    ),
    "LINE_STATUS": AttackKind(
        {"lines": Param("lines", LINE_CLASSES), "status": Param("status", LINE_STATUSES)}, None
    ),
}
ATTACK_FIELDS = ("name", "kind", "start", "end", "fraction", "seed")  # besides a kind's parameters


@dataclass
class BidTransform:
    """Standing transform toggled by kernel events within the attack window."""

    name: str
    kind: str  # a market attack's key of ATTACKS
    compromised: frozenset[str]
    params: dict[str, object]
    active: bool = False

    def apply(self, bid: Bid, market_price: float, price_cap: float) -> Bid:
        """The rewritten bid, or `bid` itself when it is left alone."""
        return self.apply_all((bid,), market_price, price_cap)[0]

    def apply_all(self, bids: Sequence[Bid], market_price: float, price_cap: float) -> Sequence[Bid]:
        """`bids` with each compromised trader's bid rewritten, in one pass;
        an inactive transform returns `bids` itself."""
        if not self.active:
            return bids
        rewrite, compromised, params = ATTACKS[self.kind].rewrite, self.compromised, self.params
        return [rewrite(bid, params, market_price, price_cap) if bid[0] in compromised else bid for bid in bids]


@dataclass
class CompiledAttack:
    config: AttackConfig
    events: list[Event] = field(default_factory=list)
    transform: BidTransform | None = None


def compile_attack(cfg: AttackConfig, model: ScenarioModel, configured: dict[str, str]) -> CompiledAttack:
    """Draw the compromised set and emit window events for an attack of a
    model that `validate` reports runnable under the run's topology.  A
    LINE_STATUS attack's end writes back each line's status in
    `configured`, the network index's `switchable` map."""
    spec, compiled = ATTACKS[cfg.kind], CompiledAttack(cfg)
    if spec.population is None:
        status = cfg.params["status"]
        # (target, property, value in the window, value after it)
        edges = [(line, "status", status, configured[line]) for line in attacked_lines(cfg)]
    else:
        population = [obj.name for obj in model.of_class(spec.population)]
        compromised = compromised_set(population, cfg.fraction, cfg.seed)
        compiled.transform = BidTransform(cfg.name, cfg.kind, compromised, cfg.params)
        edges = [(f"attack:{cfg.name}", "active", True, False)]
    for target, prop, during, after in edges:
        compiled.events.append(Event(cfg.start, target, prop, during, "attack"))
        compiled.events.append(Event(cfg.end, target, prop, after, "attack"))
    return compiled
