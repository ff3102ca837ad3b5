"""Compile declarative attack configurations into kernel events and
standing bid transforms.

LINE_STATUS becomes a pair of switching events at the window edges.
Market attacks become activate/deactivate events that toggle a standing
transform over a seeded compromised subset of auxiliary bidders:

  SELLER_PRICE_OVERRIDE   replace compromised sellers' forwarded offers
                          with a fixed price
  BUYER_BID_SCALE         inflate compromised buyers' forwarded bids to
                          p + lambda * p_m, clamped at the price cap

Market attacks target the auxiliary bidders, so they require the
auxiliary-market topology; compiling one under the direct topology is a
configuration error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ConfigError, EmptyWindow, UnknownTarget
from .market import Bid
from .model import AttackConfig, Event, ScenarioModel


def compromised_set(population: list[str], fraction: float, seed: int) -> frozenset[str]:
    """Seeded draw without replacement of round(fraction * n) members."""
    count = round(fraction * len(population))
    rng = random.Random(seed)
    return frozenset(rng.sample(sorted(population), count))


def scale_buyer_bid(bid: Bid, lam: float, market_price: float, price_cap: float) -> Bid:
    """p_hat = p + lambda * p_m, clamped to the market's price cap."""
    return bid._replace(price=min(bid.price + lam * market_price, price_cap))


def seller_override(bid: Bid, price: float) -> Bid:
    return bid._replace(price=price)


@dataclass
class BidTransform:
    """Standing transform toggled by kernel events within the attack window."""

    name: str
    kind: str  # SELLER_PRICE_OVERRIDE | BUYER_BID_SCALE
    compromised: frozenset[str]
    price: float | None = None
    lam: float | None = None
    active: bool = False

    def apply(self, bid: Bid, market_price: float, price_cap: float) -> Bid:
        """The rewritten bid, or `bid` itself when it is left alone."""
        if not self.active or bid.trader not in self.compromised:
            return bid
        if self.kind == "SELLER_PRICE_OVERRIDE":
            return seller_override(bid, self.price)
        return scale_buyer_bid(bid, self.lam, market_price, price_cap)


@dataclass
class CompiledAttack:
    config: AttackConfig
    events: list[Event] = field(default_factory=list)
    transform: BidTransform | None = None


def compile_attack(
    cfg: AttackConfig,
    model: ScenarioModel,
    seller_names: list[str],
    controller_names: list[str],
    topology: str,
) -> CompiledAttack:
    """Resolve targets, draw the compromised set, and emit window events."""
    if cfg.start >= cfg.end:
        raise EmptyWindow(f"{cfg.name}: attack window is empty")
    compiled = CompiledAttack(cfg)
    if cfg.kind == "LINE_STATUS":
        names = model.by_name()
        targets = cfg.lines
        if cfg.fraction < 1.0:
            targets = sorted(compromised_set(list(targets), cfg.fraction, cfg.seed))
        for line_name in targets:
            if line_name not in names:
                raise UnknownTarget(f"{cfg.name}: no object named '{line_name}'")
            restored = "CLOSED" if cfg.status == "OPEN" else "OPEN"
            compiled.events.append(Event(cfg.start, line_name, "status", cfg.status, "attack"))
            compiled.events.append(Event(cfg.end, line_name, "status", restored, "attack"))
        return compiled

    if topology != "auxiliary":
        raise ConfigError(
            f"{cfg.name}: market attacks target auxiliary bidders; run with the auxiliary topology"
        )
    if cfg.kind == "SELLER_PRICE_OVERRIDE":
        population = seller_names
    else:
        population = controller_names
    if not population:
        raise UnknownTarget(f"{cfg.name}: scenario has no {cfg.kind} targets")
    compiled.transform = BidTransform(
        name=cfg.name,
        kind=cfg.kind,
        compromised=compromised_set(population, cfg.fraction, cfg.seed),
        price=cfg.price,
        lam=cfg.lam,
    )
    pseudo = f"attack:{cfg.name}"
    compiled.events.append(Event(cfg.start, pseudo, "active", True, "attack"))
    compiled.events.append(Event(cfg.end, pseudo, "active", False, "attack"))
    return compiled
