"""Simulation clock, event manager, and the per-step phase pipeline.

The main loop advances t from start to stop in timestep increments.  At
every step boundary the kernel first applies all pending events with
event time <= t (in queue order: time, then insertion sequence), then
runs the component phases in a fixed order:

    players -> attack transforms -> thermal loads -> market -> power flow -> recorders

The fixed ordering plus insertion-ordered containers make a run a pure
function of (model, queue, seed): outputs are byte-identical across
repeats.  Every applied event lands in an audit log.
"""

from __future__ import annotations

import cmath
import heapq
import os
from dataclasses import dataclass
from datetime import datetime, timedelta

from .attack import CompiledAttack, compile_attack
from .errors import SolverDivergence, UnknownProperty, UnknownTarget
from .loads import HouseState, hvac_power, init_mode, solar_output, step_house
from .market import (
    DEFAULT_PRICE_CAP,
    DEFAULT_SIGMA_FLOOR,
    UNRESPONSIVE_TRADER,
    AuxiliaryBidder,
    Bid,
    Controller,
    Market,
    SellerAgent,
    seller_bids,
)
from .model import EDGE_CLASSES, ScenarioModel, Schedule, Value
from .network import build_network_index
from .powerflow import LineStatusBoard, solve_powerflow
from .recorder import (
    RecorderTable,
    WeatherSeries,
    constant_weather,
    read_player,
    read_weather,
)
from .validate import RECORDABLE

DEENERGIZED = "DEENERGIZED"

# Recorder reads that need only the object read, per property.
_AUCTION_READS = {
    "clearing_price": lambda market: market.last_clearing.price,
    "cleared_quantity": lambda market: market.last_clearing.quantity,
    "bid_count_buy": lambda market: market.last_bid_counts[0],
    "bid_count_sell": lambda market: market.last_bid_counts[1],
    "p_avg": lambda market: market.p_avg,
    "p_std": lambda market: market.p_std,
}
_HOUSE_READS = {
    "air_temperature": lambda house: house.t_in,
    "cooling_setpoint": lambda house: house.t_set,
    "hvac_mode": lambda house: house.mode,
}
_FEEDER_READS = {
    "losses_kw": lambda state: state.loss_power_va.real / 1000.0,
    "source_power_kw": lambda state: state.source_power_va.real / 1000.0,
}


@dataclass(frozen=True)
class Event:
    time: datetime
    target: str
    prop: str
    value: object
    origin: str  # schedule | attack | player


@dataclass
class AuditRow:
    time: datetime
    target: str
    prop: str
    old_value: object
    new_value: object
    origin: str


class EventQueue:
    """Time-ordered multiset; ties pop in insertion (FIFO) order."""

    def __init__(self):
        self._heap: list[tuple[datetime, int, Event]] = []
        self._seq = 0
        self.warnings: list[str] = []

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1

    def pop_due(self, t: datetime) -> list[Event]:
        due = []
        while self._heap and self._heap[0][0] <= t:
            due.append(heapq.heappop(self._heap)[2])
        return due

    def __len__(self) -> int:
        return len(self._heap)


def build_event_list(
    schedules: list[Schedule],
    attacks: list[CompiledAttack],
    t0: datetime,
    tf: datetime,
) -> EventQueue:
    """Expand schedules (with repeats) and compiled attacks into a queue.

    Entries outside [t0, tf] are dropped with an OutOfWindow warning.
    """
    queue = EventQueue()

    def push(time: datetime, target: str, prop: str, value, origin: str) -> None:
        if time < t0 or time > tf:
            queue.warnings.append(
                f"OutOfWindow: {origin} event at {time} for {target}.{prop} dropped"
            )
            return
        queue.push(Event(time, target, prop, value, origin))

    for sched in schedules:
        for entry in sched.entries:
            if sched.repeat is None:
                push(entry.time, entry.target, entry.prop, entry.value, "schedule")
            else:
                step = timedelta(seconds=sched.repeat)
                t = entry.time
                while t <= tf:
                    push(t, entry.target, entry.prop, entry.value, "schedule")
                    t = t + step
    for compiled in attacks:
        for ev in compiled.events:
            push(ev.time, ev.target, ev.prop, ev.value, "attack")
    return queue


@dataclass
class SimulationResult:
    tables: dict[str, RecorderTable]
    audit: list[AuditRow]
    summary: dict
    metadata: dict
    complete: bool = True


@dataclass
class _Appliance:
    name: str
    cls: str
    node: str
    power_kw: float


@dataclass
class _Solar:
    name: str
    node: str
    rating_kw: float
    efficiency: float


class Engine:
    """One simulation run over a validated scenario model."""

    def __init__(
        self,
        model: ScenarioModel,
        topology: str = "auxiliary",
        seed: int = 0,
        base_dir: str = ".",
    ):
        if topology not in ("direct", "auxiliary"):
            raise ValueError(f"unknown topology '{topology}'")
        self.model = model
        self.topology = topology
        self.seed = seed
        self.clock = model.clock
        self.index = build_network_index(model)

        initial_statuses = {}
        for obj in model.objects:
            if obj.name in self.index.edges_by_name and "status" in obj.properties:
                if self.index.edges_by_name[obj.name].switchable:
                    initial_statuses[obj.name] = str(obj.properties["status"].value)
        self.board = LineStatusBoard(self.index, initial_statuses)

        names = model.by_name()
        self.houses: dict[str, HouseState] = {}
        self.house_node: dict[str, str] = {}
        for obj in model.of_class("house"):
            house = HouseState(
                name=obj.name,
                t_in=float(obj.get("air_temperature", 75.0)),
                t_set=float(obj.get("cooling_setpoint", 75.0)),
                deadband=float(obj.get("deadband", 2.0)),
                capacitance=float(obj.get("thermal_capacitance", 2000.0)),
                ua=float(obj.get("ua", 550.0)),
                internal_gains=float(obj.get("internal_gains", 1800.0)),
                hvac_kw=float(obj.get("hvac_rating", 4.0)),
                cop=float(obj.get("cop", 3.5)),
            )
            init_mode(house)
            self.houses[obj.name] = house
            self.house_node[obj.name] = self.index.attach_node[obj.name]

        self.appliances: dict[str, _Appliance] = {}
        for obj in model.of_class("zipload", "waterheater"):
            self.appliances[obj.name] = _Appliance(
                obj.name, obj.cls, self.index.attach_node[obj.name], float(obj.get("base_power", 0.0))
            )
        self.solars: dict[str, _Solar] = {}
        for obj in model.of_class("solar"):
            self.solars[obj.name] = _Solar(
                obj.name,
                self.index.attach_node[obj.name],
                float(obj.get("rating", 0.0)),
                float(obj.get("efficiency", 1.0)),
            )

        # markets; under the auxiliary topology each auction gets a mirror
        self.markets: dict[str, Market] = {}
        self.aux_markets: dict[str, Market] = {}
        for obj in model.of_class("auction"):
            market = Market(
                obj.name,
                period_seconds=int(obj.get("period", 300)),
                price_cap=float(obj.get("price_cap", DEFAULT_PRICE_CAP)),
                init_price=float(obj.get("init_price", 0.10)),
            )
            self.markets[obj.name] = market
            if topology == "auxiliary":
                self.aux_markets[obj.name] = Market(
                    f"{obj.name}_aux",
                    market.period_seconds,
                    market.price_cap,
                    market.last_price,
                    role="AUXILIARY",
                )

        self.sellers: dict[str, list[SellerAgent]] = {m: [] for m in self.markets}
        for obj in model.of_class("generator_seller"):
            self.sellers[obj.ref("market")].append(
                SellerAgent(obj.name, float(obj.get("price")), float(obj.get("capacity")))
            )
        for market_name, agents in self.sellers.items():
            if agents:
                mean_offer = sum(a.price for a in agents) / len(agents)
                self.markets[market_name].seed_statistics(mean_offer)
                if market_name in self.aux_markets:
                    self.aux_markets[market_name].seed_statistics(mean_offer)

        self.controllers: dict[str, list[Controller]] = {m: [] for m in self.markets}
        for obj in model.of_class("controller"):
            ctl = Controller(
                name=obj.name,
                house=obj.ref("house"),
                market=obj.ref("market"),
                t_min=float(obj.get("t_min")),
                t_base=float(obj.get("t_base")),
                t_max=float(obj.get("t_max")),
                k_ramp=float(obj.get("k_ramp")),
                sigma_floor=float(obj.get("sigma_floor", DEFAULT_SIGMA_FLOOR)),
            )
            self.controllers[ctl.market].append(ctl)
        self.controlled_houses = {
            c.house for ctls in self.controllers.values() for c in ctls
        }

        # each load with the node it draws from, in model order; the
        # per-step loops below walk these lists and nothing else
        self._house_at = [(house, self.house_node[name]) for name, house in self.houses.items()]
        self._uncontrolled_at = [
            (house, node) for house, node in self._house_at if house.name not in self.controlled_houses
        ]
        self._appliance_at = [(app, app.node) for app in self.appliances.values()]
        self._panel_at = [(panel, panel.node) for panel in self.solars.values()]

        # auxiliary bidders: one per seller (replication) and one per
        # controller (one-period-delayed estimation)
        self.seller_abs: dict[str, list[AuxiliaryBidder]] = {}
        self.buyer_abs: dict[str, list[AuxiliaryBidder]] = {}
        if topology == "auxiliary":
            for market_name in self.markets:
                self.seller_abs[market_name] = [
                    AuxiliaryBidder(a.name, "SELLER_SIDE") for a in self.sellers[market_name]
                ]
                self.buyer_abs[market_name] = [
                    AuxiliaryBidder(c.name, "BUYER_SIDE") for c in self.controllers[market_name]
                ]

        seller_names = [a.name for agents in self.sellers.values() for a in agents]
        controller_names = [c.name for ctls in self.controllers.values() for c in ctls]
        self.attacks: list[CompiledAttack] = [
            compile_attack(cfg, model, seller_names, controller_names, topology)
            for cfg in model.attacks
        ]
        self.transforms = {
            f"attack:{c.config.name}": c.transform for c in self.attacks if c.transform is not None
        }

        self.players = []
        for cfg in model.players:
            series = read_player(os.path.join(base_dir, cfg.file))
            self.players.append((cfg, series))
        if model.weather_source is not None:
            self.weather: WeatherSeries = read_weather(os.path.join(base_dir, model.weather_source))
        else:
            self.weather = constant_weather(self.clock.start)

        self.audit: list[AuditRow] = []
        self.network_state = None
        self._pf_solves = 0
        self._pf_max_iterations = 0
        self._pf_worst_mismatch = 0.0

        self._readers = {
            (cfg.target, prop): self._bind_reader(names, cfg.target, prop)
            for cfg in model.recorders
            for prop in cfg.properties
        }

    # -- event application --------------------------------------------------

    def apply_event(self, event: Event) -> None:
        """Execute one property mutation; appends an audit record."""
        old = self._set_property(event.target, event.prop, event.value)
        self.audit.append(
            AuditRow(event.time, event.target, event.prop, old, self._plain(event.value), event.origin)
        )

    @staticmethod
    def _plain(value):
        return value.canonical() if isinstance(value, Value) else value

    def _set_property(self, target: str, prop: str, value):
        value = self._plain(value)
        if target in self.transforms:
            transform = self.transforms[target]
            if prop != "active":
                raise UnknownProperty(f"{target}.{prop}")
            old = transform.active
            transform.active = bool(value)
            return old
        if target in self.index.edges_by_name and prop == "status":
            old = self.board.statuses.get(target)
            self.board.set(target, str(value))
            return old
        if target in self.houses:
            house = self.houses[target]
            attr = {
                "cooling_setpoint": "t_set",
                "air_temperature": "t_in",
                "deadband": "deadband",
                "internal_gains": "internal_gains",
            }.get(prop)
            if attr is None:
                raise UnknownProperty(f"{target}.{prop}")
            old = getattr(house, attr)
            setattr(house, attr, float(value))
            return old
        if target in self.appliances and prop == "base_power":
            old = self.appliances[target].power_kw
            self.appliances[target].power_kw = float(value)
            return old
        if target in self.solars and prop == "rating":
            old = self.solars[target].rating_kw
            self.solars[target].rating_kw = float(value)
            return old
        if target not in self.model.by_name() and target not in self.transforms:
            raise UnknownTarget(target)
        raise UnknownProperty(f"{target}.{prop}")

    # -- per-step phases ----------------------------------------------------

    def _phase_players(self, t: datetime) -> None:
        for cfg, series in self.players:
            value = series.sample(t)
            current = self._peek_property(cfg.target, cfg.prop)
            if current != value:
                old = self._set_property(cfg.target, cfg.prop, value)
                self.audit.append(AuditRow(t, cfg.target, cfg.prop, old, value, "player"))

    def _peek_property(self, target: str, prop: str):
        if target in self.houses:
            return {
                "cooling_setpoint": self.houses[target].t_set,
                "air_temperature": self.houses[target].t_in,
                "deadband": self.houses[target].deadband,
                "internal_gains": self.houses[target].internal_gains,
            }.get(prop)
        if target in self.appliances and prop == "base_power":
            return self.appliances[target].power_kw
        if target in self.solars and prop == "rating":
            return self.solars[target].rating_kw
        if target in self.index.edges_by_name and prop == "status":
            return self.board.statuses.get(target)
        return None

    def _phase_loads(self, t: datetime, dt: int, first: bool) -> None:
        t_out, _ = self.weather.sample(t)
        if first:
            return
        energized = self.board.energized()
        for house, node in self._house_at:
            step_house(house, t_out, dt, powered=energized[node])

    def _unresponsive_kw(self, t: datetime) -> float:
        """Appliances, uncontrolled HVAC, minus solar, over energized nodes."""
        energized = self.board.energized()
        total = 0.0
        for app, node in self._appliance_at:
            if energized[node]:
                total += app.power_kw
        for house, node in self._uncontrolled_at:
            if energized[node]:
                total += hvac_power(house)
        _, irradiance = self.weather.sample(t)
        for panel, node in self._panel_at:
            if energized[node]:
                total -= solar_output(panel.rating_kw, panel.efficiency, irradiance)
        return max(total, 0.0)

    def _market_round(self, market_name: str, t: datetime) -> None:
        market = self.markets[market_name]
        agents = self.sellers[market_name]
        ctls = self.controllers[market_name]
        unresp_kw = self._unresponsive_kw(t)
        transforms = [tr for tr in self.transforms.values() if tr is not None]

        if self.topology == "direct":
            for bid in seller_bids(agents, market.current_period):
                market.submit(bid)
            for ctl in ctls:
                bid = ctl.make_bid(self.houses[ctl.house], market)
                if bid is not None:
                    market.submit(bid)
            if unresp_kw > 0:
                market.submit(
                    Bid(UNRESPONSIVE_TRADER, "BUY", market.price_cap, unresp_kw, market.current_period)
                )
            clearing = market.clear()
            for ctl in ctls:
                ctl.apply_clearing(self.houses[ctl.house], market, clearing)
            return

        aux = self.aux_markets[market_name]
        # sellers bid into the main market; seller-side ABs replicate the
        # constant offers into the auxiliary market (override attack point)
        offers = {bid.trader: bid for bid in seller_bids(agents, market.current_period)}
        for bid in offers.values():
            market.submit(bid)
        for ab in self.seller_abs[market_name]:
            replica = Bid(
                ab.trader, "SELL", offers[ab.trader].price, offers[ab.trader].quantity, aux.current_period
            )
            for tr in transforms:
                if tr.kind == "SELLER_PRICE_OVERRIDE":
                    replica = tr.apply(replica, market.last_price, aux.price_cap)
            aux.submit(replica)
        # buyer-side ABs forward last period's auxiliary bids to the main
        # market (bid-scaling attack point), then controllers bid afresh
        for ab in self.buyer_abs[market_name]:
            forwarded = ab.forwarded(market.current_period)
            if forwarded is None:
                continue
            for tr in transforms:
                if tr.kind == "BUYER_BID_SCALE":
                    forwarded = tr.apply(forwarded, market.last_price, market.price_cap)
            market.submit(forwarded)
        buyer_abs = {ab.trader: ab for ab in self.buyer_abs[market_name]}
        for ctl in ctls:
            bid = ctl.make_bid(self.houses[ctl.house], aux)
            if bid is not None:
                aux.submit(bid)
            buyer_abs[ctl.name].observe(bid)
        if unresp_kw > 0:
            market.submit(
                Bid(UNRESPONSIVE_TRADER, "BUY", market.price_cap, unresp_kw, market.current_period)
            )
            aux.submit(
                Bid(UNRESPONSIVE_TRADER, "BUY", aux.price_cap, unresp_kw, aux.current_period)
            )
        market.clear()
        aux_clearing = aux.clear()
        # controllers trade in (and observe) the auxiliary market only
        for ctl in ctls:
            ctl.apply_clearing(self.houses[ctl.house], aux, aux_clearing)

    def _phase_market(self, t: datetime) -> None:
        offset = int((t - self.clock.start).total_seconds())
        for market_name, market in self.markets.items():
            if offset % market.period_seconds == 0:
                self._market_round(market_name, t)

    def build_load_injections(self, t: datetime) -> tuple[list[tuple[str, complex]], dict]:
        """Constant-power (node, power_va) pairs plus feeder totals (kW).

        Per node: houses, then appliances, then minus solar, summed in kW
        before the scaling to VA; nodes come in the order first seen.
        """
        energized = self.board.energized()
        per_node: dict[str, float] = {}
        hvac = 0.0
        for house, node in self._house_at:
            if energized[node]:
                kw = hvac_power(house)
                per_node[node] = per_node.get(node, 0.0) + kw
                hvac += kw
        for app, node in self._appliance_at:
            if energized[node]:
                per_node[node] = per_node.get(node, 0.0) + app.power_kw
        _, irradiance = self.weather.sample(t)
        for panel, node in self._panel_at:
            if energized[node]:
                per_node[node] = per_node.get(node, 0.0) - solar_output(
                    panel.rating_kw, panel.efficiency, irradiance
                )
        totals = {"load": sum(per_node.values()), "hvac": hvac}
        return [(node, complex(kw * 1000.0, 0.0)) for node, kw in per_node.items()], totals

    def _phase_powerflow(self, t: datetime) -> dict:
        injections, totals = self.build_load_injections(t)
        state = solve_powerflow(
            self.index,
            injections,
            self.board.statuses,
            energized=self.board.energized(),
            start=self.network_state,
        )
        self.network_state = state
        self._pf_solves += 1
        self._pf_max_iterations = max(self._pf_max_iterations, state.iterations)
        self._pf_worst_mismatch = max(self._pf_worst_mismatch, state.power_mismatch_pu())
        return totals

    # -- recording ----------------------------------------------------------

    def read_property(self, target: str, prop: str, totals: dict):
        """Recorder getter for a recorded (target, property); returns (value, flag)."""
        return self._readers[target, prop](totals)

    def _bind_reader(self, names: dict, target: str, prop: str):
        """Resolve one recorded (target, property) to a closure over the
        object it reads.  The closure takes the step's feeder totals and
        returns (value, flag) from the live run state."""
        obj = names.get(target)
        if obj is None:
            raise UnknownTarget(target)
        if prop not in RECORDABLE.get(obj.cls, ()):
            raise UnknownProperty(f"{target}.{prop}")
        live = self.board.energized  # called per read: switching replaces the islands
        cls = obj.cls

        if cls == "auction":
            market, get = self.markets[target], _AUCTION_READS.get(prop)
            if get is not None:
                return lambda totals: (get(market), "")
        elif cls == "house":
            house, node = self.houses[target], self.house_node[target]
            if prop == "hvac_load_kw":
                return lambda totals: (hvac_power(house), "") if live()[node] else (0.0, DEENERGIZED)
            get = _HOUSE_READS.get(prop)
            if get is not None:
                return lambda totals: (get(house), "" if live()[node] else DEENERGIZED)
        elif cls in ("zipload", "waterheater"):
            app = self.appliances[target]
            return lambda totals: (app.power_kw, "") if live()[app.node] else (0.0, DEENERGIZED)
        elif cls == "solar":
            panel = self.solars[target]
            return lambda totals: (self._solar_kw(panel), "") if live()[panel.node] else (0.0, DEENERGIZED)
        elif cls in EDGE_CLASSES:
            if prop == "status":
                statuses = self.board.statuses
                return lambda totals: (statuses.get(target, "CLOSED"), "")
            if prop == "current_mag":
                def current_mag(totals):
                    state = self.network_state
                    return (abs(state.currents[target]) if state else 0.0), ""
                return current_mag
        elif target in self.index.depth:
            return self._bind_node_reader(target, prop, live)
        raise UnknownProperty(f"{target}.{prop}")

    def _bind_node_reader(self, node: str, prop: str, live):
        if prop == "voltage_mag":
            def voltage_mag(totals):
                if not live()[node]:
                    return 0.0, DEENERGIZED
                state = self.network_state
                return (abs(state.voltages[node]) if state else 0.0), ""
            return voltage_mag
        if prop == "voltage_ang":
            def voltage_ang(totals):
                if not live()[node]:
                    return 0.0, DEENERGIZED
                v = self.network_state.voltages[node] if self.network_state else 0j
                return (0.0 if v == 0 else cmath.phase(v) * 180.0 / cmath.pi), ""
            return voltage_ang
        if prop == "energized":
            return lambda totals: (live()[node], "")
        if prop == "measured_power_kw":
            # signed kW of each attached load, in attachment order
            terms = []
            for name in self.index.attachments[node]:
                if name in self.houses:
                    terms.append(lambda house=self.houses[name]: hvac_power(house))
                elif name in self.appliances:
                    terms.append(lambda app=self.appliances[name]: app.power_kw)
                elif name in self.solars:
                    terms.append(lambda panel=self.solars[name]: -self._solar_kw(panel))

            def measured_power_kw(totals):
                if not live()[node]:
                    return 0.0, DEENERGIZED
                total = 0.0
                for term in terms:
                    total += term()
                return total, ""
            return measured_power_kw
        if prop == "total_load_kw":
            return lambda totals: (totals.get("load", 0.0), "")
        if prop == "total_hvac_kw":
            return lambda totals: (totals.get("hvac", 0.0), "")
        get = _FEEDER_READS.get(prop)
        if get is not None:
            return lambda totals: (get(self.network_state) if self.network_state else 0.0, "")
        raise UnknownProperty(f"{node}.{prop}")

    def _solar_kw(self, panel: _Solar) -> float:
        _, irradiance = self.weather.sample(self._now)
        return solar_output(panel.rating_kw, panel.efficiency, irradiance)

    # -- main loop ----------------------------------------------------------

    def run(self, queue: EventQueue | None = None) -> SimulationResult:
        clock = self.clock
        dt = clock.timestep
        if queue is None:
            queue = build_event_list(self.model.schedules, self.attacks, clock.start, clock.stop)
        steps = int((clock.stop - clock.start).total_seconds()) // dt

        tables: dict[str, RecorderTable] = {}
        for cfg in self.model.recorders:
            tables[cfg.name] = RecorderTable(
                cfg.name, cfg.file, ["time"] + cfg.properties + ["flags"]
            )

        markets = list(self.markets.values()) + list(self.aux_markets.values())
        max_price = 0.0
        complete = True
        divergence = None
        executed_steps = 0
        for k in range(steps + 1):
            t = clock.start + timedelta(seconds=k * dt)
            self._now = t
            for event in queue.pop_due(t):
                self.apply_event(event)
            self._phase_players(t)
            # attack transforms are standing; activation happened via events
            self._phase_loads(t, dt, first=(k == 0))
            self._phase_market(t)
            try:
                totals = self._phase_powerflow(t)
            except SolverDivergence as exc:
                complete = False
                divergence = exc
                divergence_time = t
                break
            offset = k * dt
            for cfg in self.model.recorders:
                if offset % cfg.interval == 0:
                    values, flags = [], []
                    for prop in cfg.properties:
                        value, flag = self.read_property(cfg.target, prop, totals)
                        values.append(value)
                        if flag:
                            flags.append(flag)
                    tables[cfg.name].append(t, values, "|".join(sorted(set(flags))))
            executed_steps = k
            for market in markets:
                max_price = max(max_price, market.last_clearing.price)

        summary = {
            "start": clock.start.strftime("%Y-%m-%d %H:%M:%S"),
            "stop": clock.stop.strftime("%Y-%m-%d %H:%M:%S"),
            "timestep_s": dt,
            "steps": steps,
            "seed": self.seed,
            "topology": self.topology,
            "attacks": ";".join(a.config.name for a in self.attacks) or "none",
            "complete": 1 if complete else 0,
            "powerflow_solves": self._pf_solves,
            "powerflow_max_iterations": self._pf_max_iterations,
            "powerflow_worst_mismatch_pu": self._pf_worst_mismatch,
            "max_clearing_price": max_price,
        }
        if divergence is not None:
            summary["divergence"] = str(divergence)
            summary["divergence_time"] = divergence_time.strftime("%Y-%m-%d %H:%M:%S")
            summary["divergence_node"] = divergence.node
        metadata = {
            "steps": steps,
            "executed_steps": executed_steps,
            "seed": self.seed,
            "event_warnings": list(queue.warnings),
        }
        result = SimulationResult(tables, self.audit, summary, metadata, complete)
        if divergence is not None:
            result.summary["incomplete_reason"] = "solver_divergence"
        return result


def run_simulation(
    model: ScenarioModel,
    topology: str = "auxiliary",
    seed: int = 0,
    base_dir: str = ".",
) -> SimulationResult:
    """Convenience wrapper: build an engine and run the full window."""
    return Engine(model, topology=topology, seed=seed, base_dir=base_dir).run()
