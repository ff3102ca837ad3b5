"""Simulation clock, event stream, and the per-step phase pipeline.

The main loop advances t from start to stop in timestep increments.  At
every step boundary the kernel first applies all pending events with
event time <= t (in stream order: time, then schedule entries in file
order, then attack events), then runs the component phases in a fixed
order:

    players -> attack transforms -> thermal loads -> market -> power flow -> recorders

Attack transforms are standing: events switch them on and off, and a
market round applies only the transforms that are active then.  A round
reads one `Auction` record (market, mirror, offers, bidders, held bids)
and copies a bid only where a transform rewrites it.  A seller's run
object is its offer, and a market's sells are its offers: built once,
they stand in both markets, and an active `replicas` transform's
rewritten list replaces them in the mirror for the round.  The mirror
numbers each period as the main period its bids are forwarded into, so
the held bids are booked in the main market as they are.  The round
books each list of buys (forwarded bids, the controllers' bids) with
one `submit_all` call and re-centers its controllers from one price.

The loads phase is the one place a step's load kW is worked out.  It
samples the weather once, steps the whole fleet with one `step_houses`
call (its slot sums and the HVAC total), then adds each live appliance
into its slot and subtracts each live panel's output, summing the
unresponsive kW as it goes.  The market round bids that total, the power
flow scales the slot sums into supernode demand, and the recorders read
each load's kW as the phase left it, a house's from its HVAC mode.  It
walks only the energized loads, in a plan that a line's `status` writer,
the one place switching happens, remakes with the islands on each change.

The fixed ordering plus insertion-ordered containers make a run a pure
function of (model, seed): outputs are byte-identical across repeats.  Every
applied event lands in an audit log.  A run reads its scenario only while
`Engine.__init__` builds it.  The run's state, carried from step to step by
`advance`, is `step` (the next step's index), the recorder `tables`, the
`audit` and the `summary` that `summary.txt` prints.  Each `advance` makes
the event stream from its next step on, so a deep copy taken between steps,
which holds run state only, finishes the run as the original does, and
`Engine.arm` adds attacks to either from that step on.
"""

from __future__ import annotations

import cmath
import heapq
import os
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import partial
from operator import attrgetter, getitem
from typing import Callable, Iterable, Iterator, NamedTuple

from .attack import ATTACKS, CompiledAttack, Param, compile_attack
from .errors import ConfigError, SolverDivergence
from .loads import HouseState, hvac_power, init_mode, solar_output, step_houses
from .loads import step_house  # noqa: F401  unused here: bench/tracer.py hooks `kernel.step_house`
from .market import (
    DEFAULT_INIT_PRICE,
    DEFAULT_PRICE_CAP,
    DEFAULT_SIGMA_FLOOR,
    MAX_PRICE,
    UNRESPONSIVE_TRADER,
    Bid,
    Controller,
    Market,
    controller_bids,
    respond_to_clearing,
)
from .model import DEGF_LIMITS, AttackConfig, Event, GridObject, ScenarioModel, Schedule, ScheduleEntry, Value
from .model import format_time
from .network import build_network_index, compute_islands
from .powerflow import solve_powerflow
from .recorder import RecorderTable, TimeSeries, constant_weather, read_player, read_weather

DEENERGIZED = "DEENERGIZED"


class Prop(NamedTuple):
    """What one property of one class is, and how a run reads and sets it.

    `kind` is the unit class of a scenario input ("VOLTAGE", "POWER", ...),
    "ref" (an object name), "enum" (a bare word) or "number"
    (dimensionless); without one the property is not a scenario input.
    `field` is the attribute of the run object (`HouseState`, `Market`, a
    seller's offer `Bid`, ...) that `Engine` fills with an object's value
    of the property: a number as a float, a "TIME" as an int and a ref as
    the name it holds; `default` is what it takes when an object leaves
    the property out; a `required` one has none.  `bound` is "positive"
    (> 0) or "nonnegative" (>= 0), for object, schedule and player values
    alike; a "PRICE" is at most `MAX_PRICE` besides, and a value with
    `limits` (lowest, highest) lies in that closed range.

    `read(engine, target)` binds the recorder read of one value; without it
    the property cannot be recorded.  A `flagged` read is of the target's
    own state, so its recorder row is flagged DEENERGIZED while the target
    is unpowered.  `write(engine, target)` binds the setter for schedules,
    players and attacks, which returns the value it replaced.  Both bind a
    `functools.partial` over run objects, which a deep copy copies."""

    kind: str | None = None
    required: bool = False
    default: object = None
    bound: str | None = None
    read: Callable | None = None
    write: Callable | None = None
    limits: tuple[float, float] | None = None
    field: str | None = None
    flagged: bool = False


NO_PROP = Prop()  # the entry of a property a class does not have


def _set(obj, attr: str, cast, value):
    """Store `value` as `obj.attr`; returns the value it replaced."""
    old = getattr(obj, attr)
    setattr(obj, attr, cast(value))
    return old


def _of(objects: str, func: Callable, *args):
    """Binds `func(obj, *args)` for the engine's object `target` in `objects`."""
    return lambda engine, target: partial(func, getattr(engine, objects)[target], *args)


def _live(engine, s: int) -> bool:
    return engine.islands.live[s]  # switching replaces the islands


def _powered(engine, target: str):
    """Whether `target`, a node or a load on one, is energized now."""
    return partial(_live, engine, engine.index.position[engine.index.attach_node.get(target, target)])


def _kw_of(engine, name: str) -> Callable[[], float]:
    """The getter of load `name`'s kW as the loads phase left it: a house's
    HVAC draw, an appliance's power or a panel's output."""
    if name in engine.houses:
        return partial(hvac_power, engine.houses[name])
    return partial(getattr, engine.appliances.get(name) or engine.solars[name], "power_kw")


def _if_powered(powered, kw) -> float:
    return kw() if powered() else 0.0


def _load_read(engine, target):
    return partial(_if_powered, _powered(engine, target), _kw_of(engine, target))


def _signed_sum(powered, terms) -> float:
    if not powered():
        return 0.0
    total = 0.0
    for sign, kw in terms:
        total += sign * kw()
    return total


def _measured_power_kw(engine, node):
    """Signed kW of each load attached to the node, in attachment order: a
    panel's output counts negative."""
    terms = [(-1.0 if name in engine.solars else 1.0, _kw_of(engine, name)) for name in engine.index.attachments[node]]
    return partial(_signed_sum, _powered(engine, node), terms)


def _flow(engine, get) -> float:
    """`get(state)` of the last power flow, 0.0 before the first."""
    return get(engine.network_state) if engine.network_state else 0.0


def _voltage(engine, s: int, angle: bool) -> float:
    """Supernode `s`'s voltage magnitude, or angle in degrees; the sweep
    holds a dead supernode at 0j."""
    v = engine.network_state.v[s] if engine.network_state else 0j
    if angle:
        return 0.0 if v == 0 else cmath.phase(v) * 180.0 / cmath.pi
    return abs(v)


def _at_node(angle: bool, engine, node):
    return partial(_voltage, engine, engine.index.position[node], angle)


def _current(engine, s: int) -> float:
    return abs(engine.network_state.cur[s]) if engine.network_state else 0.0


def _current_mag(engine, edge):
    return partial(_current, engine, engine.index.edge.index(edge))  # the supernode `edge` feeds


def _engine(func, *args):
    """Binds `func(engine, *args)`, the same for every target."""
    return lambda engine, target: partial(func, engine, *args)


_REF = Prop("ref", required=True)
# the power flow scales voltages by a node's nominal voltage (1 V to 1 MV)
# and a transformer's ratio (1:1000 to 1000:1), and loads by 1000 from kW
# to VA (each load's kW is within 1 GW); past those a feeder would run
# "clean" at absurd voltages, or overflow
_NODE = {
    "nominal_voltage": Prop("VOLTAGE", bound="positive", limits=(1.0, 1e6)),
    "voltage_mag": Prop(read=partial(_at_node, False), flagged=True),
    "voltage_ang": Prop(read=partial(_at_node, True), flagged=True),
    "energized": Prop(read=_powered),
}
_TRIPLEX = {**_NODE, "parent": Prop("ref")}
_METER = {**_TRIPLEX, "measured_power_kw": Prop(read=_measured_power_kw, flagged=True)}
_APPLIANCE = {
    "parent": _REF,
    "base_power": Prop(
        "POWER", default=0.0, write=_of("appliances", _set, "power_kw", float), limits=(-1e6, 1e6), field="power_kw"
    ),
    "power_kw": Prop(read=_load_read, flagged=True),
}
_ENDS = {"from": _REF, "to": _REF}
_LINE = {
    **_ENDS,
    "impedance": Prop("IMPEDANCE", required=True),
    "status": Prop(
        "enum", read=lambda engine, line: partial(getitem, engine.statuses, line),
        write=lambda engine, line: partial(engine._set_status, line),
    ),
    "current_mag": Prop(read=_current_mag),
}
_SWITCH = {**_LINE, "impedance": Prop("IMPEDANCE")}

# Every property of every class, the one place that says what a property
# is: its kind, whether it is required, its default and bound, which field
# of the run object it fills, and how a run records and sets it (the
# attack surface).  `validate` checks objects, recorders, schedules and
# players against it; `Engine` builds every run object from it and binds
# its reads and writes from it.
PROPERTIES: dict[str, dict[str, Prop]] = {
    "auction": {
        "period": Prop("TIME", required=True, field="period_seconds"),
        "price_cap": Prop("PRICE", default=DEFAULT_PRICE_CAP, bound="positive", field="price_cap"),
        "init_price": Prop("PRICE", default=DEFAULT_INIT_PRICE, bound="nonnegative", field="init_price"),
        "clearing_price": Prop(read=_of("auctions", attrgetter("market.last_clearing.price"))),
        "cleared_quantity": Prop(read=_of("auctions", attrgetter("market.last_clearing.quantity"))),
        "bid_count_buy": Prop(read=_of("auctions", lambda auction: auction.market.last_bid_counts[0])),
        "bid_count_sell": Prop(read=_of("auctions", lambda auction: auction.market.last_bid_counts[1])),
        "p_avg": Prop(read=_of("auctions", attrgetter("market.p_avg"))),
        "p_std": Prop(read=_of("auctions", attrgetter("market.p_std"))),
    },
    "controller": {
        "house": Prop("ref", required=True, field="house"),
        "market": Prop("ref", required=True, field="market"),
        "t_min": Prop("TEMPERATURE", required=True, limits=DEGF_LIMITS, field="t_min"),
        "t_base": Prop("TEMPERATURE", required=True, limits=DEGF_LIMITS, field="t_base"),
        "t_max": Prop("TEMPERATURE", required=True, limits=DEGF_LIMITS, field="t_max"),
        "k_ramp": Prop("number", required=True, bound="positive", field="k_ramp"),
        "sigma_floor": Prop("PRICE", default=DEFAULT_SIGMA_FLOOR, bound="positive", field="sigma_floor"),
    },
    "generator_seller": {
        "market": _REF,
        "price": Prop("PRICE", required=True, bound="nonnegative", field="price"),
        "capacity": Prop("POWER", required=True, bound="nonnegative", field="quantity"),
    },
    "house": {
        "parent": _REF,
        "air_temperature": Prop(
            "TEMPERATURE", default=75.0, limits=DEGF_LIMITS, field="t_in", flagged=True,
            read=_of("houses", getattr, "t_in"), write=_of("houses", _set, "t_in", float),
        ),
        "cooling_setpoint": Prop(
            "TEMPERATURE", default=75.0, limits=DEGF_LIMITS, field="t_set", flagged=True,
            read=_of("houses", getattr, "t_set"), write=_of("houses", _set, "t_set", float),
        ),
        "deadband": Prop(
            "TEMPERATURE", default=2.0, bound="positive", write=_of("houses", _set, "deadband", float), field="deadband"
        ),
        # Btu/degF, Btu/(h*degF) and Btu/h; with the limits of `hvac_rating` and
        # `cop`, these keep a house's drift over any clock below about 3e19 degF
        "thermal_capacitance": Prop("number", default=2000.0, bound="positive", limits=(1.0, 1e9), field="capacitance"),
        "ua": Prop("number", default=550.0, bound="positive", field="ua"),
        "internal_gains": Prop(
            "number", default=1800.0, bound="nonnegative", limits=(0.0, 1e7),
            write=_of("houses", _set, "internal_gains", float), field="internal_gains",
        ),
        "hvac_rating": Prop("POWER", default=4.0, bound="nonnegative", limits=(0.0, 1e6), field="hvac_kw"),
        "cop": Prop("number", default=3.5, bound="positive", limits=(0.0, 100.0), field="cop"),
        "hvac_load_kw": Prop(read=_load_read, flagged=True),
        "hvac_mode": Prop(read=_of("houses", getattr, "mode"), flagged=True),
    },
    "meter": _METER,
    "triplex_meter": _METER,
    "triplex_node": _TRIPLEX,
    "node": {
        **_NODE,
        "bustype": Prop("enum"),
        "total_load_kw": Prop(read=_engine(getattr, "_load_kw")),
        "total_hvac_kw": Prop(read=_engine(getattr, "_hvac_kw")),
        "losses_kw": Prop(read=_engine(_flow, lambda state: state.loss_power_va.real / 1000.0)),
        "source_power_kw": Prop(read=_engine(_flow, lambda state: state.source_power_va.real / 1000.0)),
    },
    "zipload": _APPLIANCE,
    "waterheater": _APPLIANCE,
    "solar": {
        "parent": _REF,
        "rating": Prop(
            "POWER", required=True, bound="nonnegative", limits=(0.0, 1e6), field="rating_kw",
            write=_of("solars", _set, "rating_kw", float),
        ),
        "efficiency": Prop("number", default=1.0, bound="nonnegative", limits=(0.0, 1.0), field="efficiency"),
        "power_kw": Prop(read=_load_read, flagged=True),
    },
    "underground_line": _LINE,
    "overhead_line": _LINE,
    "switch": _SWITCH,
    "fuse": _SWITCH,
    "transformer": {
        **_ENDS,
        "ratio": Prop("number", required=True, bound="positive", limits=(1e-3, 1e3)),
        "impedance": Prop("IMPEDANCE"),
        "current_mag": Prop(read=_current_mag),
    },
}


def _cast(kind: str) -> Callable[[Value], object]:
    """How a scenario value of `kind` fills its field: a number as a
    float, a "TIME" as an int, a ref as the name it holds."""
    if kind == "ref":
        return lambda value: str(value.value)
    number = int if kind == "TIME" else float
    return lambda value: number(value.canonical())


# per class, each (property, field, default, cast) that fills a run object
_FIELDS = {
    cls: [(prop, spec.field, spec.default, _cast(spec.kind)) for prop, spec in props.items() if spec.field]
    for cls, props in PROPERTIES.items()
}


def _fields(obj: GridObject) -> dict[str, object]:
    """The run object's fields of `obj`: each property's value, or its
    default when `obj` leaves it out."""
    values, given = {}, obj.properties
    for prop, field, default, cast in _FIELDS[obj.cls]:
        value = given.get(prop)
        values[field] = default if value is None else cast(value)
    return values


def out_of_bounds(name: str, spec: Prop | Param, number: float) -> str | None:
    """Why `number` cannot be `name`, a property or attack parameter of
    `spec`'s kind and bound; None when it can."""
    bound = spec.bound
    if bound == "positive" and not number > 0 or bound == "nonnegative" and not number >= 0:
        return f"{name} must be {bound}"
    if spec.kind == "PRICE" and number > MAX_PRICE:
        return f"{name} must be at most {MAX_PRICE:g}"
    limits = getattr(spec, "limits", None)  # an attack `Param` has none
    if limits is not None and not limits[0] <= number <= limits[1]:
        return f"{name} must be within [{limits[0]:g}, {limits[1]:g}]"
    return None


@dataclass
class AuditRow:
    time: datetime
    target: str
    prop: str
    old_value: object
    new_value: object
    origin: str


def _repeats(e: ScheduleEntry, value: object, step: timedelta, ks: range) -> Iterator[Event]:
    for k in ks:
        yield Event(e.time + k * step, e.target, e.prop, value, "schedule")


_time = attrgetter("time")


def event_stream(
    schedules: list[Schedule],
    attacks: list[CompiledAttack],
    t0: datetime,
    tf: datetime,
) -> Iterator[Event]:
    """The events of schedules (with repeats) and compiled attacks within
    [t0, tf], in time order, each made when the iterator reaches it; a
    schedule event carries its entry's canonical value, worked out once.

    One stream per schedule entry, and one of the attack events, are merged
    on time; the merge is stable, so events at one time come in schedule
    entry (file) order, then attack events in compile order.  A repeating
    entry's stream starts at its first occurrence at or after t0 and holds
    only its next event.  Events outside [t0, tf] are left out: `validate`
    notes those outside the clock.
    """
    streams: list[Iterable[Event]] = []
    for sched in schedules:
        for e in sched.entries:
            if sched.repeat is not None:
                step = timedelta(seconds=sched.repeat)
                first = max(0, -((e.time - t0) // step))  # the repeats before t0
                streams.append(_repeats(e, e.value.canonical(), step, range(first, (tf - e.time) // step + 1)))
            elif t0 <= e.time <= tf:
                streams.append([Event(e.time, e.target, e.prop, e.value.canonical(), "schedule")])
    # a stable sort: attack events at one time stay in compile order
    streams.append(sorted([ev for c in attacks for ev in c.events if t0 <= ev.time <= tf], key=_time))
    return heapq.merge(*streams, key=_time)


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
    power_kw: float


@dataclass
class _Solar:
    name: str
    rating_kw: float
    efficiency: float
    power_kw: float = 0.0  # output at the step's irradiance, set by the loads phase while live


@dataclass
class Auction:
    """One auction's run state: what its market round reads and leaves."""

    market: Market
    mirror: Market | None  # the auxiliary market its controllers trade in; None under direct wiring
    offers: list[Bid]  # its sellers' constant offers, in seller order: both markets' standing offers
    bidders: list[tuple[Controller, HouseState]]  # (controller, its house)
    held_bids: list[Bid]  # the controllers' last bids, which the auxiliary wiring forwards a round late


class _LoadPlan(NamedTuple):
    """The loads of one set of islands, in the kernel's slot order."""

    houses: list[tuple[HouseState, int]]  # every house with its slot, -1 when unpowered
    uncontrolled: list[HouseState]  # each powered house without a controller
    appliances: list[tuple[_Appliance, int]]  # (appliance, slot), energized ones
    panels: list[tuple[_Solar, int]]  # (panel, slot), energized ones


class Engine:
    """One simulation run of a scenario model that `validate(model, topology)`
    reports runnable: each target and property is bound as given, and `arm`
    binds the model's attacks.  The model and its input files (relative to
    `base_dir`) are read here, once, and never after; a file the run cannot
    use, or a player value out of its property's range, raises `ConfigError`."""

    def __init__(
        self,
        model: ScenarioModel,
        topology: str = "auxiliary",
        seed: int = 0,
        base_dir: str = ".",
    ):
        if topology not in ("direct", "auxiliary"):
            raise ValueError(f"unknown topology '{topology}'")
        self.clock = clock = model.clock
        self.index = build_network_index(model)
        self.statuses = dict(self.index.switchable)  # each line's status now

        # every run object is built from its scenario object through `PROPERTIES`
        attach = self.index.attach_node
        self.houses = {obj.name: HouseState(obj.name, **_fields(obj)) for obj in model.of_class("house")}
        for house in self.houses.values():
            init_mode(house)
        self.appliances = {
            obj.name: _Appliance(obj.name, **_fields(obj)) for obj in model.of_class("zipload", "waterheater")
        }
        self.solars = {obj.name: _Solar(obj.name, **_fields(obj)) for obj in model.of_class("solar")}

        # one record per auction, with a mirror under the auxiliary topology; a
        # seller is its offer, built once at period 0, which no check of an offer reads
        offers = {obj.name: [] for obj in model.of_class("auction")}
        for obj in model.of_class("generator_seller"):
            offers[obj.ref("market")].append(Bid(obj.name, "SELL", period=0, **_fields(obj)))
        bidders = {name: [] for name in offers}
        for obj in model.of_class("controller"):
            ctl = Controller(obj.name, **_fields(obj))
            bidders[ctl.market].append((ctl, self.houses[ctl.house]))
        self.auctions: dict[str, Auction] = {}
        for obj in model.of_class("auction"):
            # the mirror numbers each period as the main period it forwards into
            name, fields, sells = obj.name, _fields(obj), offers[obj.name]
            mirror = Market(f"{name}_aux", **fields, offers=sells, first_period=1) if topology == "auxiliary" else None
            self.auctions[name] = Auction(Market(name, **fields, offers=sells), mirror, sells, bidders[name], [])
        controlled = {ctl.house for auction in self.auctions.values() for ctl, _ in auction.bidders}

        # a slot per load node, in the order first seen over houses,
        # appliances and panels; the per-step loops walk these lists
        slot_of = {}
        for name in [*self.houses, *self.appliances, *self.solars]:
            slot_of.setdefault(attach[name], len(slot_of))
        self._slot_supernode = [self.index.position[node] for node in slot_of]
        self._house_at = [(house, slot_of[attach[name]]) for name, house in self.houses.items()]
        self._uncontrolled_at = [(house, slot) for house, slot in self._house_at if house.name not in controlled]
        self._appliance_at = [(app, slot_of[attach[name]]) for name, app in self.appliances.items()]
        self._panel_at = [(panel, slot_of[attach[name]]) for name, panel in self.solars.items()]
        self._energize()

        # the transforms of each rewrite point, in attack order
        self._rewriters = {spec.point: [] for spec in ATTACKS.values() if spec.point}
        # every (target, property) the run reads or sets, bound once through
        # `PROPERTIES`: the recorders', schedules' and players' here, the attacks' in `arm`
        self._classes = {name: obj.cls for name, obj in model.by_name().items()}
        self._readers = {
            (cfg.target, prop): self._bind(cfg.target, prop) for cfg in model.recorders for prop in cfg.properties
        }
        # each recorder, with its target's power check if it records a flagged property
        flagged = lambda cfg: any(PROPERTIES[self._classes[cfg.target]][p].flagged for p in cfg.properties)
        self._recorders = [(cfg, flagged(cfg) and _powered(self, cfg.target)) for cfg in model.recorders]
        self.schedules = list(model.schedules)  # `advance` makes their events from each next step on
        pairs = [(e.target, e.prop) for sched in self.schedules for e in sched.entries]
        self._writers = {pair: self._bind(*pair, write=True) for pair in pairs}
        self.players = []
        for cfg in model.players:
            write = self._bind(cfg.target, cfg.prop, write=True)
            series = read_player(os.path.join(base_dir, cfg.file), clock.start)
            spec = PROPERTIES[self._classes[cfg.target]][cfg.prop]
            for row, (_, value) in enumerate(series.rows, start=1):
                problem = out_of_bounds(cfg.prop, spec, value)
                if problem is not None:
                    raise ConfigError(series.name, f"row {row} holds {value:g}: {problem}", "BAD_RANGE")
            self.players.append((cfg, series, write))
        if model.weather_source is not None:
            self.weather: TimeSeries = read_weather(os.path.join(base_dir, model.weather_source), clock.start)
        else:
            self.weather = constant_weather(clock.start)
        # the loads at clock.start, for reads and market rounds before a step
        self._phase_loads(clock.start, clock.timestep, first=True)

        self.audit: list[AuditRow] = []
        self.network_state = None
        self._load_kw = 0.0  # the feeder's load total, set by each step's `build_load_injections`
        # the run state, which `advance` carries from step to step
        self.step = 0  # the index of the next step
        self.tables = {cfg.name: RecorderTable(cfg.file, ["time", *cfg.properties, "flags"]) for cfg in model.recorders}
        self.summary = {  # what `summary.txt` prints, in its order; a divergence adds its keys
            "start": format_time(clock.start),
            "stop": format_time(clock.stop),
            "timestep_s": clock.timestep,
            "steps": int((clock.stop - clock.start).total_seconds()) // clock.timestep,
            "seed": seed,
            "topology": topology,
            "attacks": "none",
            "complete": 1,
            "powerflow_solves": 0,  # the steps done: each solves once
            "powerflow_max_iterations": 0,
            "powerflow_worst_mismatch_pu": 0.0,
            "max_clearing_price": 0.0,
        }
        self.attacks: list[CompiledAttack] = []
        self.arm(model.attacks)

    def arm(self, configs: Iterable[AttackConfig]) -> None:
        """Compile attacks from the engine's names, not the parsed model, and
        bind them from the next step on: a market attack's transform at its
        rewrite point, with its switch `(attack:NAME, "active")`, and a line
        attack's status writers; each must be runnable under the topology.
        An attack with an event at or after the clock's start and before the
        next step, which has passed, raises `ValueError`, and none is armed."""
        clock = self.clock
        t = clock.start + timedelta(seconds=self.step * clock.timestep)
        compiled = [compile_attack(cfg, self._classes, self.index.switchable) for cfg in configs]
        for c in compiled:
            if any(clock.start <= ev.time < t for ev in c.events):
                raise ValueError(f"attack '{c.config.name}' has an event before the next step, at {format_time(t)}")
        for c in compiled:
            tr = c.transform
            if tr is None:
                for ev in c.events:
                    self._writers[ev.target, ev.prop] = self._bind(ev.target, ev.prop, write=True)
            else:
                self._rewriters[ATTACKS[tr.kind].point].append(tr)
                self._writers[f"attack:{tr.name}", "active"] = partial(_set, tr, "active", bool)
            self.attacks.append(c)
        self.summary["attacks"] = ";".join(c.config.name for c in self.attacks) or "none"

    def _bind(self, target: str, prop: str, write: bool = False):
        """Bind one (target, property) through `PROPERTIES`: its recorder
        read, or with `write` its setter."""
        spec = PROPERTIES[self._classes[target]][prop]
        return (spec.write if write else spec.read)(self, target)

    # -- event application --------------------------------------------------

    def apply_event(self, event: Event) -> None:
        """Execute one property mutation; appends an audit record."""
        old = self._writers[event.target, event.prop](event.value)
        self.audit.append(AuditRow(event.time, event.target, event.prop, old, event.value, event.origin))

    # -- per-step phases ----------------------------------------------------

    def _phase_players(self, t: datetime) -> None:
        for cfg, series, write in self.players:
            value = series.sample(t)
            old = write(value)
            if old != value:
                self.audit.append(AuditRow(t, cfg.target, cfg.prop, old, value, "player"))

    def _energize(self) -> None:
        """Compute the islands of the line statuses, and the loads they energize."""
        self.islands = islands = compute_islands(self.index, self.statuses)
        live = [islands.live[s] for s in self._slot_supernode]
        self._plan = _LoadPlan(
            [(house, slot if live[slot] else -1) for house, slot in self._house_at],
            [house for house, slot in self._uncontrolled_at if live[slot]],
            [(app, slot) for app, slot in self._appliance_at if live[slot]],
            [(panel, slot) for panel, slot in self._panel_at if live[slot]],
        )

    def _set_status(self, line: str, status: str) -> str:
        """Store `status` as `line`'s; returns the status it replaced.  Only a
        change recomputes the islands and the load plan."""
        old = self.statuses[line]
        if status != old:
            self.statuses[line] = status
            self._energize()
        return old

    def _phase_loads(self, t: datetime, dt: int, first: bool) -> None:
        """Work out every load's kW for the step, once.

        Sample the weather and step the houses (the first step only reads
        them), summing each live house's kW into its slot and the HVAC
        total; then add each live appliance into its slot and subtract each
        live panel's output.  The same loops sum the unresponsive kW the
        market bids: appliances, uncontrolled houses, minus panels, at
        least 0.0.  A dead slot holds exactly 0.0."""
        t_out, irradiance = self.weather.sample(t)
        plan = self._plan
        fleet, slot_kw = plan.houses, [0.0] * len(self._slot_supernode)
        if first:
            hvac = 0.0
            for house, slot in fleet:
                if slot >= 0:
                    kw = hvac_power(house)
                    slot_kw[slot] += kw
                    hvac += kw
        else:
            hvac = step_houses(fleet, t_out, dt, slot_kw)
        unresp = 0.0
        for app, slot in plan.appliances:
            kw = app.power_kw
            slot_kw[slot] += kw
            unresp += kw
        for house in plan.uncontrolled:
            unresp += hvac_power(house)
        for panel, slot in plan.panels:
            panel.power_kw = kw = solar_output(panel.rating_kw, panel.efficiency, irradiance)
            slot_kw[slot] -= kw
            unresp -= kw
        self._slot_kw, self._hvac_kw = slot_kw, hvac
        self._unresp_kw = max(unresp, 0.0)

    def _market_round(self, auction: Auction) -> None:
        market, aux = auction.market, auction.mirror
        local = aux or market  # where controllers trade: the main market under direct wiring
        unresp_kw, price = self._unresp_kw, market.last_clearing.price  # once a round

        # the sellers' constant offers stand in the main market
        if aux:
            # and are replicated into the auxiliary market (the `replicas`
            # rewrite point) with no bidder, as they are known exactly.
            # Last period's auxiliary bids are forwarded to the main market
            # (the `forwarded` point): precise bids are not observable, so
            # the estimate runs one period late, and the mirror has numbered
            # them for the main market's current period already
            replicas, forwarded = auction.offers, auction.held_bids
            # an inactive transform returns the list it is given
            for tr in self._rewriters["replicas"]:
                replicas = tr.apply_all(replicas, price, aux.price_cap)
            for tr in self._rewriters["forwarded"]:
                forwarded = tr.apply_all(forwarded, price, market.price_cap)
            if replicas is not auction.offers:
                aux.replace_offers(replicas)
            market.submit_all(forwarded)
        # then the controllers bid afresh
        auction.held_bids = held_bids = controller_bids(auction.bidders, local)
        local.submit_all(held_bids)
        for m in (market, aux) if aux else (market,):
            if unresp_kw > 0:
                m.submit(tuple.__new__(Bid, (UNRESPONSIVE_TRADER, "BUY", m.price_cap, unresp_kw, m.current_period)))
            clearing = m.clear()
        # controllers observe only the market they trade in, cleared last
        respond_to_clearing(auction.bidders, local, clearing)

    def _phase_market(self, offset: int) -> None:
        for auction in self.auctions.values():
            if offset % auction.market.period_seconds == 0:
                self._market_round(auction)

    def build_load_injections(self) -> list[complex]:
        """Per-supernode demand (VA) of the step's loads.

        Each slot's kW from the loads phase is scaled to VA and added into
        its supernode, in slot order; the load total `_load_kw` sums the
        slots left to right in the same loop.  A dead slot holds exactly
        0.0, which leaves its (dead) supernode and the total as they are."""
        va, load = [0.0] * len(self.index.names), 0.0
        for kw, s in zip(self._slot_kw, self._slot_supernode):
            va[s] += kw * 1000.0
            load += kw
        self._load_kw = load
        return list(map(complex, va))

    def _phase_powerflow(self) -> None:
        demand = self.build_load_injections()
        self.network_state = state = solve_powerflow(
            self.index, demand, self.islands, start=self.network_state
        )
        summary = self.summary
        summary["powerflow_max_iterations"] = max(summary["powerflow_max_iterations"], state.iterations)
        summary["powerflow_worst_mismatch_pu"] = max(summary["powerflow_worst_mismatch_pu"], state.power_mismatch_pu())

    # -- recording ----------------------------------------------------------

    def read_property(self, target: str, prop: str):
        """Recorder getter for a recorded (target, property)."""
        return self._readers[target, prop]()

    # -- main loop ----------------------------------------------------------

    def advance(self, until: datetime) -> None:
        """Step the clock up to and including `until`, at most to its stop,
        applying the scenario's schedules and attacks as their events fall
        due.  A divergence ends the run: later calls do nothing."""
        clock, summary, k = self.clock, self.summary, self.step
        dt = clock.timestep
        step = timedelta(seconds=dt)
        last = min((until - clock.start) // step, summary["steps"])
        # the next step's time, moved on by one exact whole-second step each step
        t = clock.start + k * step
        # the events not yet applied: each falls on a step, so those from the next step on
        events = event_stream(self.schedules, self.attacks, t, clock.stop)
        event, tables = next(events, None), self.tables
        markets = [m for auction in self.auctions.values() for m in (auction.market, auction.mirror) if m]
        max_price = summary["max_clearing_price"]
        while k <= last and summary["complete"]:
            while event is not None and event.time <= t:
                self.apply_event(event)
                event = next(events, None)
            self._phase_players(t)
            # attack transforms are standing; activation happened via events
            self._phase_loads(t, dt, first=(k == 0))
            offset = k * dt
            self._phase_market(offset)
            try:
                self._phase_powerflow()
            except SolverDivergence as exc:
                summary.update(complete=0, divergence=str(exc), divergence_time=format_time(t),
                               divergence_node=exc.node, incomplete_reason="solver_divergence")
                break
            stamp = None
            for cfg, powered in self._recorders:
                if offset % cfg.interval == 0:
                    values = [self.read_property(cfg.target, prop) for prop in cfg.properties]
                    stamp = stamp or format_time(t)
                    tables[cfg.name].append(stamp, values, DEENERGIZED if powered and not powered() else "")
            for market in markets:
                max_price = max(max_price, market.last_clearing.price)
            k += 1
            t += step
        self.step = k
        summary["powerflow_solves"], summary["max_clearing_price"] = k, max_price

    def run(self) -> SimulationResult:
        """Step on to the clock's stop and return the run's outputs; a
        finished run does no more work."""
        self.advance(self.clock.stop)
        metadata = {"executed_steps": max(self.step - 1, 0)}
        return SimulationResult(self.tables, self.audit, self.summary, metadata, self.summary["complete"] == 1)
