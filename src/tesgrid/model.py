"""In-memory scenario model: typed property values, grid objects, config blocks.

The parser produces these structures without semantic checks; `validate`
enforces the cross-object invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

# unit symbol -> (unit class, factor to the canonical unit of that class)
# canonical units: V, kW, degF, s, $/kWh, Ohm
UNIT_TABLE = {
    "V": ("VOLTAGE", 1.0),
    "kV": ("VOLTAGE", 1000.0),
    "W": ("POWER", 0.001),
    "kW": ("POWER", 1.0),
    "MW": ("POWER", 1000.0),
    "degF": ("TEMPERATURE", 1.0),
    "s": ("TIME", 1.0),
    "min": ("TIME", 60.0),
    "h": ("TIME", 3600.0),
    "$/kWh": ("PRICE", 1.0),
    "Ohm": ("IMPEDANCE", 1.0),
}

OBJECT_CLASSES = (
    "node",
    "underground_line",
    "overhead_line",
    "switch",
    "fuse",
    "transformer",
    "triplex_node",
    "triplex_meter",
    "meter",
    "house",
    "zipload",
    "waterheater",
    "solar",
    "inverter",
    "auction",
    "controller",
    "generator_seller",
)

NODE_CLASSES = frozenset({"node", "triplex_node", "triplex_meter", "meter"})
LINE_CLASSES = frozenset({"underground_line", "overhead_line", "switch", "fuse"})
EDGE_CLASSES = LINE_CLASSES | {"transformer"}


@dataclass(frozen=True)
class Value:
    """One parsed property value.

    kind: NUMBER | COMPLEX | STRING | REF | TIMESTAMP | LIST
    For NUMBER/COMPLEX, `unit` is the unit symbol as written (None when the
    property's default unit applies).
    """

    kind: str
    value: object
    unit: str | None = None

    def canonical(self) -> object:
        """Magnitude converted to the canonical unit of its unit class."""
        if self.kind in ("NUMBER", "COMPLEX") and self.unit is not None:
            return self.value * UNIT_TABLE[self.unit][1]
        return self.value


@dataclass
class GridObject:
    cls: str
    name: str | None
    properties: dict[str, Value]
    line: int = 0

    def get(self, prop: str, default=None):
        v = self.properties.get(prop)
        if v is None:
            return default
        return v.canonical()

    def ref(self, prop: str) -> str | None:
        v = self.properties.get(prop)
        if v is None:
            return None
        return str(v.value)


@dataclass
class ClockConfig:
    start: datetime
    stop: datetime
    timestep: int  # seconds


@dataclass
class ScheduleEntry:
    time: datetime
    target: str
    prop: str
    value: Value


@dataclass
class Schedule:
    name: str
    entries: list[ScheduleEntry]
    repeat: int | None = None  # seconds
    line: int = 0


@dataclass
class AttackConfig:
    name: str
    kind: str  # SELLER_PRICE_OVERRIDE | BUYER_BID_SCALE | LINE_STATUS
    start: datetime
    end: datetime
    fraction: float = 1.0
    seed: int = 0
    price: float | None = None  # SELLER_PRICE_OVERRIDE
    lam: float | None = None  # BUYER_BID_SCALE
    lines: list[str] = field(default_factory=list)  # LINE_STATUS
    status: str | None = None
    line: int = 0


@dataclass
class RecorderConfig:
    name: str
    target: str
    properties: list[str]
    interval: int  # seconds
    file: str
    line: int = 0


@dataclass
class PlayerConfig:
    name: str
    target: str
    prop: str
    file: str
    line: int = 0


@dataclass
class ScenarioModel:
    clock: ClockConfig | None = None
    objects: list[GridObject] = field(default_factory=list)
    schedules: list[Schedule] = field(default_factory=list)
    attacks: list[AttackConfig] = field(default_factory=list)
    recorders: list[RecorderConfig] = field(default_factory=list)
    players: list[PlayerConfig] = field(default_factory=list)
    weather_source: str | None = None

    def by_name(self) -> dict[str, GridObject]:
        return {o.name: o for o in self.objects if o.name is not None}

    def of_class(self, *classes: str) -> list[GridObject]:
        want = set(classes)
        return [o for o in self.objects if o.cls in want]


@dataclass(frozen=True)
class Diagnostic:
    location: str
    code: str
    message: str


@dataclass
class ValidationReport:
    errors: list[Diagnostic] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)

    @property
    def runnable(self) -> bool:
        return not self.errors

    def serialize(self) -> str:
        out = []
        for kind, diags in (("error", self.errors), ("warning", self.warnings)):
            for d in diags:
                out.append(f"{kind}: {d.location}: {d.code}: {d.message}")
        return "\n".join(out)


# Per-class property schema: prop -> (unit class or special kind, required).
# Special kinds: "ref" (object reference), "enum" (bare word), "number"
# (dimensionless). Unknown properties produce warnings, not errors.
CLASS_SCHEMA: dict[str, dict[str, tuple[str, bool]]] = {
    "node": {
        "bustype": ("enum", False),
        "nominal_voltage": ("VOLTAGE", False),
    },
    "underground_line": {
        "from": ("ref", True),
        "to": ("ref", True),
        "impedance": ("IMPEDANCE", True),
        "status": ("enum", False),
    },
    "transformer": {
        "from": ("ref", True),
        "to": ("ref", True),
        "ratio": ("number", True),
        "impedance": ("IMPEDANCE", False),
    },
    "triplex_node": {"parent": ("ref", False), "nominal_voltage": ("VOLTAGE", False)},
    "triplex_meter": {"parent": ("ref", False), "nominal_voltage": ("VOLTAGE", False)},
    "meter": {"parent": ("ref", False), "nominal_voltage": ("VOLTAGE", False)},
    "house": {
        "parent": ("ref", True),
        "air_temperature": ("TEMPERATURE", False),
        "thermal_capacitance": ("number", False),  # Btu/degF
        "ua": ("number", False),  # Btu/(h*degF)
        "internal_gains": ("number", False),  # Btu/h
        "hvac_rating": ("POWER", False),
        "cop": ("number", False),
        "cooling_setpoint": ("TEMPERATURE", False),
        "deadband": ("TEMPERATURE", False),
    },
    "zipload": {"parent": ("ref", True), "base_power": ("POWER", False)},
    "waterheater": {"parent": ("ref", True), "base_power": ("POWER", False)},
    "solar": {
        "parent": ("ref", True),
        "rating": ("POWER", True),
        "efficiency": ("number", False),
    },
    "inverter": {"parent": ("ref", True)},
    "auction": {
        "period": ("TIME", True),
        "price_cap": ("PRICE", False),
        "init_price": ("PRICE", False),
    },
    "controller": {
        "house": ("ref", True),
        "market": ("ref", True),
        "t_min": ("TEMPERATURE", True),
        "t_base": ("TEMPERATURE", True),
        "t_max": ("TEMPERATURE", True),
        "k_ramp": ("number", True),
        "sigma_floor": ("PRICE", False),
    },
    "generator_seller": {
        "market": ("ref", True),
        "price": ("PRICE", True),
        "capacity": ("POWER", True),
    },
}
CLASS_SCHEMA["overhead_line"] = CLASS_SCHEMA["underground_line"]
CLASS_SCHEMA["switch"] = {
    "from": ("ref", True),
    "to": ("ref", True),
    "impedance": ("IMPEDANCE", False),
    "status": ("enum", False),
}
CLASS_SCHEMA["fuse"] = CLASS_SCHEMA["switch"]

# Single-property bounds, per class: a value "positive" must be > 0, one
# "nonnegative" >= 0.  They hold for object, schedule and player values.
BOUNDS = {
    "house": {"thermal_capacitance": "positive", "ua": "positive", "deadband": "positive",
              "hvac_rating": "nonnegative"},
    "controller": {"k_ramp": "positive"},
    "auction": {"price_cap": "positive"},
    "solar": {"rating": "nonnegative"},
    "generator_seller": {"capacity": "nonnegative"},
}


def out_of_bounds(cls: str, prop: str, number: float) -> str | None:
    """Why `number` cannot be property `prop` of class `cls`; None when it can."""
    bound = BOUNDS.get(cls, {}).get(prop)
    if bound == "positive" and not number > 0 or bound == "nonnegative" and not number >= 0:
        return f"{prop} must be {bound}"
    return None


# Properties that name another object, per class.
REF_PROPS = {
    cls: [p for p, (kind, _) in schema.items() if kind == "ref"]
    for cls, schema in CLASS_SCHEMA.items()
}
