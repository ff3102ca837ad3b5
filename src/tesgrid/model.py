"""In-memory scenario model: typed property values, grid objects, config
blocks, and the events a run applies.

The parser produces these structures without semantic checks; `validate`
enforces the cross-object invariants.  What each class's properties are
(kind, required, default, bound) is `PROPERTIES` in `kernel`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime

TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

# the regex CPython's `datetime` parser builds for TIME_FORMAT (the same on 3.10-3.13)
_TIME_RE = re.compile(
    r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
    r"\s+(2[0-3]|[0-1]\d|\d):([0-5]\d|\d):(6[0-1]|[0-5]\d|\d)",
    re.IGNORECASE,
)


def parse_time(text: str) -> datetime:
    """TIME_FORMAT text as a datetime, in the language of CPython's `datetime`
    parser without importing its module: one- or two-digit fields, a space-padded
    day, a whitespace run between date and time, Unicode digits.  ValueError where
    that parser raises it: no match, trailing text, no such date or time."""
    match = _TIME_RE.match(text)
    if match is None or match.end() != len(text):
        raise ValueError(f"time data {text!r} does not match format {TIME_FORMAT!r}")
    return datetime(*map(int, match.groups()))


def format_time(t: datetime) -> str:
    """`t` as TIME_FORMAT text that `parse_time` reads back: four year digits
    always (glibc's `strftime` writes year 999 as `999`), whole seconds."""
    return t.isoformat(" ", "seconds")


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

NODE_CLASSES = frozenset({"node", "triplex_node", "triplex_meter", "meter"})
LINE_CLASSES = frozenset({"underground_line", "overhead_line", "switch", "fuse"})
EDGE_CLASSES = LINE_CLASSES | {"transformer"}
LINE_STATUSES = ("OPEN", "CLOSED")
# what a temperature a run holds or reads can be, in degF: a house's Euler step from 1e308 overflows
DEGF_LIMITS = (-100.0, 200.0)


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
            factor = UNIT_TABLE[self.unit][1]
            if self.kind == "COMPLEX":  # part by part: complex * float would lose a zero part's sign
                return complex(self.value.real * factor, self.value.imag * factor)
            return self.value * factor
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


@dataclass(frozen=True)
class Event:
    """One property change the run applies at `time`."""

    time: datetime
    target: str
    prop: str
    value: object
    origin: str  # schedule | attack | player


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
    repeat: float | None = None  # seconds


@dataclass
class AttackConfig:
    name: str
    kind: str  # a key of `attack.ATTACKS`
    start: datetime
    end: datetime
    fraction: float = 1.0
    seed: int = 0
    params: dict[str, object] = field(default_factory=dict)  # the kind's parameters, by field name


@dataclass
class RecorderConfig:
    name: str
    target: str
    properties: list[str]
    interval: int  # seconds
    file: str


@dataclass
class PlayerConfig:
    name: str
    target: str
    prop: str
    file: str


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
