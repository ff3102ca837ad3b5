"""Time-series input (players, weather) and result serialization.

Player files are `time,value` CSVs; weather files add an irradiance
column.  All lookups are step-hold: the value at t is the last sample at
or before t.  A reader returns only a series a run can sample from its
start on, and raises `ConfigError` for any other file.

Output CSVs print numbers with six significant digits so reruns are
byte-identical across platforms.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain

from .errors import ConfigError, IoFailure
from .model import DEGF_LIMITS, format_time, parse_time


def format_number(x) -> str:
    if type(x) is float:
        return f"{x:.6g}"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{x:.6g}"


@dataclass
class TimeSeries:
    name: str
    rows: list[tuple[datetime, object]]  # strictly increasing timestamps, the first at or before the run's start

    def sample(self, t: datetime):
        """Step-hold value at t, which is at or after the first row."""
        return self.rows[bisect_right(self.rows, t, key=lambda row: row[0]) - 1][1]


def _read_series(path: str, start: datetime, fields: int, value: Callable) -> TimeSeries:
    """The series of a CSV of `fields` fields, a time and then what
    `value(name, row, texts)` makes of the rest; its times strictly
    increase from one at or before `start`."""
    name = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(name, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(name, f"cannot read {path}: not UTF-8 text ({exc})") from exc
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 or not line.strip():
            continue  # header
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != fields:
            raise ConfigError(name, f"line {lineno}: expected {fields} fields")
        row = len(rows) + 1
        try:
            t = parse_time(parts[0])
        except ValueError as exc:
            raise ConfigError(name, f"row {row}: bad timestamp '{parts[0]}'") from exc
        if rows and t <= rows[-1][0]:
            raise ConfigError(name, f"row {row}: timestamps must strictly increase")
        rows.append((t, value(name, row, parts[1:])))
    if not rows or rows[0][0] > start:
        raise ConfigError(name, f"no sample at or before {format_time(start)}")
    return TimeSeries(name, rows)


def _parse_number(name: str, row: int, text: str) -> float:
    """A finite float: `nan`, `inf` and overflowing numbers are malformed."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(name, f"row {row}: bad number '{text}'") from exc
    if not math.isfinite(value):
        raise ConfigError(name, f"row {row}: '{text}' is not a finite number")
    return value


def _weather_value(name: str, row: int, texts: list[str]) -> tuple[float, float]:
    temperature, fraction = (_parse_number(name, row, text) for text in texts)
    low, high = DEGF_LIMITS
    if not low <= temperature <= high:
        raise ConfigError(name, f"row {row}: temperature '{texts[0]}' is outside [{low:g}, {high:g}] degF")
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(name, f"row {row}: irradiance '{texts[1]}' is outside [0, 1]")
    return temperature, fraction


def read_player(path: str, start: datetime) -> TimeSeries:
    """Read a `time,value` CSV into a series a run from `start` can sample."""
    return _read_series(path, start, 2, lambda name, row, texts: _parse_number(name, row, texts[0]))


def read_weather(path: str, start: datetime) -> TimeSeries:
    """Read a `time,temperature_degF,irradiance_fraction` CSV (temperature
    within `DEGF_LIMITS`, irradiance in [0, 1]) into one series of
    (temperature, irradiance) pairs, which a run from `start` can sample."""
    return _read_series(path, start, 3, _weather_value)


DEFAULT_WEATHER_DEGF = 90.0
DEFAULT_IRRADIANCE = 0.5


def constant_weather(t0: datetime) -> TimeSeries:
    """Fallback when a scenario names no weather file."""
    return TimeSeries("<constant>", [(t0, (DEFAULT_WEATHER_DEGF, DEFAULT_IRRADIANCE))])


@dataclass
class RecorderTable:
    file: str
    header: list[str]  # time, props..., flags
    # one CSV line per row: no recorded field holds a comma (numbers, modes and
    # statuses are fixed words, and flags join with `|`), so a line splits back exactly
    lines: list[str] = field(default_factory=list)

    def append(self, stamp: str, values: list, flags: str) -> None:
        """Add one row: `stamp` is the step's time already formatted by
        `format_time` (once per step, shared by every recorder that fires)."""
        self.lines.append(",".join([stamp, *map(format_number, values), flags]))

    @property
    def rows(self) -> list[list[str]]:
        """Every row as its fields, split from `lines` on each read."""
        return [line.split(",") for line in self.lines]


AUDIT_FILE = "audit.csv"
SUMMARY_FILE = "summary.txt"
RUN_FILES = (AUDIT_FILE, SUMMARY_FILE)  # what `write_results` writes beside the recorders


def write_results(result, out_dir: str) -> list[str]:
    """Write recorder CSVs, the event audit log, and the run summary.

    Returns the manifest (relative file names, sorted) for deterministic
    listing.  `result` is a kernel SimulationResult.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc
    manifest = []

    for table in result.tables.values():
        _write_lines(os.path.join(out_dir, table.file), chain([",".join(table.header)], table.lines))
        manifest.append(table.file)

    audit_header = "time,target,property,old_value,new_value,origin"
    audit_lines = (
        ",".join(
            [
                format_time(row.time),
                row.target,
                row.prop,
                format_number(row.old_value),
                format_number(row.new_value),
                row.origin,
            ]
        )
        for row in result.audit
    )
    _write_lines(os.path.join(out_dir, AUDIT_FILE), chain([audit_header], audit_lines))
    manifest.append(AUDIT_FILE)

    summary_lines = [f"{key} {format_number(value)}" for key, value in result.summary.items()]
    _write_lines(os.path.join(out_dir, SUMMARY_FILE), summary_lines)
    manifest.append(SUMMARY_FILE)
    return sorted(manifest)


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a line feed, one line at a time, so no whole
    file is ever joined into one string."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
