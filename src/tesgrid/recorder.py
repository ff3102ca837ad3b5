"""Time-series input (players, weather) and result serialization.

Player files are `time,value` CSVs; weather files add an irradiance
column.  All lookups are step-hold: the value at t is the last sample at
or before t, and querying before the first sample is an error.

Output CSVs print numbers with six significant digits so reruns are
byte-identical across platforms.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain

from .errors import IoFailure, MalformedRow, MissingPlayerData, NonMonotonicTime
from .model import format_time, parse_time


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
    rows: list[tuple[datetime, object]]  # strictly increasing timestamps

    def sample(self, t: datetime):
        """Step-hold value at t; MissingPlayerData before the first row."""
        if not self.rows or t < self.rows[0][0]:
            raise MissingPlayerData(f"{self.name}: no sample at or before {format_time(t)}")
        return self.rows[bisect_right(self.rows, t, key=lambda row: row[0]) - 1][1]


def _parse_rows(path: str, expected_fields: int, name: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 or not line.strip():
            continue  # header
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != expected_fields:
            raise MalformedRow(f"{name} line {lineno}: expected {expected_fields} fields")
        rows.append(parts)
    return rows


def _parse_time(text: str, name: str, lineno_hint: str) -> datetime:
    try:
        return parse_time(text)
    except ValueError as exc:
        raise MalformedRow(f"{name} {lineno_hint}: bad timestamp '{text}'") from exc


def _parse_number(text: str, name: str, row: int) -> float:
    """A finite float: `nan`, `inf` and overflowing numbers are malformed."""
    try:
        value = float(text)
    except ValueError as exc:
        raise MalformedRow(f"{name} row {row}: bad number '{text}'") from exc
    if not math.isfinite(value):
        raise MalformedRow(f"{name} row {row}: '{text}' is not a finite number")
    return value


def read_player(path: str) -> TimeSeries:
    """Read a `time,value` CSV into a strictly-increasing series."""
    name = os.path.basename(path)
    rows: list[tuple[datetime, float]] = []
    for i, parts in enumerate(_parse_rows(path, 2, name)):
        t = _parse_time(parts[0], name, f"row {i + 1}")
        value = _parse_number(parts[1], name, i + 1)
        if rows and t <= rows[-1][0]:
            raise NonMonotonicTime(f"{name} row {i + 1}: timestamps must strictly increase")
        rows.append((t, value))
    return TimeSeries(name, rows)


def read_weather(path: str) -> TimeSeries:
    """Read a `time,temperature_degF,irradiance_fraction` CSV (irradiance in
    [0, 1]) into one series of (temperature, irradiance) pairs."""
    name = os.path.basename(path)
    rows: list[tuple[datetime, tuple[float, float]]] = []
    for i, parts in enumerate(_parse_rows(path, 3, name)):
        t = _parse_time(parts[0], name, f"row {i + 1}")
        if rows and t <= rows[-1][0]:
            raise NonMonotonicTime(f"{name} row {i + 1}: timestamps must strictly increase")
        temperature = _parse_number(parts[1], name, i + 1)
        fraction = _parse_number(parts[2], name, i + 1)
        if not 0.0 <= fraction <= 1.0:
            raise MalformedRow(f"{name} row {i + 1}: irradiance '{parts[2]}' is outside [0, 1]")
        rows.append((t, (temperature, fraction)))
    return TimeSeries(name, rows)


DEFAULT_WEATHER_DEGF = 90.0
DEFAULT_IRRADIANCE = 0.5


def constant_weather(t0: datetime) -> TimeSeries:
    """Fallback when a scenario names no weather file."""
    return TimeSeries("<constant>", [(t0, (DEFAULT_WEATHER_DEGF, DEFAULT_IRRADIANCE))])


@dataclass
class RecorderTable:
    name: str
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
