"""Time-series I/O tests: player/weather parsing, step-hold sampling,
number formatting, and result serialization."""

import csv
import gc
import sys
import tracemalloc
from datetime import datetime, timedelta
from types import SimpleNamespace

import pytest
from test_golden import CASES, FEEDER

from tesgrid.errors import ConfigError
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.recorder import (
    RecorderTable,
    constant_weather,
    format_number,
    read_player,
    read_weather,
    write_results,
)

T = lambda s: datetime.strptime("2013-07-01 " + s, "%Y-%m-%d %H:%M:%S")


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_player_step_hold(tmp_path):
    path = write(tmp_path, "time,value\n2013-07-01 00:00:00,1.0\n2013-07-01 00:30:00,2.0\n")
    series = read_player(path, T("00:00:00"))
    assert series.sample(T("00:00:00")) == 1.0
    assert series.sample(T("00:29:59")) == 1.0
    assert series.sample(T("00:30:00")) == 2.0
    assert series.sample(T("23:00:00")) == 2.0


def test_player_before_first_sample(tmp_path):
    path = write(tmp_path, "time,value\n2013-07-01 01:00:00,1.0\n")
    with pytest.raises(ConfigError, match="series.csv: no sample at or before 2013-07-01 00:59:59"):
        read_player(path, T("00:59:59"))
    assert read_player(path, T("01:00:00")).sample(T("01:00:00")) == 1.0


@pytest.mark.parametrize("reader, header", [(read_player, "time,value"),
                                            (read_weather, "time,temperature_degF,irradiance_fraction")])
def test_file_with_only_a_header_has_no_first_sample(tmp_path, reader, header):
    with pytest.raises(ConfigError, match="series.csv: no sample at or before 2013-07-01 00:00:00") as exc:
        reader(write(tmp_path, header + "\n\n"), T("00:00:00"))
    assert (exc.value.location, exc.value.code) == ("series.csv", "BAD_FILE")


def test_player_non_monotonic(tmp_path):
    path = write(tmp_path, "time,value\n2013-07-01 01:00:00,1\n2013-07-01 01:00:00,2\n")
    with pytest.raises(ConfigError, match="series.csv: row 2: timestamps must strictly increase"):
        read_player(path, T("01:00:00"))


@pytest.mark.parametrize(
    "body",
    [
        "time,value\n2013-07-01 01:00:00\n",  # missing field
        "time,value\n2013-07-01 01:00:00,1,extra\n",  # extra field
        "time,value\nyesterday,1\n",  # bad timestamp
        "time,value\n2013-07-01 01:00:00,one\n",  # bad number
        "time,value\n2013-07-01 01:00:00,nan\n",  # not finite
        "time,value\n2013-07-01 01:00:00,inf\n",
        "time,value\n2013-07-01 01:00:00,-Infinity\n",
        "time,value\n2013-07-01 01:00:00,1e999\n",  # overflows to inf
    ],
)
def test_player_malformed_rows(tmp_path, body):
    with pytest.raises(ConfigError, match="series.csv: (row|line) "):
        read_player(write(tmp_path, body), T("01:00:00"))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
def test_step_hold_at_between_and_after_samples(tmp_path, count):
    times = [T(f"{2 * k:02d}:00:00") for k in range(count)]
    body = "".join(f"2013-07-01 {2 * k:02d}:00:00,{k + 0.5}\n" for k in range(count))
    series = read_player(write(tmp_path, "time,value\n" + body), times[0])
    queries = times + [T(f"{2 * k + 1:02d}:30:00") for k in range(count)]  # between and after
    for t in queries:
        assert series.sample(t) == [v for ts, v in series.rows if ts <= t][-1]
    with pytest.raises(ConfigError, match="no sample at or before"):
        read_player(write(tmp_path, "time,value\n" + body), times[0] - timedelta(seconds=1))


def test_weather_rejects_non_finite_numbers(tmp_path):
    head = "time,temperature_degF,irradiance_fraction\n2013-07-01 00:00:00,75.0,0.0\n"
    for row in ("2013-07-01 01:00:00,nan,0.5\n", "2013-07-01 01:00:00,80,inf\n"):
        with pytest.raises(ConfigError, match="series.csv: row 2: .* is not a finite number"):
            read_weather(write(tmp_path, head + row), T("00:00:00"))


@pytest.mark.parametrize("value", ["-0.5", "1.5", "-1e-9", "1.0000001"])
def test_weather_rejects_irradiance_outside_unit_range(tmp_path, value):
    head = "time,temperature_degF,irradiance_fraction\n2013-07-01 00:00:00,75.0,0.0\n"
    with pytest.raises(ConfigError, match=rf"series.csv: row 2: irradiance '{value}' is outside \[0, 1\]"):
        read_weather(write(tmp_path, head + f"2013-07-01 01:00:00,80,{value}\n"), T("00:00:00"))


@pytest.mark.parametrize("value", ["1e308", "-100.5", "200.001"])
def test_weather_rejects_temperature_outside_house_limits(tmp_path, value):
    head = "time,temperature_degF,irradiance_fraction\n2013-07-01 00:00:00,-100,0.0\n2013-07-01 00:30:00,200,0.0\n"
    with pytest.raises(ConfigError, match=rf"series.csv: row 3: temperature '{value}' is outside \[-100, 200\] degF"):
        read_weather(write(tmp_path, head + f"2013-07-01 01:00:00,{value},0.5\n"), T("00:00:00"))


def test_player_missing_file():
    with pytest.raises(ConfigError, match="player.csv: cannot read /nonexistent/player.csv: "):
        read_player("/nonexistent/player.csv", T("00:00:00"))


def test_weather_two_columns(tmp_path):
    path = write(
        tmp_path,
        "time,temperature_degF,irradiance_fraction\n"
        "2013-07-01 00:00:00,75.0,0.0\n"
        "2013-07-01 12:00:00,95.0,1.0\n",
    )
    weather = read_weather(path, T("00:00:00"))
    assert weather.sample(T("06:00:00")) == (75.0, 0.0)
    assert weather.sample(T("12:00:00")) == (95.0, 1.0)


def test_constant_weather():
    weather = constant_weather(T("00:00:00"))
    assert weather.sample(T("18:00:00")) == (90.0, 0.5)


def test_blank_lines_skipped(tmp_path):
    path = write(tmp_path, "time,value\n\n2013-07-01 00:00:00,1.0\n\n")
    assert read_player(path, T("00:00:00")).sample(T("00:00:00")) == 1.0


def test_format_number():
    assert format_number(1.0) == "1"
    assert format_number(0.10266666) == "0.102667"
    assert format_number(True) == "1"
    assert format_number(False) == "0"
    assert format_number(7) == "7"
    assert format_number("COOL") == "COOL"


def test_recorder_table_serialize(tmp_path):
    table = RecorderTable("r.csv", ["time", "a", "flags"])
    table.append("2013-07-01 00:00:00", [1.5], "")
    table.append("2013-07-01 00:01:00", [0.0], "DEENERGIZED")
    result = SimpleNamespace(tables={"r": table}, audit=[], summary={"complete": True})
    assert write_results(result, str(tmp_path)) == ["audit.csv", "r.csv", "summary.txt"]
    assert (tmp_path / "r.csv").read_text() == (
        "time,a,flags\n"
        "2013-07-01 00:00:00,1.5,\n"
        "2013-07-01 00:01:00,0,DEENERGIZED\n"
    )
    assert (tmp_path / "audit.csv").read_text() == "time,target,property,old_value,new_value,origin\n"
    assert (tmp_path / "summary.txt").read_text() == "complete 1\n"


def golden_engine(case: str) -> Engine:
    """The engine of one golden case's hour (tests/test_golden.py), not yet run."""
    topology, extra = CASES[case]
    with open(FEEDER, encoding="utf-8") as fh:
        return Engine(parse_scenario(fh.read() + extra), topology=topology)


@pytest.mark.parametrize("case", sorted(CASES))
def test_rows_are_the_written_csv(tmp_path, case):
    result = golden_engine(case).run()
    write_results(result, str(tmp_path))
    for table in result.tables.values():
        with open(tmp_path / table.file, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == table.header
        assert table.rows == rows
        assert len(rows) == len(table.lines) > 0


def test_recorded_rows_hold_little_more_than_their_lines():
    """The heap a run holds when it ends, per recorded row, is near what the
    rows' CSV lines take: each line's string plus its slot in the list.
    Python 3.11 holds 1.2 times that; rows kept as lists of field strings
    held 2.1 times."""
    engine = golden_engine("auxiliary")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = engine.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    lines = [line for table in result.tables.values() for line in table.lines]
    ideal = sum(sys.getsizeof(line) + 8 for line in lines) / len(lines)
    assert held / len(lines) <= 1.5 * ideal
