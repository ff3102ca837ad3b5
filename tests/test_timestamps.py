"""Timestamp reading and writing: `parse_time` against `datetime.strptime`,
and four-digit years in every stamp a run or `pretty_print` writes."""

from datetime import datetime

import pytest
from conftest import load_fixture
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tesgrid.cli import main
from tesgrid.errors import ConfigError
from tesgrid.feedergen import gen_weather
from tesgrid.glm import parse_scenario, pretty_print
from tesgrid.model import TIME_FORMAT, format_time, parse_time
from tesgrid.recorder import read_player


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def _near_timestamps(draw):
    """TIME_FORMAT-like text: fields just inside and outside their ranges,
    written with or without zero or space padding, odd separators, trailing
    text and non-ASCII digits."""
    fields = [
        draw(st.integers(lo, hi))
        for lo, hi in ((0, 10000), (0, 13), (0, 32), (0, 25), (0, 61), (0, 62))
    ]
    texts = [draw(st.sampled_from(["", "", "0", "00", " "])) + str(n) for n in fields]
    date_sep = draw(st.sampled_from(["-", "-", "-", "/"]))
    middle = draw(st.sampled_from([" ", " ", "  ", "\t", " \t", "　", "T", ""]))
    time_sep = draw(st.sampled_from([":", ":", ":", "."]))
    tail = draw(st.sampled_from(["", "", "", "x", " ", "\n", "0"]))
    text = (date_sep.join(texts[:3]) + middle + time_sep.join(texts[3:]) + tail)
    digits = draw(st.sampled_from([None, None, None, _ARABIC_INDIC, _FULL_WIDTH]))
    return text.translate(digits) if digits else text


@settings(max_examples=500, deadline=None)
@given(st.one_of(_near_timestamps(), st.text(max_size=25)))
@example("2013-7-1 0:0:0")
@example("2013-07- 1 00:00:00")
@example("2013-07-01\t00:00:00")
@example("2013-07-01    00:00:00")
@example("2013-07-01 23:59:59")
@example("2013-07-01 00:00:60")
@example("2013-07-01 00:00:61")
@example("1900-02-29 00:00:00")
@example("2000-02-29 00:00:00")
@example("2013-02-29 00:00:00")
@example("0000-01-01 00:00:00")
@example("2013-00-01 00:00:00")
@example("2013-13-01 00:00:00")
@example("2013-07-01 24:00:00")
@example("２０１３-07-01 00:00:00")
@example("٢٠١٣-07-01 00:00:00")
@example("٢٠١٣-٠٧-٠١ ٠٠:٠٠:٠٠")
@example("2013-07-01 00:00:00x")
@example("2013-07-01 00:00:00\n")
@example("")
def test_parse_time_matches_strptime(text):
    assert _outcome(parse_time, text) == _outcome(lambda s: datetime.strptime(s, TIME_FORMAT), text)


@pytest.mark.parametrize("t", [datetime(1, 1, 1), datetime(999, 7, 1, 0, 10), datetime(2013, 7, 1, 23, 59, 59),
                               datetime(2013, 7, 1, 0, 0, 0, 999999), datetime(9999, 12, 31, 23, 59, 59)])
def test_format_time_round_trips(t):
    text = format_time(t)
    assert len(text) == 19
    assert parse_time(text) == t.replace(microsecond=0)
    if t.year >= 1000:
        assert text == t.strftime(TIME_FORMAT)


def _year_999_scenario():
    text = load_fixture("feeder_small.glm").replace('"2013-07-01', '"0999-07-01')
    return text + (
        'schedule { name s; entry "0999-07-01 00:10:00" h1 cooling_setpoint 72 degF; }\n'
        "weather { file w.csv; }\n"
    )


def test_year_999_run_writes_four_digit_stamps(tmp_path):
    scenario = tmp_path / "s.glm"
    scenario.write_text(_year_999_scenario())
    (tmp_path / "w.csv").write_text(gen_weather(datetime(999, 7, 1), hours=2))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    rows = (out / "src.csv").read_text().splitlines()
    assert rows[1].startswith("0999-07-01 00:00:00,")
    assert (out / "audit.csv").read_text().splitlines()[1].startswith("0999-07-01 00:10:00,h1,cooling_setpoint,")
    summary = (out / "summary.txt").read_text()
    assert "start 0999-07-01 00:00:00\nstop 0999-07-01 01:00:00\n" in summary
    # the run's own player reader takes back the stamps it wrote
    player = tmp_path / "p.csv"
    player.write_text("\n".join(",".join(row.split(",")[:2]) for row in rows) + "\n")
    series = read_player(str(player), datetime(999, 7, 1))
    assert len(series.rows) == 61
    assert series.rows[0][0] == datetime(999, 7, 1)


def test_year_999_pretty_print_round_trips():
    model = parse_scenario(_year_999_scenario())
    text = pretty_print(model)
    assert 'start "0999-07-01 00:00:00";' in text
    again = parse_scenario(text)
    assert again.clock == model.clock
    assert again.schedules[0].entries == model.schedules[0].entries


def test_missing_sample_message_has_four_digit_year(tmp_path):
    player = tmp_path / "p.csv"
    player.write_text("time,value\n0999-07-01 00:00:00,1\n")
    with pytest.raises(ConfigError, match="p.csv: no sample at or before 0999-06-30 23:59:00"):
        read_player(str(player), datetime(999, 6, 30, 23, 59))
