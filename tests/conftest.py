import os
from typing import Callable, NamedTuple

import pytest

from tesgrid.glm import parse_scenario

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_fixture(name: str) -> str:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def small_text() -> str:
    return load_fixture("feeder_small.glm")


@pytest.fixture()
def small_model(small_text):
    return parse_scenario(small_text)


def _second_ratio(text: str, value: str) -> str:
    return f"ratio {value};".join(text.rsplit("ratio 30;", 1))  # T2, behind the line UL1


_CUT_UL1 = ('attack { name cut; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
            'end "2013-07-01 00:30:00"; lines UL1; status OPEN; }\n')
OFF_STEP_ATTACK = ('attack { name a; kind LINE_STATUS; start "2013-07-01 00:10:30"; '
                   'end "2013-07-01 00:20:30"; lines UL1; status OPEN; }\n')
_RECORD_H1 = "recorder { name rh; target h1; property air_temperature; interval 60 s; file rh.csv; }\n"


def _two_hour_steps(text: str) -> str:
    """`text` over six hours at a 7200 s step, with every auction round and
    recorder row on it."""
    text = text.replace('stop "2013-07-01 01:00:00";', 'stop "2013-07-01 06:00:00";')
    text = text.replace("timestep 60 s;", "timestep 7200 s;").replace("period 300 s;", "period 7200 s;")
    return text.replace("interval 60 s;", "interval 7200 s;")


# feeder_small.glm plus a second auction, A2, with two sellers of its own,
# and one controller in each auction
SECOND_AUCTION = (
    "object auction { name A2; period 600 s; price_cap 0.5 $/kWh; init_price 0.2 $/kWh; }\n"
    "object generator_seller { name g2; market A2; price 0.12 $/kWh; capacity 3 kW; }\n"
    "object generator_seller { name g3; market A2; price 0.15 $/kWh; capacity 40 kW; }\n"
    "object controller { name c1; house h1; market A1; t_min 65 degF; t_base 72 degF; t_max 80 degF; k_ramp 2; }\n"
    "object controller { name c3; house h3; market A2; t_min 65 degF; t_base 72 degF; t_max 80 degF; k_ramp 2; }\n"
)


def _ul1_entry(time: str) -> str:
    return f'schedule {{ entry "2013-07-01 {time}" UL1 status OPEN; }}\n'


# Edits of feeder_small.glm that validate must reject, each with the code
# it reports, or for a parse error a piece of its message.  Without the
# check each one either ran quietly wrong or crashed the run with a traceback.
UNRUNNABLE_EDITS = {
    "schedule_bad_status": (
        lambda t: t + 'schedule { entry "2013-07-01 00:10:00" UL1 status BROKEN; }\n', "BAD_VALUE"),
    "schedule_word_setpoint": (
        lambda t: t + 'schedule { entry "2013-07-01 00:10:00" h1 cooling_setpoint hot; }\n', "BAD_VALUE"),
    "player_on_line_status": (
        lambda t: t + "player { name p; target UL1; property status; file status.csv; }\n", "BAD_VALUE"),
    "object_bad_status": (lambda t: t.replace("status CLOSED;", "status BROKEN;"), "BAD_VALUE"),
    "complex_hvac_rating": (
        lambda t: t.replace("hvac_rating 1 kW;", "hvac_rating 1+2j kW;", 1), "BAD_VALUE"),
    "period_not_timestep_multiple": (lambda t: t.replace("period 300 s;", "period 90 s;"), "BAD_PERIOD"),
    "zero_period": (lambda t: t.replace("period 300 s;", "period 0 s;"), "BAD_PERIOD"),
    "negative_seller_capacity": (
        lambda t: t.replace("capacity 50 kW;", "capacity -50 kW;"), "BAD_RANGE"),
    "negative_hvac_rating": (
        lambda t: t.replace("hvac_rating 1 kW;", "hvac_rating -1 kW;", 1), "BAD_RANGE"),
    "negative_solar_rating": (
        lambda t: t.replace("rating 1 kW;\n    efficiency", "rating -1 kW;\n    efficiency"), "BAD_RANGE"),
    "schedule_negative_deadband": (
        lambda t: t + 'schedule { entry "2013-07-01 00:10:00" h1 deadband -2 degF; }\n', "BAD_RANGE"),
    "schedule_internal_gains_above_range": (
        lambda t: t + 'schedule { entry "2013-07-01 00:10:00" h1 internal_gains 1e8; }\n', "BAD_RANGE"),
    "schedule_negative_solar_rating": (
        lambda t: t + 'schedule { entry "2013-07-01 00:10:00" s1 rating -3 kW; }\n', "BAD_RANGE"),
    # the power flow divides by these; a negative voltage passed the
    # convergence test after one sweep and exited 0
    "zero_transformer_ratio": (lambda t: t.replace("ratio 30;", "ratio 0;", 1), "BAD_RANGE"),
    "zero_nominal_voltage": (
        lambda t: t.replace("nominal_voltage 240 V;", "nominal_voltage 0 V;", 1), "BAD_RANGE"),
    "negative_nominal_voltage": (
        lambda t: t.replace("nominal_voltage 240 V;", "nominal_voltage -240 V;", 1), "BAD_RANGE"),
    # the power flow scales voltages by a transformer's ratio and a nominal
    # voltage, so each has a range: the T2 ratios and the tiny voltage ran to
    # a NaN state (exit 3), and the T1 ratios to exit 0 at 7.2e+303 and
    # 7.2e+09 V on tm1
    "ratio_1e-300": (lambda t: _second_ratio(t, "1e-300"), "BAD_RANGE"),
    "ratio_3e-200": (lambda t: _second_ratio(t, "3e-200"), "BAD_RANGE"),
    "ratio_5e-324": (lambda t: _second_ratio(t, "5e-324"), "BAD_RANGE"),
    "nominal_voltage_5e-324": (
        lambda t: t.replace("nominal_voltage 240 V;", "nominal_voltage 5e-324 V;", 1), "BAD_RANGE"),
    "t1_ratio_1e-300": (lambda t: t.replace("ratio 30;", "ratio 1e-300;", 1), "BAD_RANGE"),
    "t1_ratio_1e-6": (lambda t: t.replace("ratio 30;", "ratio 1e-6;", 1), "BAD_RANGE"),
    "ratio_above_range": (lambda t: t.replace("ratio 30;", "ratio 1e4;", 1), "BAD_RANGE"),
    "nominal_voltage_above_range": (
        lambda t: t.replace("nominal_voltage 7200 V;", "nominal_voltage 2000 kV;", 1), "BAD_RANGE"),
    # a load's kW is scaled by 1000 to VA: these ran to a solver divergence
    # (exit 3), and before that to exit 0 with `inf` and `nan` cells
    "hvac_rating_1e308": (lambda t: t.replace("hvac_rating 1 kW;", "hvac_rating 1e308;", 1), "BAD_RANGE"),
    "base_power_1e308": (lambda t: t.replace("base_power 1.2 kW;", "base_power 1e308;"), "BAD_RANGE"),
    "solar_rating_1e308": (
        lambda t: t.replace("rating 1 kW;\n    efficiency", "rating 1e308;\n    efficiency"), "BAD_RANGE"),
    "solar_efficiency_1e308": (lambda t: t.replace("efficiency 0.9;", "efficiency 1e308;"), "BAD_RANGE"),
    "solar_efficiency_above_one": (lambda t: t.replace("efficiency 0.9;", "efficiency 1.5;"), "BAD_RANGE"),
    "schedule_base_power_above_range": (
        lambda t: t + 'schedule { entry "2013-07-01 00:10:00" z1 base_power 2000 MW; }\n', "BAD_RANGE"),
    # a COP at or below zero heats the house it cools
    "negative_cop": (lambda t: t.replace("cop 3;", "cop -3;", 1), "BAD_RANGE"),
    "zero_cop": (lambda t: t.replace("cop 3;", "cop 0;", 1), "BAD_RANGE"),
    "negative_solar_efficiency": (lambda t: t.replace("efficiency 0.9;", "efficiency -0.9;"), "BAD_RANGE"),
    "negative_seller_price": (
        lambda t: t.replace("price 0.10 $/kWh;\n    capacity", "price -0.10 $/kWh;\n    capacity"), "BAD_RANGE"),
    # the market refuses these offers at the first round (exit 3)
    "seller_price_above_cap": (
        lambda t: t.replace("price 0.10 $/kWh;\n    capacity", "price 0.9 $/kWh;\n    capacity"), "BAD_RANGE"),
    "override_price_above_cap": (
        lambda t: t + 'attack { name a1; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; fraction 1; seed 1; price 0.9 $/kWh; }\n', "BAD_PARAM"),
    "negative_override_price": (
        lambda t: t + 'attack { name a1; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; fraction 1; seed 1; price -5 $/kWh; }\n', "BAD_PARAM"),
    # validated clean, then the run exited 3 without a summary: the fixture has no controller
    "bid_scale_without_controllers": (
        lambda t: t + 'attack { name a1; kind BUYER_BID_SCALE; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; lambda 0.2; }\n', "NO_TARGETS"),
    # the prior price a round repeats when the curves do not cross
    "negative_init_price": (
        lambda t: t.replace("init_price 0.10 $/kWh;", "init_price -5 $/kWh;"), "BAD_RANGE"),
    # a house that is a heat sink
    "negative_internal_gains": (
        lambda t: t.replace("internal_gains 1800;", "internal_gains -90000;", 1), "BAD_RANGE"),
    # the Euler step multiplies h1's gap to equilibrium by 1 - dt * ua / C:
    # these ran to exit 0 with h1 at `inf` and `nan`, or at 2.27e+34 degF
    "ua_1e308": (lambda t: t.replace("ua 550;", "ua 1e308;", 1), "BAD_RANGE"),
    "thermal_capacitance_5e-324": (
        lambda t: t.replace("thermal_capacitance 2000;", "thermal_capacitance 5e-324;", 1), "BAD_RANGE"),
    "thermal_capacitance_2": (
        lambda t: t.replace("thermal_capacitance 2000;", "thermal_capacitance 2;", 1), "BAD_RANGE"),
    # validated clean, then the run failed with KeyError building the engine
    "solar_on_line": (lambda t: t + "object solar { name pv9; parent UL1; rating 2 kW; }\n", "BAD_PARENT"),
    # the setpoint ramp divides by k_ramp * sigma, which a free seller lets reach the floor
    "zero_sigma_floor": (
        lambda t: t.replace("price 0.10 $/kWh;\n    capacity", "price 0 $/kWh;\n    capacity")
        + "object controller { name c1; house h1; market A1; t_min 65 degF; t_base 72 degF; t_max 80 degF;"
        " k_ramp 2; sigma_floor 0 $/kWh; }\n", "BAD_RANGE"),
    # validated clean and ran to exit 0 with T1's ratio applied from n1 down
    # to tn1 as before: the walk ignored a transformer's `from` and `to`
    "reversed_transformer": (lambda t: t.replace("from n1;\n    to tn1;", "from tn1;\n    to n1;"), "BAD_ENDPOINT"),
    # validated clean, then the run failed with KeyError building the network index
    "no_nodes": (
        lambda t: t[: t.index("object")] + "object auction { name A1; period 300 s; }\n", "NO_SOURCE"),
    # validated clean and ran with the meter's parent ignored
    "fed_meter_on_house": (
        lambda t: t + "object triplex_meter { name tm5; parent h1; nominal_voltage 240 V; }\n"
        "object switch { name s5; from tn1; to tm5; }\n", "BAD_PARENT"),
    # each ran to exit 0: a recorder wrote outside the output directory, or
    # one output file overwrote another
    "recorder_file_escapes": (lambda t: t.replace("file src.csv;", "file ../escape.csv;"), "BAD_FILE"),
    "recorder_file_shared": (lambda t: t.replace("file tm3.csv;", "file src.csv;"), "BAD_FILE"),
    "recorder_file_is_audit": (lambda t: t.replace("file tm3.csv;", "file audit.csv;"), "BAD_FILE"),
    "recorder_file_is_summary": (lambda t: t.replace("file ul1.csv;", "file summary.txt;"), "BAD_FILE"),
    # validated clean, then on a case-insensitive filesystem (the macOS and
    # Windows defaults) one file overwrote the other
    "recorder_file_is_audit_in_upper_case": (lambda t: t.replace("file tm3.csv;", "file Audit.csv;"), "BAD_FILE"),
    "recorder_files_differ_in_case": (lambda t: t.replace("file tm3.csv;", "file SRC.csv;"), "BAD_FILE"),
    # each validated clean: both recorders appended their rows to one table,
    # written to the second file only; of the two attacks only the second's
    # transform was kept, so the first window offered its price
    "recorder_name_shared": (lambda t: t.replace("name rec_tm3;", "name rec_src;"), "DUPLICATE_NAME"),
    "attack_name_shared": (
        lambda t: t + "".join(
            f'attack {{ name a; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:{start}:00"; '
            f'end "2013-07-01 00:{start + 10}:00"; price {price} $/kWh; }}\n'
            for start, price in ((10, 0.5), (30, 0.3))), "DUPLICATE_NAME"),
    # validated clean, then h1's rated kW was bid twice every round and its
    # setpoint re-centered twice
    "second_controller_on_house": (
        lambda t: t + "".join(
            f"object controller {{ name {name}; house h1; market A1; t_min 65 degF; t_base 72 degF;"
            " t_max 80 degF; k_ramp 2; }\n" for name in ("c1", "c2")), "BAD_REF"),
    # validated clean and linked into the feeder, though a `node` has no parent
    "node_with_parent": (
        lambda t: t + "object node { name n9; parent tn1; nominal_voltage 240 V; }\n", "NOT_RADIAL"),
    # cut to 90 s, then applied off the step grid (audit rows at 00:01:30, ...)
    "schedule_fractional_repeat": (
        lambda t: t + 'schedule { entry "2013-07-01 00:00:00" h2 deadband 3 degF; repeat 90.5 s; }\n',
        "BAD_SCHEDULE"),
    "schedule_repeat_off_step": (
        lambda t: t + 'schedule { entry "2013-07-01 00:00:00" h2 deadband 3 degF; repeat 90 s; }\n',
        "BAD_SCHEDULE"),
    # validated clean, then the run overflowed making the repeat a time span (a traceback)
    "schedule_repeat_beyond_a_timedelta": (
        lambda t: t + 'schedule { entry "2013-07-01 00:00:00" h2 deadband 3 degF; repeat 86400000000000 s; }\n',
        "BAD_SCHEDULE"),
    # took effect at the 00:02:00 step, while its audit row read 00:01:30
    "schedule_entry_off_step": (
        lambda t: t + 'schedule { entry "2013-07-01 00:01:30" h2 deadband 3 degF; }\n',
        "BAD_SCHEDULE"),
    # each validated clean and ran with the number taken as seconds
    "timestep_in_kw": (
        lambda t: t.replace("timestep 60 s;", "timestep 60 kW;"), "'timestep' has unit kW, expected TIME"),
    "recorder_interval_in_degf": (
        lambda t: t.replace("interval 60 s;", "interval 60 degF;", 1), "'interval' has unit degF, expected TIME"),
    "schedule_repeat_in_kw": (
        lambda t: t + 'schedule { entry "2013-07-01 00:00:00" h2 deadband 3 degF; repeat 60 kW; }\n',
        "'repeat' has unit kW, expected TIME"),
    # validated clean and recorded every 60 s
    "recorder_fractional_interval": (
        lambda t: t.replace("interval 60 s;", "interval 60.9 s;", 1), "interval must be a whole number of seconds"),
    # validated clean, then the run's price statistics overflowed squaring a deviation (a traceback)
    "price_cap_overflows_statistics": (
        lambda t: t.replace("price_cap 0.63 $/kWh;", "price_cap 1e180 $/kWh;"), "BAD_RANGE"),
    # validated clean, then the setpoint ramp divided by k_ramp * sigma, 0 after underflow (a traceback)
    "k_ramp_times_sigma_underflows": (
        lambda t: t + "object controller { name c1; house h1; market A1; t_min 65 degF; t_base 72 degF;"
        " t_max 80 degF; k_ramp 5e-324; }\n", "BAD_RANGE"),
    # each validated clean with the misspelt field dropped
    "recorder_unknown_field": (
        lambda t: t.replace("interval 60 s;", "interval 60 s; intervall 300 s; nonsense 7;", 1),
        "unknown recorder field 'intervall'"),
    "clock_unknown_field": (
        lambda t: t.replace("timestep 60 s;", "timestep 60 s; tiemstep 5 s;"), "unknown clock field 'tiemstep'"),
    "player_unknown_field": (
        lambda t: t + "player { name p; target h1; property deadband; file db.csv; fiel x.csv; }\n",
        "unknown player field 'fiel'"),
    "weather_unknown_field": (
        lambda t: t + "weather { file w.csv; format csv; }\n", "unknown weather field 'format'"),
    # each validated clean, then wrote an `audit.csv` row of 7 fields under
    # the 6-field header (`...,attack:a,b,active,0,1,attack`)
    "attack_name_with_comma": (
        lambda t: t + 'attack { name "a,b"; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; price 0.5 $/kWh; }\n', "BAD_NAME"),
    "house_name_with_comma": (
        lambda t: t + 'object house { name "h,1"; parent tm1; }\n'
        'schedule { entry "2013-07-01 00:10:00" "h,1" cooling_setpoint 71 degF; }\n', "BAD_NAME"),
    # validated clean, then `summary.txt` listed it as two attacks (`attacks x;y`)
    "attack_name_with_semicolon": (
        lambda t: t + 'attack { name "x;y"; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; price 0.5 $/kWh; }\n', "BAD_NAME"),
    # each validated clean and ran to exit 0 with one attack cutting the other
    # short, as an attack's end writes back UL1's configured status: UL1
    # closed at 00:20, 20 minutes early, or `later` never opened it
    "line_attack_inside_another": (
        lambda t: t + 'attack { name a2; kind LINE_STATUS; start "2013-07-01 00:05:00"; '
        'end "2013-07-01 00:40:00"; lines UL1; status OPEN; }\n'
        'attack { name a1; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; lines UL1; status OPEN; }\n', "BAD_WINDOW"),
    "line_attacks_back_to_back": (
        lambda t: t + 'attack { name later; kind LINE_STATUS; start "2013-07-01 00:20:00"; '
        'end "2013-07-01 00:30:00"; lines UL1; status OPEN; }\n'
        'attack { name earlier; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; lines UL1; status OPEN; }\n', "BAD_WINDOW"),
    # each validated clean and ran to exit 0 with UL1 closed from 00:30: the
    # attack's end wrote back the configured status over the schedule's entry
    "schedule_status_inside_line_attack": (lambda t: t + _CUT_UL1 + _ul1_entry("00:20:00"), "BAD_WINDOW"),
    "schedule_status_before_line_attack": (lambda t: t + _CUT_UL1 + _ul1_entry("00:05:00"), "BAD_WINDOW"),
    # validated clean and ran to exit 0 with UL1 opened at the 00:11 step, while
    # its `audit.csv` row read 00:10:30
    "attack_window_off_step": (lambda t: t + OFF_STEP_ATTACK, "BAD_WINDOW"),
    # validated clean and ran to exit 0; h1's recorder wrote 1e+308, then -inf, then nan
    "air_temperature_1e308": (
        lambda t: t.replace("air_temperature 80 degF;", "air_temperature 1e308 degF;", 1) + _RECORD_H1, "BAD_RANGE"),
    # each validated clean and ran to exit 0 under both topologies with h1's
    # `cooling_setpoint` at nan from 00:00: t_max - t_base overflowed to inf,
    # which a round at the mean price multiplied by 0
    "controller_temperatures_1e308": (
        lambda t: t + "object controller { name c1; house h1; market A1; t_min -1.7e308 degF;"
        " t_base -1e308 degF; t_max 1e308 degF; k_ramp 1; }\n"
        + _RECORD_H1.replace("air_temperature", "cooling_setpoint"), "BAD_RANGE"),
    # each validated clean and ran to exit 0 with h1's `air_temperature` at
    # -inf from 00:01 and nan from 00:02, or at inf from 02:00 and nan from 04:00
    "cop_1e308": (lambda t: t.replace("cop 3;", "cop 1e308;", 1) + _RECORD_H1, "BAD_RANGE"),
    "thermal_capacitance_and_ua_5e-324": (
        lambda t: t.replace("thermal_capacitance 2000;\n    ua 550;", "thermal_capacitance 5e-324;\n    ua 5e-324;", 1)
        + _RECORD_H1, "BAD_RANGE"),
    "internal_gains_1e308": (
        lambda t: _two_hour_steps(t.replace("internal_gains 1800;", "internal_gains 1e308;", 1) + _RECORD_H1),
        "BAD_RANGE"),
}


class UnrunnableInput(NamedTuple):
    edit: Callable[[str], str]  # of feeder_small.glm
    files: dict[str, bytes]  # written beside the scenario
    code: str  # the error both `tesgrid validate` and `tesgrid run` report
    topology: str = "auxiliary"  # the one `tesgrid run` is given


_PLAYER = "player { name p; target h1; property deadband; file p.csv; }\n"
_WEATHER = "weather { file w.csv; }\n"
_WEATHER_HEAD = b"time,temperature_degF,irradiance_fraction\n"


def _player_rows(*values: bytes) -> dict[str, bytes]:
    """p.csv holding `values` every 10 minutes from the fixture's start."""
    rows = b"".join(b"2013-07-01 00:%d0:00,%s\n" % (k, value) for k, value in enumerate(values))
    return {"p.csv": b"time,value\n" + rows}


# Scenarios that validate clean as models, each with input files the run
# cannot use.  Each one used to pass `tesgrid validate` (exit 0) and then
# fail `tesgrid run` before its first step, most with exit 3.
UNRUNNABLE_INPUTS = {
    "player_file_missing": UnrunnableInput(lambda t: t + _PLAYER, {}, "BAD_FILE"),
    "weather_file_missing": UnrunnableInput(lambda t: t + _WEATHER, {}, "BAD_FILE"),
    "player_starts_after_clock_start": UnrunnableInput(
        lambda t: t + _PLAYER, {"p.csv": b"time,value\n2013-07-01 00:01:00,2\n"}, "BAD_FILE"),
    "weather_starts_after_clock_start": UnrunnableInput(
        lambda t: t + _WEATHER, {"w.csv": _WEATHER_HEAD + b"2013-07-01 00:01:00,80,0.5\n"}, "BAD_FILE"),
    "player_header_only": UnrunnableInput(lambda t: t + _PLAYER, {"p.csv": b"time,value\n"}, "BAD_FILE"),
    "player_nan": UnrunnableInput(lambda t: t + _PLAYER, _player_rows(b"2", b"nan"), "BAD_FILE"),
    "player_1e999": UnrunnableInput(lambda t: t + _PLAYER, _player_rows(b"2", b"1e999"), "BAD_FILE"),
    "player_not_utf8": UnrunnableInput(lambda t: t + _PLAYER, _player_rows(b"2", b"\xff\xfe"), "BAD_FILE"),
    "weather_irradiance_above_one": UnrunnableInput(
        lambda t: t + _WEATHER, {"w.csv": _WEATHER_HEAD + b"2013-07-01 00:00:00,80,1.5\n"}, "BAD_FILE"),
    "weather_temperature_1e308": UnrunnableInput(
        lambda t: t + _WEATHER, {"w.csv": _WEATHER_HEAD + b"2013-07-01 00:00:00,1e308,0.5\n"}, "BAD_FILE"),
    "player_repeated_timestamp": UnrunnableInput(
        lambda t: t + _PLAYER, {"p.csv": b"time,value\n2013-07-01 00:00:00,2\n2013-07-01 00:00:00,3\n"},
        "BAD_FILE"),
    "player_deadband_-500": UnrunnableInput(lambda t: t + _PLAYER, _player_rows(b"2", b"-500"), "BAD_RANGE"),
    "player_air_temperature_1e308": UnrunnableInput(
        lambda t: t + _PLAYER.replace("deadband", "air_temperature"), _player_rows(b"80", b"1e308"), "BAD_RANGE"),
    # `tesgrid validate` checks the default (auxiliary) topology, under which this one runs
    "market_attack_under_direct": UnrunnableInput(
        lambda t: t + 'attack { name a; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; price 0.5 $/kWh; }\n', {}, "BAD_TOPOLOGY", "direct"),
}
