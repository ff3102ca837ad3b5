"""Validation-report tests: the fixture is clean, and each invariant
violation produces the expected diagnostic without raising."""

import pytest
from conftest import UNRUNNABLE_EDITS

from tesgrid.glm import parse_scenario
from tesgrid.validate import validate


def codes(report):
    return {d.code for d in report.errors}


def test_fixture_is_runnable(small_model):
    report = validate(small_model)
    assert report.errors == []
    assert report.runnable


def test_missing_clock():
    report = validate(parse_scenario("object node { name n; bustype SWING; }"))
    assert "NO_CLOCK" in codes(report)


def test_dangling_reference(small_text):
    text = small_text.replace("parent tn2;", "parent nowhere;", 1)
    report = validate(parse_scenario(text))
    assert "DANGLING_REF" in codes(report)


def test_two_swing_nodes(small_text):
    text = small_text.replace("name n2;", "name n2;\n    bustype SWING;", 1)
    report = validate(parse_scenario(text))
    assert "MULTI_SOURCE" in codes(report)


def test_no_swing_node(small_text):
    text = small_text.replace("bustype SWING;", "")
    report = validate(parse_scenario(text))
    assert "NO_SOURCE" in codes(report)


def test_cycle_detected(small_text):
    extra = "object switch { name loop; from tn1; to tn2; }\n"
    report = validate(parse_scenario(small_text + extra))
    assert "NOT_RADIAL" in codes(report)


def test_disconnected_node(small_text):
    extra = "object node { name island; }\n"
    report = validate(parse_scenario(small_text + extra))
    assert "NOT_RADIAL" in codes(report)


def test_duplicate_names(small_text):
    extra = "object node { name n2; }\n"
    report = validate(parse_scenario(small_text + extra))
    assert "DUPLICATE_NAME" in codes(report)


def test_missing_required_property():
    report = validate(parse_scenario("object generator_seller { name g; market m; }"))
    assert "MISSING_PROPERTY" in codes(report)


def test_unknown_property_is_warning(small_text):
    text = small_text.replace("cop 3;", "cop 3;\n    paint_color blue;", 1)
    report = validate(parse_scenario(text))
    assert report.runnable
    assert any(d.code == "UNKNOWN_PROP" for d in report.warnings)


def test_unrecordable_property(small_text):
    text = small_text.replace("property voltage_mag, measured_power_kw, energized;",
                              "property clearing_price;")
    report = validate(parse_scenario(text))
    assert "UNKNOWN_PROPERTY" in codes(report)


def test_attack_on_transformer_not_switchable(small_text):
    extra = (
        'attack { kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; lines T1; status OPEN; }\n'
    )
    report = validate(parse_scenario(small_text + extra))
    assert "NOT_SWITCHABLE" in codes(report)


def test_attack_window_checks(small_text):
    extra = (
        'attack { kind LINE_STATUS; start "2013-07-01 00:30:00"; '
        'end "2013-07-01 00:20:00"; lines UL1; status OPEN; }\n'
    )
    report = validate(parse_scenario(small_text + extra))
    assert "EMPTY_WINDOW" in codes(report)


def test_bad_fraction(small_text):
    extra = (
        'attack { kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; fraction 1.5; lines UL1; status OPEN; }\n'
    )
    report = validate(parse_scenario(small_text + extra))
    assert "BAD_FRACTION" in codes(report)


def test_recorder_interval_multiple_of_timestep(small_text):
    text = small_text.replace("interval 60 s;\n    file tm3.csv;", "interval 90 s;\n    file tm3.csv;")
    report = validate(parse_scenario(text))
    assert "BAD_INTERVAL" in codes(report)


def test_controller_range(small_text):
    extra = (
        "object controller { name c1; house h1; market A1; "
        "t_min 80 degF; t_base 75 degF; t_max 85 degF; k_ramp 1; }\n"
    )
    report = validate(parse_scenario(small_text + extra))
    assert "BAD_RANGE" in codes(report)


def test_report_is_deterministic(small_text):
    broken = small_text.replace("parent tn2;", "parent nowhere;", 1) + "object node { name island; }\n"
    r1 = validate(parse_scenario(broken)).serialize()
    r2 = validate(parse_scenario(broken)).serialize()
    assert r1 == r2 and r1


@pytest.mark.parametrize("case", sorted(UNRUNNABLE_EDITS))
def test_rejects_what_the_engine_cannot_run(small_text, case):
    edit, code = UNRUNNABLE_EDITS[case]
    text = edit(small_text)
    assert text != small_text
    report = validate(parse_scenario(text))
    assert not report.runnable
    assert code in codes(report)


def test_word_range_values_report_instead_of_raising(small_text):
    text = small_text.replace("price_cap 0.63 $/kWh;", "price_cap high;")
    report = validate(parse_scenario(text))
    assert "BAD_VALUE" in codes(report)


def test_schedule_value_unit_checked(small_text):
    text = small_text + 'schedule { entry "2013-07-01 00:10:00" h1 cooling_setpoint 71 kW; }\n'
    assert "BAD_UNIT" in codes(validate(parse_scenario(text)))


def test_valid_schedule_values_pass(small_text):
    text = small_text + (
        'schedule {\n'
        '  entry "2013-07-01 00:10:00" UL1 status OPEN;\n'
        '  entry "2013-07-01 00:20:00" h1 cooling_setpoint 71 degF;\n'
        '  entry "2013-07-01 00:30:00" z1 base_power 2 kW;\n'
        '}\n'
        "object auction { name A2; period 600 s; }\n"
    )
    assert validate(parse_scenario(text)).errors == []
