"""Validation-report tests: the fixture is clean, and each invariant
violation produces the expected diagnostic without raising."""

from dataclasses import replace

import pytest
from conftest import OFF_STEP_ATTACK, UNRUNNABLE_EDITS, load_fixture

from tesgrid.cli import main
from tesgrid.errors import ParseError
from tesgrid.feedergen import gen_feeder
from tesgrid.glm import parse_scenario
from tesgrid.kernel import Engine
from tesgrid.model import Diagnostic
from tesgrid.network import build_network_index
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


@pytest.mark.parametrize("case", ["recorder_name_shared", "attack_name_shared", "second_controller_on_house"])
def test_run_keyed_duplicates_are_reported_once(small_text, case):
    """The second recorder or attack of a name, or the second controller of
    a house, is the one error of its scenario."""
    expected = {
        "recorder_name_shared": "error: rec_src: DUPLICATE_NAME: recorder name is not unique",
        "attack_name_shared": "error: a: DUPLICATE_NAME: attack name is not unique",
        "second_controller_on_house": "error: c2: BAD_REF: house 'h1' already has controller 'c1'",
    }[case]
    edit, _ = UNRUNNABLE_EDITS[case]
    assert validate(parse_scenario(edit(small_text))).serialize() == expected


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


@pytest.mark.parametrize(
    "entry, repeat, undone",
    [
        ("2013-07-01 00:30:00", "", True),  # at the end: applied before the write-back
        ("2013-07-01 00:31:00", "", False),
        ("2013-06-30 23:50:00", "", False),  # before the start: dropped
        ("2013-06-30 23:50:00", "repeat 1200 s;", True),  # its repeat at 00:10 is applied
        ("2013-06-30 23:50:00", "repeat 3600 s;", False),  # its first applied repeat is at 00:50
    ],
)
def test_schedule_status_entry_undone_by_line_attack(small_text, entry, repeat, undone):
    extra = (
        'attack { name cut; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:30:00"; lines UL1; status OPEN; }\n'
        f'schedule {{ entry "{entry}" UL1 status OPEN; {repeat} }}\n'
    )
    assert ("BAD_WINDOW" in codes(validate(parse_scenario(small_text + extra)))) == undone


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
    try:
        model = parse_scenario(text)
    except ParseError as err:
        assert code in err.message
        return
    report = validate(model)
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


_HOUSE = ("air_temperature 80 degF; cooling_setpoint 70 degF; deadband 2 degF; "
          "thermal_capacitance 2000; ua 550; internal_gains 1800; hvac_rating 1 kW; cop 3;")
_NO_NODES = ('clock { start "2013-07-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep 60 s; }\n'
             "object auction { name A1; period 300 s; }\n")
_CONTROLLER = ("object controller {{ name c1; house {}; market {}; "
               "t_min 65 degF; t_base 72 degF; t_max 80 degF; k_ramp 2; }}\n")
_CYCLE = "error: <network>: NOT_RADIAL: electrical network contains a cycle"
_UNREACHED = "error: <network>: NOT_RADIAL: nodes not connected to the source: "

# Edits of feeder_small.glm, each with its whole serialized report, byte for
# byte: topology and attachment edits (the feeder walk's diagnostics), then
# edits of the other blocks.
PINNED_REPORTS = {
    "self_loop_edge": (
        lambda t: t + "object switch { name sl; from n2; to n2; }\n",
        "error: sl: NOT_RADIAL: self-loop edge"),
    "self_loop_on_house": (
        lambda t: t + "object switch { name sl; from h1; to h1; }\n",
        "error: sl: BAD_ENDPOINT: 'h1' is not an electrical node"),
    "line_to_house": (
        lambda t: t + "object overhead_line { name ol; from n2; to h1; impedance 1+1j Ohm; }\n",
        "error: ol: BAD_ENDPOINT: 'h1' is not an electrical node"),
    "reversed_transformer": (
        lambda t: t.replace("from n1;\n    to tn1;", "from tn1;\n    to n1;"),
        "error: T1: BAD_ENDPOINT: transformer fed from its 'to' end 'n1': "
        "'from' must be the end nearer the source, not 'tn1'"),
    "reversed_line": (lambda t: t.replace("from n1;\n    to n2;", "from n2;\n    to n1;"), ""),
    "parallel_switch": (lambda t: t + "object switch { name par; from n1; to n2; }\n", _CYCLE),
    "tn1_tn2_cycle": (lambda t: t + "object switch { name loop; from tn1; to tn2; }\n", _CYCLE),
    "isolated_node": (lambda t: t + "object node { name island; }\n", _UNREACHED + "['island']"),
    "isolated_pair": (
        lambda t: t + "object node { name i1; }\nobject node { name i2; }\n"
        "object switch { name si; from i1; to i2; }\n",
        _UNREACHED + "['i1', 'i2']"),
    "two_swing": (
        lambda t: t.replace("name n2;", "name n2;\n    bustype SWING;", 1),
        "error: <network>: MULTI_SOURCE: 2 SWING nodes: ['n1', 'n2']"),
    "no_swing": (
        lambda t: t.replace("bustype SWING;", ""),
        "error: <network>: NO_SOURCE: no node with bustype SWING"),
    "unnamed_node": (
        lambda t: t + "object node { nominal_voltage 240 V; }\n",
        "error: <node@166>: MISSING_NAME: node object has no name"),
    "house_on_line": (
        lambda t: t.replace("name h1;\n    parent tm1;", "name h1;\n    parent UL1;"),
        "error: h1: BAD_PARENT: house parent must be a meter or node"),
    "house_on_itself": (
        lambda t: t.replace("name h1;\n    parent tm1;", "name h1;\n    parent h1;"),
        "error: h1: BAD_PARENT: house parent must be a meter or node"),
    "house_on_missing": (
        lambda t: t.replace("name h1;\n    parent tm1;", "name h1;\n    parent nowhere;"),
        "error: h1: DANGLING_REF: parent 'nowhere' does not resolve"),
    "zipload_on_zipload": (
        lambda t: t + "object zipload { name z2; parent z1; base_power 1 kW; }\n",
        "error: z2: BAD_PARENT: zipload parent must be a house or node"),
    "zipload_on_house_on_line": (
        lambda t: t + f"object house {{ name h5; parent UL1; {_HOUSE} }}\n"
        "object zipload { name z2; parent h5; base_power 1 kW; }\n",
        "error: h5: BAD_PARENT: house parent must be a meter or node"),
    "meter_on_house": (
        lambda t: t + "object triplex_meter { name tm5; parent h1; nominal_voltage 240 V; }\n",
        _UNREACHED + "['tm5']\nerror: tm5: BAD_PARENT: triplex_meter parent must be a node"),
    "meter_on_itself": (
        lambda t: t + "object triplex_meter { name tm5; parent tm5; nominal_voltage 240 V; }\n",
        _UNREACHED + "['tm5']"),
    "reached_meter_on_itself": (
        lambda t: t + "object triplex_meter { name tm5; parent tm5; nominal_voltage 240 V; }\n"
        "object switch { name s5; from tn1; to tm5; }\n",
        _CYCLE),
    "meter_parent_cycle": (
        lambda t: t + "object triplex_meter { name tm5; parent tm6; nominal_voltage 240 V; }\n"
        "object triplex_meter { name tm6; parent tm5; nominal_voltage 240 V; }\n",
        _UNREACHED + "['tm5', 'tm6']"),
    "duplicate_edge_names": (
        lambda t: t + "object node { name n3; }\nobject node { name n4; }\n"
        "object switch { name s; from n2; to n3; }\nobject switch { name s; from n3; to n4; }\n",
        _UNREACHED + "['n4']\nerror: s: DUPLICATE_NAME: object name is not unique"),
    "switch_without_to": (
        lambda t: t + "object switch { name st; from n2; }\n",
        "error: st: MISSING_PROPERTY: required property 'to' absent"),
    "no_nodes": (lambda t: _NO_NODES, "error: <network>: NO_SOURCE: no node with bustype SWING"),
    "attack_window_off_step": (
        lambda t: t + OFF_STEP_ATTACK, "error: a: BAD_WINDOW: attack window must start and end on a step"),
    # the repeat is reported once per repeat, and a dangling line once
    "attack_lines_repeated": (
        lambda t: t + 'attack { name a; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:20:00"; lines UL1,ghost,UL1,ghost; status OPEN; }\n',
        "error: a: BAD_PARAM: line 'UL1' is listed twice\n"
        "error: a: BAD_PARAM: line 'ghost' is listed twice\n"
        "error: a: DANGLING_REF: attacked line 'ghost' does not resolve"),
    # one diagnostic each, none dropped or doubled: the status entry on the
    # unresolved `ghost` is both dangling and undone as `cut` ends
    "faulty_blocks": (
        lambda t: t + 'attack { name cut; kind LINE_STATUS; start "2013-07-01 00:10:00"; '
        'end "2013-07-01 00:30:00"; lines ghost; status OPEN; }\n'
        'attack { name late; kind LINE_STATUS; start "2013-07-01 00:10:30"; '
        'end "2013-07-01 00:20:30"; lines UL1; status OPEN; }\n'
        'schedule { name s; entry "2013-07-01 00:20:00" ghost status OPEN; '
        'entry "2013-07-01 00:30:00" phantom deadband 3 degF; }\n'
        "recorder { name rg; target nowhere; property voltage_mag; interval 60 s; file rg.csv; }\n"
        "player { name pg; target nobody; property deadband; file pg.csv; }\n",
        "error: cut: DANGLING_REF: attacked line 'ghost' does not resolve\n"
        "error: late: BAD_WINDOW: attack window must start and end on a step\n"
        "error: pg: DANGLING_REF: player target 'nobody' does not resolve\n"
        "error: rg: DANGLING_REF: recorder target 'nowhere' does not resolve\n"
        "error: s: BAD_WINDOW: entry at 2013-07-01 00:20:00 on 'ghost' is undone as attack 'cut' ends\n"
        "error: s: DANGLING_REF: schedule target 'ghost' does not resolve\n"
        "error: s: DANGLING_REF: schedule target 'phantom' does not resolve"),
    "stop_at_start": (
        lambda t: t.replace('stop "2013-07-01 01:00:00";', 'stop "2013-07-01 00:00:00";'),
        "error: <clock>: BAD_CLOCK: start must precede stop"),
    "stop_off_step": (
        lambda t: t.replace('stop "2013-07-01 01:00:00";', 'stop "2013-07-01 00:59:30";'),
        "error: <clock>: BAD_CLOCK: timestep must divide the simulated window"),
    "controller_house_is_node": (
        lambda t: t + _CONTROLLER.format("n2", "A1"),
        "error: c1: BAD_REF: controller 'house' must reference a house"),
    "controller_market_is_node": (
        lambda t: t + _CONTROLLER.format("h1", "n2"),
        "error: c1: BAD_REF: controller 'market' must reference an auction"),
    "seller_market_is_node": (
        lambda t: t + "object generator_seller { name g2; market n2; price 0.1 $/kWh; capacity 5 kW; }\n",
        "error: g2: BAD_REF: seller 'market' must reference an auction"),
    "schedule_unsorted": (
        lambda t: t + 'schedule { name s; entry "2013-07-01 00:20:00" h1 deadband 3 degF; '
        'entry "2013-07-01 00:10:00" h1 deadband 2 degF; }\n',
        "error: s: BAD_SCHEDULE: entries must be sorted by time"),
    "player_on_hvac_rating": (
        lambda t: t + "player { name p; target h1; property hvac_rating; file p.csv; }\n",
        "error: p: UNKNOWN_PROPERTY: 'hvac_rating' is not settable on house"),
    "impedance_word": (
        lambda t: t.replace("impedance 0.5+1j Ohm;", "impedance high;"),
        "error: UL1: BAD_VALUE: property 'impedance' must be numeric"),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_pinned_topology_reports(small_text, case):
    edit, expected = PINNED_REPORTS[case]
    text = edit(small_text)
    assert text != small_text
    assert validate(parse_scenario(text)).serialize() == expected


@pytest.mark.parametrize("case", sorted(case for case, (_, expected) in PINNED_REPORTS.items() if expected))
def test_pinned_reports_exit_2_through_the_command_line(tmp_path, capsys, small_text, case):
    edit, expected = PINNED_REPORTS[case]
    scenario = tmp_path / "s.glm"
    scenario.write_text(edit(small_text))
    assert main(["validate", str(scenario)]) == 2
    reported = capsys.readouterr()
    assert reported.out.startswith(expected + "\n")
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    ran = capsys.readouterr()
    assert ran.err == expected + "\n"
    assert "Traceback" not in reported.out + reported.err + ran.out + ran.err
    assert not (tmp_path / "out").exists()


def test_unknown_topology_is_a_value_error(small_model):
    with pytest.raises(ValueError, match="unknown topology 'mesh'"):
        Engine(small_model, topology="mesh")


def test_solar_parent_rule(small_text):
    """Solar shares the appliances' rule: on a node, or on a house on one."""
    on_solar = small_text + "object solar { name s2; parent s1; rating 1 kW; }\n"
    assert validate(parse_scenario(on_solar)).serialize() == (
        "error: s2: BAD_PARENT: solar parent must be a house or node")
    on_house = parse_scenario(small_text + "object solar { name s2; parent h1; rating 1 kW; }\n")
    assert validate(on_house).errors == []
    assert build_network_index(on_house).attach_node["s2"] == "tm1"


def test_node_parent_is_not_a_link(small_text):
    text = small_text + "object node { name n9; parent tn1; nominal_voltage 240 V; }\n"
    report = validate(parse_scenario(text))
    assert "error: <network>: NOT_RADIAL: nodes not connected to the source: ['n9']" in report.serialize()
    assert "UNKNOWN_PROP" in {d.code for d in report.warnings}


@pytest.mark.parametrize("repeat, ok", [("90.5 s", False), ("120 s", True), ("0 s", False)])
def test_schedule_repeat_is_a_whole_number_of_steps(small_text, repeat, ok):
    text = small_text + f'schedule {{ name s; entry "2013-07-01 00:00:00" h2 deadband 3 degF; repeat {repeat}; }}\n'
    report = validate(parse_scenario(text))
    assert report.runnable is ok
    if not ok:
        assert report.serialize() == "error: s: BAD_SCHEDULE: repeat must be a positive multiple of timestep"


@pytest.mark.parametrize("time, ok", [("00:01:30", False), ("00:02:00", True), ("00:00:59", False)])
def test_schedule_entry_time_is_on_a_step(small_text, time, ok):
    text = small_text + f'schedule {{ name s; entry "2013-07-01 {time}" h2 deadband 3 degF; }}\n'
    report = validate(parse_scenario(text))
    assert report.runnable is ok
    if not ok:
        assert report.serialize() == "error: s: BAD_SCHEDULE: entry time must fall on a step"


@pytest.mark.parametrize("timestep, ok", [("3 h", True), ("4 h", False)])
def test_house_euler_step_takes_the_defaults(timestep, ok):
    # ua 550 and thermal_capacitance 2000 by default: the step may be at most 2000 / 550 h
    text = (
        f'clock {{ start "2013-07-01 00:00:00"; stop "2013-07-01 12:00:00"; timestep {timestep}; }}\n'
        "object node { name n1; bustype SWING; }\nobject house { name h; parent n1; }\n"
    )
    report = validate(parse_scenario(text))
    assert report.runnable is ok
    if not ok:
        assert report.serialize() == "error: h: BAD_RANGE: timestep (h) * ua / thermal_capacitance is 1.1, above 1"


_BEFORE = 'schedule { entry "2013-06-30 23:00:00" h1 cooling_setpoint 71 degF; }\n'
_BEFORE_NOTE = "warning: <clock>: OUT_OF_WINDOW: schedule event at 2013-06-30 23:00:00 for h1.cooling_setpoint dropped"
_AFTER = 'schedule { entry "2013-07-01 02:00:00" h2 deadband 3 degF;%s }\n'
_AFTER_NOTE = "warning: <clock>: OUT_OF_WINDOW: schedule event at 2013-07-01 02:00:00 for h2.deadband dropped"


@pytest.mark.parametrize(
    "extra, notes",
    [
        (_BEFORE, [_BEFORE_NOTE]),
        # an entry after the stop repeats only after it too
        (_AFTER % "", [_AFTER_NOTE]),
        (_AFTER % " repeat 60 s;", [_AFTER_NOTE]),
        # the repeats before the start are counted, however many: CI's year-early entry
        ('schedule { entry "2012-07-01 00:00:00" h2 deadband 3 degF; repeat 60 s; }\n', [
            "warning: <clock>: OUT_OF_WINDOW: schedule event at 2012-07-01 00:00:00 for h2.deadband "
            "and its repeats before 2013-07-01 00:00:00 dropped (525600 events)"
        ]),
        ('schedule { entry "2013-06-30 23:50:00" h2 deadband 3 degF; repeat 1200 s; }\n', [
            "warning: <clock>: OUT_OF_WINDOW: schedule event at 2013-06-30 23:50:00 for h2.deadband "
            "and its repeats before 2013-07-01 00:00:00 dropped (1 events)"
        ]),
        # the clock's start and stop are inside it
        ('schedule { entry "2013-07-01 00:00:00" h1 deadband 3 degF; '
         'entry "2013-07-01 01:00:00" h1 deadband 2 degF; }\n'
         'schedule { entry "2013-07-01 00:00:00" h2 deadband 3 degF; repeat 600 s; }\n'
         'schedule { entry "2013-07-01 01:00:00" h3 deadband 3 degF; repeat 600 s; }\n', []),
        # identical notes merge, as every diagnostic does
        (_BEFORE + _BEFORE, [_BEFORE_NOTE]),
    ],
    ids=["before", "after", "after-repeating", "year-early", "repeats-before", "at-start-and-stop", "merged"],
)
def test_out_of_window_notes(small_text, extra, notes):
    report = validate(parse_scenario(small_text + extra))
    assert report.runnable
    assert report.serialize().splitlines() == notes


def test_out_of_window_notes_sort_with_the_other_warnings(small_text):
    text = small_text.replace("cop 3;", "cop 3;\n    paint_color blue;", 1) + _BEFORE
    assert validate(parse_scenario(text)).serialize().splitlines() == [
        _BEFORE_NOTE, "warning: h1: UNKNOWN_PROP: property 'paint_color' not known for class house",
    ]


def test_an_unrunnable_scenario_lists_its_out_of_window_notes(small_text):
    report = validate(parse_scenario(small_text.replace("period 300 s;", "period 90 s;") + _BEFORE))
    assert codes(report) == {"BAD_PERIOD"}
    assert report.warnings == [Diagnostic(
        "<clock>", "OUT_OF_WINDOW", "schedule event at 2013-06-30 23:00:00 for h1.cooling_setpoint dropped"
    )]


# the UNRUNNABLE_EDITS cases that add an attack, and the attack days of
# tools/market_days.sh: the generated 30-house day under each attack kind
_ATTACK_EDITS = [
    case for case, (edit, _) in UNRUNNABLE_EDITS.items() if "attack {" in edit(load_fixture("feeder_small.glm"))
]
_ATTACK_DAYS = {
    f"attack{i}": 'attack { name a; start "2013-07-01 10:00:00"; end "2013-07-01 12:00:00"; %s }\n' % params
    for i, params in enumerate(
        ["kind SELLER_PRICE_OVERRIDE; fraction 0.2; price 0.5 $/kWh;", "kind BUYER_BID_SCALE; lambda 0.2;",
         "kind LINE_STATUS; lines trunk; status OPEN;"], start=1,
    )
}


@pytest.mark.parametrize("topology", ["auxiliary", "direct"])
@pytest.mark.parametrize("case", [*_ATTACK_EDITS, *_ATTACK_DAYS])
def test_removing_the_attacks_only_removes_errors(small_text, case, topology):
    """A study's baseline is its scenario without the attacks: every error
    of the baseline is one of the whole scenario's, so a runnable scenario
    has a runnable baseline."""
    text = UNRUNNABLE_EDITS[case][0](small_text) if case in UNRUNNABLE_EDITS else gen_feeder(30, 0) + _ATTACK_DAYS[case]
    model = parse_scenario(text)
    assert model.attacks
    errors = set(validate(model, topology).errors)
    assert set(validate(replace(model, attacks=[]), topology).errors) <= errors
    if case in _ATTACK_DAYS:  # each day runs under the auxiliary topology, and a line attack under both
        assert not errors or topology == "direct" and case != "attack3"
