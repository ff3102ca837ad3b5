"""Parser tests: golden fixture content, round-tripping, error positions,
a totality fuzz (any input either parses or raises ParseError), the
tokenizer against a character-at-a-time oracle, and the parser against
the earlier tuple-token parser on scenarios and mutations of them."""

import dataclasses
import functools
import importlib.util
import os
import sys
from datetime import datetime

import pytest
from conftest import load_fixture
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import parse_oracle, tokenize_oracle

from tesgrid.errors import ParseError
from tesgrid.feedergen import gen_feeder
from tesgrid.glm import _TIMESTAMP_RE, _position, _tokenize, parse_scenario, pretty_print
from tesgrid.model import (
    AttackConfig,
    ClockConfig,
    GridObject,
    PlayerConfig,
    RecorderConfig,
    Schedule,
    ScheduleEntry,
    ScenarioModel,
    Value,
    parse_time,
)


def test_fixture_object_inventory(small_text, small_model):
    # independent count straight off the text
    assert small_text.count("object ") == 20
    assert len(small_model.objects) == 20
    by_class = {}
    for obj in small_model.objects:
        by_class[obj.cls] = by_class.get(obj.cls, 0) + 1
    assert by_class == {
        "node": 2,
        "underground_line": 1,
        "transformer": 2,
        "triplex_node": 2,
        "triplex_meter": 4,
        "house": 4,
        "zipload": 1,
        "waterheater": 1,
        "solar": 1,
        "auction": 1,
        "generator_seller": 1,
    }
    names = small_model.by_name()
    assert set(names) == {
        "n1", "n2", "UL1", "T1", "tn1", "tm1", "tm2", "h1", "h2",
        "T2", "tn2", "tm3", "tm4", "h3", "h4", "z1", "w1", "s1", "A1", "g1",
    }


def test_clock_and_blocks(small_model):
    clock = small_model.clock
    assert clock.timestep == 60
    assert (clock.stop - clock.start).total_seconds() == 3600
    assert len(small_model.recorders) == 3
    rec = small_model.recorders[0]
    assert rec.target == "n1"
    assert rec.properties == ["total_load_kw", "total_hvac_kw", "source_power_kw", "losses_kw"]
    assert rec.interval == 60


def test_units_canonicalized(small_model):
    names = small_model.by_name()
    assert names["n1"].get("nominal_voltage") == 7200.0
    assert names["z1"].get("base_power") == 1.2  # kW canonical
    assert names["A1"].get("period") == 300.0
    line = names["UL1"]
    assert line.get("impedance") == complex(0.5, 1.0)


def test_unit_conversion_factors():
    text = """
    object zipload { name z; parent z; base_power 1500 W; }
    object node { name m; nominal_voltage 7.2 kV; }
    object auction { name a; period 5 min; }
    """
    model = parse_scenario(text)
    names = model.by_name()
    assert names["z"].get("base_power") == pytest.approx(1.5)
    assert names["m"].get("nominal_voltage") == pytest.approx(7200.0)
    assert names["a"].get("period") == pytest.approx(300.0)


def test_round_trip(small_model):
    text2 = pretty_print(small_model)
    model2 = parse_scenario(text2)
    assert len(model2.objects) == len(small_model.objects)
    for a, b in zip(small_model.objects, model2.objects):
        assert (a.cls, a.name) == (b.cls, b.name)
        assert {k: v.canonical() for k, v in a.properties.items()} == {
            k: v.canonical() for k, v in b.properties.items()
        }
    assert model2.clock == small_model.clock
    assert [r.properties for r in model2.recorders] == [r.properties for r in small_model.recorders]


def _without_lines(model):
    """`model` with every object's source line set to 0."""
    return dataclasses.replace(model, objects=[dataclasses.replace(obj, line=0) for obj in model.objects])


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(FINITE, FINITE, FINITE)
@example(0.1234567, 1e-7, 1e16)
@example(-0.0, -0.0, -0.0)
@example(1e16, 0.1234567, 1e-7)
@example(1e-7, 1e16, 0.1234567)
def test_pretty_print_round_trips_every_float(x, y, z):
    start = datetime(2013, 7, 1)
    m = ScenarioModel(
        clock=ClockConfig(start, datetime(2013, 7, 2), 60),
        objects=[
            GridObject("node", "n1", {
                "nominal_voltage": Value("NUMBER", x),
                "base_power": Value("NUMBER", y, "kW"),
            }),
            GridObject("overhead_line", "l1", {"impedance": Value("COMPLEX", complex(x, z), "Ohm")}),
            GridObject("overhead_line", "l2", {"impedance": Value("COMPLEX", complex(z, y))}),
        ],
        schedules=[Schedule("s", [ScheduleEntry(start, "n1", "base_power", Value("NUMBER", z, "W"))], repeat=y)],
        attacks=[
            AttackConfig("a", "SELLER_PRICE_OVERRIDE", start, start, fraction=x, params={"price": z}),
            AttackConfig("b", "BUYER_BID_SCALE", start, start, fraction=z, params={"lambda": y}),
            AttackConfig("c", "LINE_STATUS", start, start, fraction=y,
                         params={"lines": ["l1", "l2"], "status": "OPEN"}),
        ],
    )
    text = pretty_print(m)
    again = _without_lines(parse_scenario(text))
    assert again == m
    assert repr(again) == repr(m)  # signed zeros too
    assert pretty_print(again) == text


def _readme_attack_example():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    after = readme[readme.index("An attack block looks like:"):]
    return after.split("```")[1]


ROUND_TRIP_SCENARIOS = {
    "feeder_small": lambda: load_fixture("feeder_small.glm"),
    "two_bus_overload": lambda: load_fixture("two_bus_overload.glm"),
    "gen_feeder_30_0": lambda: gen_feeder(30, 0),
    "gen_feeder_300_2": lambda: gen_feeder(300, 2),
    "readme_attack": _readme_attack_example,
    # names that an unquoted name, target or file misreads: a blank, a `;`
    # and a number each printed text that failed to parse or read back as
    # another name
    "object_name_with_blank": lambda: 'object node { name "a b"; }',
    "object_name_with_semicolon": lambda: 'object node { name "x;y"; }',
    "object_name_is_a_number": lambda: 'object node { name "123"; }',
    "attack_name_with_blank": lambda: (
        'attack { name "a b"; kind BUYER_BID_SCALE; start "2013-07-01 10:00:00"; '
        'end "2013-07-01 12:00:00"; lambda 0.2; }'),
    "entry_target_with_blank": lambda: (
        'schedule { name s; entry "2013-07-01 10:00:00" "h 1" cooling_setpoint 78 degF; }'),
    "recorder_target_with_blank": lambda: (
        'recorder { name r; target "m 1"; property voltage_mag; interval 60 s; file m.csv; }'),
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP_SCENARIOS))
def test_pretty_print_round_trips_parsed_scenarios(case):
    model = _without_lines(parse_scenario(ROUND_TRIP_SCENARIOS[case]()))
    text = pretty_print(model)
    again = _without_lines(parse_scenario(text))
    assert again == model
    assert pretty_print(again) == text


def _reads_as_text(text):
    """False for timestamp-shaped text that names no date: no parsed name is that."""
    if not _TIMESTAMP_RE.match(text):
        return True
    try:
        parse_time(text)
    except ValueError:
        return False
    return True


# any text a string token can hold, and the shapes that an atom would split or misread
NAMES = st.one_of(
    st.text(st.characters(exclude_characters='"\n'), max_size=12),
    st.sampled_from([
        "", " ", "a b", "\t\r", ";", "x;y", ",", "a,b", "//", "a // b", "{", "}", "123", "-1.5e3", "1+2j", "5 kW",
        "2013-07-01 00:00:00", "0999-07-01 00:00:00",
    ]),
).filter(_reads_as_text)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pretty_print_round_trips_any_names(data):
    def name():
        return data.draw(NAMES)

    def names():
        return data.draw(st.lists(NAMES, min_size=1, max_size=3))

    start = datetime(2013, 7, 1)
    m = ScenarioModel(
        clock=ClockConfig(start, datetime(2013, 7, 2), 60),
        objects=[
            GridObject("node", name(), {"nominal_voltage": Value("NUMBER", 240.0, "V")}),
            GridObject("triplex_meter", name(), {"parent": Value("REF", "n1")}),
            GridObject("node", None, {}),
        ],
        schedules=[Schedule(name(), [
            ScheduleEntry(start, name(), name(), Value("NUMBER", 78.0, "degF")),
            ScheduleEntry(start, name(), name(), Value("REF", "OPEN")),
        ], repeat=3600.0)],
        attacks=[
            AttackConfig(name(), "SELLER_PRICE_OVERRIDE", start, start, fraction=0.5, params={"price": 0.5}),
            AttackConfig(name(), "BUYER_BID_SCALE", start, start, seed=3, params={"lambda": 0.2}),
            AttackConfig(name(), "LINE_STATUS", start, start, params={"lines": names(), "status": "CLOSED"}),
        ],
        recorders=[RecorderConfig(name(), name(), names(), 300, name())],
        players=[PlayerConfig(name(), name(), name(), name())],
        weather_source=name(),
    )
    text = pretty_print(m)
    again = _without_lines(parse_scenario(text))
    assert again == m
    assert pretty_print(again) == text


def test_attack_block_parses():
    model = parse_scenario(
        """
        attack {
            name a1;
            kind SELLER_PRICE_OVERRIDE;
            start "2013-07-01 10:00:00";
            end "2013-07-01 12:00:00";
            fraction 0.2;
            seed 42;
            price 0.63 $/kWh;
        }
        attack {
            kind LINE_STATUS;
            start "2013-07-01 10:00:00";
            end "2013-07-01 11:00:00";
            lines UL1,UL2;
            status OPEN;
        }
        """
    )
    a1, a2 = model.attacks
    assert (a1.kind, a1.fraction, a1.seed, a1.params) == ("SELLER_PRICE_OVERRIDE", 0.2, 42, {"price": 0.63})
    assert a2.params == {"lines": ["UL1", "UL2"], "status": "OPEN"}


def test_schedule_with_repeat():
    model = parse_scenario(
        """
        schedule {
            name s1;
            entry "2013-07-01 00:10:00" h1 cooling_setpoint 78 degF;
            entry "2013-07-01 00:20:00" h1 cooling_setpoint 74 degF;
            repeat 3600 s;
        }
        """
    )
    sched = model.schedules[0]
    assert sched.repeat == 3600
    assert len(sched.entries) == 2
    assert sched.entries[0].prop == "cooling_setpoint"
    assert sched.entries[0].value.canonical() == 78.0


_ATTACK = 'attack {{ kind {}; start "2013-07-01 00:10:00"; end "2013-07-01 00:20:00"; {} }}'
_CLOCK = 'clock {{ start "2013-07-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep {}; }}'


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("object widget { name w; }", "unknown class"),
        ("object inverter { name i; parent n1; }", "unknown class"),  # parsed but never simulated
        ("object attack { name a; active true; }", "unknown class"),  # a pseudo-class, not an object
        ("object node { name n; name m; }", "duplicate property"),
        ("object node { name n; nominal_voltage 7200 Volts; }", "unknown unit"),
        ('weather { file "unterminated; }', "unterminated string"),
        ("object node { name n; ", "unexpected end of input"),
        ("clock { start \"2013-07-01 00:00:00\"; stop \"2013-07-01 01:00:00\"; }", "missing 'timestep'"),
        ("attack { kind BAD_KIND; start \"2013-07-01 00:00:00\"; end \"2013-07-01 01:00:00\"; }", "unknown attack kind"),
        # a misspelt or foreign field was dropped: `fraction` then defaulted to 1
        (_ATTACK.format("SELLER_PRICE_OVERRIDE", "fracton 0.2; sed 7; price 0.5 $/kWh;"),
         "unknown attack field 'fracton'"),
        (_ATTACK.format("LINE_STATUS", "lines UL1; status OPEN; price 0.5 $/kWh;"), "unknown attack field 'price'"),
        # a unit of another class was converted as if it were the right one
        (_ATTACK.format("SELLER_PRICE_OVERRIDE", "price 0.5 kW;"), "'price' has unit kW, expected PRICE"),
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2 degF;"), "'lambda' has unit degF, expected number"),
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2; fraction 0.5 kW;"), "'fraction' has unit kW, expected number"),
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2; seed 7 s;"), "'seed' has unit s, expected number"),
        # a fraction was cut to a whole seed, and a negative one drew as its absolute value
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2; seed 0.999;"), "seed must be a nonnegative whole number"),
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2; seed 1.5;"), "seed must be a nonnegative whole number"),
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2; seed -2;"), "seed must be a nonnegative whole number"),
        # a unit of another class was dropped and the number run as seconds
        ('clock { start "2013-07-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep 60 kW; }',
         "'timestep' has unit kW, expected TIME"),
        ("recorder { target n1; property voltage_mag; interval 300 degF; file r.csv; }",
         "'interval' has unit degF, expected TIME"),
        ('schedule { entry "2013-07-01 00:10:00" h1 deadband 3 degF; repeat 3600 kW; }',
         "'repeat' has unit kW, expected TIME"),
        # a misspelt field was dropped
        ("recorder { target n1; property voltage_mag; intervall 300 s; nonsense 7; interval 300 s; file r.csv; }",
         "unknown recorder field 'intervall'"),
        ('clock { start "2013-07-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep 60 s; tiemstep 5 s; }',
         "unknown clock field 'tiemstep'"),
        ("player { target z1; property base_power; file z.csv; fiel y.csv; }", "unknown player field 'fiel'"),
        ("weather { file w.csv; name w; }", "unknown weather field 'name'"),
        ("frobnicate { }", "unknown block"),
        ("object node { name n; nominal_voltage 1e999 V; }", "not a finite number"),
        ("object node { name n; nominal_voltage 1e307 kV; }", "not a finite number"),  # inf once scaled
        # int(inf) raised OverflowError from the parser before the finiteness check
        ('clock { start "2013-07-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep 1e999 s; }',
         "not a finite number"),
        pytest.param(
            "object overhead_line { name l; impedance 0.5+" + "9" * 400 + "j Ohm; }", "not a finite number",
            id="complex_overflow",
        ),
        # timestamp-shaped, so strptime raised ValueError out of the parser
        ('clock { start "2013-13-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep 60 s; }',
         "no such date '2013-13-01 00:00:00'"),
        ('schedule { entry "2013-02-30 00:10:00" h1 cooling_setpoint 78 degF; }', "no such date"),
        ("attack { kind LINE_STATUS; start 2013-07-01 24:00:00; }", "no such date '2013-07-01 24:00:00'"),
        # digits are ASCII only: Arabic-Indic ones made a date and a number
        ('clock { start "\u0662\u0660\u0661\u0663-07-01 00:00:00"; }', "expected timestamp"),
        ('clock { start "2013-07-01 00:00:00"; stop "2013-07-01 01:00:00"; timestep \u0666\u0660 s; }',
         "is not a number"),
        ("object node { name n; nominal_voltage \uff17\uff12\uff10\uff10 V; }", "is not a number"),
        ("object overhead_line { name l; impedance 0.5+\u0661j Ohm; }", "is not a number"),
        # each placed at its line:column: an end of input at the last token, a
        # bad field value at the value, an unknown attack field at its name, an entry at its own
        ("object", "1:1: unexpected end of input"),
        ("object node", "1:8: unexpected end of input"),
        ("object node x", "1:13: expected '{', got 'x'"),
        ("object node { ; }", "1:15: expected property name, got ';'"),
        (_CLOCK.format("60 s") + "\n" + _CLOCK.format("60 s"), "2:1: duplicate clock block"),
        (_CLOCK.format("0 s"), "1:75: timestep must be a positive whole number of seconds"),
        (_CLOCK.format("1.5 s"), "1:75: timestep must be a positive whole number of seconds"),
        (_CLOCK.format("fast"), "1:75: expected a number"),
        ('clock {\n  start "2013-07-01 00:00:00";\n  stop 5;\n  timestep 60 s;\n}',
         "3:8: expected timestamp 'YYYY-MM-DD HH:MM:SS'"),
        ('schedule {\n  entry "2013-07-01 00:10:00" h1;\n}', '2:3: entry needs: "time" target property value'),
        ('schedule { entry "2013-07-01 00:10:00" h1 deadband 3 degF; repeat 3600 kW; }',
         "1:67: 'repeat' has unit kW, expected TIME"),
        (_ATTACK.format("LINE_STATUS", "lines UL1; status AJAR;"), "1:102: bad line status 'AJAR'"),
        ('attack {\n  kind LINE_STATUS;\n  start "2013-07-01 00:10:00";\n  end "2013-07-01 00:20:00";\n'
         "  lines UL1;\n  status AJAR;\n}", "6:10: bad line status 'AJAR'"),
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2; fraction 0.5 kW;"), "1:107: 'fraction' has unit kW, expected number"),
        (_ATTACK.format("BUYER_BID_SCALE", "lambda 2; seed 1.5;"), "1:103: seed must be a nonnegative whole number"),
        (_ATTACK.format("SELLER_PRICE_OVERRIDE", "price 0.5 kW;"), "1:100: 'price' has unit kW, expected PRICE"),
        (_ATTACK.format("SELLER_PRICE_OVERRIDE", "fracton 0.2; price 0.5 $/kWh;"), "1:94: unknown attack field 'fracton'"),
        ('attack { kind BAD_KIND; start "2013-07-01 00:00:00"; end "2013-07-01 01:00:00"; }',
         "1:15: unknown attack kind 'BAD_KIND'"),
        ("recorder { target n1; property voltage_mag; interval 60.5 s; file r.csv; }",
         "1:54: interval must be a whole number of seconds"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_scenario("object node {\n  name n;\n  name m;\n}")
    assert err.value.line == 3


def test_no_such_date_is_placed_at_the_value():
    with pytest.raises(ParseError) as err:
        parse_scenario('clock {\n  start "2013-13-01 00:00:00";\n}')
    assert (err.value.line, err.value.column) == (2, 9)


def test_time_fields_take_time_units_or_seconds():
    model = parse_scenario(
        'clock { start "2013-07-01 00:00:00"; stop "2013-07-02 00:00:00"; timestep 1 min; }\n'
        "recorder { target n1; property voltage_mag; interval 300; file r.csv; }\n"
        'schedule { entry "2013-07-01 00:10:00" h1 deadband 3 degF; repeat 1 h; }\n'
    )
    assert (model.clock.timestep, model.recorders[0].interval, model.schedules[0].repeat) == (60, 300, 3600.0)


def test_fractional_repeat_is_kept_as_written():
    model = parse_scenario('schedule { entry "2013-07-01 00:10:00" h1 deadband 3 degF; repeat 90.5 s; }')
    assert model.schedules[0].repeat == 90.5


def test_comments_ignored():
    model = parse_scenario("// leading comment\nobject node { name n; } // trailing\n")
    assert model.objects[0].name == "n"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
def test_parser_totality(text):
    """Arbitrary input either parses or raises ParseError — nothing else."""
    try:
        parse_scenario(text)
    except ParseError:
        pass


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                "object node { name n%d; }",
                "object house { name h%d; parent n0; }",
                "recorder { name r%d; target n0; property voltage_mag; interval 60 s; file f%d.csv; }",
            ]
        ),
        max_size=6,
    )
)
def test_parser_totality_structured(templates):
    text = "\n".join(t.replace("%d", str(i)) for i, t in enumerate(templates))
    model = parse_scenario(text)
    assert len(model.objects) + len(model.recorders) == len(templates)


def test_value_canonical_passthrough():
    assert Value("STRING", "abc").canonical() == "abc"
    assert Value("NUMBER", 2.0, "kW").canonical() == 2.0
    assert Value("NUMBER", 2.0, "MW").canonical() == 2000.0


def _positioned_tokens(text):
    """`_tokenize`'s tokens as `(kind, text, line, col)`, each placed by `_position`."""
    lines = text.split("\n")
    tokens, starts = _tokenize(lines)
    out = []
    for i, tok in enumerate(tokens):
        if tok[0] == '"':
            kind, tok = "string", tok[1:-1]
        else:
            kind = tok if tok in ("{", "}", ";", ",") else "atom"
        out.append((kind, tok, *_position(lines, starts, i)))
    return out


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return err.message, err.line, err.column


# scenario pieces, plus the characters where a tokenizer's idea of a blank,
# a line end, a comment or a string can part from the oracle's
_LEXICAL_PIECES = [
    "object", "node", "name n1", "{", "}", ";", ",", " ", "\n", "7200 V", "0.5+1j Ohm", "$/kWh",
    '"2013-07-01 00:00:00"', "a/b", "// note", '"', "/", "//", "\r", "\t", "\x0b", "\x0c", "\x1c",
    "\x85", "\xa0", "\u2028", "\u3000",
]


_LEXICAL_TEXT = st.lists(st.sampled_from(_LEXICAL_PIECES), max_size=30).map("".join)


def _lines_from(pool, picks):
    """Lines of `pool` in the order `picks` names them, so most lines repeat."""
    return "\n".join(pool[i % len(pool)] for i in picks)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _LEXICAL_TEXT,
        st.builds(
            _lines_from, st.lists(_LEXICAL_TEXT, min_size=1, max_size=4), st.lists(st.integers(0, 3), max_size=12)
        ),
    )
)
def test_tokenizer_matches_oracle(text):
    """Same (kind, text, line, col) tokens, or the same ParseError at the same place,
    also where lines repeat and a line's tokens are read once."""
    assert _tokens_or_error(_positioned_tokens, text) == _tokens_or_error(tokenize_oracle, text)


def _load_bench_scenarios():
    """The benchmark's input generator, `bench/scenarios.py`."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "scenarios.py")
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up while the class is made
    spec.loader.exec_module(module)
    return module


_BENCH = _load_bench_scenarios()

# every text the parser tests run on whole: the fixtures, the generated
# feeders and the benchmark's three workloads at seeds 0-3
_SCENARIOS = {
    "gen30": lambda: gen_feeder(30, 0),
    "gen300": lambda: gen_feeder(300, 2),
    "feeder_small": lambda: load_fixture("feeder_small.glm"),
    "two_bus_overload": lambda: load_fixture("two_bus_overload.glm"),
    **{
        f"{name}-seed{seed}": functools.partial(workload.scenario, seed)
        for name, workload in _BENCH.WORKLOADS.items()
        for seed in range(4)
    },
}


@functools.cache
def _scenario(name):
    return _SCENARIOS[name]()


@pytest.mark.parametrize("name", ["gen30", "gen300", "feeder_small", "two_bus_overload"])
def test_tokenizer_matches_oracle_on_scenarios(name):
    text = _scenario(name)
    tokens = _tokens_or_error(_positioned_tokens, text)
    assert isinstance(tokens, list) and tokens
    assert tokens == tokenize_oracle(text)


def _parse_outcome(parse, text):
    """The model `parse` gives for `text`, or its error's message, line and column."""
    try:
        return parse(text)
    except ParseError as err:
        return err.message, err.line, err.column


def _assert_parses_as_oracle(text):
    got, want = _parse_outcome(parse_scenario, text), _parse_outcome(parse_oracle, text)
    assert got == want
    assert repr(got) == repr(want)  # property order and signed zeros too
    return got


@pytest.mark.parametrize("name", list(_SCENARIOS))
def test_parser_matches_oracle_on_scenarios(name):
    assert isinstance(_assert_parses_as_oracle(_scenario(name)), ScenarioModel)


# the characters that end, open or split a statement, a string or a line
_MUTATION_PIECES = ["", " ", "\n", '"', "{", "}", ";", ",", "//", "x"]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(list(_SCENARIOS)),
    st.lists(
        st.tuples(st.floats(0.0, 1.0), st.sampled_from(_MUTATION_PIECES), st.integers(0, 2)),
        min_size=1,
        max_size=3,
    ),
)
def test_parser_matches_oracle_on_mutations(name, edits):
    """At a fraction of the text, replace up to two characters with a piece."""
    text = _scenario(name)
    for where, piece, cut in edits:
        at = int(where * len(text))
        text = text[:at] + piece + text[at + cut:]
    _assert_parses_as_oracle(text)


def test_memo_keeps_a_string_apart_from_a_word():
    model = _assert_parses_as_oracle(
        'object node { name a; bustype "x"; }\n'
        "object node { name b; bustype x; }\n"
        'object node { name c; bustype "x"; }\n'
    )
    assert [obj.properties["bustype"] for obj in model.objects] == [
        Value("STRING", "x"), Value("REF", "x"), Value("STRING", "x")
    ]


@pytest.mark.parametrize(
    "text, error",
    [
        ("object node { name a; nominal_voltage 240 V; }\nobject node { name b; nominal_voltage 240 V V; }",
         ("malformed value", 2, 39)),
        ("object node { name a; nominal_voltage 240 V; }\nobject node { name b; nominal_voltage 240 Volts; }",
         ("unknown unit 'Volts'", 2, 43)),
        ("object node { name a; nominal_voltage 240 V; }\nobject node { name b; nominal_voltage 240 V {",
         ("unexpected '{' in value", 2, 45)),
        ("object node { name a; nominal_voltage 240 V; }\nobject node { name b; nominal_voltage 240 V",
         ("unexpected end of input", 2, 43)),
        ("object node { name a; nominal_voltage 240 V V; }\nobject node { name b; nominal_voltage 240 V V; }",
         ("malformed value", 1, 39)),
        ("object node { name a; tags a,b; }\nobject node { name b; tags a,,b; }", ("empty list item", 2, 30)),
        ("object node { name a; tags a,b; }\nobject node { name b; tags a,b,; }", ("trailing comma in list", 2, 31)),
        # the line memo: a bad line is reported at its first copy, a good one is placed at each
        ('object node { name a; }\nobject node { name "b; }\nobject node { name "b; }',
         ("unterminated string", 2, 20)),
        ("object node {\n  name a;\n  name a;\n}", ("duplicate property 'name'", 3, 3)),
    ],
    ids=[
        "extra_unit", "unknown_unit", "brace", "end_of_input", "bad_twice", "empty_item", "trailing_comma",
        "unterminated_line_twice", "duplicate_on_repeated_line",
    ],
)
def test_memo_places_each_error_at_its_own_token(text, error):
    """A value or line that was read once is no excuse later: each error is where it is."""
    assert _assert_parses_as_oracle(text) == error
