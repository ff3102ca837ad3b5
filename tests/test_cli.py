"""End-to-end CLI tests: exit codes, output files, and the feeder generator."""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta

import pytest
from conftest import UNRUNNABLE_EDITS, UNRUNNABLE_INPUTS, fixture_path
from hypothesis import given, settings
from hypothesis import strategies as st

from tesgrid.cli import main
from tesgrid.feedergen import gen_feeder, gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.model import format_time
from tesgrid.validate import validate


def test_run_success(tmp_path, capsys):
    scenario = tmp_path / "feeder_small.glm"
    shutil.copy(fixture_path("feeder_small.glm"), scenario)
    out = tmp_path / "out"
    code = main(["run", str(scenario), "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["audit.csv", "src.csv", "summary.txt", "tm3.csv", "ul1.csv"]
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == 5
    with open(out / "summary.txt") as fh:
        summary = fh.read()
    assert "complete 1" in summary


def test_python_m_tesgrid(tmp_path):
    """`python -m tesgrid` is the `tesgrid` command, with its exit codes."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.normpath(src)}
    ok = subprocess.run([sys.executable, "-m", "tesgrid", "validate", fixture_path("feeder_small.glm")],
                        capture_output=True, text=True, env=env)
    assert (ok.returncode, ok.stdout) == (0, "runnable: 0 error(s), 0 warning(s)\n")
    bad = tmp_path / "bad.glm"
    bad.write_text("object node { name n; }\n")
    rejected = subprocess.run([sys.executable, "-m", "tesgrid", "validate", str(bad)],
                              capture_output=True, text=True, env=env)
    assert rejected.returncode == 2


def test_run_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.glm"
    bad.write_text("object node { name n; }\n")  # no clock, no SWING
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "NO_CLOCK" in capsys.readouterr().err


def _exit_code(argv):
    """`main`'s exit status, also when it exits by `SystemExit`, as on a parse error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_run_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.glm"
    bad.write_text("object widget { }\n")
    assert _exit_code(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "unknown class" in capsys.readouterr().err


def test_run_missing_player_file_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        text = fh.read()
    scenario.write_text(
        text + "player { name p; target z1; property base_power; file missing.csv; }\n"
    )
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert f"error: missing.csv: BAD_FILE: cannot read {tmp_path / 'missing.csv'}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_both_commands_report_events_outside_the_clock(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        text = fh.read()
    early = 'schedule { entry "2013-06-30 23:00:00" h1 cooling_setpoint 71 degF; }\n'
    early_line = "warning: <clock>: OUT_OF_WINDOW: schedule event at 2013-06-30 23:00:00 for h1.cooling_setpoint dropped"
    # an entry after the stop is dropped with the same note whether it repeats or not
    late = 'schedule { entry "2013-07-01 02:00:00" h2 deadband 3 degF;%s }\n'
    late_line = "warning: <clock>: OUT_OF_WINDOW: schedule event at 2013-07-01 02:00:00 for h2.deadband dropped"
    cases = [(early, early_line), (late % "", late_line), (late % " repeat 60 s;", late_line)]
    for i, (schedule, line) in enumerate(cases):
        scenario.write_text(text + schedule)
        assert main(["validate", str(scenario)]) == 0
        assert capsys.readouterr().out.splitlines() == [line, "runnable: 0 error(s), 1 warning(s)"]
        assert main(["run", str(scenario), "--out", str(tmp_path / f"out{i}")]) == 0
        assert capsys.readouterr().err.splitlines() == [line]


def test_run_divergence_is_runtime_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", fixture_path("two_bus_overload.glm"), "--out", str(out)]) == 3
    assert "aborted" in capsys.readouterr().err
    summary = (out / "summary.txt").read_text().splitlines()
    assert "divergence_time 2013-07-01 00:05:00" in summary
    assert "divergence_node b" in summary


# Single-number edits of feeder_small.glm that validate clean and used to run
# to exit 0 with `nan` or `inf` cells: the power flow took a NaN voltage step
# for a converged one.  A state that is not finite is now a divergence.  (The
# transformer ratio, nominal voltage and load edits that did the same are now
# rejected by `validate`: see UNRUNNABLE_EDITS.)
NON_FINITE_EDITS = {
    "line_impedance_1e308j": lambda t: t.replace("impedance 0.5+1j Ohm;", "impedance 0.5+1e308j Ohm;"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_EDITS))
def test_non_finite_sweep_is_a_divergence(tmp_path, capsys, case):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        text = fh.read()
    scenario.write_text(NON_FINITE_EDITS[case](text))
    assert scenario.read_text() != text
    assert _exit_code(["validate", str(scenario)]) == 0
    out = tmp_path / "out"
    assert _exit_code(["run", str(scenario), "--out", str(out)]) == 3
    summary = (out / "summary.txt").read_text()
    assert "complete 0" in summary and "incomplete_reason solver_divergence" in summary
    assert "divergence_node" in summary
    for name in os.listdir(out):
        assert not re.search(r"\b(nan|inf)\b", (out / name).read_text()), name
    assert "Traceback" not in capsys.readouterr().err


def test_validate_ok(capsys):
    assert main(["validate", fixture_path("feeder_small.glm")]) == 0
    assert "runnable" in capsys.readouterr().out


def test_validate_failure(tmp_path, capsys):
    bad = tmp_path / "bad.glm"
    bad.write_text("object node { name n; }\n")
    assert main(["validate", str(bad)]) == 2
    assert "not runnable" in capsys.readouterr().out


MARKET_ATTACK = (
    'attack { name a; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:10:00"; end "2013-07-01 00:20:00"; '
    "price 0.5 $/kWh; }\n"
)


def test_validate_checks_the_topology_run_is_given(tmp_path, capsys):
    """A market attack needs the auxiliary market: `validate --topology
    direct` rejects it as `run --topology direct` does, and the default passes it."""
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read() + MARKET_ATTACK)
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert _exit_code(command + [str(scenario), "--topology", "direct"]) == 2
        captured = capsys.readouterr()
        assert "error: a: BAD_TOPOLOGY: " in captured.out + captured.err
        assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()
    assert _exit_code(["validate", str(scenario)]) == 0
    assert _exit_code(["validate", str(scenario), "--topology", "auxiliary"]) == 0
    assert capsys.readouterr().out.splitlines() == ["runnable: 0 error(s), 0 warning(s)"] * 2


def test_gen_feeder_writes_valid_scenario(tmp_path, capsys):
    out = tmp_path / "feeder"
    assert main(["gen-feeder", "--houses", "10", "--seed", "1", "--out", str(out)]) == 0
    with open(out / "feeder.glm") as fh:
        model = parse_scenario(fh.read())
    assert validate(model).runnable
    assert len(model.of_class("house")) == 10
    assert len(model.of_class("generator_seller")) == 50
    assert os.path.exists(out / "weather.csv")


def test_gen_feeder_deterministic():
    assert gen_feeder(30, 0) == gen_feeder(30, 0)
    assert gen_feeder(30, 0) != gen_feeder(30, 1)
    assert gen_weather() == gen_weather()


def test_generated_feeder_end_to_end(tmp_path):
    out = tmp_path / "feeder"
    main(["gen-feeder", "--houses", "5", "--seed", "2", "--out", str(out)])
    run_out = tmp_path / "run"
    assert main(["run", str(out / "feeder.glm"), "--out", str(run_out)]) == 0
    assert os.path.exists(run_out / "market.csv")
    assert os.path.exists(run_out / "feeder.csv")


@pytest.mark.parametrize("case", sorted(UNRUNNABLE_EDITS))
def test_run_rejects_unrunnable_values(tmp_path, capsys, case):
    edit, code = UNRUNNABLE_EDITS[case]
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(edit(fh.read()))
    (tmp_path / "status.csv").write_text("time,value\n2013-07-01 00:00:00,1\n")
    assert _exit_code(["validate", str(scenario)]) == 2
    reported = capsys.readouterr()
    assert code in reported.out + reported.err
    assert _exit_code(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert code in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(UNRUNNABLE_INPUTS))
def test_unusable_inputs_exit_2_through_validate_and_run(tmp_path, capsys, case):
    edit, files, code, topology = UNRUNNABLE_INPUTS[case]
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(edit(fh.read()))
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    validated = _exit_code(["validate", str(scenario)])
    reported = capsys.readouterr()
    if topology == "auxiliary":
        assert validated == 2 and code in reported.out
    else:  # `tesgrid validate` compiles under the default topology, where this scenario runs
        assert validated == 0
        assert code in {d.code for d in validate(parse_scenario(scenario.read_text()), topology).errors}
    out = tmp_path / "out"
    assert _exit_code(["run", str(scenario), "--out", str(out), "--topology", topology]) == 2
    err = capsys.readouterr().err
    assert code in err
    assert "Traceback" not in reported.err + err
    assert not out.exists()


# a deadband player value, as a player file spells it: in range, out of it, or not a number
_DEADBAND_TEXT = st.one_of(
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["0", "-0.0", "1e308", "-500", "nan", "inf", "-inf", "1e999", "warm", ""]),
)


@settings(max_examples=25, deadline=None)
@given(first=st.sampled_from([-60, 0, 60]), values=st.lists(_DEADBAND_TEXT, min_size=1, max_size=3))
def test_validate_and_run_agree_on_drawn_player_files(first, values):
    """`tesgrid validate` rejects exactly the player files `tesgrid run`
    rejects, and a run it accepts writes only finite numbers."""
    with tempfile.TemporaryDirectory() as work:
        scenario = os.path.join(work, "s.glm")
        with open(fixture_path("feeder_small.glm")) as fh, open(scenario, "w") as out:
            out.write(fh.read() + "player { name p; target h1; property deadband; file p.csv; }\n")
        start = datetime(2013, 7, 1) + timedelta(seconds=first)
        rows = "".join(f"{format_time(start + timedelta(minutes=10 * k))},{v}\n" for k, v in enumerate(values))
        with open(os.path.join(work, "p.csv"), "w") as fh:
            fh.write("time,value\n" + rows)
        out_dir = os.path.join(work, "out")
        validated = _exit_code(["validate", scenario])
        ran = _exit_code(["run", scenario, "--out", out_dir])
        assert ran in (0, 2)
        assert (validated == 2) == (ran == 2)
        if ran == 0:
            with open(os.path.join(out_dir, "summary.txt")) as fh:
                assert "complete 1" in fh.read().splitlines()
            for name in os.listdir(out_dir):
                with open(os.path.join(out_dir, name)) as fh:
                    assert not re.search(r"\b(nan|inf)\b", fh.read()), name


# an object named like an attack's switch, recorded, beside that attack
ATTACK_SWITCH_NAMESAKE = (
    "object triplex_meter { name attack:a; parent tn1; nominal_voltage 240 V; }\n"
    "recorder { name rx; target attack:a; property voltage_mag; interval 60 s; file rx.csv; }\n"
    'attack { name a; kind SELLER_PRICE_OVERRIDE; start "2013-07-01 00:10:00"; end "2013-07-01 00:20:00"; '
    "price 0.5 $/kWh; }\n"
)


def test_object_named_like_an_attack_switch_runs(tmp_path, capsys):
    """The switch of attack `a` is its transform, not a scenario object, so
    an object named `attack:a` keeps its class and its recorder."""
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read() + ATTACK_SWITCH_NAMESAKE)
    assert _exit_code(["validate", str(scenario)]) == 0
    out = tmp_path / "out"
    assert _exit_code(["run", str(scenario), "--out", str(out)]) == 0
    assert "complete 1" in (out / "summary.txt").read_text().splitlines()
    rx = (out / "rx.csv").read_text().splitlines()
    assert rx[0] == "time,voltage_mag,flags" and len(rx) == 62
    audit = (out / "audit.csv").read_text().splitlines()
    assert [line for line in audit if ",attack:a," in line] == [
        "2013-07-01 00:10:00,attack:a,active,0,1,attack",
        "2013-07-01 00:20:00,attack:a,active,1,0,attack",
    ]
    assert "Traceback" not in capsys.readouterr().err


def test_run_rejects_out_of_range_player_value(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read() + "player { name p; target h1; property deadband; file db.csv; }\n")
    (tmp_path / "db.csv").write_text("time,value\n2013-07-01 00:00:00,2\n2013-07-01 00:30:00,-1\n")
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "deadband must be positive" in capsys.readouterr().err


def test_run_rejects_non_finite_player_value(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read() + "player { name p; target h1; property cooling_setpoint; file cs.csv; }\n")
    (tmp_path / "cs.csv").write_text("time,value\n2013-07-01 00:00:00,75\n2013-07-01 00:20:00,nan\n")
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "error: cs.csv: BAD_FILE: row 2: 'nan' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_non_finite_weather_value(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read() + "weather { file w.csv; }\n")
    (tmp_path / "w.csv").write_text(
        "time,temperature_degF,irradiance_fraction\n2013-07-01 00:00:00,nan,0.5\n"
    )
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "error: w.csv: BAD_FILE: row 1: 'nan' is not a finite number" in capsys.readouterr().err


def test_run_rejects_irradiance_above_one(tmp_path, capsys):
    out = tmp_path / "feeder"
    assert main(["gen-feeder", "--houses", "2", "--out", str(out)]) == 0
    weather = out / "weather.csv"
    text = weather.read_text()
    assert text.count(",1.0000\n") == 1  # noon
    weather.write_text(text.replace(",1.0000\n", ",1.5\n"))
    assert main(["run", str(out / "feeder.glm"), "--out", str(tmp_path / "run")]) == 2
    assert "error: weather.csv: BAD_FILE: row 13: irradiance '1.5' is outside [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_validate_rejects_overflowing_object_value(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read().replace("cooling_setpoint 70 degF;", "cooling_setpoint 1e999 degF;", 1))
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(scenario)])
    assert exc.value.code == 2
    assert "'1e999 degF' is not a finite number" in capsys.readouterr().err


def test_validate_rejects_no_such_date(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read().replace('start "2013-07-01', 'start "2013-13-01'))
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(scenario)])
    assert exc.value.code == 2
    assert "no such date '2013-13-01 00:00:00'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('start "2013', 'start "\u0662\u0660\u0661\u0663', "expected timestamp 'YYYY-MM-DD HH:MM:SS'"),
        ("timestep 60 s", "timestep \u0666\u0660 s", "'\u0666\u0660' is not a number"),
    ],
    ids=["arabic_indic_year", "arabic_indic_timestep"],
)
def test_validate_rejects_non_ascii_digits(tmp_path, old, new, message):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        text = fh.read()
    assert old in text
    scenario.write_text(text.replace(old, new, 1), encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.normpath(src), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run([sys.executable, "-m", "tesgrid", "validate", str(scenario)],
                          capture_output=True, encoding="utf-8", env=env)
    assert done.returncode == 2
    assert message in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_utf8_scenario_is_config_error(tmp_path, capsys, command):
    scenario = tmp_path / "bad.glm"
    scenario.write_bytes(b"\xff\xfe")
    with pytest.raises(SystemExit) as exc:
        main([command, str(scenario)] + (["--out", str(tmp_path / "out")] if command == "run" else []))
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {scenario}: not UTF-8 text (")


def test_non_utf8_weather_file_is_config_error(tmp_path, capsys):
    out = tmp_path / "feeder"
    assert main(["gen-feeder", "--houses", "2", "--out", str(out)]) == 0
    (out / "weather.csv").write_bytes(b"\xff\xfe" + b"time,temperature_degF,irradiance_fraction\n")
    assert main(["run", str(out / "feeder.glm"), "--out", str(tmp_path / "run")]) == 2
    assert f"error: weather.csv: BAD_FILE: cannot read {out / 'weather.csv'}: not UTF-8 text (" in capsys.readouterr().err


def test_non_utf8_player_file_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "s.glm"
    with open(fixture_path("feeder_small.glm")) as fh:
        scenario.write_text(fh.read() + "player { name p; target z1; property base_power; file zip.csv; }\n")
    (tmp_path / "zip.csv").write_bytes(b"time,value\n2013-07-01 00:00:00,\xff\xfe\n")
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert f"error: zip.csv: BAD_FILE: cannot read {tmp_path / 'zip.csv'}: not UTF-8 text (" in capsys.readouterr().err


_RUN_IN_FRESH_PROCESS = """
import os, sys
import tesgrid.cli
before = set(sys.modules)
from tesgrid.feedergen import gen_weather
from tesgrid.glm import parse_scenario
from tesgrid.model import format_time
from tesgrid.kernel import Engine
from tesgrid.recorder import write_results
from tesgrid.validate import validate
scenario, work = sys.argv[1], sys.argv[2]
with open(os.path.join(work, "w.csv"), "w", encoding="utf-8") as fh:
    fh.write(gen_weather())
with open(scenario, encoding="utf-8") as fh:
    model = parse_scenario(fh.read() + "weather { file w.csv; }\\n")
assert validate(model).runnable
result = Engine(model, base_dir=work).run()
write_results(result, os.path.join(work, "out"))
assert result.complete
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_run_imports_nothing_after_the_cli(tmp_path):
    """Every module a run needs is imported with `tesgrid.cli`: a module
    imported lazily, on a first call, is paid inside every run's set-up."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.normpath(src)}
    done = subprocess.run([sys.executable, "-c", _RUN_IN_FRESH_PROCESS, fixture_path("feeder_small.glm"),
                           str(tmp_path)], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


_INSTALL_TRACER_HOOKS = """
from tracer import Tracer, install_hooks
tracer = Tracer()
install_hooks(tracer)
print(sorted(tracer.missing))
"""


def test_bench_tracer_finds_every_hook():
    """The benchmark's tracer (`bench/tracer.py`) wraps program callables by
    name, and a hook whose target is renamed drops its metrics without an
    error; every name it looks up must still be there."""
    root = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), os.path.join(root, "bench")])}
    done = subprocess.run([sys.executable, "-c", _INSTALL_TRACER_HOOKS], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
