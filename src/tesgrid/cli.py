"""Command-line entry point.

Subcommands:
    run         simulate a scenario file and write results to a directory
    validate    compile a scenario file as `run` does and print the report
    gen-feeder  write the generated study feeder and its weather file

Both compile alike: parse, validate for the `--topology` (auxiliary
unless given) and build the engine, which reads the input files
relative to the scenario.  Exit codes: 0 success; 2 a problem with
the scenario or an input file it names; 3 solver divergence or outputs
that cannot be written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, ParseError, TesgridError
from .feedergen import WEATHER_FILE, gen_feeder, gen_weather
from .glm import parse_scenario
from .kernel import Engine
from .model import Diagnostic, ValidationReport
from .recorder import write_results
from .validate import validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc})", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    try:
        return parse_scenario(text)
    except ParseError as exc:
        print(f"error: {path}:{exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _compile(args) -> tuple[ValidationReport, Engine | None]:
    """The scenario's report under `args.topology`, and its engine when it
    is runnable: an unusable input file is one more error, a dropped event one more warning."""
    model = _load(args.scenario)
    report = validate(model, args.topology)
    if not report.runnable:
        return report, None
    base_dir = os.path.dirname(os.path.abspath(args.scenario))
    try:
        engine = Engine(model, topology=args.topology, seed=args.seed, base_dir=base_dir)
    except ConfigError as exc:
        report.errors.append(Diagnostic(exc.location, exc.code, exc.message))
        return report, None
    report.warnings += [Diagnostic("<clock>", "OUT_OF_WINDOW", note) for note in engine.warnings]
    return report, engine


def _cmd_run(args) -> int:
    report, engine = _compile(args)
    if report.serialize():
        print(report.serialize(), file=sys.stderr)
    if engine is None:
        return EXIT_CONFIG
    try:
        result = engine.run()
        manifest = write_results(result, args.out)
    except TesgridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for name in manifest:
        print(os.path.join(args.out, name))
    if not result.complete:
        print("error: run aborted before the stop time (see summary.txt)", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_validate(args) -> int:
    report, _ = _compile(args)
    text = report.serialize()
    if text:
        print(text)
    print(f"{'runnable' if report.runnable else 'not runnable'}: "
          f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)")
    return EXIT_OK if report.runnable else EXIT_CONFIG


def _cmd_gen_feeder(args) -> int:
    try:
        os.makedirs(args.out, exist_ok=True)
        scenario = gen_feeder(houses=args.houses, seed=args.seed)
        with open(os.path.join(args.out, "feeder.glm"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(scenario)
        with open(os.path.join(args.out, WEATHER_FILE), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(gen_weather())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(os.path.join(args.out, "feeder.glm"))
    print(os.path.join(args.out, WEATHER_FILE))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tesgrid",
        description="Transactive smart-grid simulator with cyber/physical attack modeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write results")
    p_run.add_argument("scenario", help="scenario (.glm) file")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--seed", type=int, default=0, help="run seed recorded in the summary")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("scenario", help="scenario (.glm) file")
    p_val.set_defaults(func=_cmd_validate, seed=0)  # as `run` compiles by default
    for command in (p_run, p_val):
        command.add_argument("--topology", choices=("direct", "auxiliary"), default="auxiliary",
                             help="market topology (default: auxiliary)")

    p_gen = sub.add_parser("gen-feeder", help="generate the study feeder")
    p_gen.add_argument("--houses", type=int, default=30)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="feeder", help="output directory (default: feeder)")
    p_gen.set_defaults(func=_cmd_gen_feeder)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
