"""The tesgrid benchmark: one simulated day per workload, end to end.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --steady N [--workload NAME ...] [--trace 0|1] [--out FILE]
    python3 bench/run_bench.py --write-benchmark-json
    python3 bench/run_bench.py --write-reference

Each timed repetition runs `parse_scenario` -> `validate` -> `Engine(...)`
-> `Engine.run()` -> `write_results` in its own fresh child process
(`child.py`), one at a time: every `tesgrid run` is a fresh process that
pays its own set-up, and the benchmark host may have only two cores.

With `--trace 0` a run first makes a few set-up-only children, then full
repetitions until `--seconds` is used up (at least two, so two runs can
be compared byte for byte), and reports the end-to-end metrics as
medians over the repetitions.  With `--trace 1` it alternates untraced
and traced repetitions and reports the per-layer metrics as medians over
the traced ones, whose counts must repeat exactly.  Human-readable lines
come first; the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

Every time is wall time corrected for the host's speed while it was
measured (`speed.py`), because the speed of a core on a shared host
swings by up to 1.6x in phases of seconds.  The unscaled medians are
printed alongside.

Output check: at the default seed every repetition's recorder CSVs and
`audit.csv` must match the sha256 digests in `reference.json`; at any
other seed all repetitions of a run must agree byte for byte.  A
repetition also fails if it raises, if the run is incomplete, or if the
worst power-balance mismatch reaches 1e-6 pu.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from scenarios import WORKLOADS, weather_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0  # the seed the stored output reference was taken at
RUN_SECONDS = 30
SETUP_PROBES = 5  # set-up-only children per untraced run, besides the full repetitions
MIN_REPS = 2
TIME_LIMIT_S = 170  # a run must exit within 180 s
MISMATCH_LIMIT_PU = 1e-6

# (name, unit, better, bound).  `bound` is the share of the parent's
# median by which a metric may worsen before a change is rejected.  Ten
# runs' speed-corrected medians spread by 1-6% on the defining host
# (NOTES.md); set-up times are short and noisier, memory barely moves.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.2),
    ("house_steps_per_s", "1/s", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better).  Unit `count` marks an exact-repeat count: two
# traced runs of the same code and seed give the same value, so a change
# in it is cited as a count, never as a speed-up.
PER_LAYER = [
    ("glm.parse_s", "s", "lower"),
    ("validate.validate_s", "s", "lower"),
    ("network.index_s", "s", "lower"),
    ("kernel.init_s", "s", "lower"),
    ("powerflow.solve_s", "s", "lower"),
    ("powerflow.solves", "count", "lower"),
    ("powerflow.iterations_total", "count", "lower"),
    ("powerflow.iterations_max", "count", "lower"),
    ("powerflow.nodes", "count", "lower"),
    ("powerflow.us_per_node_iter", "us", "lower"),
    ("network.islands_calls", "count", "lower"),
    ("network.islands_s", "s", "lower"),
    ("market.round_s", "s", "lower"),
    ("market.clear_s", "s", "lower"),
    ("market.clears", "count", "lower"),
    ("market.bids_submitted", "count", "lower"),
    ("market.make_bid_s", "s", "lower"),
    ("market.nonzero_clear_frac", "ratio", "higher"),
    ("attack.transform_calls", "count", "lower"),
    ("attack.rewrite_frac", "ratio", "lower"),
    ("loads.step_s", "s", "lower"),
    ("loads.house_steps", "count", "lower"),
    ("loads.hvac_power_calls", "count", "lower"),
    ("kernel.injections_s", "s", "lower"),
    ("recorder.read_s", "s", "lower"),
    ("recorder.reads", "count", "lower"),
    ("recorder.us_per_read", "us", "lower"),
    ("model.by_name_calls", "count", "lower"),
    ("model.by_name_s", "s", "lower"),
    ("recorder.append_s", "s", "lower"),
    ("recorder.write_s", "s", "lower"),
    ("recorder.bytes_written", "count", "lower"),
    ("kernel.run_s", "s", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.events_applied", "count", "lower"),
    ("kernel.steps", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "bench/run_bench.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def host_metadata(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu, "seed": seed}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """One benchmark run: a workload at a seed, its children and checks."""

    def __init__(self, workload: str, seed: int, reference: dict | None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.reference = (reference or {}).get(workload)  # digests and counts at DEFAULT_SEED
        self.dir = os.path.join(WORK, f"{workload}-seed{seed}")
        self.inputs = os.path.join(self.dir, "inputs")
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        self.reps: list[dict] = []  # reports of untraced full repetitions
        self.traced: list[dict] = []  # reports of traced repetitions
        self.t0 = perf_counter()

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.inputs)
        with open(os.path.join(self.inputs, "feeder.glm"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.workload.scenario(self.seed))
        with open(os.path.join(self.inputs, "weather.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(weather_text())

    def elapsed(self) -> float:
        return perf_counter() - self.t0

    def child(self, tag: str, setup_only: bool = False, trace: bool = False) -> dict | None:
        """Run one child and check its outputs.  Returns its report, or None
        if it produced none; a report that fails a check is still returned
        (its timings count) after the failure is recorded."""
        self.attempted += 1
        out = os.path.join(self.dir, tag)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--inputs", self.inputs,
               "--topology", self.workload.topology, "--seed", str(self.seed), "--out", out]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", os.path.join(self.dir, f"spans-{tag}")]
        timeout = max(1.0, TIME_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail(f"{tag}: timed out after {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            err = proc.stderr.strip().splitlines()
            self.fail(f"{tag}: exit {proc.returncode}: {err[-1] if err else ''}")
            return None
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if setup_only:
            return report
        problems = self.check(report)
        if problems:
            self.fail(*(f"{tag}: {p}" for p in problems))
        return report

    def fail(self, *messages: str) -> None:
        """Record one failed child and why."""
        self.failed += 1
        self.failures.extend(messages)

    def check(self, report: dict) -> list[str]:
        problems = []
        if not report["complete"]:
            problems.append("run incomplete (complete is false)")
        if report["worst_mismatch_pu"] >= MISMATCH_LIMIT_PU:
            problems.append(f"power mismatch {report['worst_mismatch_pu']:.3g} pu >= {MISMATCH_LIMIT_PU:g}")
        if self.seed == DEFAULT_SEED and self.reference is not None:
            want, against = self.reference["digests"], "reference"
            for key, value in self.reference["counts"].items():
                if report["counts"].get(key) != value:
                    problems.append(f"count {key} = {report['counts'].get(key)}, reference {value}")
        else:
            first = next(iter(self.reps + self.traced), None)
            want, against = (first["digests"], "first repetition") if first else (None, None)
        if want is not None:
            got = report["digests"]
            for name in sorted(set(want) | set(got)):
                if want.get(name) != got.get(name):
                    problems.append(f"{name} differs from the {against}")
        return problems

    def run_untraced(self, seconds: float) -> None:
        for k in range(SETUP_PROBES):
            report = self.child(f"setup{k}", setup_only=True)
            if report:
                self.setup_samples.append(report["setup_s"])
        walls: list[float] = []
        k = 0
        while k < MIN_REPS or self.elapsed() + statistics.median(walls) <= seconds:
            start = perf_counter()
            report = self.child(f"rep{k}")
            walls.append(perf_counter() - start)
            k += 1
            if report:
                self.reps.append(report)
                self.setup_samples.append(report["setup_s"])
            if self.elapsed() >= TIME_LIMIT_S / 2:
                break

    def run_traced(self, seconds: float) -> None:
        """Alternate untraced and traced repetitions, so both see the same
        phases of host speed; at least one pair."""
        walls: list[float] = []
        k = 0
        while k < 1 or self.elapsed() + statistics.median(walls) <= seconds:
            start = perf_counter()
            report = self.child(f"rep{k}")
            if report:
                self.reps.append(report)
            report = self.child(f"traced{k}", trace=True)
            if report:
                self.traced.append(report)
            walls.append(perf_counter() - start)
            k += 1
            if self.elapsed() >= TIME_LIMIT_S / 2:
                break
        counts = [n for n, u, _ in PER_LAYER if u == "count"]
        for k, report in enumerate(self.traced[1:], start=1):
            moved = [n for n in counts if report["layers"].get(n) != self.traced[0]["layers"].get(n)]
            if moved:
                self.fail(*(f"traced{k}: count {n} differs from traced0" for n in moved))

    def metrics(self, trace: bool) -> dict[str, dict]:
        """Metric name -> {value, unit, q1, q3, n}."""
        if trace:
            out = {}
            for name, unit, _ in PER_LAYER:
                values = [r["layers"][name] for r in self.traced if name in r["layers"]]
                if name == "trace.overhead_frac" and self.reps:
                    base = statistics.median(r["run_s"] for r in self.reps)
                    values = [(r["run_s"] - base) / base for r in self.traced]
                if values:
                    q1, med, q3 = quartiles(values)
                    out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}
            return out
        samples = {
            "setup_s": self.setup_samples,
            "run_s": [r["run_s"] for r in self.reps],
            "house_steps_per_s": [r["houses"] * r["executed_steps"] / r["run_s"] for r in self.reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in self.reps],
        }
        out = {}
        for name, unit, _, _ in END_TO_END:
            q1, med, q3 = quartiles(samples[name])
            out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(samples[name])}
        return out


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: bool, reference: dict | None) -> tuple[Run, dict | None]:
    run = Run(workload, seed, reference)
    run.prepare()
    if trace:
        run.run_traced(seconds)
    else:
        run.run_untraced(seconds)
    ok = bool(run.traced if trace else run.reps)
    return run, run.metrics(trace) if ok else None


def report_run(run: Run, metrics: dict | None, trace: bool, host: dict) -> dict | None:
    """Print the human-readable lines; return the final JSON object."""
    print(f"host python={host['python']} nproc={host['nproc']} cpu=\"{host['cpu']}\" seed={host['seed']}")
    print(f"workload {run.workload.name}: houses={run.workload.houses} topology={run.workload.topology} "
          f"trace={int(trace)} repetitions={len(run.reps)} elapsed={run.elapsed():.1f}s")
    for failure in run.failures:
        print(f"FAILED {failure}")
    if metrics is None:
        return None
    units = {n: u for n, u, _ in PER_LAYER}
    for name, m in metrics.items():
        spread = f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})" if "n" in m else ""
        exact = "  exact-repeat count" if units.get(name) == "count" else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{spread}{exact}")
    if trace and run.reference is not None and run.seed == DEFAULT_SEED:
        for name, value in run.reference.get("layer_counts", {}).items():
            if name in metrics and metrics[name]["value"] != value:
                print(f"  note: count {name} = {metrics[name]['value']}, {value} at reference")
    if run.reps and not trace:
        walls = {k: statistics.median(r[f"{k}_wall_s"] for r in run.reps) for k in ("setup", "run")}
        print(f"  unscaled wall medians: setup {walls['setup']:.6g} s, run {walls['run']:.6g} s")
    failed = run.failed
    print(f"  {'failed_frac':28s} {failed / run.attempted:.6g} ratio  ({failed} of {run.attempted} children)")
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }


def save_result(run: Run, metrics: dict, trace: bool, host: dict) -> None:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{run.workload.name}-seed{run.seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"host": host, "workload": run.workload.name, "attempted": run.attempted,
                   "failures": run.failures, "metrics": metrics}, fh, indent=1)


def steady(workloads: list[str], runs: int, first_seed: int, seconds: float, trace: bool,
           out: str | None) -> int:
    """Run each workload `runs` times on successive seeds; print per metric
    the median, the quartiles and the spread against the metric's bound."""
    reference = load_reference()
    bounds = {n: b for n, _, _, b in END_TO_END}
    host = host_metadata(first_seed)
    summary = {"host": host, "runs": runs, "seconds": seconds, "trace": int(trace), "workloads": {}}
    print(f"host python={host['python']} nproc={host['nproc']} cpu=\"{host['cpu']}\" first seed={first_seed}")
    failed = 0
    for name in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(first_seed, first_seed + runs):
            run, metrics = run_once(name, seed, seconds, trace, reference)
            failed += len(run.failures)
            for f in run.failures:
                print(f"FAILED {name} seed {seed}: {f}")
            for metric, m in (metrics or {}).items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in (metrics or {}).items()
                if k in bounds or k == "kernel.run_s"), flush=True)
        rows = {}
        print(f"== {name}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        for metric, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            row = {"median": med, "q1": q1, "q3": q3, "n": len(vals), "unit": units[metric],
                   "spread": spread}
            line = f"  {metric:28s} median {med:.6g} {units[metric]}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}"
            if metric in bounds:
                row["bound"] = bounds[metric]
                verdict = "ok" if spread <= bounds[metric] / 3 else ("within bound" if spread <= bounds[metric] else "OVER BOUND")
                line += f"  bound {bounds[metric]}  {verdict}"
            print(line)
            rows[metric] = row
        summary["workloads"][name] = rows
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


def write_reference() -> int:
    """Store the outputs' digests and counts at the default seed."""
    ref = {}
    for name in WORKLOADS:
        run, metrics = run_once(name, DEFAULT_SEED, 0, True, None)
        if run.failures or metrics is None or not run.reps:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        rep = run.reps[0]
        ref[name] = {
            "seed": DEFAULT_SEED,
            "digests": rep["digests"],
            "counts": rep["counts"],
            "layer_counts": {n: metrics[n]["value"] for n, u, _ in PER_LAYER if u == "count" and n in metrics},
        }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N", help="run each workload N times on successive seeds")
    ap.add_argument("--out", help="with --steady: write the summary to this JSON file")
    ap.add_argument("--write-benchmark-json", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tesgrid", "__init__.py")):
        print(f"error: no tesgrid source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(benchmark_spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.write_reference:
        return write_reference()
    if args.steady:
        return steady(args.workload or list(WORKLOADS), args.steady, args.seed, args.seconds,
                      bool(args.trace), args.out)
    if not args.workload or len(args.workload) != 1:
        ap.error("give exactly one --workload")

    trace = bool(args.trace)
    host = host_metadata(args.seed)
    run, metrics = run_once(args.workload[0], args.seed, args.seconds, trace, load_reference())
    result = report_run(run, metrics, trace, host)
    if result is None:
        print("error: no repetition produced a report", file=sys.stderr)
        return 1
    save_result(run, metrics, trace, host)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
