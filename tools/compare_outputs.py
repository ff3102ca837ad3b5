"""Run the benchmark workloads on two source trees and compare their outputs.

    python3 tools/compare_outputs.py BASE_TREE HEAD_TREE [--seeds 1 2 3] [--work DIR]

Each tree is a checkout of this repository.  For every workload in
`bench/scenarios.py` (read from this script's own checkout, so both trees
get the same inputs) and every seed, both trees run the scenario through
`python -m tesgrid run` with their own `src/` on the path.  The recorder
CSVs and `audit.csv` must be byte-identical; `summary.txt` holds the
solver's iteration counts, which a warm-start change may legitimately
move, so each of its keys whose value differs is printed, with both
values, but does not fail.  Exits 1 on any failing difference or failed
run, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from scenarios import WORKLOADS, weather_text  # noqa: E402

NOT_COMPARED = {"summary.txt"}


def run_tree(tree: str, inputs: str, topology: str, seed: int, out: str) -> list[str]:
    """Run one scenario on `tree`'s sources; returns the files it wrote."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    cmd = [sys.executable, "-m", "tesgrid", "run", os.path.join(inputs, "feeder.glm"),
           "--out", out, "--topology", topology, "--seed", str(seed)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: exit {done.returncode}\n{done.stderr}")
    return sorted(os.listdir(out))


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def summary_differences(base: bytes, head: bytes) -> list[str]:
    """`key: base -> head` for each `summary.txt` key whose value differs,
    a key missing on one side reading `(none)`, in the base's key order."""
    sides = [dict(line.partition(" ")[::2] for line in text.decode().splitlines()) for text in (base, head)]
    keys = list(sides[0]) + [key for key in sides[1] if key not in sides[0]]
    return [f"{key}: {sides[0].get(key, '(none)')} -> {sides[1].get(key, '(none)')}"
            for key in keys if sides[0].get(key) != sides[1].get(key)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--work", help="keep inputs and outputs here (default: a temporary directory)")
    args = ap.parse_args()

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        for name, workload in WORKLOADS.items():
            for seed in args.seeds:
                case = os.path.join(work, f"{name}-{seed}")
                shutil.rmtree(case, ignore_errors=True)  # no file left from an earlier run
                inputs = os.path.join(case, "inputs")
                os.makedirs(inputs, exist_ok=True)
                with open(os.path.join(inputs, "feeder.glm"), "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(workload.scenario(seed))
                with open(os.path.join(inputs, "weather.csv"), "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(weather_text())
                outs = {side: os.path.join(case, side) for side in ("base", "head")}
                try:
                    files = {side: run_tree(getattr(args, side), inputs, workload.topology, seed, out)
                             for side, out in outs.items()}
                except RuntimeError as exc:
                    print(f"FAIL {name} seed {seed}: {exc}")
                    failures += 1
                    continue
                problems = []
                if files["base"] != files["head"]:
                    problems.append(f"file lists differ: {files['base']} != {files['head']}")
                for file in files["base"]:
                    if file in files["head"]:
                        base, head = (read(os.path.join(outs[side], file)) for side in ("base", "head"))
                        if base != head and file in NOT_COMPARED:
                            differences = summary_differences(base, head) or ["differs, every key's value the same"]
                            for difference in differences:
                                print(f"note {name} seed {seed}: {file} {difference}")
                        elif base != head:
                            problems.append(f"{file} differs")
                failures += bool(problems)
                print(f"{'FAIL' if problems else 'ok  '} {name} seed {seed}: {len(files['base'])} files"
                      + "".join(f"; {p}" for p in problems))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
