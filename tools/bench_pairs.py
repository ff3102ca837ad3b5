"""Compare the end-to-end benchmark metrics of two source trees in alternating pairs.

    python3 tools/bench_pairs.py BASE_TREE HEAD_TREE --workload W [--pairs N] [--seconds S] [--seed N]

Each tree is a checkout of this repository.  Each pair runs
`bench/run_bench.py --workload W --seed N --seconds S --trace 0` once in
each tree, one after the other; the base runs first in even pairs and the
head in odd ones, so a drift in the host's speed does not favour a side.
Per end-to-end metric of `bench/run_bench.py` (read from this script's
own checkout), it prints each side's median and quartiles, the head's
change of median, and the pairs the head won, ties counting for neither.
A gain holds when the head wins at least nine tenths of the pairs and
its median differs from the base's by more than the distance between
the base's quartiles; a metric worse by more than its bound is marked.

The trees must sit at absolute paths of equal length: the benchmark's
`peak_rss_mb` moves with the length of the checkout's path.  Exits 2 when
they do not, 1 when a run fails or reads `correct: false` or a failed
repetition, and 0 otherwise, whatever the metrics read.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from run_bench import END_TO_END, RUN_SECONDS, quartiles  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402

GAIN_SHARE = 0.9  # the share of pairs the head must win for a gain


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of `tree`: the JSON object on its last stdout line."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run_bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        raise RuntimeError(f"{tree}: correct {result['correct']}, {result['failed']} failed\n{done.stdout}")
    return result["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    trees = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    if len(trees["base"]) != len(trees["head"]):
        print(f"error: tree paths differ in length ({trees['base']}, {trees['head']}): "
              "peak_rss_mb moves with the length of the checkout's path", file=sys.stderr)
        return 2

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for pair in range(args.pairs):
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            try:
                runs[side].append(bench(trees[side], args.workload, args.seed, args.seconds))
            except RuntimeError as exc:
                print(f"FAIL pair {pair + 1} {side}: {exc}")
                return 1
        print(f"pair {pair + 1}/{args.pairs}: "
              + " ".join(f"{side} run_s {runs[side][-1]['run_s']['value']:.6g}" for side in ("base", "head")),
              flush=True)

    n = args.pairs
    print(f"== {args.workload} seed {args.seed}: {n} pairs, --seconds {args.seconds:g}")
    for name, unit, better, bound in END_TO_END:
        values = {side: [run[name]["value"] for run in runs[side]] for side in runs}
        (b1, bm, b3), (h1, hm, h3) = (quartiles(values[side]) for side in ("base", "head"))
        sign = 1.0 if better == "higher" else -1.0  # positive: the head reads better
        wins = sum(sign * (h - b) > 0 for b, h in zip(values["base"], values["head"]))
        gain = wins >= GAIN_SHARE * n and sign * (hm - bm) > b3 - b1
        worse = -sign * (hm - bm) > bound * abs(bm)
        verdict = "gain" if gain else f"worse than its {bound:.0%} bound" if worse else "-"
        change = f"{(hm - bm) / bm:+.1%}" if bm else "n/a"
        print(f"  {name:18s} base {bm:.6g} (q1 {b1:.6g}, q3 {b3:.6g})  head {hm:.6g} (q1 {h1:.6g}, q3 {h3:.6g}) "
              f"{unit}  {change}  head won {wins}/{n}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
