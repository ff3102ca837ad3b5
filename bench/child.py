"""One timed repetition of one workload, in a fresh process.

Run by `run_bench.py`; prints one JSON object on its last stdout line.
Each `tesgrid run` is a fresh process that pays its own set-up, so each
repetition is one too.

    python3 bench/child.py --inputs DIR --topology T --seed N --out DIR [--setup-only] [--trace DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_LAYERS = ("glm.parse_s", "validate.validate_s", "network.index_s", "kernel.init_s")


def _digests(out_dir: str, manifest: list[str]) -> dict[str, str]:
    """sha256 of every output except summary.txt, which holds solver
    iteration counts that a warm-start change may legitimately move."""
    digests = {}
    for name in manifest:
        if name == "summary.txt":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--topology", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="trace the run and write spans to this directory")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import tesgrid

    if not os.path.abspath(tesgrid.__file__).startswith(SRC + os.sep):
        print(f"error: imported tesgrid from {tesgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tesgrid.glm import parse_scenario
    from tesgrid.kernel import Engine
    from tesgrid.recorder import write_results
    from tesgrid.validate import validate

    tracer = None
    if args.trace:
        from tracer import Tracer, install_hooks, layer_metrics

        tracer = Tracer()
        install_hooks(tracer)
        parse_scenario = tracer.span("glm.parse", parse_scenario)
        validate = tracer.span("validate.validate", validate)
        write_results = tracer.span("recorder.write", write_results)

    with open(os.path.join(args.inputs, "feeder.glm"), encoding="utf-8") as fh:
        text = fh.read()

    def setup():
        model = parse_scenario(text)
        report = validate(model)
        if not report.runnable:
            raise SystemExit(f"scenario not runnable:\n{report.serialize()}")
        return Engine(model, topology=args.topology, seed=args.seed, base_dir=args.inputs)

    probe = SpeedProbe()
    engine, setup_t = probe.measure(setup)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_t.seconds, "setup_wall_s": setup_t.wall_s}))
        return 0
    result, run_t = probe.measure(engine.run)
    manifest = write_results(result, args.out)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "setup_s": setup_t.seconds,
        "run_s": run_t.seconds,
        "setup_wall_s": setup_t.wall_s,
        "run_wall_s": run_t.wall_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "houses": len(engine.houses),
        "executed_steps": result.metadata["executed_steps"],
        "complete": result.complete,
        "worst_mismatch_pu": result.summary["powerflow_worst_mismatch_pu"],
        "digests": _digests(args.out, manifest),
        "counts": {
            "audit_rows": len(result.audit),
            **{f"rows.{t.file}": len(t.rows) for t in result.tables.values()},
        },
    }
    if tracer is not None:
        written = sum(os.path.getsize(os.path.join(args.out, name)) for name in manifest)
        layers = layer_metrics(tracer, result.metadata["executed_steps"], written)
        for name, value in layers.items():
            if name.endswith("_s") or ".us_per_" in name:  # times, scaled like the end-to-end ones
                layers[name] = value * (setup_t if name in SETUP_LAYERS else run_t).scale
        out["layers"] = layers
        out["missing_hooks"] = sorted(tracer.missing)
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
