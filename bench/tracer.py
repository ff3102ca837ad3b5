"""Outside-in span recorder for the benchmark's traced run.

Wrappers are installed where the caller looks a name up (a module global
such as `tesgrid.kernel.solve_powerflow`, or a class attribute such as
`Market.clear`), so the program itself carries no tracing code.  Spans
(name, start, end, parent) are kept in flat arrays in memory and written
out once the run is over.  A hook whose target no longer exists is
recorded as missing, and every metric that depends on it is left out of
the report rather than reported as zero.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        self.missing: set[str] = set()

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Wrap `fn` so each call records one span named `name`.

        `on_result(args, result)` runs after the span closes, so its cost
        lands in the caller's self time, not in the layer's.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, on_result=None):
        """Wrap `fn` so each call bumps the count `name` (no span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def hook(self, owner, attr: str, name: str, kind: str = "span", on_result=None) -> None:
        """Replace `owner.attr` by a span or counter wrapper named `name`."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        make = self.span if kind == "span" else self.counter
        setattr(owner, attr, make(name, fn, on_result))
        self.installed.add(name)

    # -- analysis -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per root span name, per span name: calls, total and self time.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        n = len(self.starts)
        child = [0.0] * n
        root = [0] * n
        parents, starts, ends = self.parents, self.starts, self.ends
        for i in range(n):
            p = parents[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, dict[str, dict[str, float]]] = {}
        names, name_ids = self.names, self.name_ids
        for i in range(n):
            by_name = out.setdefault(names[name_ids[root[i]]], {})
            row = by_name.setdefault(names[name_ids[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write(self, directory: str) -> None:
        """Write the raw spans (flat native arrays) plus their name table."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name_ids", "parents", "starts", "ends"):
            with open(os.path.join(directory, f"{field}.bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        meta = {
            "names": self.names,
            "typecodes": {f: getattr(self, f).typecode for f in ("name_ids", "parents", "starts", "ends")},
            "spans": len(self.starts),
        }
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)


def install_hooks(tracer: Tracer) -> None:
    """Wrap each layer's public callables where the kernel looks them up."""
    import tesgrid.attack as attack
    import tesgrid.kernel as kernel
    import tesgrid.market as market
    import tesgrid.model as model
    import tesgrid.powerflow as powerflow
    import tesgrid.recorder as recorder

    counts, maxima = tracer.counts, tracer.maxima

    def after_solve(args, state):
        nodes = len(state.voltages)
        counts["powerflow.iterations_total"] += state.iterations
        counts["powerflow.node_iterations"] += nodes * state.iterations
        maxima["powerflow.iterations_max"] = max(maxima["powerflow.iterations_max"], state.iterations)
        maxima["powerflow.nodes"] = max(maxima["powerflow.nodes"], nodes)

    def after_clear(args, clearing):
        if clearing.quantity > 0:
            counts["market.nonzero_clears"] += 1

    def after_transform(args, bid):
        if bid is not args[1]:
            counts["attack.rewrites"] += 1

    tracer.hook(kernel, "build_network_index", "network.index")
    tracer.hook(kernel.Engine, "__init__", "kernel.init")
    tracer.hook(kernel.Engine, "run", "kernel.run")
    tracer.hook(kernel.Engine, "apply_event", "kernel.events_applied", kind="count")
    tracer.hook(kernel, "step_house", "loads.step")
    tracer.hook(kernel, "hvac_power", "loads.hvac_power_calls", kind="count")
    tracer.hook(kernel.Engine, "build_load_injections", "kernel.injections")
    tracer.hook(kernel, "solve_powerflow", "powerflow.solve", on_result=after_solve)
    tracer.hook(powerflow, "compute_islands", "network.islands")
    # the kernel's market round (bid assembly, auxiliary bidders, attack
    # transforms, unresponsive load) would otherwise count as kernel self time
    tracer.hook(kernel.Engine, "_market_round", "market.round")
    tracer.hook(market.Controller, "make_bid", "market.make_bid")
    tracer.hook(market.Market, "submit", "market.bids_submitted", kind="count")
    tracer.hook(market.Market, "clear", "market.clear", on_result=after_clear)
    tracer.hook(attack.BidTransform, "apply", "attack.transform_calls", kind="count",
                on_result=after_transform)
    tracer.hook(kernel.Engine, "read_property", "recorder.read")
    tracer.hook(model.ScenarioModel, "by_name", "model.by_name")
    tracer.hook(recorder.RecorderTable, "append", "recorder.append")


def layer_metrics(tracer: Tracer, executed_steps: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, keyed by metric name.

    Run-phase times are self times, so the `_s` metrics under
    `kernel.run` plus `kernel.self_s` add up to `kernel.run_s`.  A ratio
    whose denominator is zero reads 0.
    """
    agg = tracer.aggregate()
    run = agg.get("kernel.run", {})
    have = tracer.installed
    counts, maxima = tracer.counts, tracer.maxima
    m: dict[str, float] = {}

    def total(root, name=None):
        row = agg.get(root, {}).get(name or root)
        return row["total_s"] if row else 0.0

    def self_s(name):
        return run[name]["self_s"] if name in run else 0.0

    def calls(name):
        return run[name]["calls"] if name in run else 0

    def ratio(part, whole):
        return part / whole if whole else 0.0  # e.g. no transform calls without a market attack

    m["glm.parse_s"] = total("glm.parse")
    m["validate.validate_s"] = total("validate.validate")
    if "network.index" in have:
        m["network.index_s"] = total("kernel.init", "network.index")
    if "kernel.init" in have:
        m["kernel.init_s"] = total("kernel.init") - m.get("network.index_s", 0.0)

    if "powerflow.solve" in have:
        m["powerflow.solve_s"] = self_s("powerflow.solve")
        m["powerflow.solves"] = calls("powerflow.solve")
        m["powerflow.iterations_total"] = counts["powerflow.iterations_total"]
        m["powerflow.iterations_max"] = maxima["powerflow.iterations_max"]
        m["powerflow.nodes"] = maxima["powerflow.nodes"]
        m["powerflow.us_per_node_iter"] = 1e6 * ratio(m["powerflow.solve_s"], counts["powerflow.node_iterations"])
    if "network.islands" in have:
        m["network.islands_calls"] = calls("network.islands")
        m["network.islands_s"] = self_s("network.islands")

    if "market.clear" in have:
        m["market.clear_s"] = self_s("market.clear")
        m["market.clears"] = calls("market.clear")
        m["market.nonzero_clear_frac"] = ratio(counts["market.nonzero_clears"], m["market.clears"])
    if "market.round" in have:
        m["market.round_s"] = self_s("market.round")
    if "market.bids_submitted" in have:
        m["market.bids_submitted"] = counts["market.bids_submitted"]
    if "market.make_bid" in have:
        m["market.make_bid_s"] = self_s("market.make_bid")
    if "attack.transform_calls" in have:
        m["attack.transform_calls"] = counts["attack.transform_calls"]
        m["attack.rewrite_frac"] = ratio(counts["attack.rewrites"], m["attack.transform_calls"])

    if "loads.step" in have:
        m["loads.step_s"] = self_s("loads.step")
        m["loads.house_steps"] = calls("loads.step")
    if "loads.hvac_power_calls" in have:
        m["loads.hvac_power_calls"] = counts["loads.hvac_power_calls"]
    if "kernel.injections" in have:
        m["kernel.injections_s"] = self_s("kernel.injections")

    if "recorder.read" in have:
        m["recorder.read_s"] = self_s("recorder.read")
        m["recorder.reads"] = calls("recorder.read")
        m["recorder.us_per_read"] = 1e6 * ratio(total("kernel.run", "recorder.read"), m["recorder.reads"])
    if "model.by_name" in have:
        m["model.by_name_calls"] = calls("model.by_name")
        m["model.by_name_s"] = self_s("model.by_name")
    if "recorder.append" in have:
        m["recorder.append_s"] = self_s("recorder.append")
    m["recorder.write_s"] = total("recorder.write")
    m["recorder.bytes_written"] = bytes_written

    if "kernel.run" in have:
        m["kernel.run_s"] = run["kernel.run"]["total_s"]
        m["kernel.self_s"] = self_s("kernel.run")
        m["kernel.steps"] = executed_steps
    if "kernel.events_applied" in have:
        m["kernel.events_applied"] = counts["kernel.events_applied"]
    return m
