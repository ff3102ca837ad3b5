"""Steady-state radial power flow by repeated backward/forward sweeps.

The ladder-iterative method (Kersting, *Distribution System Modeling and
Analysis*): the backward pass accumulates branch currents from
constant-power load injections; the forward pass propagates voltage
drops from the source.  Transformers are an ideal turns ratio in series
with an impedance on the secondary side, so for an edge with ratio n the
child-side current I maps to I/n on the parent side and
V_child = V_parent / n - Z * I.

The sweep runs over the `NetworkIndex`, the feeder compiled once: flat
per-supernode lists in which every node hung on a zero-impedance
`parent:` link is merged into its upstream node.  Its
inputs are a per-supernode demand list and the `Islands` of the line
statuses, which the engine's status writer computes once per change:
the live flags, and the live supernodes' sweep rows in topological order
(the backward pass walks them reversed).  Dead demand entries are
ignored.  A solution keeps per-supernode voltage and current lists and
builds the name-keyed voltages only when read: a merged node (a meter,
say) reports its supernode's voltage.

The iterations run in a `_Sweep`: Python source generated from the
islands' rows, straight-line code with a few lines per row in each
pass, in which every live supernode's voltage, current and demand and
every row's ratio, impedance and nominal voltage is a local.  It is compiled on the first solve over
a set of live supernodes and cached in the index's `sweeps` under the
live flags, so a line that toggles back finds it there.  The source
holds only supernode indices and fixed names: the rows' values arrive
as a tuple, never as text, so no scenario name and no float's repr
enters it.  The generated forward pass computes V_parent / n once for a
run of rows with the same parent and ratio, and the backward pass sums
each parent's child currents from 0j in reversed row order: the
operations, in their order, of `sweep_reference` in tests/oracles.py,
which every solve repeats bit for bit.

A sweep has converged when no voltage step (per unit of nominal) reaches
the tolerance; a NaN step never does.  A solve is one call to the
compiled `run`: each forward pass computes the steps only up to the
first that reaches the tolerance, the iterations stop at a pass that
converged or at the backward pass of the last allowed one, and the call
ends with the losses sum.  Only that last allowed pass is judged step
by step, by `worst`, generated when a solve first reaches it, so a
divergence names the worst node.  A converged state with a voltage or
current that is not finite, or a source power that is not, is a
divergence too, at the first such supernode in index order (at the
source for its power); one sum over the voltages and the source power
screens for it, so a finite solve pays no per-node check.

Each solve can start from an earlier `NetworkState` (warm start), whose
voltage list it reads as is over the same islands; otherwise a supernode that
was dead there and is live now starts at its nominal voltage.  A
warm-started solve of unchanged loads converges in one sweep, so the
iteration counts of a run reflect how much the loads moved per step.

De-energized subtrees (OPEN edge upstream) carry zero voltage, current,
and load.  Results are steady-state only; switching transients are out of
scope.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

from .errors import SolverDivergence
from .network import Islands, NetworkIndex, compute_islands

VOLTAGE_TOLERANCE_PU = 1e-6  # contract: converged when max step change is below this
_INTERNAL_TOLERANCE_PU = 1e-10  # iterate tighter so power balance holds at 1e-6 pu
MAX_ITERATIONS = 50
SYSTEM_BASE_VA = 100e3  # per-unit base for power-balance accounting


@dataclass
class NetworkState:
    index: NetworkIndex = field(repr=False)
    v: list[complex]  # per supernode
    cur: list[complex]  # per supernode: child-side current of its feeding edge
    islands: Islands
    iterations: int
    source_power_va: complex = 0j
    load_power_va: complex = 0j
    loss_power_va: complex = 0j

    @cached_property
    def voltages(self) -> dict[str, complex]:
        """Node name -> voltage, in walk order; a merged node reads its supernode's."""
        return {node: self.v[s] for node, s in self.index.position.items()}

    def power_mismatch_pu(self) -> float:
        return abs(self.source_power_va - self.load_power_va - self.loss_power_va) / SYSTEM_BASE_VA


def solve_powerflow(
    index: NetworkIndex,
    demand: list[complex],
    islands: Islands | None = None,
    tolerance_pu: float = _INTERNAL_TOLERANCE_PU,
    max_iterations: int = MAX_ITERATIONS,
    start: NetworkState | None = None,
) -> NetworkState:
    """Sweep until the largest per-supernode voltage change is below tolerance.

    `demand` holds one VA entry per supernode of `index`, positive for
    consumption and negative for injection (solar); dead entries are
    ignored.  `islands` is the islanding of the line statuses (the
    engine keeps its current one); None means every edge is closed.  The
    state's name-keyed `voltages` are built on first read.
    `start` is an earlier solution to iterate from; over the same
    `islands` object its voltage list is read as is.

    Raises SolverDivergence with the worst residual, and the node where it
    was, after `max_iterations`; and with a NaN residual, and the first
    node that is not finite, when the state it reached is not.
    """
    if islands is None:
        islands = compute_islands(index, {})
    live = islands.live
    sweep = index.sweeps.get(live)
    if sweep is None:
        sweep = index.sweeps[live] = _Sweep(islands)
    names, nominal = index.names, index.nominal
    n = len(names)

    # warm start from `start` where the supernode was live there; otherwise
    # flat at nominal magnitude, zero angle
    if start is None:
        v = [complex(nominal[s]) if live[s] else 0j for s in range(n)]
    elif start.islands is islands:
        v = start.v  # same islands: a dead entry is 0j there too
    else:
        before, was_live = start.v, start.islands.live
        v = [
            (before[s] if was_live[s] else complex(nominal[s])) if live[s] else 0j
            for s in range(n)
        ]

    # one call to the sweep; only the last allowed pass is judged step by step
    iteration, worst, at = 0, float("inf"), 0
    if max_iterations > 0:
        iteration, v, cur, into, losses = sweep.run(v, demand, sweep.consts, tolerance_pu, max_iterations)
        if iteration == max_iterations:
            worst, at, v = sweep.worst(v, cur, sweep.consts)
    if iteration >= max_iterations and not worst < tolerance_pu:
        raise SolverDivergence(
            f"power flow did not converge in {max_iterations} iterations (worst at {names[at]})", worst, names[at]
        )

    source_current = into + ((demand[0] / v[0]).conjugate() if demand[0] else 0j)
    source_power = v[0] * source_current.conjugate()
    # one C-level screen: a NaN or inf voltage makes the sum one, and so does
    # a current, which the backward pass adds up into the source power; an
    # overflow can too, so the scan decides
    if not cmath.isfinite(sum(v, source_power)):
        bad = [s for s in range(n) if not (cmath.isfinite(v[s]) and cmath.isfinite(cur[s]))]
        if bad or not cmath.isfinite(source_power):
            at = names[bad[0] if bad else 0]  # the source power is named at the source
            raise SolverDivergence(
                f"power flow reached a voltage or current that is not finite (at {at})", float("nan"), at
            )
    return NetworkState(
        index=index,
        v=v,
        cur=cur,
        islands=islands,
        iterations=iteration,
        source_power_va=source_power,
        load_power_va=sum(compress(demand, live), 0j),
        loss_power_va=losses,
    )


def _compile(source: str, name: str):
    """The function `name` that `source` defines."""
    namespace: dict = {}
    exec(compile(source, "<powerflow sweep>", "exec"), namespace)
    return namespace[name]


def _lines(lines: Iterable[str], depth: int) -> str:
    """Each of `lines` on a line of its own, `depth` levels in."""
    return "".join(f"\n{'    ' * depth}{line}" for line in lines)


class _Sweep:
    """The sweep over one set of live supernodes, as straight-line code.

    `run` iterates until a forward pass converges, or up to the backward
    pass of the last allowed iteration, and returns the iteration, the
    voltage and current lists, the sum of the currents into the source
    and, summed after the iterations, the edges' losses.  `worst`,
    compiled when a solve first needs it, is that last iteration's
    forward pass, judging every step.  Each takes the rows' ratios,
    impedances and nominal voltages as `consts`."""

    def __init__(self, islands: Islands):
        self.live, self.rows = live, rows = islands
        self.consts = tuple(x for _, _, r, z, nom in rows for x in (r, z, nom))
        # three locals per row (no line without rows)
        self._constants = "".join(f"r{s}, z{s}, n{s}, " for s, *_ in rows) + "= consts" if rows else ""
        self._children: dict[int, list[int]] = {}  # in the backward pass's order
        for s, p, _, _, _ in reversed(rows):
            self._children.setdefault(p, []).append(s)
        backward = []
        for s, _, _, _, _ in reversed(rows):
            lines, into = self._into(s)
            backward += lines
            backward.append(f"c{s} = {into} + (d{s} / v{s}).conjugate() if d{s} and v{s} else {into}")
        checked = self._forward(["if not far:", "    far = abs(x - v{s}) / n{s} >= tol"])
        source_lines, into = self._into(0)
        self.run = _compile(f"""
def run(v, demand, consts, tol, last):
    {self._locals("v", "v")}
    {self._locals("d", "demand")}
    {self._constants}
    iteration = 0
    while True:
        iteration += 1{_lines(backward, 2)}
        if iteration == last:
            break
        far = False{_lines(checked, 2)}
        if not far:
            break{_lines(source_lines, 1)}
    loss = 0j{_lines((f"loss += z{s} * abs(c{s}) ** 2" for s, *_ in rows), 1)}
    return iteration, {self._list("v", "v0")}, {self._list("c", "0j")}, {into}, loss
""", "run")

    @cached_property
    def worst(self):
        judge = ["step = abs(x - v{s}) / n{s}", "if step > worst:", "    worst, at = step, {s}"]
        return _compile(f"""
def worst(v, cur, consts):
    {self._locals("v", "v")}
    {self._locals("c", "cur")}
    {self._constants}
    worst, at = 0.0, 0{_lines(self._forward(judge), 1)}
    return worst, at, {self._list("v", "v0")}
""", "worst")

    def _locals(self, x: str, arg: str) -> str:
        """Unpack the per-supernode list `arg` into one local `x{s}` per live supernode."""
        return "".join(f"{x}{s}, " if on else "_, " for s, on in enumerate(self.live)) + f"= {arg}"

    def _list(self, x: str, source: str) -> str:
        """A per-supernode list of the locals `x`: `source` for the source, 0j where dead."""
        return "[" + ", ".join(source if not s else f"{x}{s}" if on else "0j" for s, on in enumerate(self.live)) + "]"

    def _into(self, p: int) -> tuple[list[str], str]:
        """The lines that sum `p`'s children's currents, each over its
        ratio, from 0j into `i`; and the sum: `i`, or 0j for a leaf."""
        children = self._children.get(p, [])
        return [f"i = {'i' if k else '0j'} + c{s} / r{s}" for k, s in enumerate(children)], "i" if children else "0j"

    def _forward(self, judge: list[str]) -> list[str]:
        """A forward pass: each row's new voltage `x`, the `judge` lines on
        its step (`{s}` is the supernode), and its store.  `f` is
        V_parent / n, computed once per run of rows with the same parent
        and ratio."""
        lines, held, ratio = [], -1, 0.0
        for s, p, r, _, _ in self.rows:
            if p != held or r != ratio:
                held, ratio = p, r
                lines.append(f"f = v{p} / r{s}")
            lines.append(f"x = f - z{s} * c{s}")
            lines += [line.format(s=s) for line in judge]
            lines.append(f"v{s} = x")
        return lines
