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
(the backward pass walks them reversed).  Consecutive rows that feed one
parent share its terms: the forward pass computes V_parent / n once for
a run of rows with the same parent and ratio, and the backward pass sums
their currents into the parent in a local, written back before another
row reads it, so every sum takes the same additions in the same order.
Dead demand entries are ignored.  A solution keeps per-supernode voltage
and current lists and builds the name-keyed voltages only when read: a
merged node (a meter, say) reports its supernode's voltage.

A sweep has converged when no voltage step (per unit of nominal) reaches
the tolerance; a NaN step never does.  Before the last allowed iteration
the forward pass computes the steps only up to the first that reaches
it; the last computes them all, so a divergence names the worst.  A
converged state with a voltage or current that is not finite, or a
source power that is not, is a divergence too, at the first such
supernode in index order (at the source for its power); one sum over
the voltages and the source power screens for it, so a finite solve
pays no per-node check.

Each solve can start from an earlier `NetworkState` (warm start), whose
voltage list is copied over the same islands; otherwise a supernode that
was dead there and is live now starts at its nominal voltage.  A
warm-started solve of unchanged loads converges in one sweep, so the
iteration counts of a run reflect how much the loads moved per step.

De-energized subtrees (OPEN edge upstream) carry zero voltage, current,
and load.  Results are steady-state only; switching transients are out of
scope.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

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
    `islands` object its voltage list is copied as is.

    Raises SolverDivergence with the worst residual, and the node where it
    was, after `max_iterations`; and with a NaN residual, and the first
    node that is not finite, when the state it reached is not.
    """
    if islands is None:
        islands = compute_islands(index, {})
    live, rows = islands
    names, nominal = index.names, index.nominal
    n = len(names)

    # warm start from `start` where the supernode was live there; otherwise
    # flat at nominal magnitude, zero angle
    if start is None:
        v = [complex(nominal[s]) if live[s] else 0j for s in range(n)]
    elif start.islands is islands:
        v = start.v.copy()  # same islands: a dead entry is 0j there too
    else:
        before, was_live = start.v, start.islands.live
        v = [
            (before[s] if was_live[s] else complex(nominal[s])) if live[s] else 0j
            for s in range(n)
        ]
    cur = [0j] * n  # child-side current of each supernode's feeding edge

    worst, worst_at = float("inf"), 0
    for iteration in range(1, max_iterations + 1):
        # backward: feeding-edge currents from the leaves up (`acc` is `into[held]`)
        into = [0j] * n
        held, acc = 0, 0j
        for s, p, r, _, _ in reversed(rows):
            if p != held:
                into[held], held, acc = acc, p, into[p]
            d, vs = demand[s], v[s]
            total = into[s] + (d / vs).conjugate() if d and vs else into[s]
            cur[s] = total
            acc += total / r
        into[held] = acc

        # forward: voltage drops from the source down, `fed` is `v[held] / ratio` (a
        # tolerance that is not positive is never met: then every pass computes every step)
        held, ratio = -1, 0.0
        if iteration < max_iterations and tolerance_pu > 0.0:
            forward = iter(rows)
            for s, p, r, z, nom in forward:
                if p != held or r != ratio:
                    held, ratio, fed = p, r, v[p] / r
                new_v = fed - z * cur[s]
                far = abs(new_v - v[s]) / nom >= tolerance_pu
                v[s] = new_v
                if far:
                    break
            else:
                break  # no step reached the tolerance: converged
            for s, p, r, z, _ in forward:
                if p != held or r != ratio:
                    held, ratio, fed = p, r, v[p] / r
                v[s] = fed - z * cur[s]
            continue
        worst = 0.0
        for s, p, r, z, nom in rows:
            if p != held or r != ratio:
                held, ratio, fed = p, r, v[p] / r
            new_v = fed - z * cur[s]
            step = abs(new_v - v[s]) / nom
            if step > worst:
                worst, worst_at = step, s
            v[s] = new_v
        if worst < tolerance_pu:
            break
    else:
        raise SolverDivergence(
            f"power flow did not converge in {max_iterations} iterations "
            f"(worst at {names[worst_at]})",
            worst,
            names[worst_at],
        )

    source_current = into[0] + ((demand[0] / v[0]).conjugate() if demand[0] else 0j)
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
    losses = 0j
    for s, _, _, z, _ in rows:  # a dead edge carries no current
        losses += z * (abs(cur[s]) ** 2)
    return NetworkState(
        index=index,
        v=v,
        cur=cur,
        islands=islands,
        iterations=iteration,
        source_power_va=source_power,
        load_power_va=sum([d for d, on in zip(demand, live) if on], 0j),
        loss_power_va=losses,
    )
