"""Host-speed correction for the benchmark's timings.

On a shared host the speed of one core changes by up to 1.6x in phases
of a few seconds, as other tenants load its sibling.  On the 2-core host
the benchmark was defined on, twelve consecutive runs of the 300-house
day took from 7.2 to 12.2 s of wall time.

`SpeedProbe` measures the speed a section actually ran at: while the
section runs, a SIGALRM handler times a fixed pure-Python sweep every
50 ms in the same thread, and a few more samples are taken at each edge
so that short sections get an estimate too.  The reported time is the
wall time minus the time spent in the samples, scaled by
REFERENCE_SAMPLE_S / (mean sample time): seconds at the speed where one
sample takes REFERENCE_SAMPLE_S.  The sweep does not touch tesgrid, so a
change to the program moves the scaled time exactly as it moves the
wall time at constant host speed.  On twelve runs of the 300-house day
the correction took the coefficient of variation from 17% to 4-7%,
depending on the host's load at the time.
"""

from __future__ import annotations

import gc
import signal
from dataclasses import dataclass
from time import perf_counter

REFERENCE_SAMPLE_S = 0.000154  # one sample's time at the nominal speed of the defining host
SAMPLE_INTERVAL_S = 0.05
EDGE_SAMPLES = 10


@dataclass(frozen=True)
class _Edge:
    parent: str
    impedance: complex
    ratio: float


_NODES = [f"n{i}" for i in range(48)]
_EDGES = {n: _Edge(_NODES[(i - 1) // 2], complex(0.01, 0.02), 1.0) for i, n in enumerate(_NODES) if i}


def _sweep(passes: int = 3) -> float:
    """Interpreter work of the simulator's kind: a backward/forward sweep
    over a small binary tree with string-keyed dicts, frozen dataclass
    attributes and complex arithmetic.  Against a plain arithmetic loop it
    cut the corrected run-to-run variation of the 300-house day from 7%
    to 5% in a side-by-side test."""
    volts = {n: complex(240.0) for n in _NODES}
    amps = {}
    for _ in range(passes):
        for n in reversed(_NODES[1:]):
            amps[n] = (complex(1000.0, 100.0) / volts[n]).conjugate() / _EDGES[n].ratio
        for n in _NODES[1:]:
            edge = _EDGES[n]
            volts[n] = volts[edge.parent] / edge.ratio - edge.impedance * amps[n]
    return max(abs(v) for v in volts.values())


class Timed:
    """Result of one section: wall time, sampler time inside it, scale."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.sampler_s = 0.0
        self.scale = 1.0

    @property
    def seconds(self) -> float:
        """Wall time net of sampling, at the reference speed."""
        return (self.wall_s - self.sampler_s) * self.scale


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        _sweep()  # warm-up

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t = perf_counter()
        _sweep()
        dt = perf_counter() - t
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def measure(self, fn, *args, **kwargs):
        """Call `fn`; return (its result, a Timed for the call)."""
        timed = Timed()
        first = len(self.samples)
        for _ in range(EDGE_SAMPLES):
            self.sample()
        spent0 = self.spent
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            timed.wall_s = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        timed.sampler_s = self.spent - spent0
        for _ in range(EDGE_SAMPLES):
            self.sample()
        window = self.samples[first:]
        timed.scale = REFERENCE_SAMPLE_S / (sum(window) / len(window))
        return result, timed
