"""Host-speed calibration for the CPU-bound in-process workloads.

A shared host's CPU speed wanders: the same fixed piece of Python and
numpy work runs up to 1.7x slower for a minute or more at a time, then
fast again, and a run of ``history`` or ``cold`` reads whatever the host
gave it.  So those workloads interleave their timed work with a fixed
reference kernel and report their times at *reference speed*: scaled to a
host on which one kernel unit takes :data:`REFERENCE_UNIT_S`.

The kernel is the benchmark's own code and never calls the program, so a
change to the program moves the scaled figures exactly as it moves the
raw ones; only the host's speed cancels.  It does the kind of work a
query does: a toy best-first walk over a fixed random graph with small
numpy gathers, distance sums and ``argpartition`` between Python-level
set and list bookkeeping.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: Seconds one kernel unit takes on the reference host.
REFERENCE_UNIT_S = 1e-3

_ROWS = 2000
_DIM = 64
_DEGREE = 16
_STEPS = 12
_BEAM = 8

_rng = np.random.default_rng(20240501)
_POINTS = _rng.normal(size=(_ROWS, _DIM)).astype(np.float32)
_ADJACENCY = _rng.integers(0, _ROWS, size=(_ROWS, _DEGREE))
_QUERIES = _rng.normal(size=(64, _DIM))


def unit(j: int) -> list[tuple[float, int]]:
    """One kernel unit: a fixed best-first walk for query ``j mod 64``."""
    query = _QUERIES[j % len(_QUERIES)]
    frontier = np.arange(_BEAM) + (j * 37) % (_ROWS - _BEAM)
    seen: set[int] = set()
    best: list[tuple[float, int]] = []
    for _ in range(_STEPS):
        near = np.unique(_ADJACENCY[frontier].ravel())
        near = near[[n not in seen for n in near.tolist()]]
        if len(near) <= _BEAM:
            break
        seen.update(near.tolist())
        dists = ((_POINTS[near] - query) ** 2).sum(axis=1)
        keep = np.argpartition(dists, _BEAM)[:_BEAM]
        frontier = near[keep]
        best = sorted(best + list(zip(dists[keep].tolist(), frontier.tolist())))[:10]
    return best


def _timed_unit(j: int) -> float:
    started = time.perf_counter()
    unit(j)
    return time.perf_counter() - started


def run_units(count: int) -> list[float]:
    """Run ``count`` kernel units; each unit's seconds."""
    return [_timed_unit(j) for j in range(count)]


def measure(seconds: float) -> list[float]:
    """Run kernel units back to back for ``seconds``; each unit's seconds."""
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        units.append(_timed_unit(len(units)))
    return units


def scale_of(unit_seconds: list[float]) -> float:
    """Factor from this host's seconds to reference seconds.

    The median unit time of the calibration sample, against
    :data:`REFERENCE_UNIT_S`: a host half as fast takes twice as long per
    unit, and its times are scaled by one half.
    """
    return REFERENCE_UNIT_S / statistics.median(unit_seconds)


@dataclass
class Cycle:
    """One stretch of timed calls and the calibration that followed it.

    Attributes:
        times: ``(start, end)`` of each call, raw host seconds.
        units: Seconds of each kernel unit run straight after the calls.
    """

    times: list[tuple[float, float]] = field(default_factory=list)
    units: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Host-to-reference factor over this cycle."""
        return scale_of(self.units)

    def rate(self) -> float:
        """Calls per reference second over the cycle's calls."""
        span = self.times[-1][1] - self.times[0][0]
        return len(self.times) / (span * self.scale)


#: Seconds of calls, then of calibration, in one :class:`Cycle`.
CALL_SECONDS = 0.4
UNIT_SECONDS = 0.1


def run_calibrated_loop(call: Callable[[int], Any], seconds: float) -> list[Cycle]:
    """A closed loop that calibrates after every ``CALL_SECONDS`` of calls.

    Calls ``call(i)`` back to back, and after each stretch of
    ``CALL_SECONDS`` runs the kernel for ``UNIT_SECONDS``, until
    ``seconds`` have passed.  Each call is scaled by the calibration that
    followed it, which on a host whose speed wanders within seconds tracks
    it better than one factor for the whole run.
    """
    cycles = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        cycle = Cycle()
        stop = time.perf_counter() + CALL_SECONDS
        while True:
            started = time.perf_counter()
            if started >= stop:
                break
            call(i)
            cycle.times.append((started, time.perf_counter()))
            i += 1
        cycle.units = measure(UNIT_SECONDS)
        cycles.append(cycle)
    return cycles


def scaled_latencies(cycles: list[Cycle]) -> list[float]:
    """Every call's latency in reference seconds."""
    return [(end - start) * cycle.scale for cycle in cycles for start, end in cycle.times]
