"""Pure statistics helpers: tail percentiles with sample counts, recall.

Every timing the benchmark reports is a median plus the highest standard
percentile that still has at least ten samples beyond it, so a tail is
never read off fewer samples than can support it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Standard percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A nearest-rank percentile together with the sample it was read from.

    Attributes:
        percentile: The percentile reported (e.g. 99.0).
        value: The sample at that rank.
        n: Number of samples.
        beyond: Samples ranked strictly after the reported one.
    """

    percentile: float
    value: float
    n: int
    beyond: int

    def label(self) -> str:
        """``p99 of 1200`` style description for the printed report."""
        return f"p{self.percentile:g} of {self.n}"


def nearest_rank(values: Sequence[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank ``percentile`` of ``values`` and the count beyond it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float]) -> Tail | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples past it.

    Returns ``None`` when even the median has fewer than ``MIN_BEYOND``
    samples beyond it.
    """
    if not values:
        return None
    for percentile in TAIL_LADDER:
        value, beyond = nearest_rank(values, percentile)
        if beyond >= MIN_BEYOND:
            return Tail(percentile, value, len(values), beyond)
    return None


def tail_or_max(values: Sequence[float]) -> float:
    """:func:`tail`'s value, or the maximum when too few samples exist.

    The maximum bounds every percentile from above, so a limit checked
    against it is never checked too leniently.
    """
    found = tail(values)
    if found is not None:
        return found.value
    return max(values) if values else 0.0


def p99(values: Sequence[float]) -> float:
    """The nearest-rank p99, which is the maximum below 100 samples."""
    return nearest_rank(values, 99.0)[0]


def describe_tail(values: Sequence[float]) -> str:
    """Which percentile :func:`tail_or_max` reported, and of how many."""
    found = tail(values)
    return found.label() if found is not None else f"max of {len(values)}"


def median(values: Sequence[float]) -> float:
    """Median, ``0.0`` for no samples (a layer the workload never entered)."""
    return float(statistics.median(values)) if values else 0.0


def median_ratio(
    marked: Sequence[tuple[float, float]], plain: Sequence[tuple[float, float]]
) -> float:
    """Median ``end - start`` of ``marked`` over that of ``plain``."""
    base = median([end - start for start, end in plain])
    return median([end - start for start, end in marked]) / base if base else 0.0


def recall(found: Sequence[int], exact: Sequence[int], expected: int) -> float:
    """Share of the ``expected`` exact neighbours present in ``found``."""
    if expected <= 0:
        return 1.0
    return len(set(int(p) for p in found) & set(int(p) for p in exact)) / expected


#: Width in seconds of the bins :func:`chunked_rate` takes its median over.
RATE_BIN = 1.0


def chunked_rate(times: Sequence[tuple[float, float]]) -> float:
    """Median completion rate over consecutive ``RATE_BIN``-second bins.

    ``times`` are ``(start, end)`` pairs.  Completions are binned by end
    time from the first start and the last, partial bin is dropped; a
    bin's rate is its completions over the time its first to its last
    completion spans.  The median over bins shrugs off a few seconds of
    a slowed host, which one count over the whole run would not.
    """
    if not times:
        return 0.0
    origin = min(start for start, _ in times)
    last = max(end for _, end in times)
    full = int((last - origin) // RATE_BIN)
    if full < 1:
        return len(times) / (last - origin) if last > origin else 0.0
    bins: list[list[float]] = [[] for _ in range(full)]
    for _, end in times:
        slot = int((end - origin) // RATE_BIN)
        if slot < full:
            bins[slot].append(end)
    rates = [
        (len(ends) - 1) / (max(ends) - min(ends)) if len(ends) > 1 and max(ends) > min(ends) else len(ends) / RATE_BIN
        for ends in bins
    ]
    return float(statistics.median(rates))
