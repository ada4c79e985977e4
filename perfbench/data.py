"""Seeded inputs: a clustered-Gaussian stream and queries drawn like it.

Timestamps are the arrival order (record ``i`` has timestamp ``i``), so a
time window ``[t_start, t_end)`` covers exactly the stream positions
``t_start .. t_end - 1``.  The program under test only ever sees the
generated arrays.
"""

from __future__ import annotations

import numpy as np

N_CLUSTERS = 16
CLUSTER_SCALE = 4.0


class Gaussians:
    """Clustered Gaussians in ``dim`` dimensions, all derived from ``seed``."""

    def __init__(self, dim: int, seed: int) -> None:
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.centers = rng.normal(scale=CLUSTER_SCALE, size=(N_CLUSTERS, dim))

    def stream(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` float32 vectors and their timestamps ``0 .. n-1``."""
        rng = np.random.default_rng([self.seed, 1])
        labels = rng.integers(0, N_CLUSTERS, size=n)
        vectors = self.centers[labels] + rng.normal(size=(n, self.dim))
        return vectors.astype(np.float32), np.arange(n, dtype=np.float64)

    def queries(self, m: int) -> np.ndarray:
        """``m`` float64 query vectors from the same mixture."""
        rng = np.random.default_rng([self.seed, 2])
        labels = rng.integers(0, N_CLUSTERS, size=m)
        return self.centers[labels] + rng.normal(size=(m, self.dim))


def log_uniform(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """``size`` draws whose logarithm is uniform on ``[log lo, log hi]``."""
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def windows(
    rng: np.random.Generator,
    m: int,
    lo: float,
    hi: float,
    frac_lo: float,
    frac_hi: float,
) -> np.ndarray:
    """``m`` integer windows inside ``[lo, hi)``, lengths log-uniform.

    Each window's length is a log-uniform fraction in ``[frac_lo,
    frac_hi]`` of the whole timeline ``hi - lo`` (at least one row), and
    its offset is uniform over the positions where it fits.  Returns an
    ``(m, 2)`` int64 array of ``[t_start, t_end)``.
    """
    span = hi - lo
    lengths = np.maximum(1, np.round(log_uniform(rng, frac_lo, frac_hi, m) * span))
    lengths = np.minimum(lengths, span).astype(np.int64)
    starts = lo + np.floor(rng.uniform(size=m) * (span - lengths + 1)).astype(np.int64)
    return np.stack([starts, starts + lengths], axis=1)
