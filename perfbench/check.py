"""One answer checker and exact oracle shared by every workload.

The checker holds the runner's own copy of the stream and judges each
answer on its own terms: every position inside the window, distances
ascending, ``min(k, window rows)`` distinct results, and every reported
distance equal to the one recomputed from the stream.  It also scores
``recall_at_10`` against an exact numpy scan of the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stats import recall

#: Relative/absolute tolerance between reported and recomputed distances.
DIST_RTOL = 1e-6
DIST_ATOL = 1e-6


@dataclass
class Verdicts:
    """Running tally of checked answers."""

    checked: int = 0
    failed: int = 0
    recall_sum: float = 0.0
    reasons: list[str] = field(default_factory=list)

    @property
    def mean_recall(self) -> float:
        """Mean recall over every checked answer."""
        return self.recall_sum / self.checked if self.checked else 0.0

    def add(self, reason: str | None, found: float = 0.0) -> None:
        """Count one answer: a failure when ``reason`` is set, else its recall."""
        self.checked += 1
        if reason is None:
            self.recall_sum += found
            return
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


class Oracle:
    """Exact TkNN over the runner's copy of the stream (Euclidean)."""

    def __init__(self, vectors: np.ndarray, timestamps: np.ndarray) -> None:
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.timestamps = np.asarray(timestamps, dtype=np.float64)

    def window_rows(self, t_start: float, t_end: float) -> range:
        """Stream positions with ``t_start <= timestamp < t_end``."""
        lo = int(np.searchsorted(self.timestamps, t_start, side="left"))
        hi = int(np.searchsorted(self.timestamps, t_end, side="left"))
        return range(lo, max(lo, hi))

    def exact(self, query: np.ndarray, k: int, rows: range) -> np.ndarray:
        """Positions of the exact ``k`` nearest rows, nearest first."""
        if len(rows) == 0:
            return np.empty(0, dtype=np.int64)
        dists = np.linalg.norm(self.vectors[rows.start : rows.stop] - query, axis=1)
        take = min(k, len(rows))
        best = np.argpartition(dists, take - 1)[:take]
        best = best[np.argsort(dists[best], kind="stable")]
        return rows.start + best

    def judge(
        self,
        query: np.ndarray,
        k: int,
        t_start: float,
        t_end: float,
        positions: np.ndarray,
        distances: np.ndarray,
    ) -> tuple[str | None, float]:
        """``(failure reason or None, recall)`` for one answer."""
        query = np.asarray(query, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.float64)
        rows = self.window_rows(t_start, t_end)
        expected = min(k, len(rows))
        if len(positions) != expected or len(distances) != expected:
            return f"{len(positions)} results, expected {expected}", 0.0
        if expected == 0:
            return None, 1.0
        if positions.min() < rows.start or positions.max() >= rows.stop:
            return f"position outside window [{t_start}, {t_end})", 0.0
        if len(set(positions.tolist())) != expected:
            return "duplicate positions", 0.0
        if np.any(np.diff(distances) < 0):
            return "distances not ascending", 0.0
        actual = np.linalg.norm(self.vectors[positions] - query, axis=1)
        if not np.allclose(distances, actual, rtol=DIST_RTOL, atol=DIST_ATOL):
            return "reported distance differs from recomputed", 0.0
        return None, recall(positions, self.exact(query, k, rows), expected)

    def score(
        self,
        verdicts: Verdicts,
        query: np.ndarray,
        k: int,
        t_start: float,
        t_end: float,
        positions: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        """Judge one answer into ``verdicts``."""
        verdicts.add(*self.judge(query, k, t_start, t_end, positions, distances))
