"""Reproducible performance harness — the numbers behind ``repro bench``.

Five pinned-seed suites, emitted as one schema-versioned JSON document
(``repro-bench/v6``) that every future PR appends a sibling of:

* **qps** — closed-batch throughput of MBI's ``search_batch`` versus the
  BSBF baseline, both answering the same pinned workload.  Every row
  reports its ``recall_at_k`` against the exact in-window oracle and its
  mean distance evaluations per query, so a throughput gain that
  silently trades away accuracy is visible in the same table;
* **graph_kernels** — the raw Algorithm 2 engines head-to-head on one
  built graph of the same workload shape: the legacy node-at-a-time
  ``greedy_graph_search`` versus the vectorized beam engine at several
  widths, each with recall and distance-evaluation columns;
* **tiering** — the same batched workload against an all-hot index and
  against the same index under a memory budget half its resident size
  (``repro.tiering``): a recent-window batch (served hot; bit-identity
  checked against the all-hot answers) and a backfill batch over the
  cold prefix (promotions/rebuilds on the critical path).  Rows carry
  ``resident_bytes`` and ``tier_hit_rate``; the suite records the
  budget and whether peak resident bytes stayed under it;
* **cold_codes** — the compressed cold-tier search path
  (``MBIConfig.cold_codes``) against promote-on-miss on a backfill-heavy
  window mix under a quartered memory budget: twin indices answer the
  same cold-leaning batch cycle, one by promoting every cold block it
  touches, the other ADC-first from resident PQ code sidecars with an
  exact memmap re-rank.  Rows carry ``recall_at_k`` against the exact
  oracle, re-ranked rows per query, promotions, and peak resident
  bytes; ``validate_bench`` gates the ADC row's recall at ≥ 0.99 and
  both methods' query-phase peaks within the budget;
* **sharding** — scatter-gather serving (``repro.sharding``) at several
  shard counts under concurrent full-speed ingest: each count first
  passes a bit-identity gate against the single-shard reference over
  the settled prefix, then serves narrow-window queries while a writer
  thread streams new vectors into the active stripe.  Rows carry
  ``qps``/``p50_ms``/``p99_ms``, the concurrent ``ingest_rate``, and
  the gate verdict — on a single core the multi-shard uplift comes from
  contention isolation (queries pruned to quiet shards dodge the
  writer's lock), not parallelism.

The harness is import-light and fast by design: the ``--smoke`` profile
finishes in seconds so CI can run it on every push (and fail on schema
violations via :func:`validate_bench`); the full profile is what the
numbers in ``docs/performance.md`` come from.  Everything is derived
from one seed, so two runs on the same machine measure the same work.

Usage::

    repro bench --smoke                  # quick, CI-sized
    repro bench --out BENCH_2026-08-06.json
    python -m benchmarks.harness --smoke # same thing without the CLI

The emitted file's top-level keys are pinned by :data:`SCHEMA`; consumers
should reject documents whose ``schema`` field they do not recognise.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SCHEMA = "repro-bench/v6"

#: Beam widths exercised by the graph_kernels suite.
DEFAULT_BEAM_SWEEP = (8, 16, 32)


@dataclass(frozen=True)
class HarnessProfile:
    """Workload sizing for one harness run.

    Attributes:
        n_items: Vectors indexed.
        dim: Dimensionality.
        leaf_size: MBI ``S_L``.
        n_queries: Queries per measurement.
        k: Neighbors per query.
        repeats: Timed repetitions per configuration (the best —
            minimum — latency is reported, the standard way to de-noise
            wall-clock microbenchmarks).
        window_fraction: Centered window length as a fraction of the
            timeline; 0.5 straddles the root split so the selection walk
            produces a multi-block search set.
        shard_counts: Shard counts the sharding suite measures; must
            start at 1 (the reference every other count is gated
            against).
        shard_query_seconds: Wall-clock length of each shard count's
            timed query phase (concurrent ingest runs throughout).
    """

    n_items: int = 8000
    dim: int = 32
    leaf_size: int = 500
    n_queries: int = 64
    k: int = 10
    repeats: int = 3
    window_fraction: float = 0.5
    shard_counts: tuple = (1, 2, 4)
    shard_query_seconds: float = 2.5


SMOKE = HarnessProfile(
    n_items=1500,
    dim=16,
    leaf_size=125,
    n_queries=16,
    k=10,
    repeats=1,
    shard_counts=(1, 2),
    shard_query_seconds=0.75,
)
FULL = HarnessProfile()


def build_workload(profile: HarnessProfile, seed: int):
    """Build the pinned index + query set the suites share.

    Returns ``(index, queries, (t_start, t_end))``.
    """
    from repro import MBIConfig, MultiLevelBlockIndex
    from repro.core.config import SearchParams
    from repro.graph.builder import GraphConfig

    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(8, profile.dim))
    assignments = rng.integers(0, len(centers), size=profile.n_items)
    vectors = centers[assignments] + rng.normal(
        size=(profile.n_items, profile.dim)
    )
    timestamps = np.arange(profile.n_items, dtype=np.float64)
    queries = centers[
        rng.integers(0, len(centers), size=profile.n_queries)
    ] + rng.normal(size=(profile.n_queries, profile.dim))

    config = MBIConfig(
        leaf_size=profile.leaf_size,
        graph=GraphConfig(n_neighbors=12, exact_threshold=100_000),
        search=SearchParams(brute_force_threshold=32),
        seed=seed,
    )
    index = MultiLevelBlockIndex(profile.dim, "euclidean", config)
    # Pin the flag over any ambient REPRO_COLD_CODES override: the
    # shared suites (and the tiering suite's bit-identity gate) measure
    # the exact promote-on-miss path by construction.
    index._config = dc_replace(index._config, cold_codes=False)
    index.extend(vectors, timestamps)

    half = profile.n_items * profile.window_fraction / 2
    mid = profile.n_items / 2
    window = (mid - half, mid + half)
    return index, queries, window


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _identical(a, b) -> bool:
    return bool(
        np.array_equal(a.positions, b.positions)
        and np.array_equal(a.distances, b.distances)
    )


def exact_window_topk(
    vectors: np.ndarray, queries: np.ndarray, k: int, lo: int, hi: int
) -> list[set[int]]:
    """The exact oracle: per-query top-``k`` position sets inside ``[lo, hi)``.

    A direct NumPy scan independent of every library code path, so recall
    columns cannot be poisoned by the very kernels they are auditing.
    Ties resolve ascending by position, the library-wide convention.
    """
    window = np.asarray(vectors[lo:hi], dtype=np.float64)
    out: list[set[int]] = []
    for query in queries:
        delta = window - np.asarray(query, dtype=np.float64)
        dists = np.einsum("ij,ij->i", delta, delta)
        order = np.lexsort((np.arange(len(dists)), dists))[:k]
        out.append({int(lo + position) for position in order})
    return out


def _recall(result_positions, exact: set[int], k: int) -> float:
    return len(set(int(p) for p in result_positions) & exact) / k


def run_qps_suite(
    index, queries, window, profile: HarnessProfile, seed: int
) -> dict:
    """Batch throughput: MBI ``search_batch`` vs BSBF.

    Every row carries ``recall_at_k`` against the exact in-window oracle
    and the mean distance evaluations per query, measured on the first
    (timed) pass.
    """
    from repro import BSBFIndex
    from repro.storage.timeline import TimeWindow

    t_start, t_end = window
    store = index.store
    vectors = store.slice(0, len(store))
    timestamps = store.timestamps
    positions = store.resolve_window(TimeWindow(float(t_start), float(t_end)))
    oracle = exact_window_topk(
        vectors, queries, profile.k, positions.start, positions.stop
    )
    rows = []

    def measure(name: str, run_batch) -> None:
        best = float("inf")
        results = None
        for _ in range(profile.repeats):
            started = time.perf_counter()
            batch = run_batch()
            best = min(best, time.perf_counter() - started)
            if results is None:
                results = batch
        assert len(results) == len(queries)
        recall = statistics.fmean(
            _recall(result.positions, exact, profile.k)
            for result, exact in zip(results, oracle)
        )
        dist_evals = statistics.fmean(
            float(result.stats.distance_evaluations) for result in results
        )
        rows.append(
            {
                "method": name,
                "qps": len(queries) / best if best > 0 else float("inf"),
                "mean_ms": best / len(queries) * 1e3,
                "batch_seconds": best,
                "recall_at_k": recall,
                "dist_evals_per_query": dist_evals,
            }
        )

    measure(
        "mbi-sequential",
        lambda: index.search_batch(
            queries,
            profile.k,
            t_start,
            t_end,
            rng=np.random.default_rng(seed),
        ),
    )
    bsbf = BSBFIndex(index.dim, index.metric)
    bsbf.extend(vectors, timestamps)
    measure(
        "bsbf",
        lambda: bsbf.search_batch(queries, profile.k, t_start, t_end),
    )
    return {"rows": rows}


def run_graph_kernels_suite(
    index, queries, profile: HarnessProfile, seed: int, beam_sweep
) -> dict:
    """Raw Algorithm 2 engines on one graph of the workload's shape.

    Builds a single proximity graph (the index's own graph config) over
    the stored vectors and runs the pinned query set through the legacy
    node-at-a-time engine and the vectorized beam engine at each width in
    ``beam_sweep`` — identical entries, epsilon, and ``M_C`` per query —
    so the rows isolate the engine swap from everything MBI layers on
    top.  Recall is measured against the exact oracle over the same
    point set.
    """
    from repro.core.config import SearchParams
    from repro.distances.fused import NormCache
    from repro.graph import graph_search, greedy_graph_search
    from repro.graph.builder import build_knn_graph

    store = index.store
    n_points = min(len(store), 4000)
    points = np.ascontiguousarray(store.slice(0, n_points))
    metric = index.metric
    report = build_knn_graph(
        points, metric, index.config.graph, np.random.default_rng(seed)
    )
    graph = report.graph
    params = SearchParams()
    oracle = exact_window_topk(points, queries, profile.k, 0, n_points)
    entry_rng = np.random.default_rng([seed, 7])
    entries = [
        entry_rng.choice(n_points, size=params.n_entries, replace=False)
        for _ in range(len(queries))
    ]
    norms = NormCache(points, metric)
    rows = []

    def measure(name: str, search_one) -> None:
        best = float("inf")
        outcomes = None
        for _ in range(profile.repeats):
            started = time.perf_counter()
            batch = [search_one(i) for i in range(len(queries))]
            best = min(best, time.perf_counter() - started)
            if outcomes is None:
                outcomes = batch
        recall = statistics.fmean(
            _recall(outcome.ids, exact, profile.k)
            for outcome, exact in zip(outcomes, oracle)
        )
        dist_evals = statistics.fmean(
            float(outcome.stats.distance_evaluations) for outcome in outcomes
        )
        rows.append(
            {
                "method": name,
                "qps": len(queries) / best if best > 0 else float("inf"),
                "mean_ms": best / len(queries) * 1e3,
                "batch_seconds": best,
                "recall_at_k": recall,
                "dist_evals_per_query": dist_evals,
            }
        )

    measure(
        "greedy",
        lambda i: greedy_graph_search(
            graph,
            points,
            metric,
            queries[i],
            profile.k,
            epsilon=params.epsilon,
            max_candidates=params.max_candidates,
            entry=entries[i],
        ),
    )
    for width in beam_sweep:
        measure(
            f"beam-{width}",
            lambda i, width=width: graph_search(
                graph,
                points,
                metric,
                queries[i],
                profile.k,
                epsilon=params.epsilon,
                max_candidates=params.max_candidates,
                entry=entries[i],
                norms=norms,
                beam_width=width,
            ),
        )
    return {
        "graph_points": int(n_points),
        "epsilon": params.epsilon,
        "max_candidates": params.max_candidates,
        "rows": rows,
    }


def _resident_block_bytes(index) -> int:
    """All-hot resident bytes, mirroring ``TierManager._block_nbytes``.

    Computed *before* tiering is enabled, so the suite can size the
    budget at half of what the untiered index keeps in memory.
    """
    total = 0
    store = index.store
    for block in index._blocks.values():
        backend = block.backend
        if backend is None:
            continue
        total += int(backend.nbytes())
        norms = getattr(backend, "norms", None)
        if norms is not None:
            total += int(norms.nbytes())
        filled = min(block.positions.stop, len(store))
        total += store.slice_nbytes(block.positions.start, filled)
    return total


def run_tiering_suite(index, queries, profile: HarnessProfile, seed: int) -> dict:
    """Batched throughput all-hot versus under a halved memory budget.

    Measures a recent window (inside the hot window — served without
    promotions) and a backfill window over the oldest fifth of the
    timeline (promotions and deterministic rebuilds on the critical
    path), first against the untiered index and then after
    ``enable_tiering`` with ``budget = all_hot_resident / 2`` and a
    compaction sweep.  Tiered rows are bit-identity checked against
    their all-hot twins; every row reports the settled resident bytes
    and the hit rate of block resolutions during its timed passes.

    Runs **last** in :func:`run_harness` — enabling tiering on the
    shared index is one-way (the first configuration wins).
    """
    from repro.observability.metrics import get_registry
    from repro.storage.timeline import TimeWindow
    from repro.tiering.compactor import Compactor

    registry = get_registry()
    hits = registry.counter("tier_hits_total")
    misses = registry.counter("tier_misses_total")
    promotions = registry.counter("tier_promotions_total")
    resident_gauge = registry.gauge("tier_resident_bytes")

    n = profile.n_items
    store = index.store
    vectors = store.slice(0, len(store))
    windows = {
        "recent": (n * 0.8, float(n)),
        "backfill": (0.0, n * 0.2),
    }
    oracles = {}
    for window_name, (lo, hi) in windows.items():
        span = store.resolve_window(TimeWindow(lo, hi))
        oracles[window_name] = exact_window_topk(
            vectors, queries, profile.k, span.start, span.stop
        )

    all_hot_resident = _resident_block_bytes(index)
    rows = []
    results_by_method: dict[str, list] = {}

    def measure(method: str, window_name: str, tiered: bool) -> None:
        lo, hi = windows[window_name]
        hits_before, misses_before = hits.value, misses.value
        promotions_before = promotions.value
        best = float("inf")
        results = None
        for _ in range(profile.repeats):
            started = time.perf_counter()
            batch = index.search_batch(
                queries,
                profile.k,
                lo,
                hi,
                rng=np.random.default_rng(seed),
            )
            best = min(best, time.perf_counter() - started)
            if results is None:
                results = batch
        # Prefetch (``note_selection``) promotes cold selected blocks
        # before the per-block resolve ever misses, so cold activity is
        # the promotions counter, not the miss counter.
        resolutions = (hits.value - hits_before) + (
            misses.value - misses_before
        )
        promoted = promotions.value - promotions_before
        recall = statistics.fmean(
            _recall(result.positions, exact, profile.k)
            for result, exact in zip(results, oracles[window_name])
        )
        dist_evals = statistics.fmean(
            float(result.stats.distance_evaluations) for result in results
        )
        baseline = results_by_method.get(f"all-hot-{window_name}")
        identical = baseline is None or all(
            _identical(a, b) for a, b in zip(baseline, results)
        )
        results_by_method[method] = results
        resident = (
            index.tiering.cache.resident_bytes if tiered else all_hot_resident
        )
        rows.append(
            {
                "method": method,
                "qps": len(queries) / best if best > 0 else float("inf"),
                "mean_ms": best / len(queries) * 1e3,
                "batch_seconds": best,
                "recall_at_k": recall,
                "dist_evals_per_query": dist_evals,
                "resident_bytes": int(resident),
                "tier_hit_rate": (
                    max(0.0, 1.0 - promoted / resolutions)
                    if resolutions
                    else 1.0
                ),
                "identical_to_all_hot": bool(identical),
            }
        )

    measure("all-hot-recent", "recent", tiered=False)
    measure("all-hot-backfill", "backfill", tiered=False)

    hot_window = int(0.3 * n)
    manager = index.enable_tiering(
        memory_budget_mb=all_hot_resident / 2 / 2**20,
        hot_window_vectors=hot_window,
    )
    # enable_tiering is first-config-wins, so an ambient
    # REPRO_MEMORY_BUDGET_MB (the CI tight-budget job) would otherwise
    # displace the experiment's halved budget — pin it explicitly.
    manager.reconfigure(
        memory_budget_mb=all_hot_resident / 2 / 2**20,
        hot_window_vectors=hot_window,
    )
    Compactor(manager).run_once()
    # The enable-time sync records a full-resident peak in the gauge —
    # every block genuinely was hot before the sweep — but the suite
    # audits the *query phase*, so reset the high-water mark to the
    # post-compaction residency before the timed passes.
    resident_gauge._reset()
    resident_gauge.set(manager.cache.resident_bytes)

    measure("tiered-recent", "recent", tiered=True)
    measure("tiered-backfill", "backfill", tiered=True)

    stats = manager.stats()
    by_method = {row["method"]: row for row in rows}
    return {
        "budget_bytes": int(stats["budget_bytes"]),
        "all_hot_resident_bytes": int(all_hot_resident),
        "peak_resident_bytes": int(stats["peak_resident_bytes"]),
        "within_budget": bool(
            stats["peak_resident_bytes"] <= stats["budget_bytes"]
        ),
        "cold_blocks": int(stats["cold_blocks"]),
        "hot_window_vectors": hot_window,
        "recent_qps_ratio": (
            by_method["tiered-recent"]["qps"]
            / by_method["all-hot-recent"]["qps"]
        ),
        "rows": rows,
    }


def run_cold_codes_suite(profile: HarnessProfile, seed: int) -> dict:
    """Compressed cold-tier search vs promote-on-miss on a backfill mix.

    Builds twin indices over the pinned workload — one with
    ``cold_codes=False`` (every cold read promotes the block), one with
    ``cold_codes=True`` (cold spans answer ADC-first from their PQ code
    sidecars with an exact memmap re-rank) — then times the same
    backfill-heavy batch cycle on both under a memory budget of a
    quarter of the all-hot residency.  The cycle leans cold on purpose:
    three *disjoint* backfill windows (together ~45% of the timeline)
    for every recent batch, so the promote-on-miss twin's cold working
    set cannot fit the quartered budget — every pass re-promotes and
    re-demotes block after block, which is exactly the churn the code
    sidecars exist to avoid.

    Self-contained (its own indices), so it is independent of the
    suite order in :func:`run_harness`.
    """
    from repro import MBIConfig, MultiLevelBlockIndex
    from repro.core.config import SearchParams
    from repro.graph.builder import GraphConfig
    from repro.observability.metrics import get_registry
    from repro.storage.timeline import TimeWindow
    from repro.tiering.compactor import Compactor

    registry = get_registry()
    promotions = registry.counter("tier_promotions_total")
    rerank_rows = registry.counter("tier_adc_rerank_rows_total")
    resident_gauge = registry.gauge("tier_resident_bytes")

    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(8, profile.dim))
    assignments = rng.integers(0, len(centers), size=profile.n_items)
    vectors = centers[assignments] + rng.normal(
        size=(profile.n_items, profile.dim)
    )
    timestamps = np.arange(profile.n_items, dtype=np.float64)
    queries = centers[
        rng.integers(0, len(centers), size=profile.n_queries)
    ] + rng.normal(size=(profile.n_queries, profile.dim))

    n = profile.n_items
    windows = {
        "backfill-a": (0.0, n * 0.2),
        "backfill-b": (n * 0.25, n * 0.45),
        "backfill-c": (n * 0.5, n * 0.7),
        "recent": (n * 0.95, float(n)),
    }
    # Cold-heavy cycle: 3 of 4 batches land outside the hot window, on
    # disjoint spans whose blocks together overflow the budget.
    mix = ("backfill-a", "backfill-b", "backfill-c", "recent")
    hot_window = int(0.05 * n)

    rows = []
    budget_bytes = None
    oracles = None
    for method, cold_codes in (
        ("promote-on-miss", False),
        ("adc-first", True),
    ):
        config = MBIConfig(
            leaf_size=profile.leaf_size,
            graph=GraphConfig(n_neighbors=12, exact_threshold=100_000),
            search=SearchParams(
                brute_force_threshold=32,
                cold_adc_threshold=32,
                cold_rerank_factor=16,
            ),
            cold_codes=cold_codes,
            seed=seed,
        )
        index = MultiLevelBlockIndex(profile.dim, "euclidean", config)
        # The twin comparison IS the explicit on/off flag — re-pin it
        # over any ambient REPRO_COLD_CODES override.
        index._config = dc_replace(index._config, cold_codes=cold_codes)
        index.extend(vectors, timestamps)
        if oracles is None:
            store = index.store
            oracles = {}
            for window_name, (lo, hi) in windows.items():
                span = store.resolve_window(TimeWindow(float(lo), float(hi)))
                oracles[window_name] = exact_window_topk(
                    vectors, queries, profile.k, span.start, span.stop
                )
        if budget_bytes is None:
            # The twins are byte-identical builds: size the shared
            # budget once, off the first.  An eighth of all-hot cannot
            # hold the three backfill windows' blocks at once, so the
            # promote-on-miss twin churns on every pass.
            budget_bytes = _resident_block_bytes(index) // 8
        budget_mb = budget_bytes / 2**20
        manager = index.enable_tiering(
            memory_budget_mb=budget_mb, hot_window_vectors=hot_window
        )
        # Pin the experiment's budget against an ambient
        # REPRO_MEMORY_BUDGET_MB (enable_tiering is first-config-wins).
        manager.reconfigure(
            memory_budget_mb=budget_mb, hot_window_vectors=hot_window
        )
        Compactor(manager).run_once()
        # Audit the query phase, not the enable-time sync (see
        # run_tiering_suite).
        resident_gauge._reset()
        resident_gauge.set(manager.cache.resident_bytes)

        promotions_before = promotions.value
        rerank_before = rerank_rows.value
        best = float("inf")
        first_pass = None
        for _ in range(profile.repeats):
            started = time.perf_counter()
            batch = [
                (name, index.search_batch(
                    queries,
                    profile.k,
                    *windows[name],
                    rng=np.random.default_rng(seed),
                ))
                for name in mix
            ]
            best = min(best, time.perf_counter() - started)
            if first_pass is None:
                first_pass = batch
        n_answers = len(queries) * len(mix)
        recall = statistics.fmean(
            _recall(result.positions, exact, profile.k)
            for window_name, results in first_pass
            for result, exact in zip(results, oracles[window_name])
        )
        dist_evals = statistics.fmean(
            float(result.stats.distance_evaluations)
            for _, results in first_pass
            for result in results
        )
        stats = manager.stats()
        rows.append(
            {
                "method": method,
                "qps": n_answers / best if best > 0 else float("inf"),
                "mean_ms": best / n_answers * 1e3,
                "batch_seconds": best,
                "recall_at_k": recall,
                "dist_evals_per_query": dist_evals,
                "promotions": int(promotions.value - promotions_before),
                "rerank_rows_per_query": (
                    (rerank_rows.value - rerank_before)
                    / (n_answers * profile.repeats)
                ),
                "resident_bytes": int(manager.cache.resident_bytes),
                "peak_resident_bytes": int(stats["peak_resident_bytes"]),
                "within_budget": bool(
                    stats["peak_resident_bytes"] <= budget_bytes
                ),
                "cold_blocks": int(stats["cold_blocks"]),
            }
        )

    by_method = {row["method"]: row for row in rows}
    return {
        "budget_bytes": int(budget_bytes),
        "hot_window_vectors": hot_window,
        "mix": list(mix),
        "windows": {
            name: [float(lo), float(hi)]
            for name, (lo, hi) in windows.items()
        },
        "qps_ratio": (
            by_method["adc-first"]["qps"]
            / by_method["promote-on-miss"]["qps"]
        ),
        "rows": rows,
    }


def run_sharding_suite(profile: HarnessProfile, seed: int) -> dict:
    """Scatter-gather serving vs shard count, under concurrent ingest.

    For each count in ``profile.shard_counts`` (1 first — the
    reference), opens an in-process :class:`~repro.sharding.ShardRouter`
    cluster, pre-ingests the settled 80% of the pinned stream, and runs
    two phases:

    1. **Bit-identity gate** — a pinned query set over three windows
       (full prefix, middle third, narrow) must answer bit-identically
       to the single-shard reference.  The cluster uses an exact search
       configuration (a brute-force threshold above any window), which
       is what makes cross-shard-count identity provable rather than
       merely likely.
    2. **Timed phase** — a writer thread streams fresh vectors into the
       active stripe at full speed while the client issues
       single-stripe-window queries over the settled prefix for
       ``shard_query_seconds``.  With one shard, every query contends
       with the writer on the single service's writer-preference lock;
       with more shards the window prunes each query down to one
       shard — usually not the writer's — so the same single core
       answers more of them.  The row's qps/p99 uplift measures exactly
       that contention isolation.

    Rows carry ``shard_count``, ``qps``, ``p50_ms``, ``p99_ms``,
    ``requests``, ``partial_queries`` (always 0 — degraded serving is
    off), ``ingest_rate`` (records/s absorbed during the timed phase),
    and ``identical_to_reference``.
    """
    import tempfile
    import threading

    from repro import MBIConfig, RouterConfig, ServiceConfig, ShardRouter
    from repro.core.config import SearchParams

    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(8, profile.dim))
    assignments = rng.integers(0, len(centers), size=profile.n_items)
    vectors = centers[assignments] + rng.normal(
        size=(profile.n_items, profile.dim)
    )
    timestamps = np.arange(profile.n_items, dtype=np.float64)
    queries = centers[
        rng.integers(0, len(centers), size=profile.n_queries)
    ] + rng.normal(size=(profile.n_queries, profile.dim))

    prefix = int(profile.n_items * 0.8)
    # The timed-phase window fits strictly inside ONE stripe (stripe
    # size == leaf_size here), so window pruning routes each query to a
    # single shard — usually not the one the writer is hammering.  A
    # wider window would straddle a stripe boundary and scatter to
    # every shard (stripes alternate owners), paying fan-out without
    # buying isolation.
    stripe0 = int(0.2 * prefix) // profile.leaf_size
    narrow = (
        (stripe0 + 0.25) * profile.leaf_size,
        (stripe0 + 0.75) * profile.leaf_size,
    )
    gate_windows = [
        (0.0, float(prefix)),
        (prefix / 3.0, 2.0 * prefix / 3.0),
        narrow,
    ]
    mbi_config = MBIConfig(
        leaf_size=profile.leaf_size,
        # Exact per-shard answers make bit-identity across shard counts
        # a theorem (see docs/sharding.md) instead of a coincidence.
        # With every window brute-forced the block backends are built
        # but never searched, so use the cheapest builder — graph
        # builds over the merge chain would otherwise outlive the
        # service drain timeout on close.
        backend="lsh",
        search=SearchParams(brute_force_threshold=10**9),
        seed=seed,
    )

    rows = []
    reference = None
    for shard_count in profile.shard_counts:
        with tempfile.TemporaryDirectory(prefix="repro-bench-shard-") as tmp:
            router = ShardRouter.open(
                Path(tmp),
                n_shards=shard_count,
                dim=profile.dim,
                mbi_config=mbi_config,
                service_config=ServiceConfig(fsync="never"),
                config=RouterConfig(seed=seed),
            )
            try:
                router.ingest_batch(vectors[:prefix], timestamps[:prefix])

                # ---- phase 1: bit-identity gate -----------------------
                answers = [
                    router.search(query, profile.k, lo, hi, seed=seed + qi)
                    for lo, hi in gate_windows
                    for qi, query in enumerate(queries[:8])
                ]
                if reference is None:
                    reference = answers
                    identical = True
                else:
                    # Ranking must be bit-identical; distance *floats*
                    # may differ in the last ulp because a shard-local
                    # scan runs its BLAS kernel over a different matrix
                    # shape than the unsharded scan — the same caveat
                    # the batched cross kernel documents
                    # (docs/performance.md).
                    identical = all(
                        np.array_equal(a.positions, b.positions)
                        and np.array_equal(a.timestamps, b.timestamps)
                        and np.allclose(
                            a.distances, b.distances, rtol=1e-12, atol=0
                        )
                        for a, b in zip(reference, answers)
                    )

                # ---- phase 2: queries under concurrent ingest ---------
                stop = threading.Event()
                written = [0]

                def writer(router=router, start=prefix):
                    """Full-speed batched stream into the active stripe.

                    Batches (the realistic shape for a high-throughput
                    writer) hold the owning shard's write lock long
                    enough that 1-shard readers visibly stall behind
                    the writer-preference lock — the contention the
                    multi-shard rows dodge via pruning.
                    """
                    wrng = np.random.default_rng([seed, 0xF00D])
                    ts = float(start)
                    batch = 64
                    while not stop.is_set():
                        router.ingest_batch(
                            wrng.standard_normal((batch, profile.dim)),
                            np.arange(ts, ts + batch),
                        )
                        ts += batch
                        written[0] += batch

                thread = threading.Thread(target=writer, daemon=True)
                latencies: list[float] = []
                partial_queries = 0
                thread.start()
                phase_start = time.perf_counter()
                deadline = phase_start + profile.shard_query_seconds
                i = 0
                while time.perf_counter() < deadline:
                    query = queries[i % len(queries)]
                    started = time.perf_counter()
                    result = router.search(
                        query, profile.k, *narrow, seed=seed + i
                    )
                    latencies.append(time.perf_counter() - started)
                    if result.partial:
                        partial_queries += 1
                    i += 1
                elapsed = time.perf_counter() - phase_start
                stop.set()
                thread.join()

                rows.append(
                    {
                        "shard_count": int(shard_count),
                        "qps": len(latencies) / elapsed,
                        "p50_ms": _percentile(latencies, 50) * 1e3,
                        "p99_ms": _percentile(latencies, 99) * 1e3,
                        "requests": len(latencies),
                        "partial_queries": int(partial_queries),
                        "ingest_rate": written[0] / elapsed,
                        "identical_to_reference": bool(identical),
                    }
                )
            finally:
                router.close()
    return {
        "settled_prefix": prefix,
        "query_window": [float(narrow[0]), float(narrow[1])],
        "gate_windows": [[float(a), float(b)] for a, b in gate_windows],
        "rows": rows,
    }


def run_harness(seed: int = 0, smoke: bool = False, beam_sweep=None) -> dict:
    """Run every suite; returns the schema-versioned payload (not written)."""
    profile = SMOKE if smoke else FULL
    if beam_sweep is None:
        beam_sweep = DEFAULT_BEAM_SWEEP

    index, queries, window = build_workload(profile, seed)
    qps = run_qps_suite(index, queries, window, profile, seed)
    graph_kernels = run_graph_kernels_suite(
        index, queries, profile, seed, beam_sweep
    )
    sharding = run_sharding_suite(profile, seed)
    cold_codes = run_cold_codes_suite(profile, seed)
    # Last on purpose: enabling tiering on the shared index is one-way.
    tiering = run_tiering_suite(index, queries, profile, seed)

    payload = {
        "schema": SCHEMA,
        "created": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": int(seed),
        "profile": "smoke" if smoke else "full",
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count() or 0,
        },
        "workload": {
            "n_items": profile.n_items,
            "dim": profile.dim,
            "leaf_size": profile.leaf_size,
            "n_queries": profile.n_queries,
            "k": profile.k,
            "repeats": profile.repeats,
            "window_fraction": profile.window_fraction,
        },
        "suites": {
            "qps": qps,
            "graph_kernels": graph_kernels,
            "sharding": sharding,
            "cold_codes": cold_codes,
            "tiering": tiering,
        },
    }
    validate_bench(payload)
    return payload


# --------------------------------------------------------------------- schema


def validate_bench(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid repro-bench/v6 doc.

    This is the schema gate the CI smoke job runs: it checks document
    structure, row fields/types, and the semantic invariants — the qps
    suite must measure ``mbi-sequential``, every qps / graph_kernels /
    tiering row must
    carry a recall in ``[0, 1]`` and a non-negative distance-evaluation
    count, the graph_kernels suite must pit the legacy greedy engine
    against at least one beam width, the tiering suite must show
    cold blocks, bit-identical tiered answers, a hit rate in ``[0, 1]``
    per row, and a query-phase peak residency within the budget, the
    cold_codes suite must measure both the promote-on-miss baseline and
    the adc-first method with the ADC row's recall at least 0.99, every
    row's query-phase peak within the budget, and re-ranked rows only on
    the ADC side, and the sharding suite must measure a single-shard
    baseline plus at least one multi-shard count with every row
    bit-identical to the reference and zero partial answers.
    """

    def fail(message: str) -> None:
        raise ValueError(f"invalid bench document: {message}")

    if not isinstance(payload, dict):
        fail("not a JSON object")
    if payload.get("schema") != SCHEMA:
        fail(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    for key in ("created", "seed", "profile", "host", "workload", "suites"):
        if key not in payload:
            fail(f"missing top-level key {key!r}")
    suites = payload["suites"]
    if not isinstance(suites, dict) or not suites:
        fail("suites must be a non-empty object")

    def check_throughput_rows(suite_name: str, suite) -> set:
        if not isinstance(suite, dict) or not suite.get("rows"):
            fail(f"missing {suite_name} rows")
        methods = set()
        for row in suite["rows"]:
            for field_name, kind in (
                ("method", str),
                ("qps", (int, float)),
                ("mean_ms", (int, float)),
                ("batch_seconds", (int, float)),
                ("recall_at_k", (int, float)),
                ("dist_evals_per_query", (int, float)),
            ):
                if not isinstance(row.get(field_name), kind):
                    fail(
                        f"{suite_name} row field {field_name!r} missing or "
                        f"mistyped: {row!r}"
                    )
            if row["qps"] <= 0:
                fail(f"non-positive qps in row {row!r}")
            if not 0.0 <= row["recall_at_k"] <= 1.0:
                fail(f"recall_at_k outside [0, 1] in row {row!r}")
            if row["dist_evals_per_query"] < 0:
                fail(f"negative dist_evals_per_query in row {row!r}")
            methods.add(row["method"])
        return methods

    methods = check_throughput_rows("qps", suites.get("qps"))
    if "mbi-sequential" not in methods:
        fail(f"qps suite must measure mbi-sequential, got {methods}")

    kernel_methods = check_throughput_rows(
        "graph_kernels", suites.get("graph_kernels")
    )
    if "greedy" not in kernel_methods or not any(
        name.startswith("beam-") for name in kernel_methods
    ):
        fail(
            "graph_kernels suite must measure the greedy engine and at "
            f"least one beam width, got {kernel_methods}"
        )

    sharding = suites.get("sharding")
    if not isinstance(sharding, dict) or not sharding.get("rows"):
        fail("missing sharding rows")
    shard_counts = set()
    for row in sharding["rows"]:
        for field_name, kind in (
            ("shard_count", int),
            ("qps", (int, float)),
            ("p50_ms", (int, float)),
            ("p99_ms", (int, float)),
            ("requests", int),
            ("partial_queries", int),
            ("ingest_rate", (int, float)),
            ("identical_to_reference", bool),
        ):
            if not isinstance(row.get(field_name), kind):
                fail(
                    f"sharding row field {field_name!r} missing or "
                    f"mistyped: {row!r}"
                )
        if row["qps"] <= 0 or row["p50_ms"] < 0 or row["p99_ms"] < 0:
            fail(f"non-positive measurement in sharding row {row!r}")
        if row["requests"] < 1 or row["ingest_rate"] < 0:
            fail(f"implausible sharding row {row!r}")
        if not row["identical_to_reference"]:
            fail(
                f"sharded answers diverged from the single-shard "
                f"reference in row {row!r} (scatter-gather must never "
                "change answers)"
            )
        if row["partial_queries"] != 0:
            fail(
                f"sharding row {row!r} served partial answers with "
                "degraded serving disabled"
            )
        shard_counts.add(row["shard_count"])
    if 1 not in shard_counts or not any(c > 1 for c in shard_counts):
        fail(
            "sharding suite must measure the single-shard baseline and "
            f"at least one multi-shard count, got {sorted(shard_counts)}"
        )
    for key in ("settled_prefix", "query_window"):
        if key not in sharding:
            fail(f"sharding suite missing key {key!r}")

    cold_codes = suites.get("cold_codes")
    cc_methods = check_throughput_rows("cold_codes", cold_codes)
    if cc_methods != {"promote-on-miss", "adc-first"}:
        fail(
            "cold_codes suite must measure promote-on-miss and adc-first, "
            f"got {cc_methods}"
        )
    for key in ("budget_bytes", "hot_window_vectors", "mix", "qps_ratio"):
        if key not in cold_codes:
            fail(f"cold_codes suite missing key {key!r}")
    for row in cold_codes["rows"]:
        for field_name, kind in (
            ("promotions", int),
            ("rerank_rows_per_query", (int, float)),
            ("resident_bytes", int),
            ("peak_resident_bytes", int),
            ("within_budget", bool),
            ("cold_blocks", int),
        ):
            if not isinstance(row.get(field_name), kind):
                fail(
                    f"cold_codes row field {field_name!r} missing or "
                    f"mistyped: {row!r}"
                )
        if not row["within_budget"]:
            fail(
                f"cold_codes query-phase peak resident bytes "
                f"({row['peak_resident_bytes']}) exceeded the budget "
                f"({cold_codes['budget_bytes']}) in row {row!r}"
            )
        if row["cold_blocks"] <= 0:
            fail(f"cold_codes row {row!r} measured no cold blocks")
        if row["method"] == "adc-first":
            if row["recall_at_k"] < 0.99:
                fail(
                    f"adc-first recall_at_k {row['recall_at_k']} is below "
                    "the 0.99 gate (the exact re-rank shortlist is too "
                    "aggressive)"
                )
            if row["rerank_rows_per_query"] <= 0:
                fail("adc-first row re-ranked no rows (ADC path never ran)")
        elif row["rerank_rows_per_query"] != 0:
            fail(
                f"promote-on-miss row re-ranked rows ({row!r}) — the ADC "
                "path ran with cold_codes off"
            )

    tiering = suites.get("tiering")
    tier_methods = check_throughput_rows("tiering", tiering)
    for row in tiering["rows"]:
        for field_name, kind in (
            ("resident_bytes", int),
            ("tier_hit_rate", (int, float)),
            ("identical_to_all_hot", bool),
        ):
            if not isinstance(row.get(field_name), kind):
                fail(
                    f"tiering row field {field_name!r} missing or "
                    f"mistyped: {row!r}"
                )
        if row["resident_bytes"] < 0:
            fail(f"negative resident_bytes in row {row!r}")
        if not 0.0 <= row["tier_hit_rate"] <= 1.0:
            fail(f"tier_hit_rate outside [0, 1] in row {row!r}")
        if not row["identical_to_all_hot"]:
            fail(
                f"tiered answers diverged from all-hot in row {row!r} "
                "(tiering must never change answers)"
            )
    required_tier_methods = {
        "all-hot-recent",
        "all-hot-backfill",
        "tiered-recent",
        "tiered-backfill",
    }
    if not required_tier_methods <= tier_methods:
        fail(
            "tiering suite must measure all-hot and tiered passes over "
            f"the recent and backfill windows, got {tier_methods}"
        )
    for key in (
        "budget_bytes",
        "all_hot_resident_bytes",
        "peak_resident_bytes",
        "cold_blocks",
        "within_budget",
    ):
        if key not in tiering:
            fail(f"tiering suite missing key {key!r}")
    if tiering["cold_blocks"] <= 0:
        fail("tiering suite measured no cold blocks (budget never bound)")
    if tiering["within_budget"] is not True:
        fail(
            "tiering query-phase peak resident bytes "
            f"({tiering['peak_resident_bytes']}) exceeded the budget "
            f"({tiering['budget_bytes']})"
        )


def default_output_path(base_dir: str | Path = ".") -> Path:
    """``BENCH_<today>.json`` in ``base_dir`` (the repo-root convention)."""
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d")
    return Path(base_dir) / f"BENCH_{stamp}.json"


def write_bench(payload: dict, path: str | Path) -> Path:
    """Validate and atomically write ``payload`` to ``path``."""
    validate_bench(payload)
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    os.replace(tmp, path)
    return path


def render_bench(payload: dict) -> str:
    """Human-readable summary of a bench document (what the CLI prints)."""
    lines = [
        f"repro bench — {payload['profile']} profile, seed {payload['seed']}, "
        f"{payload['created']}",
        f"workload: {payload['workload']['n_items']:,} x "
        f"{payload['workload']['dim']}d, S_L={payload['workload']['leaf_size']}, "
        f"{payload['workload']['n_queries']} queries, "
        f"k={payload['workload']['k']}",
        "",
    ]
    lines.append("qps (shared-window batch throughput):")
    lines.append(
        f"  {'method':<22} {'qps':>9} {'mean ms':>9} {'recall@k':>9} "
        f"{'evals/q':>9}"
    )
    for row in payload["suites"]["qps"]["rows"]:
        lines.append(
            f"  {row['method']:<22} {row['qps']:>9.0f} {row['mean_ms']:>9.3f} "
            f"{row['recall_at_k']:>9.4f} {row['dist_evals_per_query']:>9.0f}"
        )
    kernels = payload["suites"]["graph_kernels"]
    lines.append("")
    lines.append(
        f"graph kernels (Algorithm 2 engines, one graph over "
        f"{kernels['graph_points']:,} points, eps={kernels['epsilon']}, "
        f"M_C={kernels['max_candidates']}):"
    )
    lines.append(
        f"  {'method':<22} {'qps':>9} {'mean ms':>9} {'recall@k':>9} "
        f"{'evals/q':>9}"
    )
    for row in kernels["rows"]:
        lines.append(
            f"  {row['method']:<22} {row['qps']:>9.0f} {row['mean_ms']:>9.3f} "
            f"{row['recall_at_k']:>9.4f} {row['dist_evals_per_query']:>9.0f}"
        )
    sharding = payload["suites"]["sharding"]
    lines.append("")
    lines.append(
        f"sharding (scatter-gather under concurrent ingest, settled "
        f"prefix {sharding['settled_prefix']:,}, window "
        f"[{sharding['query_window'][0]:.0f}, "
        f"{sharding['query_window'][1]:.0f})):"
    )
    lines.append(
        f"  {'shards':>6} {'qps':>9} {'p50 ms':>9} {'p99 ms':>9} "
        f"{'requests':>9} {'ingest/s':>9}  identical"
    )
    for row in sharding["rows"]:
        lines.append(
            f"  {row['shard_count']:>6} {row['qps']:>9.0f} "
            f"{row['p50_ms']:>9.3f} {row['p99_ms']:>9.3f} "
            f"{row['requests']:>9} {row['ingest_rate']:>9.0f}  "
            f"{'yes' if row['identical_to_reference'] else 'NO'}"
        )
    baseline_qps = next(
        row["qps"] for row in sharding["rows"] if row["shard_count"] == 1
    )
    for row in sharding["rows"]:
        if row["shard_count"] > 1:
            lines.append(
                f"  {row['shard_count']}-shard qps uplift over 1-shard: "
                f"{row['qps'] / baseline_qps:.2f}x"
            )
    cold_codes = payload["suites"]["cold_codes"]
    lines.append("")
    lines.append(
        f"cold codes (backfill-heavy mix {'/'.join(cold_codes['mix'])}, "
        f"budget {cold_codes['budget_bytes'] / 2**20:.2f} MiB, hot window "
        f"{cold_codes['hot_window_vectors']:,} vectors):"
    )
    lines.append(
        f"  {'method':<18} {'qps':>9} {'mean ms':>9} {'recall@k':>9} "
        f"{'rerank/q':>9} {'promotions':>10} {'peak MiB':>9}  in budget"
    )
    for row in cold_codes["rows"]:
        lines.append(
            f"  {row['method']:<18} {row['qps']:>9.0f} "
            f"{row['mean_ms']:>9.3f} {row['recall_at_k']:>9.4f} "
            f"{row['rerank_rows_per_query']:>9.0f} "
            f"{row['promotions']:>10} "
            f"{row['peak_resident_bytes'] / 2**20:>9.2f}  "
            f"{'yes' if row['within_budget'] else 'NO'}"
        )
    lines.append(
        f"  adc-first qps uplift over promote-on-miss: "
        f"{cold_codes['qps_ratio']:.2f}x"
    )
    tiering = payload["suites"]["tiering"]
    lines.append("")
    lines.append(
        f"tiering (budget {tiering['budget_bytes'] / 2**20:.2f} MiB = half "
        f"of {tiering['all_hot_resident_bytes'] / 2**20:.2f} MiB all-hot, "
        f"{tiering['cold_blocks']} cold blocks, query-phase peak "
        f"{tiering['peak_resident_bytes'] / 2**20:.2f} MiB, "
        f"{'within' if tiering['within_budget'] else 'OVER'} budget):"
    )
    lines.append(
        f"  {'method':<22} {'qps':>9} {'mean ms':>9} {'recall@k':>9} "
        f"{'resident MiB':>12} {'hit rate':>9}  identical"
    )
    for row in tiering["rows"]:
        lines.append(
            f"  {row['method']:<22} {row['qps']:>9.0f} {row['mean_ms']:>9.3f} "
            f"{row['recall_at_k']:>9.4f} "
            f"{row['resident_bytes'] / 2**20:>12.2f} "
            f"{row['tier_hit_rate']:>9.3f}  "
            f"{'yes' if row['identical_to_all_hot'] else 'NO'}"
        )
    lines.append(
        f"  recent-window qps ratio (tiered / all-hot): "
        f"{tiering['recent_qps_ratio']:.2f}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    """Standalone entry point (``python -m benchmarks.harness``)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    payload = run_harness(seed=args.seed, smoke=args.smoke)
    out = Path(args.out) if args.out else default_output_path()
    write_bench(payload, out)
    print(render_bench(payload))
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
