"""Shared fixtures for the test suite.

Most MBI tests use a graph config with a high ``exact_threshold`` so block
graphs build via the (fast, deterministic) exact builder; NNDescent gets its
own dedicated tests at moderate scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GraphConfig, MBIConfig, MultiLevelBlockIndex, SearchParams
from repro.faultinject import get_failpoints
from repro.observability.metrics import get_registry


@pytest.fixture(autouse=True)
def _failpoint_isolation():
    """No test may leak armed failpoints (or their counters) to the next."""
    yield
    get_failpoints().reset()


@pytest.fixture(autouse=True)
def _telemetry_isolation():
    """No test may leak an armed telemetry config (or its buffers).

    Restoring the disarmed default after every test keeps the sampler's
    single-float-compare fast path in force for suites that never arm
    telemetry, and empties the trace buffers for those that do.
    """
    yield
    from repro.observability.telemetry import configure_telemetry

    configure_telemetry(None)


@pytest.fixture(autouse=True)
def _metrics_isolation():
    """Stop tests leaking process-metric state into each other.

    Every test runs against the process-wide registry (instrumented
    modules cache metric handles at import time, so swapping the registry
    out is not an option).  Instead, snapshot the full state before the
    test and restore it afterwards — assertions on *deltas* inside a test
    keep working, while cross-module accumulation disappears.
    """
    registry = get_registry()
    state = registry.dump_state()
    yield
    registry.restore_state(state)


@pytest.fixture(scope="session")
def clustered_data():
    """A small clustered dataset: (vectors, timestamps, queries)."""
    rng = np.random.default_rng(7)
    n, dim, n_clusters = 1600, 24, 8
    centers = rng.standard_normal((n_clusters, dim)) * 1.5
    assignment = rng.integers(0, n_clusters, n)
    vectors = (centers[assignment] + rng.standard_normal((n, dim))).astype(
        np.float32
    )
    timestamps = np.sort(rng.uniform(0.0, 100.0, n))
    queries = (
        centers[rng.integers(0, n_clusters, 20)]
        + rng.standard_normal((20, dim))
    ).astype(np.float32)
    return vectors, timestamps, queries


def fast_graph_config(**overrides) -> GraphConfig:
    """Graph config that always uses the exact builder (fast for tests)."""
    defaults = dict(n_neighbors=8, exact_threshold=100_000)
    defaults.update(overrides)
    return GraphConfig(**defaults)


def small_mbi_config(leaf_size: int = 100, **overrides) -> MBIConfig:
    """MBI config tuned for fast exact-builder tests."""
    defaults = dict(
        leaf_size=leaf_size,
        tau=0.5,
        graph=fast_graph_config(),
        search=SearchParams(epsilon=1.2, max_candidates=64),
    )
    defaults.update(overrides)
    return MBIConfig(**defaults)


@pytest.fixture()
def small_index(clustered_data) -> MultiLevelBlockIndex:
    """An MBI over the clustered dataset with 16 leaves."""
    vectors, timestamps, _ = clustered_data
    index = MultiLevelBlockIndex(
        vectors.shape[1], "euclidean", small_mbi_config(leaf_size=100)
    )
    index.extend(vectors, timestamps)
    return index


#: Search settings for :func:`tiered_twins`: spans above 4 vectors walk
#: block graphs (so cold blocks get promoted) and, with ``cold_codes`` on,
#: answer ADC-first from their code sidecars.
TIERED_SEARCH = SearchParams(
    epsilon=1.2,
    max_candidates=64,
    brute_force_threshold=4,
    cold_adc_threshold=4,
    cold_rerank_factor=16,
)


def tiered_twins(
    vectors, timestamps, directory, leaf_size: int = 100
) -> dict[str, MultiLevelBlockIndex]:
    """Two tiered indexes over the same data, both under a tight budget.

    ``"tiered"`` promotes every cold block it touches; ``"cold-codes"``
    answers wide cold spans from PQ code sidecars instead.  The budget is
    re-pinned with ``reconfigure`` so an ambient ``REPRO_MEMORY_BUDGET_MB``
    (which enables tiering at construction, first config wins) cannot
    loosen it.
    """
    twins = {}
    for name, cold_codes in (("tiered", False), ("cold-codes", True)):
        config = small_mbi_config(
            leaf_size=leaf_size, search=TIERED_SEARCH, cold_codes=cold_codes
        )
        index = MultiLevelBlockIndex(vectors.shape[1], "euclidean", config)
        index.extend(vectors, timestamps)
        manager = index.enable_tiering(
            memory_budget_mb=1e-4, directory=directory / name
        )
        manager.reconfigure(memory_budget_mb=1e-4)
        assert manager.stats()["cold_blocks"] > 0
        twins[name] = index
    return twins
