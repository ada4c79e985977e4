"""Unit tests for the batch-query API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import InvalidQueryError, MultiLevelBlockIndex
from repro.baselines.bsbf import BSBFIndex
from repro.baselines.sf import SFIndex
from repro.observability.metrics import get_registry

from .conftest import small_mbi_config, tiered_twins


def assert_results_identical(a, b) -> None:
    """Bitwise equality of two QueryResults, stats included."""
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.distances.tobytes() == b.distances.tobytes()
    np.testing.assert_array_equal(a.timestamps, b.timestamps)
    assert a.stats == b.stats


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((512, 8)).astype(np.float32),
        np.arange(512, dtype=np.float64),
    )


@pytest.fixture(scope="module")
def index(data):
    idx = MultiLevelBlockIndex(8, "euclidean", small_mbi_config(leaf_size=64))
    idx.extend(*data)
    return idx


@pytest.fixture(scope="module")
def variants(index, data, tmp_path_factory):
    """The same data all-hot, tiered, and tiered with cold codes."""
    twins = tiered_twins(*data, tmp_path_factory.mktemp("tiers"), leaf_size=64)
    return {"all-hot": index, **twins}


class TestSearchBatch:
    def test_returns_one_result_per_query(self, index):
        queries = np.random.default_rng(1).standard_normal((7, 8))
        results = index.search_batch(queries, 5, 50.0, 400.0)
        assert len(results) == 7
        for result in results:
            assert len(result) == 5
            assert ((result.timestamps >= 50) & (result.timestamps < 400)).all()

    def test_rejects_wrong_shape(self, index):
        with pytest.raises(InvalidQueryError):
            index.search_batch(np.zeros(8), 5)
        with pytest.raises(InvalidQueryError):
            index.search_batch(np.zeros((3, 9)), 5)

    def test_batch_matches_single_queries(self, variants):
        """search_batch == per-query search, bit for bit, on every tier."""
        adc_searches = get_registry().counter("tier_adc_searches_total")
        queries = np.random.default_rng(3).standard_normal((4, 8))
        seeds = np.random.default_rng(11).integers(0, 2**63 - 1, size=4)
        for name, idx in variants.items():
            adc_before = adc_searches.value
            batch = idx.search_batch(
                queries, 3, 10.0, 500.0, rng=np.random.default_rng(11)
            )
            for i in range(4):
                single = idx.search(
                    queries[i], 3, 10.0, 500.0,
                    rng=np.random.default_rng(int(seeds[i])),
                )
                assert_results_identical(batch[i], single)
            if name == "cold-codes":
                assert adc_searches.value > adc_before, "ADC path never ran"

    def test_empty_batch(self, index):
        results = index.search_batch(np.zeros((0, 8)), 5)
        assert results == []

    def test_empty_window(self, index):
        queries = np.random.default_rng(4).standard_normal((3, 8))
        results = index.search_batch(queries, 5, 600.0, 700.0)
        assert len(results) == 3
        assert all(len(r) == 0 for r in results)

    def test_trace_sink_traces_each_query(self, index):
        queries = np.random.default_rng(5).standard_normal((4, 8))
        sink: list = []
        traced = index.search_batch(
            queries, 5, 10.0, 400.0,
            rng=np.random.default_rng(1), trace_sink=sink,
        )
        assert len(sink) == 4
        untraced = index.search_batch(
            queries, 5, 10.0, 400.0, rng=np.random.default_rng(1)
        )
        for a, b in zip(traced, untraced):
            assert_results_identical(a, b)


class TestBaselineBatch:
    """The baselines' batch APIs are loops over their single-query search."""

    def test_sf_batch_matches_single_queries(self, data):
        vectors, timestamps = data
        sf = SFIndex(8, "euclidean")
        sf.extend(vectors, timestamps)
        sf.build()
        queries = np.random.default_rng(6).standard_normal((5, 8))
        seeds = np.random.default_rng(2).integers(0, 2**63 - 1, size=5)
        batch = sf.search_batch(
            queries, 5, 100.0, 350.0, rng=np.random.default_rng(2)
        )
        for query, seed, got in zip(queries, seeds, batch):
            want = sf.search(
                query, 5, 100.0, 350.0, rng=np.random.default_rng(int(seed))
            )
            assert_results_identical(got, want)

    def test_bsbf_batch_matches_single_queries(self, data):
        vectors, timestamps = data
        bsbf = BSBFIndex(8, "euclidean")
        bsbf.extend(vectors, timestamps)
        queries = np.random.default_rng(7).standard_normal((5, 8))
        batch = bsbf.search_batch(queries, 5, 50.0, 300.0)
        for query, got in zip(queries, batch):
            assert_results_identical(got, bsbf.search(query, 5, 50.0, 300.0))
