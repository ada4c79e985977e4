"""Tests for the benchmark's own pure pieces.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from perfbench import calibrate, probes, stats
from perfbench.check import Oracle, Verdicts
from perfbench.layers import PER_LAYER, analyse
from perfbench.loadgen import Op, Outcome, run_open_loop
from perfbench.run import END_TO_END
from perfbench.trace import Span, covered, self_times
from perfbench.wl_feed import _judge


# ---------------------------------------------------------------- percentile


def test_tail_is_p99_with_ten_beyond_at_one_thousand_samples():
    found = stats.tail([float(v) for v in range(1, 1001)])
    assert (found.percentile, found.value, found.n, found.beyond) == (99.0, 990.0, 1000, 10)


def test_tail_steps_down_until_ten_samples_lie_beyond():
    values = [float(v) for v in range(150)]
    found = stats.tail(values)
    assert found.percentile == 90.0
    assert found.beyond >= stats.MIN_BEYOND
    assert found.n == 150
    assert found.label() == "p90 of 150"


def test_tail_is_none_below_twenty_samples_and_max_bounds_it():
    values = [5.0, 1.0, 3.0] * 5
    assert stats.tail(values) is None
    assert stats.tail_or_max(values) == 5.0


def test_nearest_rank_counts_samples_beyond():
    value, beyond = stats.nearest_rank([3.0, 1.0, 2.0, 4.0], 50.0)
    assert (value, beyond) == (2.0, 2)


# ------------------------------------------------------------- self time


def _span(sid, parent, start, end, name="x", phase="timed", **attrs):
    return Span(sid, parent, name, start, end, None, phase, attrs)


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(6.0)
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 1.5, 3.5),
        _span(4, 1, 6.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0)


def test_unattributed_share_is_mbi_self_time_over_mbi_time():
    spans = [
        _span(1, None, 0.0, 0.004, "mbi.search", queries=1, blocks=2),
        _span(2, 1, 0.001, 0.002, "selection"),
        _span(3, 1, 0.002, 0.003, "graph.search"),
    ]
    out = analyse(spans)
    assert out["mbi.unattributed_share"] == pytest.approx(0.5)
    assert out["mbi.search_ms_p50"] == pytest.approx(2.0)
    assert out["graph.search_share"] == pytest.approx(0.25)
    assert out["mbi.blocks_per_query"] == 2


def test_admission_wait_is_query_span_minus_its_batch_execution():
    spans = [
        _span(1, None, 0.0, 0.010, "service.query"),
        _span(2, 1, 0.0001, 0.0002, "service.submit", future=77),
        _span(3, None, 0.001, 0.001, "admission.drain", batch="batch1", futures=[77]),
        Span(4, None, "mbi.search", 0.002, 0.006, "batch1", "timed", {"queries": 1}),
    ]
    out = analyse(spans)
    assert out["admission.wait_ms_p50"] == pytest.approx(6.0)
    assert out["admission.batch_size_mean"] == 1.0


def test_a_future_at_a_freed_futures_address_gets_a_new_serial():
    serial_at: dict[int, int] = {}
    for _ in range(10_000):
        future = Future()
        serial = probes.serial_of(future)
        assert probes.serial_of(future) == serial
        if id(future) in serial_at:
            assert serial != serial_at[id(future)]
            return
        serial_at[id(future)] = serial
        del future  # its address is free for the next one
    pytest.fail("no freed address was reused")


# ------------------------------------------------------------- lateness


def test_open_loop_times_latency_from_due_time():
    # One sender that takes 20 ms per op, ops due every 10 ms: each op
    # waits behind the previous ones, and that wait counts.
    def slow(op):
        time.sleep(0.02)
        return True

    ops = [Op(i * 0.01, "query", i) for i in range(8)]
    outcomes = sorted(run_open_loop(ops, [slow]), key=lambda o: o.op.index)
    assert outcomes[0].lag < 0.005
    lags = [o.lag for o in outcomes]
    latencies = [o.latency for o in outcomes]
    assert all(b > a for a, b in zip(lags, lags[1:]))
    # op i is sent at ~20 ms * i and completes ~20 ms later, due at 10 ms * i.
    assert latencies[-1] >= 0.02 * 8 - 0.01 * 7 - 0.002
    assert all(o.latency >= o.done - o.sent for o in outcomes)


def _outcome(i: int, lag: float, latency: float) -> Outcome:
    due = i * 0.02
    return Outcome(Op(due, "query", i), due, due + lag, due + latency, True)


def test_slo_judges_a_short_rung_at_its_maximum():
    fast = [_outcome(i, 0.0, 0.050) for i in range(38)]
    assert _judge(50.0, fast)[0]
    slow = fast[:-1] + [_outcome(37, 0.0, 0.101)]
    assert not _judge(50.0, slow)[0]


def test_slo_fails_a_rate_whose_backlog_grows():
    # Every query is within the SLO, but the generator ends the phase
    # 40 ms further behind schedule than it began it.
    growing = [_outcome(i, 0.001 * i, 0.050 + 0.001 * i) for i in range(40)]
    passed, note = _judge(50.0, growing)
    assert not passed and "lag +30 ms" in note


def test_open_loop_counts_exceptions_as_failures():
    def broken(op):
        raise RuntimeError("boom")

    outcomes = run_open_loop([Op(0.0, "query", 0)], [broken])
    assert [o.ok for o in outcomes] == [False]


# ---------------------------------------------------------------- oracle


@pytest.fixture
def oracle():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(200, 8)).astype(np.float32)
    return Oracle(vectors, np.arange(200, dtype=np.float64))


def _exact_answer(oracle, query, k, t_start, t_end):
    rows = oracle.window_rows(t_start, t_end)
    positions = oracle.exact(query, k, rows)
    distances = np.linalg.norm(oracle.vectors[positions] - query, axis=1)
    return positions, distances


def test_oracle_accepts_the_exact_answer_with_recall_one(oracle):
    query = np.ones(8)
    positions, distances = _exact_answer(oracle, query, 10, 50, 150)
    assert oracle.judge(query, 10, 50, 150, positions, distances) == (None, 1.0)


def test_oracle_recall_counts_missing_neighbours(oracle):
    query = np.ones(8)
    positions, _ = _exact_answer(oracle, query, 11, 50, 150)
    positions = np.concatenate([positions[:9], positions[10:11]])
    distances = np.linalg.norm(oracle.vectors[positions] - query, axis=1)
    assert oracle.judge(query, 10, 50, 150, positions, distances) == (None, pytest.approx(0.9))


def test_oracle_rejects_wrong_answers(oracle):
    query = np.ones(8)
    positions, distances = _exact_answer(oracle, query, 10, 50, 150)
    verdicts = Verdicts()
    oracle.score(verdicts, query, 10, 50, 150, positions[:9], distances[:9])
    oracle.score(verdicts, query, 10, 150, 200, positions, distances)
    oracle.score(verdicts, query, 10, 50, 150, positions, distances * 1.01)
    oracle.score(verdicts, query, 10, 50, 150, positions[::-1], distances[::-1])
    assert (verdicts.checked, verdicts.failed) == (4, 4)
    assert verdicts.mean_recall == 0.0


def test_oracle_expects_the_whole_window_when_it_is_smaller_than_k(oracle):
    query = np.zeros(8)
    positions, distances = _exact_answer(oracle, query, 10, 20, 24)
    assert len(positions) == 4
    assert oracle.judge(query, 10, 20, 24, positions, distances) == (None, 1.0)


# --------------------------------------------------------------- contract


def test_benchmark_json_names_every_reported_metric():
    contract = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == list(PER_LAYER)


def test_chunked_rate_is_the_median_bin_and_drops_the_partial_one():
    # 10/s in the first second, 2/s in the second, 20/s in the third,
    # then a partial bin that must not count.
    ends = [0.05 + 0.1 * i for i in range(10)]
    ends += [1.25, 1.75]
    ends += [2.025 + 0.05 * i for i in range(20)]
    ends += [3.1]
    times = [(0.0, end) for end in ends]
    assert stats.chunked_rate(times) == pytest.approx(10.0)


# -------------------------------------------------------------- calibration


def test_scale_is_reference_unit_time_over_the_median_unit_time():
    # A host at half the reference speed takes 2 ms a unit: times halve.
    units = [0.002, 0.0021, 0.0019, 0.010]
    assert calibrate.scale_of(units) == pytest.approx(calibrate.REFERENCE_UNIT_S / 0.00205)


def test_each_call_is_scaled_by_the_calibration_after_it():
    fast = calibrate.Cycle(times=[(0.0, 0.001), (0.001, 0.003)], units=[0.001] * 3)
    slow = calibrate.Cycle(times=[(1.0, 1.002), (1.002, 1.006)], units=[0.002] * 3)
    # The slow cycle's calls took twice as long on a host half as fast.
    assert calibrate.scaled_latencies([fast, slow]) == pytest.approx([0.001, 0.002, 0.001, 0.002])
    assert fast.rate() == pytest.approx(slow.rate()) == pytest.approx(2 / 0.003)


def test_the_kernel_is_the_same_work_every_time():
    assert calibrate.unit(5) == calibrate.unit(5)
    assert len(calibrate.run_units(3)) == 3
