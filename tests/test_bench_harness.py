"""Schema and invariant tests for the reproducible benchmark harness.

The harness lives outside the installed package (``benchmarks/harness.py``
at the repo root), so these tests add the repo root to ``sys.path``
explicitly — the same trick the CLI's ``repro bench`` fallback uses.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = str(Path(__file__).resolve().parents[1])
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks.harness import (  # noqa: E402
    SCHEMA,
    default_output_path,
    render_bench,
    run_harness,
    validate_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def payload():
    """One smoke-profile harness run shared by every test in the module."""
    return run_harness(seed=0, smoke=True)


class TestHarnessRun:
    def test_smoke_payload_is_valid(self, payload):
        validate_bench(payload)  # must not raise

    def test_payload_carries_provenance(self, payload):
        assert payload["schema"] == SCHEMA
        assert payload["profile"] == "smoke"
        assert payload["seed"] == 0
        assert payload["host"]["cpu_count"] >= 1
        assert payload["workload"]["n_items"] > 0

    def test_qps_suite_covers_required_methods(self, payload):
        methods = {r["method"] for r in payload["suites"]["qps"]["rows"]}
        assert {"mbi-sequential", "bsbf"} <= methods

    def test_qps_rows_carry_recall_and_evals(self, payload):
        rows = payload["suites"]["qps"]["rows"]
        for row in rows:
            assert 0.0 <= row["recall_at_k"] <= 1.0
            assert row["dist_evals_per_query"] >= 0
        # The brute-force baseline *is* the oracle's computation — its
        # recall must be exactly 1.
        bsbf = next(r for r in rows if r["method"] == "bsbf")
        assert bsbf["recall_at_k"] == 1.0

    def test_graph_kernels_suite_pits_engines(self, payload):
        suite = payload["suites"]["graph_kernels"]
        assert suite["graph_points"] > 0
        methods = {r["method"] for r in suite["rows"]}
        assert "greedy" in methods
        assert any(m.startswith("beam-") for m in methods)
        for row in suite["rows"]:
            assert 0.0 <= row["recall_at_k"] <= 1.0
            assert row["dist_evals_per_query"] > 0

    def test_tiering_suite_stays_under_budget(self, payload):
        suite = payload["suites"]["tiering"]
        assert suite["budget_bytes"] > 0
        assert suite["cold_blocks"] > 0
        assert suite["within_budget"] is True
        assert suite["peak_resident_bytes"] <= suite["budget_bytes"]
        assert suite["budget_bytes"] < suite["all_hot_resident_bytes"]

    def test_tiering_rows_carry_tier_columns(self, payload):
        rows = {r["method"]: r for r in payload["suites"]["tiering"]["rows"]}
        assert {
            "all-hot-recent",
            "all-hot-backfill",
            "tiered-recent",
            "tiered-backfill",
        } <= set(rows)
        for row in rows.values():
            assert 0.0 <= row["tier_hit_rate"] <= 1.0
            assert row["resident_bytes"] > 0
            assert row["identical_to_all_hot"] is True
        # The tiered passes run against a halved budget, so they must
        # account fewer resident bytes than the all-hot baseline.
        assert (
            rows["tiered-recent"]["resident_bytes"]
            < rows["all-hot-recent"]["resident_bytes"]
        )
        # The backfill window is cold: promotions must dent its hit rate.
        assert rows["tiered-backfill"]["tier_hit_rate"] < 1.0

    def test_cold_codes_suite_pits_both_methods(self, payload):
        suite = payload["suites"]["cold_codes"]
        rows = {r["method"]: r for r in suite["rows"]}
        assert set(rows) == {"promote-on-miss", "adc-first"}
        assert suite["budget_bytes"] > 0
        assert suite["hot_window_vectors"] > 0
        assert set(suite["mix"]) == set(suite["windows"])
        assert suite["qps_ratio"] > 0
        for row in rows.values():
            assert row["within_budget"] is True
            assert row["peak_resident_bytes"] <= suite["budget_bytes"]
            assert row["cold_blocks"] > 0

    def test_cold_codes_adc_row_reranks_within_recall_gate(self, payload):
        rows = {
            r["method"]: r for r in payload["suites"]["cold_codes"]["rows"]
        }
        adc = rows["adc-first"]
        assert adc["recall_at_k"] >= 0.99
        assert adc["rerank_rows_per_query"] > 0
        # With cold_codes off the ADC path must never have run.
        assert rows["promote-on-miss"]["rerank_rows_per_query"] == 0

    def test_sharding_suite_gates_bit_identity(self, payload):
        suite = payload["suites"]["sharding"]
        counts = [r["shard_count"] for r in suite["rows"]]
        assert counts[0] == 1 and any(c > 1 for c in counts)
        for row in suite["rows"]:
            assert row["identical_to_reference"] is True
            assert row["partial_queries"] == 0
            assert row["requests"] >= 1
            assert row["qps"] > 0
            assert row["p50_ms"] <= row["p99_ms"]
            # The writer ran throughout the timed phase.
            assert row["ingest_rate"] > 0
        assert suite["settled_prefix"] > 0
        lo, hi = suite["query_window"]
        assert 0 <= lo < hi <= suite["settled_prefix"]

    def test_render_mentions_all_suites(self, payload):
        out = render_bench(payload)
        assert "qps" in out
        assert "graph kernels" in out
        assert "sharding" in out
        assert "qps uplift over 1-shard" in out
        assert "cold codes" in out
        assert "qps uplift over promote-on-miss" in out
        assert "tiering" in out
        assert "recall@k" in out
        assert "hit rate" in out

    def test_determinism_across_runs(self, payload):
        """Same seed, same workload -> same answers, so same qps columns."""
        again = run_harness(seed=0, smoke=True)

        def answers(doc):
            return [
                (r["method"], r["recall_at_k"], r["dist_evals_per_query"])
                for r in doc["suites"]["qps"]["rows"]
            ]

        assert answers(payload) == answers(again)


class TestValidateBench:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            validate_bench([])

    def test_rejects_wrong_schema_version(self, payload):
        bad = copy.deepcopy(payload)
        bad["schema"] = "repro-bench/v0"
        with pytest.raises(ValueError, match="schema must be"):
            validate_bench(bad)

    def test_rejects_missing_top_level_key(self, payload):
        bad = copy.deepcopy(payload)
        del bad["workload"]
        with pytest.raises(ValueError, match="missing top-level key"):
            validate_bench(bad)

    def test_rejects_missing_suite(self, payload):
        bad = copy.deepcopy(payload)
        del bad["suites"]["qps"]
        with pytest.raises(ValueError, match="missing qps rows"):
            validate_bench(bad)

    def test_rejects_mistyped_row_field(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["qps"]["rows"][0]["mean_ms"] = "fast"
        with pytest.raises(ValueError, match="mistyped"):
            validate_bench(bad)

    def test_rejects_missing_qps_method(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["qps"]["rows"] = [
            r
            for r in bad["suites"]["qps"]["rows"]
            if r["method"] != "mbi-sequential"
        ]
        with pytest.raises(ValueError, match="mbi-sequential"):
            validate_bench(bad)

    def test_rejects_missing_recall_column(self, payload):
        bad = copy.deepcopy(payload)
        del bad["suites"]["qps"]["rows"][0]["recall_at_k"]
        with pytest.raises(ValueError, match="recall_at_k"):
            validate_bench(bad)

    def test_rejects_out_of_range_recall(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["graph_kernels"]["rows"][0]["recall_at_k"] = 1.5
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            validate_bench(bad)

    def test_rejects_missing_graph_kernels_suite(self, payload):
        bad = copy.deepcopy(payload)
        del bad["suites"]["graph_kernels"]
        with pytest.raises(ValueError, match="graph_kernels"):
            validate_bench(bad)

    def test_rejects_over_budget_tiering(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["tiering"]["within_budget"] = False
        with pytest.raises(ValueError, match="exceeded the budget"):
            validate_bench(bad)

    def test_rejects_divergent_tiered_answers(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["tiering"]["rows"][-1]["identical_to_all_hot"] = False
        with pytest.raises(ValueError, match="never change answers"):
            validate_bench(bad)

    def test_rejects_tiering_without_cold_blocks(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["tiering"]["cold_blocks"] = 0
        with pytest.raises(ValueError, match="no cold blocks"):
            validate_bench(bad)

    def test_rejects_out_of_range_hit_rate(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["tiering"]["rows"][0]["tier_hit_rate"] = 1.5
        with pytest.raises(ValueError, match="tier_hit_rate"):
            validate_bench(bad)

    def test_rejects_missing_cold_codes_suite(self, payload):
        bad = copy.deepcopy(payload)
        del bad["suites"]["cold_codes"]
        with pytest.raises(ValueError, match="missing cold_codes rows"):
            validate_bench(bad)

    def test_rejects_cold_codes_without_adc_row(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["cold_codes"]["rows"] = [
            r
            for r in bad["suites"]["cold_codes"]["rows"]
            if r["method"] != "adc-first"
        ]
        with pytest.raises(ValueError, match="promote-on-miss and adc-first"):
            validate_bench(bad)

    def test_rejects_low_adc_recall(self, payload):
        bad = copy.deepcopy(payload)
        for row in bad["suites"]["cold_codes"]["rows"]:
            if row["method"] == "adc-first":
                row["recall_at_k"] = 0.5
        with pytest.raises(ValueError, match="0.99 gate"):
            validate_bench(bad)

    def test_rejects_over_budget_cold_codes_row(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["cold_codes"]["rows"][0]["within_budget"] = False
        with pytest.raises(
            ValueError, match="cold_codes query-phase peak"
        ):
            validate_bench(bad)

    def test_rejects_adc_row_that_never_reranked(self, payload):
        bad = copy.deepcopy(payload)
        for row in bad["suites"]["cold_codes"]["rows"]:
            if row["method"] == "adc-first":
                row["rerank_rows_per_query"] = 0
        with pytest.raises(ValueError, match="re-ranked no rows"):
            validate_bench(bad)

    def test_rejects_rerank_on_the_promote_baseline(self, payload):
        bad = copy.deepcopy(payload)
        for row in bad["suites"]["cold_codes"]["rows"]:
            if row["method"] == "promote-on-miss":
                row["rerank_rows_per_query"] = 5.0
        with pytest.raises(ValueError, match="cold_codes off"):
            validate_bench(bad)

    def test_rejects_cold_codes_row_without_cold_blocks(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["cold_codes"]["rows"][0]["cold_blocks"] = 0
        with pytest.raises(ValueError, match="no cold blocks"):
            validate_bench(bad)

    def test_rejects_divergent_sharded_answers(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["sharding"]["rows"][-1]["identical_to_reference"] = False
        with pytest.raises(ValueError, match="scatter-gather must never"):
            validate_bench(bad)

    def test_rejects_partial_sharded_answers(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["sharding"]["rows"][0]["partial_queries"] = 3
        with pytest.raises(ValueError, match="partial answers"):
            validate_bench(bad)

    def test_rejects_sharding_without_multi_shard_row(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["sharding"]["rows"] = [
            r
            for r in bad["suites"]["sharding"]["rows"]
            if r["shard_count"] == 1
        ]
        with pytest.raises(ValueError, match="at least one multi-shard"):
            validate_bench(bad)

    def test_rejects_missing_sharding_suite(self, payload):
        bad = copy.deepcopy(payload)
        del bad["suites"]["sharding"]
        with pytest.raises(ValueError, match="missing sharding rows"):
            validate_bench(bad)

    def test_rejects_beamless_graph_kernels(self, payload):
        bad = copy.deepcopy(payload)
        bad["suites"]["graph_kernels"]["rows"] = [
            r
            for r in bad["suites"]["graph_kernels"]["rows"]
            if not r["method"].startswith("beam-")
        ]
        with pytest.raises(ValueError, match="at least one beam width"):
            validate_bench(bad)


class TestOutput:
    def test_default_output_path_follows_convention(self):
        path = default_output_path("/some/dir")
        assert re.fullmatch(
            r"BENCH_\d{4}-\d{2}-\d{2}\.json", path.name
        ), path.name
        assert str(path.parent) == "/some/dir"

    def test_write_bench_round_trips(self, payload, tmp_path):
        out = tmp_path / "bench.json"
        written = write_bench(payload, out)
        assert written == out
        assert not out.with_suffix(".json.tmp").exists()  # atomic rename
        assert json.loads(out.read_text()) == payload

    def test_write_bench_refuses_invalid_payload(self, tmp_path):
        with pytest.raises(ValueError):
            write_bench({"schema": "nope"}, tmp_path / "bench.json")
        assert not (tmp_path / "bench.json").exists()
