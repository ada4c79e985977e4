"""In-process tests of the stdlib HTTP frontend (`repro serve`)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import MBIConfig, SearchParams
from repro.graph.builder import GraphConfig
from repro.service import IndexService, ServiceConfig, make_server

DIM = 6


def fast_config() -> MBIConfig:
    return MBIConfig(
        leaf_size=32,
        tau=0.5,
        graph=GraphConfig(n_neighbors=8, exact_threshold=100_000),
        search=SearchParams(epsilon=1.2, max_candidates=64),
    )


@pytest.fixture()
def served(tmp_path):
    svc = IndexService.open(
        tmp_path / "data",
        dim=DIM,
        mbi_config=fast_config(),
        config=ServiceConfig(fsync="never"),
    )
    rng = np.random.default_rng(0)
    for i in range(80):
        svc.ingest(rng.standard_normal(DIM), float(i))
    server = make_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield svc, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    svc.close()


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


def post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, served):
        svc, base = served
        status, body = get(base + "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["records"] == 80

    def test_metrics_text_exposition(self, served):
        _, base = served
        status, body = get(base + "/metrics")
        assert status == 200
        assert "service_wal_appends_total" in body
        assert "service_inflight" in body

    def test_query_roundtrip(self, served):
        svc, base = served
        query = [0.1] * DIM
        status, body = post(base + "/query", {"query": query, "k": 4})
        assert status == 200
        assert len(body["positions"]) == 4
        assert body["distances"] == sorted(body["distances"])
        assert all(0 <= p < 80 for p in body["positions"])
        assert body["blocks_searched"] >= 1

    def test_query_with_window(self, served):
        _, base = served
        status, body = post(
            base + "/query",
            {"query": [0.0] * DIM, "k": 5, "t_start": 10.0, "t_end": 20.0},
        )
        assert status == 200
        assert all(10.0 <= t < 20.0 for t in body["timestamps"])

    def test_ingest_single_and_batch(self, served):
        svc, base = served
        status, body = post(
            base + "/ingest",
            {"vector": [1.0] * DIM, "timestamp": 100.0},
        )
        assert status == 200
        assert body["position"] == 80
        status, body = post(
            base + "/ingest",
            {
                "vectors": [[0.5] * DIM, [0.6] * DIM],
                "timestamps": [101.0, 102.0],
            },
        )
        assert status == 200
        assert body["positions"] == [81, 83]
        assert svc.applied_records == 83

    def test_checkpoint_endpoint(self, served):
        svc, base = served
        status, body = post(base + "/checkpoint", {})
        assert status == 200
        assert body["snapshot"].endswith("snapshot-000000000080.npz")

    def test_malformed_request_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", {"k": 3})  # missing "query"
        assert excinfo.value.code == 400

    def test_wrong_dim_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", {"query": [0.0] * (DIM + 2), "k": 3})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "extra",
        [{}, {"seed": 3}, {"t_start": 10.0, "t_end": 14.0}],
        ids=["admitted", "seeded", "brute-window"],
    )
    def test_non_finite_query_is_400(self, served, bad, extra):
        _, base = served
        payload = {"query": [bad] + [0.0] * (DIM - 1), "k": 5, **extra}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", payload)  # json.dumps emits NaN/Infinity
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "non-finite" in body["error"]

    def test_unknown_path_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/nope", {})
        assert excinfo.value.code == 404

    def test_out_of_order_ingest_is_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/ingest", {"vector": [0.0] * DIM, "timestamp": -1})
        assert excinfo.value.code == 400

    def test_draining_service_reports_503(self, served):
        svc, base = served
        svc.close()
        status = None
        try:
            status, body = get(base + "/healthz")
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 503
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base + "/query", {"query": [0.0] * DIM, "k": 1})
        assert excinfo.value.code == 503
