"""``scatter``: a 2-shard cluster of forked workers behind an in-process router.

Set-up starts a ``ShardCluster`` (one ``IndexService`` + HTTP server per
worker process) and a ``ShardRouter`` over ``cluster.transports()``,
both configured as ``repro serve --shards 2`` configures them, then
routes the initial stream through ``router.ingest_batch`` and waits until
every worker's background builds have drained.  The timed phase is one
client calling ``router.search`` with explicit seeds, back to back:
every fourth query uses a window inside one stripe (pruned to one
shard), the rest a wide window (scattered to both).

Why a quarter and not half: on a keep-alive connection the worker's
reply stalls on every other request or so (Nagle against delayed ACK),
so about half of all single-shard queries stall.  A half/half mix puts
the median right on the edge between the stalled and the unstalled
mode, and it flips from run to run; with three wide queries in four the
median sits firmly in one mode.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from . import stats
from .check import Oracle
from .common import K, Result, closed_loop_metrics, serve_configs, vm_hwm_mb
from .data import Gaussians, log_uniform, windows
from .layers import analyse, merge_deltas, registry_deltas
from .loadgen import run_alternating, run_closed_loop

DIM = 64
LEAF = 250
N = 4000
SHARDS = 2
INGEST_BATCH = 100
FSYNC = "never"
SETUPS = 3
#: One query in this many has a window inside a single stripe.
NARROW_EVERY = 4


class Cluster:
    """Workers, router and transports of one set-up."""

    def __init__(self, work) -> None:
        from repro import cli
        from repro.observability.telemetry import configure_telemetry
        from repro.sharding import RouterConfig, ShardCluster, ShardRouter

        argv = ["--dim", str(DIM), "--leaf-size", str(LEAF), "--fsync", FSYNC]
        mbi_config, service_config, args = serve_configs(argv + ["--shards", str(SHARDS)])
        configure_telemetry(cli._telemetry_config(args))
        self.cluster = ShardCluster(
            work.fresh("scatter"),
            SHARDS,
            dim=DIM,
            mbi_config=mbi_config,
            service_config=service_config,
        )
        self.cluster.start()
        self.router = None
        try:
            self.transports = self.cluster.transports(timeout=args.scatter_timeout)
            self.router = ShardRouter(
                self.transports,
                self.cluster.plan(),
                config=RouterConfig(
                    scatter_timeout=args.scatter_timeout, allow_partial=args.allow_partial
                ),
            )
            self.baseline = self.scrape()
        except BaseException:
            self.close()
            raise

    def scrape(self) -> list[dict]:
        """Every worker's ``/metrics/json``."""
        return [transport.metrics_state() for transport in self.transports]

    def drain_builds(self) -> None:
        while any(m["service_pending_builds"]["value"] > 0 for m in self.scrape()):
            time.sleep(0.01)

    def worker_deltas(self) -> dict[str, float]:
        return merge_deltas(
            [registry_deltas(b, a) for b, a in zip(self.baseline, self.scrape())]
        )

    def peak_rss_mb(self) -> float:
        return sum(vm_hwm_mb(w.process.pid) for w in self.cluster.workers)

    def close(self) -> None:
        try:
            if self.router is not None:
                self.router.close()
        finally:
            self.cluster.stop()


def _setup(work, vectors, timestamps):
    """A ready cluster, its set-up seconds and each ingest batch's ack seconds."""
    started = time.perf_counter()
    acks = []
    cluster = Cluster(work)
    try:
        for lo in range(0, len(vectors), INGEST_BATCH):
            batch_started = time.perf_counter()
            cluster.router.ingest_batch(
                vectors[lo : lo + INGEST_BATCH], timestamps[lo : lo + INGEST_BATCH]
            )
            acks.append(time.perf_counter() - batch_started)
        cluster.drain_builds()
    except BaseException:
        cluster.close()
        raise
    return cluster, time.perf_counter() - started, acks


def _windows(seed: int, m: int) -> np.ndarray:
    """Every fourth row inside one stripe; the other rows wide."""
    rng = np.random.default_rng([seed, 3])
    out = windows(rng, m, 0, N, 0.1, 1.0)
    stripes = rng.integers(0, N // LEAF, size=m)
    lengths = np.maximum(1, np.round(log_uniform(rng, 0.02, 1.0, m) * LEAF)).astype(np.int64)
    offsets = np.floor(rng.uniform(size=m) * (LEAF - lengths + 1)).astype(np.int64)
    narrow = np.stack([stripes * LEAF + offsets, stripes * LEAF + offsets + lengths], axis=1)
    out[0::NARROW_EVERY] = narrow[0::NARROW_EVERY]
    return out


def run(seed: int, seconds: float, trace: bool, work) -> Result:
    from repro.observability.metrics import get_registry

    result = Result()
    gen = Gaussians(DIM, seed)
    vectors, timestamps = gen.stream(N)
    queries = gen.queries(4096)
    bounds = _windows(seed, 100_000)

    setups, ingest_seconds = [], []
    cluster = None
    for _ in range(1 if trace else SETUPS):
        if cluster is not None:
            cluster.close()
            cluster = None
            gc.collect()
        cluster, elapsed, acks = _setup(work, vectors, timestamps)
        setups.append(elapsed)
        ingest_seconds.append(acks)

    answers = []
    router = cluster.router

    def one(i: int) -> None:
        t_start, t_end = (float(x) for x in bounds[i])
        found = router.search(
            queries[i % len(queries)], K, t_start, t_end, seed=seed * 1_000_003 + i
        )
        answers.append((i, found.positions, found.distances, found.partial))

    tracer = None
    try:
        if trace:
            from . import probes
            from .trace import Tracer

            tracer = Tracer()
            probes.register(tracer)
            registry_before = get_registry().export_state()
            plain, times = run_alternating(one, seconds, tracer.resume, tracer.pause)
            counters = merge_deltas(
                [
                    registry_deltas(registry_before, get_registry().export_state()),
                    cluster.worker_deltas(),
                ]
            )
        else:
            times = run_closed_loop(one, seconds)
        peak_mb = cluster.peak_rss_mb()
    finally:
        cluster.close()

    oracle = Oracle(vectors, timestamps)
    for i, positions, distances, partial in answers:
        if partial:
            result.verdicts.add(f"query {i} answered partially")
            continue
        t_start, t_end = bounds[i]
        oracle.score(result.verdicts, queries[i % len(queries)], K, t_start, t_end, positions, distances)
    result.attempted = len(answers)
    result.failed = result.verdicts.failed

    if trace:
        extra = {
            "trace.overhead_ratio": stats.median_ratio(times, plain),
        }
        result.metrics = analyse(tracer.spans, counters, extra)
        tracer.dump(work.spans_path(seed))
        return result

    latencies = [end - start for start, end in times]
    closed_loop_metrics(
        result, setups, latencies, stats.chunked_rate(times), ingest_seconds, INGEST_BATCH, peak_mb
    )
    result.counts["query_qps"] = "median over 1-s bins"
    return result
