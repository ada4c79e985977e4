"""``history`` and ``cold``: analytical backfill through ``IndexService.search``.

One client calls ``IndexService.search`` back to back (a closed loop) on a
static index built from the initial stream: no HTTP, no admission queue.
``history`` keeps every block hot and draws windows log-uniform from 1%
to 100% of the timeline at random offsets.  ``cold`` is its twin on the
same data under a memory budget of about a quarter of the all-hot block
bytes, enforced by the checkpoint that ends set-up, with windows skewed
to the oldest half of the timeline, so block promotion and eviction sit
on the query path.

Both are CPU-bound, so untraced runs report their times at the reference
host speed of :mod:`perfbench.calibrate`: set-up calibrates between its
ingest batches, the timed phase after every 0.4 s of queries.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from . import calibrate, stats
from .check import Oracle
from .common import K, Result, closed_loop_metrics, self_peak_mb, serve_configs
from .data import Gaussians, windows
from .layers import MIB, analyse, registry_deltas
from .loadgen import run_alternating

DIM = 64
LEAF = 500
N = 4000
INGEST_BATCH = 100
FSYNC = "never"
#: About a quarter of the 5.25 MiB the all-hot index attributes to blocks.
COLD_BUDGET_MB = 1.3
#: Five set-ups: the ack time of a set-up's batches wanders by up to a
#: factor of two from one second to the next on a shared host, and the
#: ingest metrics are read off the set-ups.
SETUPS = 5
#: Calibration kernel units run after each set-up batch has drained, left
#: out of the set-up's time (about 5 ms a batch).
UNITS_PER_BATCH = 4


def _configs(workload: str):
    argv = ["--dim", str(DIM), "--leaf-size", str(LEAF), "--fsync", FSYNC]
    if workload == "cold":
        argv += ["--memory-budget-mb", str(COLD_BUDGET_MB)]
    mbi_config, service_config, _ = serve_configs(argv)
    return mbi_config, service_config


def _setup(workload, work, vectors, timestamps, calibrated):
    """A ready service, its set-up seconds, each batch's ack seconds and
    the calibration unit seconds (none unless ``calibrated``)."""
    from repro.service import IndexService

    mbi_config, service_config = _configs(workload)
    started = time.perf_counter()
    acks, units = [], []
    service = IndexService.open(
        work.fresh(workload), dim=DIM, mbi_config=mbi_config, config=service_config
    )
    # A bulk load: each batch is acknowledged, then the builds it sealed
    # drain before the next one, so ingest latency is the ingest path's
    # own and not a race with the build thread for the interpreter lock.
    for lo in range(0, len(vectors), INGEST_BATCH):
        batch_started = time.perf_counter()
        service.ingest_batch(vectors[lo : lo + INGEST_BATCH], timestamps[lo : lo + INGEST_BATCH])
        acks.append(time.perf_counter() - batch_started)
        service.wait_builds()
        if calibrated:
            paused = time.perf_counter()
            units += calibrate.run_units(UNITS_PER_BATCH)
            started += time.perf_counter() - paused
    if workload == "cold":
        service.checkpoint()
    return service, time.perf_counter() - started, acks, units


def run(workload: str, seed: int, seconds: float, trace: bool, work) -> Result:
    from repro.observability.metrics import get_registry

    result = Result()
    gen = Gaussians(DIM, seed)
    vectors, timestamps = gen.stream(N)
    queries = gen.queries(4096)
    rng = np.random.default_rng([seed, 3])
    if workload == "cold":
        bounds = windows(rng, 100_000, 0, N // 2, 0.02, 1.0)
    else:
        bounds = windows(rng, 100_000, 0, N, 0.01, 1.0)

    tracer = None
    if trace:
        from . import probes
        from .trace import Tracer

        tracer = Tracer()
        probes.register(tracer)
        tracer.install()
    setups, ingest_seconds, raw_setups = [], [], []

    def set_up():
        service, elapsed, acks, units = _setup(workload, work, vectors, timestamps, not trace)
        if trace:
            return service
        scale = calibrate.scale_of(units)
        setups.append(elapsed * scale)
        ingest_seconds.append([ack * scale for ack in acks])
        raw_setups.append(elapsed)
        return service

    # The first set-up is the one queried; the others only time set-up and
    # run after the peak RSS is read, so it is one index's, in a process
    # that has built no other.
    service = set_up()
    tiering = service.index.tiering
    setup_peak = tiering.stats()["peak_resident_bytes"] / MIB if tiering else 0.0

    answers = []
    resident = []

    def one(i: int) -> None:
        t_start, t_end = (float(x) for x in bounds[i])
        found = service.search(
            queries[i % len(queries)], K, t_start, t_end, rng=np.random.default_rng([seed, 4, i])
        )
        answers.append((i, found.positions, found.distances))
        if tiering is not None and tracer is not None and tracer.phase == "timed":
            resident.append(tiering.cache.resident_bytes)

    try:
        if trace:
            registry_before = get_registry().export_state()
            tier_before = tiering.stats() if tiering else None
            plain, times = run_alternating(one, seconds, tracer.resume, tracer.pause)
            counters = registry_deltas(registry_before, get_registry().export_state())
            tier_after = tiering.stats() if tiering else None
        else:
            cycles = calibrate.run_calibrated_loop(one, seconds)
        peak_mb = self_peak_mb()
    finally:
        service.close()
    for _ in range(0 if trace else SETUPS - 1):
        gc.collect()
        set_up().close()

    oracle = Oracle(vectors, timestamps)
    for i, positions, distances in answers:
        t_start, t_end = bounds[i]
        oracle.score(result.verdicts, queries[i % len(queries)], K, t_start, t_end, positions, distances)
    result.attempted = len(answers)
    result.failed = result.verdicts.failed

    if trace:
        extra = {
            "service_locks": [id(service._rwlock)],
            "trace.overhead_ratio": stats.median_ratio(times, plain),
        }
        if tiering is not None:
            promotions = tier_after["promotions"] - tier_before["promotions"]
            resolved = (tier_after["hits"] + tier_after["misses"]) - (
                tier_before["hits"] + tier_before["misses"]
            )
            extra.update(
                {
                    "tier.hit_ratio": 1.0 - promotions / resolved if resolved else 0.0,
                    # Promotions are counted over the whole alternating
                    # phase, traced and untraced stretches alike.
                    "tier.promotions_per_query": promotions / (len(times) + len(plain)),
                    "tier.resident_peak_mb": max(resident) / MIB if resident else 0.0,
                    "tier.setup_peak_mb": setup_peak,
                    "tier.budget_mb": COLD_BUDGET_MB,
                }
            )
        result.metrics = analyse(tracer.spans, counters, extra)
        tracer.dump(work.spans_path(seed))
        return result

    latencies = calibrate.scaled_latencies(cycles)
    raw = [end - start for cycle in cycles for start, end in cycle.times]
    closed_loop_metrics(
        result,
        setups,
        latencies,
        stats.median([cycle.rate() for cycle in cycles]),
        ingest_seconds,
        INGEST_BATCH,
        peak_mb,
    )
    result.counts["query_qps"] = f"median over {len(cycles)} calibrated 0.4-s stretches"
    unit_ms = stats.median([u for cycle in cycles for u in cycle.units]) * 1e3
    result.notes += [
        f"times at reference speed: a calibration unit takes "
        f"{calibrate.REFERENCE_UNIT_S * 1e3:g} ms there, {unit_ms:.4f} ms (median) in the timed phase here",
        f"raw host figures: setup_s {stats.median(raw_setups):.6f}, "
        f"query_p50_ms {stats.median(raw) * 1e3:.6f}, query_p99_ms {stats.tail_or_max(raw) * 1e3:.6f}",
    ]
    return result
