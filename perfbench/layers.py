"""Per-layer metrics: the contract's names, and how spans become them.

Each metric is computed from spans of the traced phase (``build.*`` and
``wal.*`` also count the traced set-up, where the initial stream is
ingested), from counter deltas scraped off the program's own metrics
registry, or from facts the runner measured itself (``extra``).  A
layer a workload never enters reports 0.
"""

from __future__ import annotations

from collections import defaultdict

from .stats import median, tail_or_max
from .trace import Span, self_times

MS = 1e3
MIB = 1024.0 * 1024.0

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("server.overhead_ms_p50", "ms"),
    ("server.ingest_overhead_ms_p50", "ms"),
    ("server.non2xx", "count"),
    ("admission.wait_ms_p50", "ms"),
    ("admission.wait_ms_p99", "ms"),
    ("admission.batch_size_mean", "requests"),
    ("locks.read_wait_ms_p99", "ms"),
    ("locks.write_wait_ms_p99", "ms"),
    ("wal.append_ms_p50", "ms"),
    ("wal.append_ms_p99", "ms"),
    ("wal.bytes_per_record", "B"),
    ("build.blocks", "count"),
    ("build.busy_s", "s"),
    ("build.dist_evals", "count"),
    ("build.pending_max", "count"),
    ("mbi.search_ms_p50", "ms"),
    ("mbi.blocks_per_query", "count"),
    ("mbi.graph_blocks_per_query", "count"),
    ("mbi.dist_evals_per_query", "count"),
    ("mbi.nodes_visited_per_query", "count"),
    ("mbi.unattributed_share", "ratio"),
    ("selection.ms_per_query", "ms"),
    ("selection.calls_per_query", "count"),
    ("graph.search_ms_p50", "ms"),
    ("graph.search_share", "ratio"),
    ("merge.ms_per_query", "ms"),
    ("tier.hit_ratio", "ratio"),
    ("tier.promotions_per_query", "count"),
    ("tier.resolve_ms_p99", "ms"),
    ("tier.resident_peak_mb", "MiB"),
    ("tier.setup_peak_mb", "MiB"),
    ("tier.budget_mb", "MiB"),
    ("router.fanout_mean", "count"),
    ("router.merge_ms_p50", "ms"),
    ("router.straggler_ms_p99", "ms"),
    ("router.retries", "count"),
    ("router.partials", "count"),
    ("transport.hop_ms_p50", "ms"),
    ("telemetry.sampled", "count"),
    ("telemetry.slow_records", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

UNITS = dict(PER_LAYER)


def registry_deltas(before: dict, after: dict) -> dict[str, float]:
    """Counter deltas, gauge peaks and histogram sum/count deltas.

    ``before``/``after`` are ``MetricsRegistry.export_state()`` dumps (or
    the same JSON scraped from ``/metrics/json``).  Histograms appear as
    ``<name>.sum`` and ``<name>.count``; gauges as ``<name>.peak``.
    """
    out: dict[str, float] = {}
    for name, entry in after.items():
        prior = before.get(name, {})
        kind = entry.get("kind")
        if kind == "counter":
            out[name] = entry["value"] - prior.get("value", 0.0)
        elif kind == "gauge":
            out[name + ".peak"] = entry["peak"]
        elif kind == "histogram":
            out[name + ".sum"] = entry["sum"] - prior.get("sum", 0.0)
            out[name + ".count"] = entry["count"] - prior.get("count", 0)
    return out


def merge_deltas(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum deltas from several processes (gauge peaks take the maximum)."""
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for name, value in part.items():
            if name.endswith(".peak"):
                out[name] = max(out[name], value)
            else:
                out[name] += value
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def analyse(
    spans: list[Span],
    counters: dict[str, float] | None = None,
    extra: dict[str, object] | None = None,
) -> dict[str, float]:
    """Every per-layer metric from traced spans, counter deltas and extras.

    ``extra`` carries what only the runner knows: ``client_latency`` (request
    id → seconds), ``service_locks`` (ids of the service's own RW locks)
    and ready-made values for metrics named in :data:`PER_LAYER`.
    """
    counters = counters or {}
    extra = extra or {}
    out = {name: 0.0 for name, _ in PER_LAYER}
    timed = [s for s in spans if s.phase == "timed"]
    selfs = self_times(timed)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in timed:
        by_name[span.name].append(span)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in timed:
        if span.parent is not None:
            children[span.parent].append(span)

    # repro.core.mbi (search): one mbi.search span per answered query.
    searches = by_name["mbi.search"]
    queries = len(searches)
    search_total = sum(s.seconds for s in searches)
    if queries:
        out["mbi.search_ms_p50"] = median([selfs[s.sid] for s in searches]) * MS
        for key, name in (
            ("blocks", "mbi.blocks_per_query"),
            ("graph_blocks", "mbi.graph_blocks_per_query"),
            ("dist_evals", "mbi.dist_evals_per_query"),
            ("nodes", "mbi.nodes_visited_per_query"),
        ):
            out[name] = sum(s.attrs.get(key, 0) for s in searches) / queries
        out["mbi.unattributed_share"] = _ratio(
            sum(selfs[s.sid] for s in searches), search_total
        )
        selection = by_name["selection"]
        out["selection.ms_per_query"] = sum(s.seconds for s in selection) / queries * MS
        out["selection.calls_per_query"] = len(selection) / queries
        out["merge.ms_per_query"] = sum(s.seconds for s in by_name["merge"]) / queries * MS
        tier_ms = [
            sum(c.seconds for c in children[s.sid] if c.name.startswith("tier.")) * MS
            for s in searches
        ]
        if any(tier_ms):
            out["tier.resolve_ms_p99"] = tail_or_max(tier_ms)
    graph = by_name["graph.search"]
    if graph:
        out["graph.search_ms_p50"] = median([s.seconds for s in graph]) * MS
        out["graph.search_share"] = _ratio(sum(s.seconds for s in graph), search_total)

    # repro.service.locks: only the service's own reader/writer lock.
    service_locks = set(extra.get("service_locks", ()))
    for kind in ("read", "write"):
        waits = [
            s.seconds * MS
            for s in by_name[f"locks.{kind}"]
            if not service_locks or s.attrs.get("lock") in service_locks
        ]
        if waits:
            out[f"locks.{kind}_wait_ms_p99"] = tail_or_max(waits)

    # repro.service.wal and the build path: set-up plus the timed phase.
    appends = [s for s in spans if s.name == "wal.append"]
    if appends:
        out["wal.append_ms_p50"] = median([s.seconds * MS for s in appends])
        out["wal.append_ms_p99"] = tail_or_max([s.seconds * MS for s in appends])
        out["wal.bytes_per_record"] = sum(s.attrs.get("bytes", 0) for s in appends) / len(appends)
    else:
        out["wal.bytes_per_record"] = _ratio(
            counters.get("service_wal_bytes_total", 0.0),
            counters.get("service_wal_appends_total", 0.0),
        )
    builds = [s for s in spans if s.name == "build"]
    if builds:
        out["build.blocks"] = float(sum(s.attrs.get("blocks", 0) for s in builds))
        out["build.busy_s"] = sum(s.seconds for s in builds)
        out["build.pending_max"] = float(max(s.attrs.get("pending", 0) for s in builds))
        out["build.dist_evals"] = float(sum(s.attrs.get("dist_evals", 0) for s in builds))
    else:
        out["build.blocks"] = counters.get("mbi_build_blocks_total", 0.0)
        out["build.busy_s"] = counters.get("mbi_build_seconds_total", 0.0)
        out["build.pending_max"] = counters.get("service_pending_builds.peak", 0.0)
        out["build.dist_evals"] = counters.get("mbi_build_distance_evals_total", 0.0)

    # repro.service.admission: query span minus the execution span of
    # the micro-batch that answered it.
    batch_of: dict[int, str] = {}
    sizes = []
    for drain in by_name["admission.drain"]:
        futures = drain.attrs.get("futures") or []
        if futures:
            sizes.append(len(futures))
            for future in futures:
                batch_of[future] = drain.attrs["batch"]
    executed = {
        s.rid: s.seconds
        for s in timed
        if s.parent is None and s.name in ("mbi.search", "mbi.search_batch") and s.rid
    }
    waits = []
    service_query: dict[str, float] = {}
    for query in by_name["service.query"]:
        if query.rid is not None:
            service_query[query.rid] = query.seconds
        for child in children[query.sid]:
            batch = batch_of.get(child.attrs.get("future"))
            if child.name == "service.submit" and batch in executed:
                waits.append((query.seconds - executed[batch]) * MS)
    if waits:
        out["admission.wait_ms_p50"] = median(waits)
        out["admission.wait_ms_p99"] = tail_or_max(waits)
    if sizes:
        out["admission.batch_size_mean"] = sum(sizes) / len(sizes)

    # repro.service.server: client latency minus the service's own span.
    client = extra.get("client_latency", {})
    overhead = [
        (client[rid] - seconds) * MS for rid, seconds in service_query.items() if rid in client
    ]
    if overhead:
        out["server.overhead_ms_p50"] = median(overhead)
    ingest_spans = {s.rid: s.seconds for s in by_name["service.ingest_batch"] if s.rid}
    ingest_overhead = [
        (client[rid] - seconds) * MS for rid, seconds in ingest_spans.items() if rid in client
    ]
    if ingest_overhead:
        out["server.ingest_overhead_ms_p50"] = median(ingest_overhead)

    # repro.sharding: router spans, and the transport calls inside each.
    routed = by_name["router.search"]
    if routed:
        out["router.fanout_mean"] = sum(s.attrs.get("fanout", 0) for s in routed) / len(routed)
        hops = sorted(by_name["transport.search"], key=lambda s: s.start)
        stragglers, slowest = [], []
        for search in routed:
            inside = [h.seconds for h in hops if h.start >= search.start and h.end <= search.end]
            if inside:
                slowest.append(max(inside))
            if len(inside) >= 2:
                stragglers.append((max(inside) - min(inside)) * MS)
        if stragglers:
            out["router.straggler_ms_p99"] = tail_or_max(stragglers)
        merges = [s.seconds * MS for s in by_name["router.merge"]]
        out["router.merge_ms_p50"] = median(merges)
        # Worker-side search time is scraped from the workers' registries.
        worker_count = counters.get("mbi_search_seconds.count", 0.0)
        if slowest and worker_count:
            # The slowest hop of each query is the one it waits for.
            worker_mean = counters["mbi_search_seconds.sum"] / worker_count
            out["transport.hop_ms_p50"] = (median(slowest) - worker_mean) * MS
    out["router.retries"] = counters.get("shard_retries_total", 0.0)
    out["router.partials"] = counters.get("shard_partial_total", 0.0)

    # repro.observability.telemetry.
    out["telemetry.sampled"] = counters.get("telemetry_sampled_total", 0.0)
    out["telemetry.slow_records"] = counters.get("telemetry_slow_total", 0.0)

    for name in (
        "server.non2xx",
        "tier.hit_ratio",
        "tier.promotions_per_query",
        "tier.resident_peak_mb",
        "tier.setup_peak_mb",
        "tier.budget_mb",
        "loadgen.lag_p99_ms",
        "trace.overhead_ratio",
    ):
        if name in extra:
            out[name] = float(extra[name])
    return out
