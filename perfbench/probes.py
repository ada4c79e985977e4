"""Where the traced run puts its wrappers: one entry per layer boundary.

The table below is the whole instrumentation.  Every wrapper is
installed from here, around a public function of the layer named in the
span (two private hooks are marked as such), so nothing in the program
itself changes when tracing is on.
"""

from __future__ import annotations

import itertools
import threading

from .common import REQUEST_ID_HEADER
from .trace import Tracer


_SERIAL_ATTR = "_perfbench_serial"
_serial_lock = threading.Lock()
_serials = itertools.count(1)


def serial_of(future) -> int:
    """A number that names ``future`` and no other future of the process.

    ``id()`` does not: CPython gives a freed future's address to the next
    one almost at once.  The submit and drain hooks run on different
    threads in either order, so whichever sees the future first numbers it.
    """
    with _serial_lock:
        serial = getattr(future, _SERIAL_ATTR, None)
        if serial is None:
            serial = next(_serials)
            setattr(future, _SERIAL_ATTR, serial)
        return serial


def _stats_of(results) -> dict:
    if results is None:
        return {}
    if not isinstance(results, list):
        results = [results]
    return {
        "queries": len(results),
        "blocks": sum(r.stats.blocks_searched for r in results),
        "graph_blocks": sum(r.stats.graph_blocks for r in results),
        "dist_evals": sum(r.stats.distance_evaluations for r in results),
        "nodes": sum(r.stats.nodes_visited for r in results),
    }


def register(tracer: Tracer) -> None:
    """Register (not yet install) a wrapper at every layer boundary."""
    from repro.core import backends, mbi
    from repro.core.mbi import MultiLevelBlockIndex
    from repro.observability.metrics import get_registry
    from repro.service.admission import AdmissionQueue
    from repro.service.locks import RWLock
    from repro.service.server import _ServiceHandler
    from repro.service.service import IndexService
    from repro.service.wal import WriteAheadLog
    from repro.sharding.router import ShardRouter
    from repro.sharding.transport import HttpTransport
    from repro.tiering.manager import TierManager

    registry = get_registry()
    pending = registry.gauge("service_pending_builds")
    batches = itertools.count(1)

    def drained(args, kwargs, batch, pre):
        # The admission worker runs each drained batch next on this
        # thread; tagging the thread links its execution spans to the
        # requests that waited for it.
        if not batch:
            return {}
        tag = f"batch{next(batches)}"
        tracer.set_request(tag)
        return {"batch": tag, "futures": [serial_of(r.future) for r in batch]}

    def lock_id(args, kwargs, result, pre):
        return {"lock": id(args[0])}

    wrap = tracer.wrap
    # repro.service.server (the single-node HTTP frontend).
    wrap(
        _ServiceHandler,
        "do_POST",
        "server.request",
        rid=lambda a, k: a[0].headers.get(REQUEST_ID_HEADER),
    )
    # repro.service.service / admission / locks / wal.
    wrap(IndexService, "query", "service.query")
    wrap(IndexService, "search", "service.search")
    wrap(
        IndexService,
        "submit",
        "service.submit",
        after=lambda a, k, r, p: {"future": serial_of(r)} if r is not None else {},
    )
    wrap(IndexService, "ingest_batch", "service.ingest_batch")
    wrap(AdmissionQueue, "drain", "admission.drain", after=drained)
    wrap(RWLock, "acquire_read", "locks.read", after=lock_id)
    wrap(RWLock, "acquire_write", "locks.write", after=lock_id)
    wrap(
        WriteAheadLog,
        "append",
        "wal.append",
        before=lambda a, k: a[0].nbytes,
        after=lambda a, k, r, p: {"bytes": a[0].nbytes - p},
    )
    # repro.core.mbi: build and search, plus the functions it imports by
    # name (wrapped on mbi's own bindings, which is what it calls).
    wrap(
        MultiLevelBlockIndex,
        "build_blocks",
        "build",
        before=lambda a, k: (
            pending.value,
            sum(b.backend is None for b in a[1]),
            a[0].total_distance_evaluations,
        ),
        after=lambda a, k, r, p: {
            "pending": p[0],
            "blocks": p[1],
            "dist_evals": a[0].total_distance_evaluations - p[2],
        },
    )
    wrap(MultiLevelBlockIndex, "search", "mbi.search", after=lambda a, k, r, p: _stats_of(r))
    wrap(MultiLevelBlockIndex, "search_batch", "mbi.search_batch")
    wrap(mbi, "select_blocks", "selection")
    wrap(mbi, "merge_partial_results", "merge")
    wrap(mbi, "brute_force_topk", "brute")
    # repro.graph.search, through the binding GraphBackend.search calls.
    wrap(backends, "graph_search", "graph.search")
    wrap(backends, "pick_entries", "graph.entries")
    # repro.tiering.
    wrap(TierManager, "note_selection", "tier.prefetch")
    wrap(TierManager, "resolve", "tier.resolve")
    # repro.sharding (``_merge`` is the router's private merge step).
    wrap(
        ShardRouter,
        "search",
        "router.search",
        after=lambda a, k, r, p: {"fanout": len(r.queried_shards)} if r is not None else {},
    )
    wrap(ShardRouter, "_merge", "router.merge")
    wrap(HttpTransport, "search", "transport.search")
