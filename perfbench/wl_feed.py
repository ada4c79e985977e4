"""``feed``: live-stream serving over single-node HTTP.

A server process (``feed_server.py``) runs ``IndexService`` behind
``make_server``, configured as ``repro serve`` configures it.  Set-up
ingests the initial stream through ``POST /ingest`` and waits until
every background build has drained.  The timed phase is an open loop
over two keep-alive connections shared by queries without ``seed`` (so
they take the admission-queue path) over the newest 1-5% of the
timeline, and a fixed-rate stream of 5-record ``/ingest`` batches that
keeps sealing leaves.  After the main rate, a fixed ladder of higher rates
finds the highest one whose p99 stays within the 100 ms SLO with no
growing backlog.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from . import common, stats
from .check import Oracle
from .common import K, SLO_SECONDS, Client, Result
from .data import Gaussians, log_uniform
from .layers import analyse, registry_deltas
from .loadgen import Op, fixed_rate, run_open_loop
from .trace import load_spans

DIM = 64
LEAF = 125
#: 18 leaves: the stream stays short of 32 leaves (4000 records) for the
#: whole run, so no root-sized merge build lands at a run-dependent point
#: of the timed phase.
INITIAL = 2250
SETUP_BATCH = 450
#: Small batches: with ``fsync=always`` every record is one fsync, and a
#: shared disk's fsync time wanders more than anything else in the run.
INGEST_BATCH = 5
INGEST_RATE = 5.0  # batches per second
MAIN_RATE = 25.0  # queries per second
LADDER = (12.5, 25.0, 50.0, 100.0, 200.0, 400.0)
#: Two keep-alive connections, shared by queries and ingest (``nproc``
#: on the reference host).
CONNECTIONS = 2
#: Shares of the run: the main rate, then each ladder rung above it.
MAIN_SHARE = 0.8
RUNG_SHARE = 0.05
WINDOW_FRACTIONS = (0.01, 0.05)
#: How much further behind schedule the generator may end a phase than it
#: began it before the phase counts as building a backlog.
BACKLOG_SLACK = 0.010
#: Query windows end where the ingest schedule stood this long before the
#: query was due, so the rows they cover are acknowledged when it is sent.
WINDOW_LAG = 0.5
#: Back-to-back queries every connection sends right before each phase.
WARMUP = 6
SERVE_ARGS = ["--dim", str(DIM), "--leaf-size", str(LEAF)]
#: More set-ups than the other workloads: a feed set-up also starts a
#: server process and fsyncs every record, and both wander with the host.
SETUPS = 5


class Server:
    """The server process plus one control connection."""

    def __init__(self, data_dir, spans=None) -> None:
        command = [sys.executable, str(common.ROOT / "perfbench" / "feed_server.py")]
        command += ["--data-dir", str(data_dir)]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", *SERVE_ARGS]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=30)
            raise RuntimeError("feed server exited before it was ready")
        hello = json.loads(line)
        self.port = hello["port"]
        self.service_lock = hello["service_lock"]
        self.control = Client(self.port)

    def metrics(self) -> dict:
        status, reply, _ = self.control.call("GET", "/metrics/json")
        if status != 200:
            raise RuntimeError(f"/metrics/json -> {status}")
        return reply

    def drain_builds(self) -> None:
        while self.metrics()["service_pending_builds"]["value"] > 0:
            time.sleep(0.01)

    def signal(self, signum) -> None:
        self.process.send_signal(signum)
        time.sleep(0.05)

    def stop(self) -> None:
        self.control.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Feed:
    """One open-loop session against a running server."""

    def __init__(self, vectors, queries, fractions) -> None:
        self.vectors = vectors
        self.queries = queries
        self.fractions = fractions
        self.acked = INITIAL
        self.next_batch = 0
        self.next_query = 0
        self.answers: dict[int, tuple] = {}
        self.client_latency: dict[str, float] = {}
        self.non2xx = 0
        self.clamped = 0
        self.settled = 0

    def phase_ops(self, rate: float, duration: float) -> list[Op]:
        """Queries at ``rate`` plus the ingest stream, for ``duration``."""
        queries = fixed_rate(rate, duration, "query", self.next_query)
        batches = fixed_rate(INGEST_RATE, duration, "ingest", self.next_batch)
        self.next_query += len(queries)
        self.next_batch += len(batches)
        return queries + batches

    def warm(self, clients: list[Client]) -> None:
        """Send ``WARMUP`` back-to-back queries on every connection at once.

        On the seed code a keep-alive connection's latency is bistable: one
        whose next request follows its last reply closely keeps stalling on
        delayed ACKs, one that idles does not, and which state an open loop
        at 25 queries/s settles in depends on its first requests.  Without
        this burst 5 of 10 three-second phases on one server settled in the
        fast state; with it, none did.  Warm-up answers are not scored.
        """
        window = {"k": K, "t_start": float(self.acked - LEAF), "t_end": float(self.acked)}
        statuses: list[int] = []

        def burst(client: Client) -> None:
            for i in range(WARMUP):
                payload = {"query": self.queries[i].tolist(), **window}
                statuses.append(client.call("POST", "/query", payload)[0])

        threads = [threading.Thread(target=burst, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if statuses != [200] * WARMUP * len(clients):
            raise RuntimeError(f"warm-up /query statuses {sorted(set(statuses))}")

    def run(self, ops: list[Op], clients: list[Client]):
        """Warm ``clients`` up, then send ``ops`` through them, whichever is free."""
        self.warm(clients)
        batches = [op for op in ops if op.kind == "ingest"]
        first_batch = batches[0].index if batches else self.next_batch
        ends = {
            op.index: INITIAL
            + INGEST_BATCH * (first_batch + sum(1 for b in batches if b.due <= op.due - WINDOW_LAG))
            for op in ops
            if op.kind == "query"
        }

        def sender(client: Client):
            def send(op: Op) -> bool:
                if op.kind == "ingest":
                    return self.ingest(client, op)
                return self.query(client, op, ends[op.index])

            return send

        return run_open_loop(ops, [sender(c) for c in clients])

    def ingest(self, client: Client, op: Op) -> bool:
        # The stream is ordered: a batch goes out only after its
        # predecessor was acknowledged (or refused).
        while self.settled < op.index:
            time.sleep(0.0005)
        try:
            return self._ingest(client, op)
        finally:
            self.settled = op.index + 1

    def _ingest(self, client: Client, op: Op) -> bool:
        lo = INITIAL + INGEST_BATCH * op.index
        hi = lo + INGEST_BATCH
        rid = f"i{op.index}"
        status, _, seconds = client.call("POST", "/ingest", _records(self.vectors, lo, hi), rid=rid)
        self.client_latency[rid] = seconds
        if status != 200:
            self.non2xx += 1
            return False
        self.acked = hi
        return True

    def query(self, client: Client, op: Op, end: int) -> bool:
        if end > self.acked:
            end = self.acked
            self.clamped += 1
        length = max(1, int(round(self.fractions[op.index] * end)))
        t_start, t_end = end - length, end
        vector = self.queries[op.index % len(self.queries)]
        rid = f"q{op.index}"
        payload = {"query": vector.tolist(), "k": K, "t_start": float(t_start), "t_end": float(t_end)}
        status, reply, seconds = client.call("POST", "/query", payload, rid=rid)
        self.client_latency[rid] = seconds
        if status != 200:
            self.non2xx += 1
            return False
        self.answers[op.index] = (vector, t_start, t_end, reply["positions"], reply["distances"])
        return True


def _records(vectors, lo: int, hi: int) -> dict:
    """The ``/ingest`` body for stream positions ``lo .. hi-1``."""
    return {
        "vectors": vectors[lo:hi].astype(np.float64).tolist(),
        "timestamps": [float(t) for t in range(lo, hi)],
    }


def _setup(work, vectors, spans=None) -> tuple[Server, float]:
    started = time.perf_counter()
    server = Server(work.fresh("feed"), spans)
    try:
        for lo in range(0, INITIAL, SETUP_BATCH):
            hi = min(INITIAL, lo + SETUP_BATCH)
            status, _, _ = server.control.call("POST", "/ingest", _records(vectors, lo, hi))
            if status != 200:
                raise RuntimeError(f"set-up /ingest -> {status}")
        server.drain_builds()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _split(outcomes):
    queries = [o for o in outcomes if o.op.kind == "query"]
    ingests = [o for o in outcomes if o.op.kind == "ingest"]
    return queries, ingests


def _judge(rate: float, queries) -> tuple[bool, str]:
    """Whether a phase at ``rate`` meets the SLO, and a note saying why.

    It does when every query succeeded, the nearest-rank p99 from due
    time (the maximum below 100 queries) is within the SLO, and the
    backlog did not grow: the median send lag of the phase's last
    quarter exceeds that of its first quarter by at most ``BACKLOG_SLACK``.
    """
    ordered = sorted(queries, key=lambda o: o.due)
    if not ordered:
        return False, f"{rate:g}/s fail (no queries)"
    quarter = max(1, len(ordered) // 4)
    growth = stats.median([o.lag for o in ordered[-quarter:]]) - stats.median(
        [o.lag for o in ordered[:quarter]]
    )
    p99 = stats.p99([o.latency for o in ordered])
    passed = all(o.ok for o in ordered) and p99 <= SLO_SECONDS and growth <= BACKLOG_SLACK
    note = f"{rate:g}/s {'pass' if passed else 'fail'} (p99 {p99 * 1e3:.0f} ms of {len(ordered)}, lag {growth * 1e3:+.0f} ms)"
    return passed, note


def _rate(outcomes) -> float:
    """Completions per second from the first due time to the last reply."""
    return len(outcomes) / (max(o.done for o in outcomes) - min(o.due for o in outcomes))


def _ladder(feed: Feed, clients, main, seconds: float):
    """The highest ladder rate meeting the SLO, and the rungs it ran.

    Climbs from the main rate until a rung fails, or, when the main rate
    itself fails, descends until one passes.  Returns ``((rate,
    outcomes) or None, [rung outcomes, ...], [verdict notes, ...])``.
    """
    passed, note = _judge(MAIN_RATE, main)
    best = (MAIN_RATE, main) if passed else None
    notes = [note]
    climbing = best is not None
    rates = [r for r in LADDER if r > MAIN_RATE] if climbing else [r for r in reversed(LADDER) if r < MAIN_RATE]
    rungs = []
    for rate in rates:
        rung, _ = _split(feed.run(feed.phase_ops(rate, seconds), clients))
        rungs.append(rung)
        passed, note = _judge(rate, rung)
        notes.append(note)
        if passed:
            best = (rate, rung)
            if not climbing:
                break
        elif climbing:
            break
    return best, rungs, notes


def run(seed: int, seconds: float, trace: bool, work) -> Result:
    result = Result()
    gen = Gaussians(DIM, seed)
    capacity = INITIAL + INGEST_BATCH * int(INGEST_RATE * (3 * seconds + 10))
    vectors, timestamps = gen.stream(capacity)
    queries = gen.queries(4096)
    rng = np.random.default_rng([seed, 3])
    fractions = log_uniform(rng, *WINDOW_FRACTIONS, size=100_000)

    spans_path = work.spans_path(seed) if trace else None
    setups = []
    server = None
    for _ in range(1 if trace else SETUPS):
        if server is not None:
            server.stop()
        server, elapsed = _setup(work, vectors, spans_path)
        setups.append(elapsed)
    clients = [Client(server.port) for _ in range(CONNECTIONS)]
    feed = Feed(vectors, queries, fractions)
    try:
        if trace:
            server.signal(signal.SIGUSR2)
            plain, _ = _split(feed.run(feed.phase_ops(MAIN_RATE, seconds / 3), clients))
            before = server.metrics()
            server.signal(signal.SIGUSR1)
            feed.client_latency.clear()
            feed.non2xx = 0
            outcomes = feed.run(feed.phase_ops(MAIN_RATE, 2 * seconds / 3), clients)
            counters = registry_deltas(before, server.metrics())
            main, ingests = _split(outcomes)
            phases = [plain, main]
        else:
            main, ingests = _split(feed.run(feed.phase_ops(MAIN_RATE, MAIN_SHARE * seconds), clients))
            best, rungs, verdicts = _ladder(feed, clients, main, RUNG_SHARE * seconds)
            result.notes.append("slo ladder: " + "; ".join(verdicts))
            phases = [main, *rungs]
        peak_mb = common.vm_hwm_mb(server.process.pid)
    finally:
        for client in clients:
            client.close()
        server.stop()

    oracle = Oracle(vectors[: feed.acked], timestamps[: feed.acked])
    all_queries = [o for phase in phases for o in phase]
    for outcome in all_queries:
        answer = feed.answers.get(outcome.op.index)
        if not outcome.ok or answer is None:
            result.verdicts.add(f"query {outcome.op.index} failed")
            continue
        vector, t_start, t_end, positions, distances = answer
        oracle.score(result.verdicts, vector, K, t_start, t_end, positions, distances)
    result.attempted = len(all_queries) + len(ingests)
    result.failed = result.verdicts.failed + sum(not o.ok for o in ingests)
    result.notes.append(f"windows clamped to the acknowledged stream: {feed.clamped}")

    latencies = [o.latency for o in main]
    ingest_latencies = [o.latency for o in ingests]
    if trace:
        spans = load_spans(spans_path)
        plain_p50 = stats.median([o.latency for o in plain])
        extra = {
            "service_locks": [server.service_lock],
            "client_latency": feed.client_latency,
            "server.non2xx": feed.non2xx,
            "loadgen.lag_p99_ms": stats.tail_or_max([o.lag for o in main]) * 1e3,
            "trace.overhead_ratio": stats.median(latencies) / plain_p50 if plain_p50 else 0.0,
        }
        result.metrics = analyse(spans, counters, extra)
        return result

    result.metrics = {
        "setup_s": stats.median(setups),
        "query_p50_ms": stats.median(latencies) * 1e3,
        "query_p99_ms": stats.tail_or_max(latencies) * 1e3,
        "query_qps": _rate(main),
        "slo_qps": _rate(best[1]) if best else 0.0,
        "ingest_p99_ms": stats.tail_or_max(ingest_latencies) * 1e3,
        "ingest_rps": INGEST_BATCH * _rate([o for o in ingests if o.ok]),
        "recall_at_10": result.verdicts.mean_recall,
        "peak_rss_mb": peak_mb,
    }
    result.counts = {
        "setup_s": f"median of {len(setups)} set-ups",
        "query_p50_ms": f"{len(latencies)} queries from due time at {MAIN_RATE:g}/s",
        "query_p99_ms": stats.describe_tail(latencies),
        "ingest_p99_ms": stats.describe_tail(ingest_latencies),
        "slo_qps": f"ladder {'/'.join(f'{r:g}' for r in LADDER)}, passed {best[0]:g}/s" if best else "no rung passed",
        "recall_at_10": f"{result.verdicts.checked} answers",
    }
    return result

