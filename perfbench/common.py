"""Shared plumbing: paths, the serve configuration, HTTP client, memory."""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import platform
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import stats
from .check import Verdicts

ROOT = Path(__file__).resolve().parent.parent

#: The SLO for ``slo_qps``: tail query latency from due time.
SLO_SECONDS = 0.100

K = 10

#: Header the load generator sends so server-side spans carry its id.
REQUEST_ID_HEADER = "X-Request-Id"


@dataclass
class Result:
    """What one workload run produced, before reporting."""

    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, str] = field(default_factory=dict)
    verdicts: Verdicts = field(default_factory=Verdicts)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)


class WorkDir:
    """Scratch space inside the checkout, removed when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.path = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def spans_path(self, seed: int) -> Path:
        """Where a traced run leaves its spans (kept after the run)."""
        return self.path.parent / f"{self.workload}-seed{seed}-spans.jsonl"

    def fresh(self, name: str) -> Path:
        """A new empty subdirectory."""
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        """Delete the scratch space (and its parent when empty)."""
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def serve_configs(argv: list[str]):
    """``(mbi_config, service_config)`` exactly as ``repro serve`` builds them."""
    from repro import cli

    args = cli.build_parser().parse_args(["serve", "--data-dir", "unused", *argv])
    return cli._service_mbi_config(args), cli._service_config(args), args


def host_facts(seed: int, fsync: str) -> dict:
    """The facts every run records next to its numbers."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "fsync": fsync,
        "seed": seed,
    }


#: ``mallopt`` parameter number of glibc's mmap threshold.
_M_MMAP_THRESHOLD = -3
#: glibc's starting mmap threshold, in bytes.
MMAP_THRESHOLD = 128 * 1024


def fix_mmap_threshold() -> None:
    """Pin glibc's mmap threshold at its starting value (a no-op off glibc).

    By default glibc raises the threshold to the size of each large block
    freed (up to 32 MiB); blocks under it then come from the heap and stay
    resident after they are freed.  How far it has risen when the root
    block's build runs depends on every allocation before it, and that
    build's peak RSS read 340 or 400 MiB at random.  A fixed threshold
    switches the adjustment off: large blocks are always mapped and
    returned, so peak RSS follows peak live memory.  Forked children
    inherit the setting.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of process ``pid`` in MiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Client:
    """One keep-alive JSON-over-HTTP connection."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def call(self, method: str, path: str, payload=None, rid: str | None = None):
        """``(status, decoded reply, seconds)``; reconnects after a broken socket."""
        body = None if payload is None else json.dumps(payload)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if rid is not None:
            headers[REQUEST_ID_HEADER] = rid
        started = time.perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
            raise
        seconds = time.perf_counter() - started
        try:
            reply = json.loads(data)
        except ValueError:
            reply = None
        return response.status, reply, seconds

    def close(self) -> None:
        """Close the socket."""
        self._conn.close()


def closed_loop_metrics(result, setups, latencies, qps, ingest_seconds, ingest_batch, peak_mb) -> None:
    """Fill ``result`` with the end-to-end metrics of a closed-loop workload.

    ``setups`` are set-up seconds, ``latencies`` query seconds, ``qps`` the
    completion rate and ``ingest_seconds`` one list of batch ack times per
    set-up, all already in the unit the workload reports them in.
    A closed loop with one client offers exactly the system's capacity,
    so ``slo_qps`` is ``query_qps`` when its p99 meets the SLO, else 0.
    ``ingest_p99_ms`` is the median over set-ups of each set-up's tail (the
    p75 of its 40 batches).  The tail of all set-ups pooled would be their
    p90 or p95, and what lies there is the share of acks slowed by some 4-5 ms:
    about 3% of batches on a quiet host, over 10% on a busy one.
    """
    acks = [seconds for batches in ingest_seconds for seconds in batches]
    result.metrics = {
        "setup_s": stats.median(setups),
        "query_p50_ms": stats.median(latencies) * 1e3,
        "query_p99_ms": stats.tail_or_max(latencies) * 1e3,
        "query_qps": qps,
        "slo_qps": qps if stats.p99(latencies) <= SLO_SECONDS else 0.0,
        "ingest_p99_ms": stats.median([stats.tail_or_max(batches) for batches in ingest_seconds]) * 1e3,
        "ingest_rps": stats.median([ingest_batch / t for t in acks]),
        "recall_at_10": result.verdicts.mean_recall,
        "peak_rss_mb": peak_mb,
    }
    result.counts = {
        "setup_s": f"median of {len(setups)} set-ups",
        "query_p50_ms": f"{len(latencies)} queries, closed loop, 1 client",
        "query_p99_ms": stats.describe_tail(latencies),
        "slo_qps": "closed loop: query_qps when its p99 meets 100 ms",
        "ingest_p99_ms": (
            f"median over {len(ingest_seconds)} set-ups of the "
            f"{stats.describe_tail(ingest_seconds[0])} batches of {ingest_batch}"
        ),
        "ingest_rps": f"median over {len(acks)} set-up batches",
        "recall_at_10": f"{result.verdicts.checked} answers",
    }
