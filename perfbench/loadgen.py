"""Load generators: an open loop timed from due times, and a closed loop.

The open loop sends each operation at its scheduled due time through a
small pool of senders (one keep-alive connection each).  When every
sender is busy the operation goes out late, and its latency still counts
from when it was due, so a stall also charges the requests queued
behind it.  How late the generator itself ran is reported separately.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class Op:
    """One scheduled operation: due ``due`` seconds after the phase start."""

    due: float
    kind: str
    index: int


@dataclass
class Outcome:
    """What happened to one :class:`Op` (absolute ``perf_counter`` times)."""

    op: Op
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def lag(self) -> float:
        """How late the generator sent the operation."""
        return self.sent - self.due

    @property
    def latency(self) -> float:
        """Completion time measured from the due time."""
        return self.done - self.due


def fixed_rate(rate: float, duration: float, kind: str, start_index: int = 0) -> list[Op]:
    """Evenly spaced ops at ``rate`` per second for ``duration`` seconds."""
    count = int(round(rate * duration))
    return [Op(i / rate, kind, start_index + i) for i in range(count)]


def run_open_loop(ops: Sequence[Op], senders: Sequence[Callable[[Op], bool]]) -> list[Outcome]:
    """Send ``ops`` at their due times through ``senders``; wait for all.

    Each sender is called from its own thread and returns whether the
    operation succeeded (an exception counts as a failure).  Ops are
    handed out in due order to whichever sender is free.
    """
    ordered = sorted(ops, key=lambda op: op.due)
    origin = time.perf_counter() + 0.01
    outcomes: list[Outcome | None] = [None] * len(ordered)
    cursor = [0]
    lock = threading.Lock()

    def loop(send: Callable[[Op], bool]) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(ordered):
                    return
                cursor[0] += 1
            op = ordered[i]
            due = origin + op.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                ok = bool(send(op))
            except Exception:  # noqa: BLE001 - every failure is counted
                ok = False
            outcomes[i] = Outcome(op, due, sent, time.perf_counter(), ok)

    threads = [threading.Thread(target=loop, args=(s,), daemon=True) for s in senders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [o for o in outcomes if o is not None]


def run_closed_loop(call: Callable[[int], Any], seconds: float) -> list[tuple[float, float]]:
    """Call ``call(i)`` back to back for ``seconds``; returns (start, end) pairs."""
    times = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        started = time.perf_counter()
        if started >= deadline:
            return times
        call(i)
        times.append((started, time.perf_counter()))
        i += 1


#: Seconds :func:`run_alternating` stays in one mode before it flips.
ALTERNATE_EVERY = 0.5


def run_alternating(
    call: Callable[[int], Any],
    seconds: float,
    on: Callable[[], None],
    off: Callable[[], None],
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """A closed loop that flips between two modes every ``ALTERNATE_EVERY`` s.

    Calls ``off()`` before each odd chunk and ``on()`` before each even
    one, so both modes see the same evolving state.  Returns the
    ``(start, end)`` pairs of the off-mode calls and of the on-mode calls.
    """
    plain: list[tuple[float, float]] = []
    marked: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    count = 0
    enabled = True
    while True:
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        enabled = not enabled
        (on if enabled else off)()
        part = run_closed_loop(lambda j: call(count + j), min(ALTERNATE_EVERY, left))
        (marked if enabled else plain).extend(part)
        count += len(part)
    off()
    return plain, marked
