"""Spans recorded from outside the program, and self-time arithmetic.

A :class:`Tracer` swaps chosen functions and methods for timing wrappers
(and puts the originals back on :meth:`Tracer.uninstall`).  A function
imported by name, like ``select_blocks`` in ``repro.core.mbi``, is
wrapped on the binding its caller looks up, not where it is defined.

Each span carries a name, start, end, the span that caused it (the
innermost open span on the same thread), a request id and the phase it
ran in.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    """One timed call into a layer."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    rid: str | None
    phase: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Duration in seconds."""
        return self.end - self.start


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end)) for start, end in children if end > lo and start < hi
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.seconds - covered((span.start, span.end), children.get(span.sid, ()))
        for span in spans
    }


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._specs: list[tuple] = []

    # ------------------------------------------------------------ context

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: str | None) -> None:
        """Request id for root spans subsequently opened on this thread."""
        self._local.rid = rid

    def _open(self, rid: str | None) -> tuple[int, int | None, str | None]:
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1]
        else:
            parent, inherited = None, getattr(self._local, "rid", None)
        sid = next(self._ids)
        rid = rid if rid is not None else inherited
        stack.append((sid, rid))
        return sid, parent, rid

    def _close(self, sid, parent, rid, name, start, attrs) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, parent, name, start, end, rid, self.phase, attrs or {}))

    # ----------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        rid: Callable[[tuple, dict], str | None] | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
        after: Callable[[tuple, dict, Any, Any], dict] | None = None,
    ) -> None:
        """Register a wrapper for ``owner.attr`` recording span ``name``.

        ``rid`` derives a request id from the call's arguments; ``before``
        runs ahead of the call and its value reaches ``after``, which
        turns ``(args, kwargs, result, before)`` into span attributes.
        """
        self._specs.append((owner, attr, name, rid, before, after))

    def install(self) -> None:
        """Put every registered wrapper in place (idempotent)."""
        if self._installed:
            return
        for owner, attr, name, rid_fn, before, after in self._specs:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name, rid_fn, before, after))
            self._installed.append((owner, attr, original))

    def resume(self) -> None:
        """Start (or restart) the traced phase: spans count as ``timed``."""
        self.phase = "timed"
        self.install()

    def pause(self) -> None:
        """Remove the wrappers; calls until :meth:`resume` run untraced."""
        self.uninstall()
        self.phase = "untraced"

    def uninstall(self) -> None:
        """Restore every wrapped binding to its original."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrapper(self, original, name, rid_fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, rid = tracer._open(rid_fn(args, kwargs) if rid_fn else None)
            pre = before(args, kwargs) if before else None
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                attrs = after(args, kwargs, result, pre) if after else None
                tracer._close(sid, parent, rid, name, start, attrs)

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------- output

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def load_spans(path) -> list[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]
