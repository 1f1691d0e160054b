"""Outside-in tracing: in-memory spans around calls into the program.

The benchmark never edits ``src/``.  A traced run swaps a few public
functions and methods for thin wrappers (:func:`patched`) that open a
span around each call, keeps every span in memory, and writes them out
once the run ends.  A layer's *self time* is its span's duration minus
the part of that interval covered by its child spans
(:func:`self_times`); per-layer metrics are built from self times so
that the layers of one operation add up to its wall time.

The same module holds the two statistics every metric goes through:
the median, and the percentile rule for latency samples.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

#: A percentile is reported as supported only when at least this many
#: samples lie beyond it.
TAIL_SAMPLES = 10


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; a disabled recorder records nothing."""

    def __init__(self, run: str, *, enabled: bool = True) -> None:
        self.run = run
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``after(result)`` runs outside it."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def wrap_iter(self, items: Iterable[Any], name: str) -> Iterator[Any]:
        """Yield from ``items`` with a span around each ``next()``."""
        iterator = iter(items)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


@contextlib.contextmanager
def patched(replacements: list[tuple[Any, str, Any]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def per_root(spans: list[Span], root_name: str) -> list[dict[str, Any]]:
    """For every span named ``root_name``: its wall time, plus the self
    time and call count of each span name in its subtree (root included)."""
    own = self_times(spans)
    by_parent: dict[int | None, list[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent, []).append(span)
    rows = []
    for root in (s for s in spans if s.name == root_name):
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        stack = [root]
        while stack:
            span = stack.pop()
            self_s[span.name] = self_s.get(span.name, 0.0) + own[span.id]
            calls[span.name] = calls.get(span.name, 0) + 1
            stack.extend(by_parent.get(span.id, []))
        rows.append({"wall": root.duration, "self": self_s, "calls": calls})
    return rows


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The ``pct`` percentile of already sorted samples (nearest rank)."""
    rank = max(math.ceil(pct / 100.0 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def supported_percentile(n: int) -> float:
    """Highest percentile with at least :data:`TAIL_SAMPLES` samples
    beyond it (0 when ``n`` is too small for any)."""
    if n <= TAIL_SAMPLES:
        return 0.0
    return 100.0 * (n - TAIL_SAMPLES) / n


def latency_summary(samples: list[float]) -> dict[str, float]:
    """p50 and p80 of latency samples, with the sample count and the
    highest percentile the count supports."""
    ordered = sorted(samples)
    return {
        "n": len(ordered),
        "p50": nearest_rank(ordered, 50.0),
        "p80": nearest_rank(ordered, 80.0),
        "supported_pct": supported_percentile(len(ordered)),
    }
