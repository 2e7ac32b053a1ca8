"""In-memory spans and counters for the benchmark's traced runs.

A span covers one call of a wrapped function. Its self time is its
duration minus the time covered by the spans it caused. Spans are folded
into per-name totals as they close, so a traced run keeps four numbers
per name (calls, rows, total seconds, self seconds) instead of a list of
every call. Nothing here knows about medqnn; the package-specific names
live in ``layers.py``.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    rows: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    _open: list[float] = field(default_factory=list)  # child seconds per open span

    def _close(self, name: str, elapsed: float, rows: int) -> None:
        child = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = SpanStats()
        entry.calls += 1
        entry.rows += rows
        entry.total_s += elapsed
        entry.self_s += elapsed - child

    def wrap(self, fn, name: str, describe=None):
        """``fn`` recorded as span ``name``.

        ``describe(*args, **kwargs)`` may return ``(suffix, rows)``: the
        span is then named ``name.suffix`` (when suffix is not None) and
        ``rows`` is added to its row count.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key, rows = name, 0
            if describe is not None:
                suffix, rows = describe(*args, **kwargs)
                if suffix is not None:
                    key = f"{name}.{suffix}"
            self._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(key, perf_counter() - start, rows)

        return traced

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def merge(self, other: "Tracer") -> None:
        for name, theirs in other.stats.items():
            mine = self.stats.setdefault(name, SpanStats())
            mine.calls += theirs.calls
            mine.rows += theirs.rows
            mine.total_s += theirs.total_s
            mine.self_s += theirs.self_s


@contextmanager
def instrumented(tracer: Tracer, modules: dict[str, object], describe: dict[str, object]):
    """Wrap every public function defined in ``modules`` for the duration.

    ``modules`` maps a layer name to its module. Each function is replaced
    on every module that holds it under the same attribute, so a call
    through ``data.normal_field`` is caught as well as one through
    ``rng.normal_field``. ``describe`` maps a span name to its describe
    hook (see ``Tracer.wrap``). The original functions are restored on exit.
    """
    originals = []
    try:
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = tracer.wrap(fn, name, describe.get(name))
                for holder in modules.values():
                    if getattr(holder, attr, None) is fn:
                        originals.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, fn in reversed(originals):
            setattr(holder, attr, fn)
