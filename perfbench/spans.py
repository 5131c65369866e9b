"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on the
perf_counter clock, the span that was open when it started (its parent),
the job it belongs to, and optional counters measured from its arguments.
Spans stay in memory until the run writes them out at the end.

Wrapping happens from outside the program: `traced()` replaces a function
in every `logsphere.*` namespace that binds it, so both `harmonics.analyze`
and the copy that `from .harmonics import analyze` put into `dynamics` are
patched, and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    job: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict | None = None

    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; `job` tags every span opened until it is changed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        """`fn` wrapped so that each call records a span.  `measure` maps the
        call's bound arguments to the span's counters."""
        sig = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            attrs = measure(sig.bind(*args, **kwargs).arguments) if measure else None
            span = Span(len(self.spans), self._open[-1] if self._open else None,
                        self.job, name, self.clock(), attrs=attrs)
            self.spans.append(span)
            self._open.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()

        return traced_call


@contextlib.contextmanager
def traced(recorder: Recorder, package: str, targets: dict[str, tuple[str, ...]],
           measures: dict):
    """Within the block, every `package.<module>.<name>` listed in `targets`
    records spans named `<module>.<name>` into `recorder`."""
    modules = [m for key, m in list(sys.modules.items())
               if key == package or key.startswith(package + ".")]
    patched = []
    try:
        for modname, names in targets.items():
            mod = sys.modules[f"{package}.{modname}"]
            for fname in names:
                original = getattr(mod, fname)
                qual = f"{modname}.{fname}"
                wrapper = recorder.wrap(qual, original, measures.get(qual))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
        yield recorder
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = s.duration() - _covered(kids)
    return out

