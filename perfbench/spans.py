"""Span tracing from outside the program.

Public functions of each emprops module are wrapped at their module
attributes (and at every other emprops module attribute bound to the same
object, which covers ``from x import f`` names) for the duration of one
traced iteration, then restored. Each call opens a span with a name,
start, end and parent; spans of one iteration share its operation id.

Self time is a span's duration minus the time its child spans cover.
The tracer keeps it online (a stack of open frames, each summing its
children) so that millions of small calls cost no memory; full span
records are kept only for the names that are not in ``HOT``, and
``self_times`` recomputes self time from such records, which the tests
use to check the online arithmetic.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

_clock = time.perf_counter

# Span records kept per traced iteration; beyond this only the totals grow.
MAX_SPANS = 500_000

# High-frequency names: aggregated only, never stored as span records.
HOT = frozenset({
    "rng.next_u64", "rng.next_below", "rng.shuffle", "rng.sample_indices",
    "mtnn.forward", "mtnn.gradients", "forest.best_split", "molgraph.match",
    "molgraph.rings", "dataset.standardizer", "trace.hook",
})


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op: int
    name: str
    start: float
    end: float = 0.0


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    raised: int = 0


@dataclass
class _Frame:
    span_id: int
    name: str
    start: float
    child: float = 0.0


@dataclass
class Tracer:
    """Online span accounting for one thread."""

    op: int = 0  # the operation (traced iteration) every span belongs to
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    phase_self: dict = field(default_factory=dict)  # (phase, name) -> self time
    _phase: str = ""
    _next_id: int = 0
    _kept: dict = field(default_factory=dict)

    def open(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, name, _clock())
        if name not in HOT and len(self.spans) < MAX_SPANS:
            parent = self._stack[-1].span_id if self._stack else None
            span = Span(frame.span_id, parent, self.op, name, frame.start)
            self.spans.append(span)
            self._kept[frame.span_id] = span
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame, raised: bool = False) -> float:
        end = _clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        stat = self.stats.get(frame.name)
        if stat is None:
            stat = self.stats[frame.name] = Stat()
        stat.calls += 1
        stat.busy += duration
        stat.self_time += duration - frame.child
        stat.raised += raised
        key = (self._phase, frame.name)
        self.phase_self[key] = self.phase_self.get(key, 0.0) + duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        span = self._kept.pop(frame.span_id, None)
        if span is not None:
            span.end = end
        return duration

    @contextlib.contextmanager
    def phase(self, name: str):
        """A 'phase.<name>' span; spans inside it are also tallied per phase."""
        outer = self._phase
        frame = self.open(f"phase.{name}")
        self._phase = name
        try:
            yield
        finally:
            self._phase = outer
            self.close(frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stack_names(self) -> list[str]:
        return [frame.name for frame in self._stack]

    def hook(self, callback, *args) -> None:
        """Run bookkeeping as an invisible child of the current frame, so its
        time lands in 'trace.hook' rather than in the caller's self time."""
        frame = self.open("trace.hook")
        try:
            callback(*args)
        finally:
            self.close(frame)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of child intervals,
    clipped to the parent's own interval."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------

def wrap(tracer: Tracer, name: str, fn, after=None, error_types=()):
    """A traced stand-in for fn. after(args, kwargs, result) runs as a hook."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except error_types:
            tracer.close(frame, raised=True)
            raise
        except BaseException:
            tracer.close(frame)
            raise
        tracer.close(frame)
        if after is not None:
            tracer.hook(after, args, kwargs, result)
        return result

    return traced


class Patch:
    """Replace attributes in place and restore them exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Rebind every emprops module attribute that is `original`."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".", 1)[0] != "emprops":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
