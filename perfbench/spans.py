"""In-memory span tracing by wrapping public functions at their bindings.

A :class:`SpanRecorder` wraps a callable so each call records a span:
name, start, end, the index of the enclosing span, and the step id of
the step it ran in.  :meth:`SpanRecorder.patch` installs wrappers on
attributes of modules, classes or instances and restores the originals
on exit, so untraced runs execute the unmodified program.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Self times of a tree sum to the durations of its
roots, which is the closure identity the benchmark checks.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    step: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped calls; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: step id stamped on new spans; -1 before the first step
        self.step = -1

    def wrap(self, name: str, fn: Callable, *, opens_step: bool = False,
             measure: Optional[Callable[[object], Dict[str, float]]] = None
             ) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``opens_step`` advances the step id before the span starts, so the
        span and everything under it share the new id.  ``measure`` maps
        the return value to extra numbers stored on the span; it runs
        after the span's end time is taken.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if opens_step:
                self.step += 1
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), 0.0, parent, self.step)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if measure is not None:
                span.extra.update(measure(result))
            return result

        return traced

    @contextmanager
    def patch(self, targets: Sequence[Tuple[object, str, str, dict]]
              ) -> Iterator["SpanRecorder"]:
        """Wrap ``getattr(owner, attr)`` as span ``name`` for each target.

        ``targets`` holds ``(owner, attr, name, wrap_kwargs)``.  Class
        attributes are looked up in the class ``__dict__`` so a wrapped
        method stays a plain function; an attribute the owner did not
        define itself is deleted again on exit instead of reassigned.
        """
        saved = []
        try:
            for owner, attr, name, kwargs in targets:
                had_own = attr in vars(owner)
                original = (vars(owner)[attr] if had_own
                            else getattr(owner, attr))
                saved.append((owner, attr, had_own, original))
                setattr(owner, attr, self.wrap(name, original, **kwargs))
            yield self
        finally:
            for owner, attr, had_own, original in reversed(saved):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON (times relative to the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [{"name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "step": s.step, **s.extra}
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows))


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def unattributed_fraction(spans: Sequence[Span], selfs: Sequence[float],
                          root: str) -> float:
    """Self time of the ``root`` spans as a share of their duration."""
    wall = sum(s.duration for s in spans if s.name == root)
    own = sum(t for s, t in zip(spans, selfs) if s.name == root)
    return own / wall if wall > 0 else 0.0
