"""Boundary spans and self-time accounting for the traced pass.

The traced pass wraps the public callables of each ``repro`` layer from
here, outside ``src/``.  Every wrapped call is one span: name, bucket
(the layer it is charged to), start, duration, parent span and unit id.
A layer's *self time* is its spans' duration minus the part covered by
child spans, so buckets partition the traced wall time exactly — the
same invariant the simulated-clock attribution holds.

Self time is accumulated online (one float per open span), so the span
list itself is only kept for the first traced unit, which is what the
Perfetto export shows.  A deterministic profiler would inflate the
call-heavy layers (cProfile triples ``analytic_report``); boundary
wrappers cost one closure call per *layer crossing* instead.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Union

Bucket = Union[str, Callable[..., str]]


class Recorder:
    """Nested-span self-time accounting for one thread."""

    def __init__(self, track: int):
        self.track = track
        self.self_s: Dict[str, float] = {}    # by bucket
        self.calls: Dict[str, int] = {}       # by span name
        #: child-time accumulator per open span; slot 0 collects the
        #: duration of top-level spans
        self._child: List[float] = [0.0]
        #: span tuples (name, bucket, start, dur, id, parent, unit) while
        #: :attr:`keep_events` is on
        self.events: List[tuple] = []
        self.keep_events = False
        self.unit = 0
        self._open_ids: List[int] = [0]
        self._next_id = 1

    def reset(self) -> None:
        """Forget accumulated self time (call with no span open)."""
        self.self_s.clear()
        self.calls.clear()
        self._child[:] = [0.0]

    def begin_unit(self, index: int) -> None:
        """Tag the spans that follow with unit ``index``; only the first
        unit's spans are kept for the trace file."""
        self.unit = index
        self.keep_events = index == 0

    def wrap(self, fn, name: str, bucket: Bucket, outermost_only: bool = False):
        """Return ``fn`` wrapped in a span charged to ``bucket``.

        ``bucket`` is a string, or a callable taking the call's arguments
        and returning one (for boundaries shared by several layers).
        ``outermost_only`` spans open only when no span of this recorder
        is open, which is how a phase such as *forward* is delimited by
        its outermost module call.
        """
        rec = self
        child = self._child
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        dynamic = callable(bucket)

        def span(*args, **kwargs):
            if outermost_only and len(child) > 1:
                return fn(*args, **kwargs)
            key = bucket(*args, **kwargs) if dynamic else bucket
            if rec.keep_events:
                span_id = rec._next_id
                rec._next_id += 1
                parent = rec._open_ids[-1]
                rec._open_ids.append(span_id)
            else:
                span_id = 0
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                self_s[key] = self_s.get(key, 0.0) + dur - child.pop()
                child[-1] += dur
                calls[name] = calls.get(name, 0) + 1
                if span_id:
                    rec._open_ids.pop()
                    rec.events.append(
                        (name, key, start, dur, span_id, parent, rec.unit))

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def trace_events(self, origin: float) -> List[dict]:
        """The kept spans as Chrome trace-event ``X`` records, in
        microseconds since ``origin`` (a ``perf_counter`` reading)."""
        return [
            {"name": name, "cat": bucket, "ph": "X", "pid": 1,
             "tid": self.track, "ts": (start - origin) * 1e6, "dur": dur * 1e6,
             "args": {"id": span_id, "parent": parent, "unit": unit}}
            for name, bucket, start, dur, span_id, parent, unit in self.events
        ]


def rebind_aliases(original, replacement) -> None:
    """Point every ``from x import f`` alias of ``original`` held by a
    loaded ``repro`` module at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name + ".").startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def write_trace(path: str, recorders: List[Recorder], label: str,
                track_names: Dict[int, str]) -> int:
    """Write the kept spans of ``recorders`` as trace-event JSON (loads in
    Perfetto / ``chrome://tracing`` beside the simulated-clock traces).
    Returns the number of span events written."""
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": f"wall clock: {label}"}}]
    for track, name in sorted(track_names.items()):
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": track, "args": {"name": name}})
    origin = min((e[2] for r in recorders for e in r.events), default=0.0)
    spans = [e for r in recorders for e in r.trace_events(origin)]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events + spans, "displayTimeUnit": "ms"},
                  handle)
    return len(spans)
