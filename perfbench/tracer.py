"""In-memory spans around public calls, and GC-pause recording.

The benchmark measures the program from outside: a traced run wraps
public methods of the objects it built (or public classes, restored when
the run ends) so that each call records one span. The spans of one ticket
share a trace id, the ticket's ``session_id``. Spans stay in memory and
are written out when the run ends.

A span is a list ``[trace, span_id, parent_id, name, start, end]``; a
span whose trace id is only known later (an HTTP handler learns its
ticket's session id when the future resolves) has it filled in then.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

TRACE, SPAN_ID, PARENT, NAME, START, END = range(6)


class Tracer:
    """Collects spans; per-thread stacks give each span its parent."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def last_finished(self) -> Optional[list]:
        """The span this thread finished most recently."""
        return getattr(self._local, "last", None)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[list]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent[TRACE]
        record = [trace, next(self._ids),
                  parent[SPAN_ID] if parent is not None else None,
                  name, time.perf_counter(), 0.0]
        stack.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            self.spans.append(record)
            self._local.last = record

    def wrap(self, name: str, fn: Callable,
             trace_of: Optional[Callable[..., Optional[str]]] = None
             ) -> Callable:
        """``fn`` with a span around every call."""
        def traced(*args, **kwargs):
            trace = trace_of(*args, **kwargs) if trace_of else None
            with self.span(name, trace=trace):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def by_trace(self) -> Dict[str, List[list]]:
        """Spans per trace id; a span without one takes its root's."""
        by_id = {record[SPAN_ID]: record for record in self.spans}
        traces: Dict[str, List[list]] = defaultdict(list)
        for record in self.spans:
            root = record
            while root[TRACE] is None and root[PARENT] in by_id:
                root = by_id[root[PARENT]]
            if root[TRACE] is not None:
                traces[root[TRACE]].append(record)
        return traces

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            for t, sid, parent, name, start, end in sorted(
                    self.spans, key=lambda s: s[START]):
                out.write(json.dumps({
                    "trace": t, "span": sid, "parent": parent,
                    "name": name, "start": start, "end": end}) + "\n")


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds per span name, minus what the span's children cover.

    Children of a span run on its thread inside its interval, so the part
    of the interval they cover is the sum of their durations.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for record in spans:
        if record[PARENT] is not None:
            child_time[record[PARENT]] += record[END] - record[START]
    out: Dict[str, float] = defaultdict(float)
    for record in spans:
        out[record[NAME]] += (record[END] - record[START]
                              - child_time[record[SPAN_ID]])
    return dict(out)


@contextlib.contextmanager
def patched(target: object, attr: str, replacement: object) -> Iterator[None]:
    """Set ``target.attr`` for the duration of the block, then restore."""
    had_own = attr in vars(target)
    saved = vars(target).get(attr)
    setattr(target, attr, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(target, attr, saved)
        else:
            delattr(target, attr)


class GcRecorder:
    """Collector pauses, through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pauses: List[Tuple[int, float]] = []
        self._started: Optional[float] = None

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pauses.append((info["generation"],
                                time.perf_counter() - self._started))
            self._started = None

    def __enter__(self) -> "GcRecorder":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *_exc: object) -> None:
        gc.callbacks.remove(self._callback)

    def mark(self) -> int:
        return len(self.pauses)

    def since(self, mark: int) -> List[Tuple[int, float]]:
        return self.pauses[mark:]
