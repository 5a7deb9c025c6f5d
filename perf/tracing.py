"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own code, around its calls into
each layer's public functions; nothing under ``src/`` is instrumented.
A span is ``(name, start, end, parent index, op id, thread id)``; the
layer of a span is the part of its name before the first dot
(``lang.compile`` belongs to layer ``lang``).  Spans stay in memory and
are written once, when the run ends, as a Chrome trace-event file.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from time import perf_counter

#: Name of the span that encloses one whole operation.  Its self time is
#: the part of an operation no layer span covers.
OP_SPAN = "op"

NAME, START, END, PARENT, OP, THREAD = range(6)


class Recorder:
    """Collects spans and counts; a disabled recorder costs one branch."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list = []
        self.counts: dict = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id):
        """Enclose one operation: every span opened inside carries *op_id*."""
        self._local.op = op_id
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            self._local.op = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        record = [
            name, perf_counter(), None,
            stack[-1] if stack else None,
            getattr(self._local, "op", None),
            threading.get_ident(),
        ]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[END] = perf_counter()
            stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (the server's own timings),
        as a child of the currently open span."""
        if not self.enabled:
            return
        stack = self._stack()
        self.spans.append([
            name, start, end, stack[-1] if stack else None,
            getattr(self._local, "op", None), threading.get_ident(),
        ])

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount


#: A recorder that records nothing, for the untraced runs.
OFF = Recorder()


def self_times(spans: list) -> list:
    """Self time of every span: its duration minus its direct children's."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_self_ms_per_op(spans: list) -> dict:
    """``{op id: {layer: self ms}}`` over every span that carries an op id."""
    per_op: dict = {}
    for span, own in zip(spans, self_times(spans)):
        if span[OP] is None:
            continue
        layer = span[NAME].split(".", 1)[0]
        layers = per_op.setdefault(span[OP], {})
        layers[layer] = layers.get(layer, 0.0) + own * 1000.0
    return per_op


def span_ms(spans: list, name: str) -> list:
    """Durations (ms) of every span called *name*."""
    return [
        (span[END] - span[START]) * 1000.0
        for span in spans if span[NAME] == name
    ]


def write_chrome_trace(path: str, recorder: Recorder, process_name: str) -> None:
    """Write the recorder's spans in Chrome trace-event format."""
    if not recorder.spans:
        origin = 0.0
    else:
        origin = min(span[START] for span in recorder.spans)
    events = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    for index, span in enumerate(recorder.spans):
        events.append({
            "name": span[NAME],
            "cat": span[NAME].split(".", 1)[0],
            "ph": "X",
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "pid": 1,
            "tid": span[THREAD],
            "args": {"id": index, "parent": span[PARENT], "op": span[OP]},
        })
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "counts": recorder.counts}, handle
        )
