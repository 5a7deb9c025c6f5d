"""Execution context: tracing, metrics, deadlines and engine configuration.

One :class:`ExecutionContext` accompanies one query run.  The interpreter
opens a :class:`Span` per physical plan node -- the one record of what
ran where, on what, for how long -- and backends check the context for
cancellation before each kernel.  ``repro explain --analyze`` and
``repro run --stats``/``--trace`` all read that span tree.

The context is deliberately backend-agnostic: it carries no datasets and
no plan objects, only observability state and configuration (worker
count, bin size, result-cache switch), so it can be threaded through every
layer without creating import cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ExecutionCancelled
from repro.resilience.clock import monotonic, perf_counter


@dataclass
class Span:
    """One timed region of execution, nested under its parent span."""

    label: str
    attributes: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    seconds: float = 0.0

    def annotate(self, **attributes) -> "Span":
        """Attach or update attributes (e.g. input/output cardinalities)."""
        self.attributes.update(attributes)
        return self

    def self_seconds(self) -> float:
        """Time spent in this span outside its nested child spans."""
        return self.seconds - sum(child.seconds for child in self.children)

    def render(self, indent: int = 0) -> str:
        """Indented one-span-per-line rendering of this subtree."""
        parts = [f"{'  ' * indent}{self.label}  {self.seconds * 1000:.2f} ms"]
        interesting = {
            k: v for k, v in sorted(self.attributes.items()) if v is not None
        }
        if interesting:
            parts[0] += "  " + " ".join(
                f"{k}={v}" for k, v in interesting.items()
            )
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)


class SpanTracer:
    """Collects a forest of nested spans for one query run."""

    def __init__(self) -> None:
        self.roots: list = []
        self._stack: list = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, label: str, **attributes):
        """Open a nested span; timing stops when the block exits."""
        span = Span(label, dict(attributes))
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        started = perf_counter()
        try:
            yield span
        finally:
            span.seconds = perf_counter() - started
            self._stack.pop()

    def total_seconds(self) -> float:
        return sum(span.seconds for span in self.roots)

    def render(self) -> str:
        """The whole span forest as indented text."""
        return "\n".join(span.render() for span in self.roots)

    def iter_spans(self):
        """Depth-first iteration over every recorded span."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))


class MetricsRegistry:
    """Named counters for one run."""

    def __init__(self) -> None:
        self._counters: dict = {}

    def increment(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """Plain-dict view of the counters."""
        return dict(self._counters)


class ExecutionContext:
    """Everything one query run carries besides data: tracing, metrics,
    deadline/cancellation, and engine configuration.

    Parameters
    ----------
    timeout_seconds:
        Wall-clock budget; :meth:`check` raises
        :class:`~repro.errors.ExecutionCancelled` once it is exhausted.
    workers:
        Worker-process count for parallel kernels; ``None`` leaves it to
        the backend's CPU-based default.
    bin_size:
        Genome partition granularity (positions per zone-map bin) used
        by the columnar store; ``None`` means the store's default.
    result_cache:
        Whether the interpreter may serve plan nodes from the
        process-wide fingerprint result cache; off by default (the CLI
        and the query server turn it on explicitly).
    clock:
        Any object with a ``monotonic()`` method (e.g. a resilience
        :class:`~repro.resilience.clock.SimulatedClock`); defaults to
        real time.  Deadlines are measured against this clock, so a
        whole timeout scenario can run in virtual time.
    """

    def __init__(
        self,
        *,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
        timeout_seconds: float | None = None,
        workers: int | None = None,
        bin_size: int | None = None,
        result_cache: bool = False,
        clock=None,
    ) -> None:
        self.tracer = tracer or SpanTracer()
        self.metrics = metrics or MetricsRegistry()
        self.workers = workers
        self.bin_size = bin_size
        self.result_cache = result_cache
        self._clock = clock
        self._deadline = (
            self._now() + timeout_seconds
            if timeout_seconds is not None
            else None
        )
        self._cancelled = False

    def _now(self) -> float:
        return self._clock.monotonic() if self._clock else monotonic()

    # -- cancellation / deadline ------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Request cooperative cancellation; kernels stop at the next check."""
        self._cancelled = True

    def remaining_seconds(self) -> float | None:
        """Seconds left before the deadline (``None`` without a deadline)."""
        if self._deadline is None:
            return None
        return self._deadline - self._now()

    def check(self) -> None:
        """Raise :class:`ExecutionCancelled` when cancelled or out of time."""
        if self._cancelled:
            raise ExecutionCancelled("query execution was cancelled")
        if self._deadline is not None and self._now() > self._deadline:
            raise ExecutionCancelled("query execution exceeded its deadline")

    # -- tracing ----------------------------------------------------------------

    def span(self, label: str, **attributes):
        """Open a span (checking cancellation first); context manager."""
        self.check()
        return self.tracer.span(label, **attributes)
