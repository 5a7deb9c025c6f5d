"""Execution engines: one logical plan, several backends.

* ``naive``    -- record-at-a-time reference implementation;
* ``columnar`` -- numpy columnar operators, per-chromosome kernels run
  inline;
* ``parallel`` -- the same operators with those kernels on a process
  pool (an executor, not a second encoding);
* ``sharded``  -- chromosome-group shards of the columnar operators,
  recombined by ``merge_partials``;
* ``auto``     -- per-operator routing between ``naive``, ``columnar``
  and ``parallel``, driven by the physical planner's cost estimates.

This mirrors the paper's section 4.2: one compiler and optimizer, the
operator encodings shared, the execution framework swapped underneath.
Execution is observed through :class:`ExecutionContext` (one span per
physical plan node, metrics, deadline/cancellation) threaded from the
interpreter into every kernel.
"""

from repro.engine.auto import AutoBackend, choose_backend
from repro.engine.base import Backend
from repro.engine.context import (
    ExecutionContext,
    MetricsRegistry,
    Span,
    SpanTracer,
)
from repro.engine.dispatch import (
    available_backends,
    get_backend,
    register_backend,
)
from repro.engine.naive import NaiveBackend

__all__ = [
    "AutoBackend",
    "Backend",
    "ExecutionContext",
    "MetricsRegistry",
    "NaiveBackend",
    "Span",
    "SpanTracer",
    "available_backends",
    "choose_backend",
    "get_backend",
    "register_backend",
]
