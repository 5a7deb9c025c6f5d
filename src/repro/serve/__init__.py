"""GMQL-as-a-Service: a resident query server over warm state.

The paper's section 4.3 argues for a custom-query *service* over the
repository; "Genomics as a Service" (PAPERS.md) makes the same case at
cloud scale.  The CLI pays cold-start on every invocation -- interpreter
boot, dataset parse, store block builds, worker-pool spin-up -- and then
throws the warm state away.  This package keeps it resident:

* :class:`~repro.serve.state.WarmState` -- source datasets, their
  columnar store blocks, the compiled-program cache and one shared
  worker process pool, loaded once and reused by every query;
* :class:`~repro.serve.admission.AdmissionController` -- per-tenant
  concurrency/rate/deadline quotas plus a per-tenant circuit breaker,
  rejecting over-quota work before any execution;
* :class:`~repro.serve.scheduler.QueryScheduler` -- multiplexes
  concurrent compiled plans onto a bounded set of warm backend slots,
  coalescing identical in-flight queries;
* :class:`~repro.serve.server.QueryServer` -- the asyncio HTTP/JSON
  front end (``repro serve``);
* :class:`~repro.serve.client.ServeClient` -- a small keep-alive client
  used by tests, the ``perf/`` benchmark and the CI smoke gate.

See ``docs/SERVING.md`` for endpoints, tenancy and the warm-state
lifecycle.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTicket,
    TenantQuota,
)
from repro.serve.client import ServeClient
from repro.serve.scheduler import QueryOutcome, QueryScheduler
from repro.serve.server import QueryServer, ServerThread
from repro.serve.state import WarmState

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTicket",
    "QueryOutcome",
    "QueryScheduler",
    "QueryServer",
    "ServeClient",
    "ServerThread",
    "TenantQuota",
    "WarmState",
]
