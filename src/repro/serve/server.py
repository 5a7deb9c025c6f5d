"""The asyncio HTTP/JSON front end for the resident query engine.

One :class:`QueryServer` owns the serving stack: a :class:`~repro.serve.
state.WarmState` (datasets, store blocks, compiled programs, shared
worker pool), an :class:`~repro.serve.admission.AdmissionController`
(per-tenant quotas and breakers, applied before anything executes) and a
:class:`~repro.serve.scheduler.QueryScheduler` (bounded concurrent
execution over warm backend slots).

The HTTP layer is deliberately minimal -- an HTTP/1.1 subset (request
line, headers, ``Content-Length`` bodies, keep-alive) over
``asyncio.start_server`` -- because the standard library ships no async
HTTP server and this repo takes no dependencies.  Endpoints:

========  ============  =================================================
method    path          purpose
========  ============  =================================================
GET       /healthz      liveness probe
GET       /stats        warm-state/scheduler/admission/cache counters
GET       /datasets     resident sources (names, sample/region counts)
POST      /check        compile-only validation (no admission charge)
POST      /query        admit, schedule and execute one GMQL program
========  ============  =================================================

:class:`ServerThread` runs the whole stack on a private event loop in a
daemon thread, which is how the test-suite, the ``perf/`` benchmark and
the CI smoke gate embed a live server in an otherwise synchronous
process.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.engine.context import ExecutionContext
from repro.errors import (
    ExecutionCancelled,
    GmqlCompileError,
    GmqlSyntaxError,
    ReproError,
)
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.scheduler import QueryScheduler
from repro.serve.state import WarmState

#: Largest accepted request body; a GMQL program is text, so anything
#: beyond this is a client bug (or abuse) and answered with 413.
MAX_BODY_BYTES = 1 << 20

#: Hard cap on one header section.
MAX_HEADER_BYTES = 64 * 1024

DEFAULT_TENANT = "default"


class _HttpError(Exception):
    """Internal: abort request handling with a specific status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


def _render_outputs(results: dict) -> dict:
    """JSON-friendly summary of each materialized output: sample and
    region counts and the schema (no rows are rendered)."""
    outputs = {}
    for name in sorted(results):
        dataset = results[name]
        outputs[name] = {
            "samples": len(dataset),
            "regions": dataset.region_count(),
            "schema": list(dataset.schema.names),
        }
    return outputs


class QueryServer:
    """HTTP/JSON query service over one :class:`WarmState`.

    Drive it from an event loop via :meth:`start`/:meth:`stop`, or use
    :meth:`serve_forever` (the CLI) / :class:`ServerThread` (embedders).
    """

    def __init__(
        self,
        state: WarmState,
        admission: AdmissionController | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 4,
    ) -> None:
        self.state = state
        self.admission = admission or AdmissionController()
        self.host = host
        self.port = port
        self.max_concurrency = max_concurrency
        self.scheduler: QueryScheduler | None = None
        self._server: asyncio.AbstractServer | None = None
        self._connections: set = set()
        self.requests = 0

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Warm the state and open the listener; sets :attr:`port`."""
        if self.state.warm_seconds is None:
            self.state.warm()
        self.scheduler = QueryScheduler(
            self.state, max_concurrency=self.max_concurrency
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, release warm state."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.scheduler is not None:
            await self.scheduler.aclose()
            self.scheduler = None
        # Idle keep-alive connections sit parked in a read; cancel them
        # (in-flight queries already drained with the scheduler above).
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self.state.close()

    async def serve_forever(self) -> None:
        """``start`` then block until the listener is closed."""
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- HTTP plumbing -----------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    return
                if request is None:
                    return
                method, path, headers, body = request
                self.requests += 1
                status, payload, extra = await self._dispatch(
                    method, path, headers, body
                )
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                await self._respond(
                    writer, status, payload,
                    close=not keep_alive, extra_headers=extra,
                )
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass
            # Discard only after the writer is fully closed: a task
            # parked in wait_closed must stay visible to stop()'s
            # cancel-and-gather sweep or the loop can stop under it.
            self._connections.discard(task)

    async def _read_request(self, reader):
        """Parse one request; ``None`` on clean EOF between requests."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _HttpError(400, "truncated request") from None
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "header section too large") from None
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "header section too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header {line!r}")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _respond(
        self, writer, status, payload, close=False, extra_headers=None
    ) -> None:
        body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + body)
        await writer.drain()

    # -- routing -----------------------------------------------------------------

    async def _dispatch(self, method, path, headers, body):
        """Route one request; returns ``(status, payload, extra_headers)``."""
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok"}, None
        if path == "/stats" and method == "GET":
            return 200, self._stats_payload(), None
        if path == "/datasets" and method == "GET":
            return 200, {
                "datasets": self.state.stats()["sources"],
            }, None
        if path == "/check" and method == "POST":
            return await self._handle_check(headers, body)
        if path == "/query" and method == "POST":
            return await self._handle_query(headers, body)
        if path in ("/healthz", "/stats", "/datasets", "/check", "/query"):
            return 405, {"error": f"{method} not supported on {path}"}, None
        return 404, {"error": f"no route for {path}"}, None

    def _stats_payload(self) -> dict:
        from repro.store.cache import result_cache

        return {
            "requests": self.requests,
            "state": self.state.stats(),
            "scheduler": (
                self.scheduler.stats() if self.scheduler is not None else {}
            ),
            "admission": self.admission.stats(),
            "result_cache": result_cache().stats(),
        }

    def _parse_body(self, headers, body) -> dict:
        try:
            payload = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        if "tenant" not in payload and "x-tenant" in headers:
            payload["tenant"] = headers["x-tenant"]
        return payload

    async def _handle_check(self, headers, body):
        """Compile-only validation; never admitted, never executed."""
        try:
            payload = self._parse_body(headers, body)
        except _HttpError as exc:
            return exc.status, {"error": str(exc)}, None
        program = payload.get("program")
        if not isinstance(program, str) or not program.strip():
            return 400, {"error": "missing 'program' string"}, None
        loop = asyncio.get_running_loop()
        try:
            compiled = await loop.run_in_executor(
                None, self.state.compile, program
            )
        except (GmqlSyntaxError, GmqlCompileError) as exc:
            return 400, {
                "valid": False,
                "error": str(exc),
                "diagnostics": [
                    str(d) for d in getattr(exc, "diagnostics", ())
                ],
            }, None
        return 200, {
            "valid": True,
            "outputs": sorted(compiled.outputs),
        }, None

    async def _handle_query(self, headers, body):
        """Admission -> schedule -> execute -> JSON result."""
        try:
            payload = self._parse_body(headers, body)
        except _HttpError as exc:
            return exc.status, {"error": str(exc)}, None
        program = payload.get("program")
        if not isinstance(program, str) or not program.strip():
            return 400, {"error": "missing 'program' string"}, None
        tenant = str(payload.get("tenant") or DEFAULT_TENANT)
        deadline = payload.get("deadline_seconds")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                return 400, {
                    "error": "deadline_seconds must be a number",
                }, None

        try:
            ticket = self.admission.admit(tenant, deadline_seconds=deadline)
        except AdmissionRejected as exc:
            extra = None
            if exc.retry_after_seconds is not None:
                extra = {"Retry-After": f"{exc.retry_after_seconds:.0f}"}
            return exc.status, {
                "error": str(exc),
                "reason": exc.reason,
                "rejected_before_execution": True,
            }, extra

        context = ExecutionContext(
            timeout_seconds=ticket.deadline_seconds,
            workers=self.state.workers,
            result_cache=self.state.result_cache_enabled,
        )
        executed = False
        try:
            outcome = await self.scheduler.run(
                program, context=context,
                coalescable=ticket.deadline_seconds is None,
            )
            executed = True
        except (GmqlSyntaxError, GmqlCompileError) as exc:
            # A program that fails the compile gate never executed and
            # is the client's fault, not the tenant's service health.
            self.admission.release(ticket, failed=False)
            return 400, {
                "error": str(exc),
                "reason": "compile-error",
                "diagnostics": [
                    str(d) for d in getattr(exc, "diagnostics", ())
                ],
                "rejected_before_execution": True,
            }, None
        except ExecutionCancelled as exc:
            self.admission.release(ticket, failed=True)
            return 504, {
                "error": str(exc),
                "reason": "deadline-exceeded",
                "rejected_before_execution": not context.tracer.roots,
            }, None
        except ReproError as exc:
            self.admission.release(ticket, failed=True)
            return 500, {"error": str(exc), "reason": "execution-error"}, None
        finally:
            if executed:
                self.admission.release(ticket, failed=False)

        return 200, {
            "tenant": tenant,
            "digest": outcome.digest,
            "outputs": _render_outputs(outcome.results),
            "timing": {
                "queued_ms": outcome.queued_seconds * 1000.0,
                "execute_ms": outcome.execute_seconds * 1000.0,
            },
            "cache": {
                "hits": outcome.cache_hits,
                "misses": outcome.cache_misses,
            },
            "coalesced": outcome.coalesced,
        }, None


class ServerThread:
    """A :class:`QueryServer` on a private event loop in a daemon thread.

    Synchronous embedders (tests, the benchmark, the smoke gate)
    enter via :meth:`start`, which blocks until the listener is bound
    and exposes the ephemeral port; :meth:`stop` runs the full graceful
    shutdown on the loop and joins the thread.  Context-manager use
    guarantees the warm state (and its worker pool) is released.
    """

    def __init__(self, server: QueryServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 60.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within timeout")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # surface to the caller thread
                self._startup_error = exc
                raise
            finally:
                self._ready.set()

        try:
            loop.run_until_complete(main())
        except BaseException:
            loop.close()
            return
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
