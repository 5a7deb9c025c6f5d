"""A small keep-alive HTTP client for the query server.

Built on :mod:`http.client` (stdlib, blocking) because its consumers --
the test-suite, the ``perf/`` benchmark's client threads and the CI
smoke gate -- are synchronous; one :class:`ServeClient` per thread, one
persistent connection per client, mirroring how a real service client
would amortise connection setup across a session of queries.
"""

from __future__ import annotations

import http.client
import json


class ServeResponse:
    """Status + parsed JSON payload of one server response."""

    def __init__(self, status: int, payload: dict, headers: dict) -> None:
        self.status = status
        self.payload = payload
        self.headers = headers

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServeResponse(status={self.status}, payload={self.payload})"


class ServeClient:
    """Blocking JSON client over one keep-alive connection.

    Not thread-safe: use one client per thread (the underlying
    ``HTTPConnection`` serialises request/response pairs).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 120.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> ServeResponse:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, OSError):
            # The keep-alive connection died (server restart, timeout);
            # retry once on a fresh connection before giving up.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        parsed = json.loads(raw.decode()) if raw else {}
        return ServeResponse(
            response.status, parsed, dict(response.getheaders())
        )

    # -- endpoint helpers --------------------------------------------------------

    def healthz(self) -> ServeResponse:
        return self.request("GET", "/healthz")

    def stats(self) -> ServeResponse:
        return self.request("GET", "/stats")

    def datasets(self) -> ServeResponse:
        return self.request("GET", "/datasets")

    def check(self, program: str) -> ServeResponse:
        return self.request("POST", "/check", {"program": program})

    def query(
        self,
        program: str,
        tenant: str | None = None,
        deadline_seconds: float | None = None,
    ) -> ServeResponse:
        payload: dict = {"program": program}
        if tenant is not None:
            payload["tenant"] = tenant
        if deadline_seconds is not None:
            payload["deadline_seconds"] = deadline_seconds
        return self.request("POST", "/query", payload)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
