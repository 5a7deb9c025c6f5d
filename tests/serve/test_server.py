"""The HTTP front end, exercised over real sockets on an ephemeral port."""

import multiprocessing
import threading

import pytest

from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.client import ServeClient
from repro.serve.server import QueryServer, ServerThread
from repro.serve.state import WarmState
from repro.store.cache import reset_result_cache

from tests.serve.util import (
    P_COVER,
    P_MAP,
    P_SELECT,
    make_sources,
    reference_digests,
)


@pytest.fixture(scope="module")
def expected():
    return reference_digests(make_sources())


@pytest.fixture(scope="module")
def server():
    reset_result_cache()
    state = WarmState(make_sources(), engine="columnar",
                      result_cache_enabled=True)
    admission = AdmissionController(
        default_quota=TenantQuota(
            max_concurrent=16, max_per_window=None,
            max_deadline_seconds=5.0,
        ),
        quotas={
            "limited": TenantQuota(
                max_concurrent=None, max_per_window=1,
                window_seconds=3600.0, max_deadline_seconds=None,
            ),
        },
    )
    query_server = QueryServer(
        state, admission=admission, port=0, max_concurrency=3
    )
    with ServerThread(query_server):
        yield query_server
    reset_result_cache()


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as serve_client:
        yield serve_client


class TestPlumbing:
    def test_healthz(self, client):
        response = client.healthz()
        assert response.status == 200
        assert response.payload == {"status": "ok"}

    def test_datasets_lists_resident_sources(self, client):
        payload = client.datasets().payload["datasets"]
        assert set(payload) == {"REF", "EXP"}
        assert payload["EXP"]["samples"] == 3

    def test_unknown_route_404(self, client):
        assert client.request("GET", "/nope").status == 404

    def test_wrong_method_405(self, client):
        assert client.request("GET", "/query").status == 405

    def test_invalid_json_400(self, client):
        response = client.request("POST", "/query")
        assert response.status == 400

    def test_stats_shape(self, client):
        payload = client.stats().payload
        assert payload["state"]["engine"] == "columnar"
        assert payload["state"]["warm_seconds"] is not None
        assert "result_cache" in payload
        assert "admission" in payload
        assert payload["scheduler"]["max_concurrency"] == 3


class TestCheck:
    def test_valid_program(self, client):
        response = client.check(P_MAP)
        assert response.status == 200
        assert response.payload == {"valid": True, "outputs": ["OUT"]}

    def test_semantic_rejection_carries_diagnostics(self, client):
        response = client.check(
            "OUT = SELECT(region: bogus == 1) EXP; MATERIALIZE OUT;"
        )
        assert response.status == 400
        assert response.payload["valid"] is False
        assert response.payload["diagnostics"]


class TestQuery:
    def test_result_is_byte_identical_to_single_shot(
        self, client, expected
    ):
        response = client.query(P_MAP)
        assert response.status == 200
        assert response.payload["digest"] == expected[P_MAP]
        outputs = response.payload["outputs"]
        assert outputs["OUT"]["samples"] == 6  # one per REF x EXP pair
        assert "n" in outputs["OUT"]["schema"]
        assert response.payload["timing"]["execute_ms"] >= 0.0

    def test_repeat_query_serves_from_warm_cache(self, client, expected):
        reused = client.stats().payload["scheduler"]["digests_reused"]
        first = client.query(P_COVER)
        second = client.query(P_COVER)
        assert first.payload["digest"] == expected[P_COVER]
        assert second.payload["digest"] == expected[P_COVER]
        assert second.payload["cache"]["hits"] >= 1
        # The repeat's digest came from the memo on its cache entry.
        stats = client.stats().payload["scheduler"]
        assert stats["digests_reused"] >= reused + 1

    def test_tenant_header_identifies_the_caller(self, client):
        response = client.query(P_SELECT, tenant="smith-lab")
        assert response.status == 200
        assert response.payload["tenant"] == "smith-lab"
        tenants = client.stats().payload["admission"]["tenants"]
        assert tenants["smith-lab"]["admitted"] >= 1

    def test_compile_error_rejected_before_execution(self, client):
        response = client.query(
            "OUT = SELECT(region: bogus == 1) EXP; MATERIALIZE OUT;"
        )
        assert response.status == 400
        assert response.payload["reason"] == "compile-error"
        assert response.payload["rejected_before_execution"] is True
        assert response.payload["diagnostics"]

    def test_syntax_error_rejected_before_execution(self, client):
        response = client.query("THIS IS NOT GMQL")
        assert response.status == 400
        assert response.payload["reason"] == "compile-error"
        assert response.payload["rejected_before_execution"] is True


class TestAdmissionOverHttp:
    def test_over_deadline_rejected_as_422(self, client):
        response = client.query(P_SELECT, deadline_seconds=60.0)
        assert response.status == 422
        assert response.payload["reason"] == "over-deadline"
        assert response.payload["rejected_before_execution"] is True

    def test_non_positive_deadline_rejected(self, client):
        response = client.query(P_SELECT, deadline_seconds=-1.0)
        assert response.status == 422
        assert response.payload["rejected_before_execution"] is True

    def test_over_rate_rejected_with_retry_after(self, client):
        first = client.query(P_SELECT, tenant="limited")
        assert first.status == 200
        second = client.query(P_SELECT, tenant="limited")
        assert second.status == 429
        assert second.payload["reason"] == "over-rate"
        assert second.payload["rejected_before_execution"] is True
        assert float(second.headers["Retry-After"]) > 0

    def test_hopeless_deadline_times_out_before_any_kernel(self, client):
        response = client.query(P_MAP, deadline_seconds=1e-06)
        assert response.status == 504
        assert response.payload["reason"] == "deadline-exceeded"
        assert response.payload["rejected_before_execution"] is True


class TestConcurrentClients:
    def test_mixed_load_is_byte_identical_and_hits_cache(
        self, server, expected
    ):
        """Satellite check over HTTP: identical + distinct queries in
        flight all match the single-shot oracle, with warm cache hits."""
        programs = [P_MAP] * 4 + [P_SELECT, P_COVER] * 2
        responses = [None] * len(programs)

        def worker(index, program):
            with ServeClient(port=server.port) as serve_client:
                responses[index] = serve_client.query(
                    program, tenant=f"load-{index % 3}"
                )

        threads = [
            threading.Thread(target=worker, args=(index, program))
            for index, program in enumerate(programs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for program, response in zip(programs, responses):
            assert response.status == 200
            assert response.payload["digest"] == expected[program]
        with ServeClient(port=server.port) as serve_client:
            stats = serve_client.stats().payload
        assert stats["result_cache"]["hits"] >= 1
        assert stats["scheduler"]["active"] == 0


class TestShutdownHygiene:
    def test_pool_engine_leaves_no_workers_after_stop(self, expected):
        """Satellite check: a served pool engine sheds every worker
        process when the server thread stops."""
        reset_result_cache()
        state = WarmState(make_sources(), engine="parallel", workers=2,
                          result_cache_enabled=False)
        admission = AdmissionController(
            default_quota=TenantQuota(max_deadline_seconds=None)
        )
        query_server = QueryServer(
            state, admission=admission, port=0, max_concurrency=2
        )
        with ServerThread(query_server):
            with ServeClient(port=query_server.port) as serve_client:
                response = serve_client.query(P_MAP)
                assert response.status == 200
                assert response.payload["digest"] == expected[P_MAP]
        assert multiprocessing.active_children() == []
