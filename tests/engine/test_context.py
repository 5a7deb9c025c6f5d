"""Tests for the execution context: spans, metrics, deadlines, workers."""

import pytest

from repro.engine import ExecutionContext, MetricsRegistry, SpanTracer
from repro.errors import EngineError, ExecutionCancelled


class TestSpanTracer:
    def test_nesting_and_timing(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner", backend="naive") as inner:
                pass
        assert tracer.current is None
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert outer.seconds >= inner.seconds >= 0
        assert inner.attributes["backend"] == "naive"

    def test_annotate_and_render(self):
        tracer = SpanTracer()
        with tracer.span("MAP[n]") as span:
            span.annotate(input_regions=100, output_regions=40)
        text = tracer.render()
        assert "MAP[n]" in text
        assert "input_regions=100" in text
        assert "output_regions=40" in text
        assert "ms" in text

    def test_iter_spans(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.label for s in tracer.iter_spans()] == ["a", "b", "c"]


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("result_cache.hits")
        metrics.increment("result_cache.hits", 2)
        assert metrics.counter("result_cache.hits") == 3
        assert metrics.counter("missing") == 0
        assert metrics.snapshot() == {"result_cache.hits": 3}


class TestCancellation:
    def test_cancel(self):
        context = ExecutionContext()
        context.check()  # no-op while healthy
        context.cancel()
        assert context.cancelled
        with pytest.raises(ExecutionCancelled):
            context.check()

    def test_cancelled_is_engine_error(self):
        assert issubclass(ExecutionCancelled, EngineError)

    def test_deadline(self):
        context = ExecutionContext(timeout_seconds=0)
        with pytest.raises(ExecutionCancelled):
            context.check()
        assert context.remaining_seconds() <= 0

    def test_no_deadline(self):
        assert ExecutionContext().remaining_seconds() is None

    def test_cancel_aborts_execution(self):
        from repro.gmql.lang import execute
        from tests.engine.test_backends import random_dataset

        context = ExecutionContext()
        context.cancel()
        with pytest.raises(ExecutionCancelled):
            execute(
                "R = MAP() DATA DATA; MATERIALIZE R;",
                {"DATA": random_dataset(1)},
                context=context,
            )


class TestDeadlineClock:
    def test_deadline_measured_on_injected_clock(self):
        from repro.resilience import SimulatedClock

        clock = SimulatedClock()
        context = ExecutionContext(timeout_seconds=5.0, clock=clock)
        context.check()
        assert context.remaining_seconds() == pytest.approx(5.0)
        clock.advance(4.0)
        context.check()                  # still inside the budget
        clock.advance(2.0)
        with pytest.raises(ExecutionCancelled):
            context.check()

    def test_real_clock_still_default(self):
        context = ExecutionContext(timeout_seconds=100.0)
        assert 0 < context.remaining_seconds() <= 100.0


class TestDeadlineRetryInteraction:
    """The run deadline must cut retries short *promptly* (satellite #3)."""

    def test_backoff_sleep_never_outlives_deadline(self):
        from repro.errors import TransientNetworkError
        from repro.resilience import RetryPolicy, SimulatedClock, call_with_retry

        clock = SimulatedClock()
        context = ExecutionContext(timeout_seconds=1.0, clock=clock)

        def always_flaky():
            raise TransientNetworkError("blip")

        # Backoff (10s) dwarfs the deadline (1s): the loop must cancel
        # immediately instead of finishing the sleep.
        with pytest.raises(ExecutionCancelled):
            call_with_retry(
                always_flaky,
                RetryPolicy(max_attempts=5, base_delay=10.0, jitter=0.0),
                clock=clock, context=context,
            )
        assert clock.slept == 0.0        # cancelled before sleeping
        assert clock.now < 1.0           # and well before the deadline

    def test_deadline_allows_retries_that_fit(self):
        from repro.errors import TransientNetworkError
        from repro.resilience import RetryPolicy, SimulatedClock, call_with_retry

        clock = SimulatedClock()
        context = ExecutionContext(timeout_seconds=10.0, clock=clock)
        calls = []

        def flaky_once():
            calls.append(1)
            if len(calls) == 1:
                raise TransientNetworkError("blip")
            return "ok"

        result = call_with_retry(
            flaky_once, RetryPolicy(max_attempts=3, base_delay=0.1,
                                    jitter=0.0),
            clock=clock, context=context,
        )
        assert result == "ok"
        assert clock.slept == pytest.approx(0.1)

    def test_cancellation_between_retries_is_honoured(self):
        from repro.errors import TransientNetworkError
        from repro.resilience import RetryPolicy, SimulatedClock, call_with_retry

        clock = SimulatedClock()
        context = ExecutionContext(clock=clock)

        def flaky_and_cancelling():
            context.cancel()
            raise TransientNetworkError("blip")

        with pytest.raises(ExecutionCancelled):
            call_with_retry(
                flaky_and_cancelling,
                RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0),
                clock=clock, context=context,
            )

    def test_per_call_timeout_never_exceeds_remaining_deadline(self):
        from repro.resilience import SimulatedClock, Timeout

        clock = SimulatedClock()
        context = ExecutionContext(timeout_seconds=3.0, clock=clock)
        clock.advance(2.0)
        assert Timeout(5.0).budget(context) == pytest.approx(1.0)
        assert Timeout(0.5).budget(context) == pytest.approx(0.5)


class TestSettingsComeFromArguments:
    """Workers, bin size, store root and result cache are set by flags
    and constructors only; the environment variables that once set them
    ambiently are ignored."""

    RETIRED = {
        "REPRO_WORKERS": "3",
        "REPRO_BIN_SIZE": "64",
        "REPRO_RESULT_CACHE": "5",
        "REPRO_RESULT_CACHE_DIR": "/env/results",
        "REPRO_STORE_DIR": "/env/root",
    }

    def test_retired_variables_are_ignored(self, monkeypatch):
        from repro.engine.parallel import ParallelBackend, default_workers
        from repro.store import DEFAULT_CAPACITY, ResultCache
        from repro.store.persist import set_store_root, store_root

        set_store_root(None)
        for name, value in self.RETIRED.items():
            monkeypatch.setenv(name, value)
        context = ExecutionContext()
        assert context.workers is None
        assert context.bin_size is None
        assert store_root() is None
        cache = ResultCache()
        assert cache.capacity == DEFAULT_CAPACITY == 64
        assert cache.directory is None
        assert ParallelBackend().max_workers == default_workers()

    def test_explicit_arguments_are_kept(self):
        context = ExecutionContext(workers=5, bin_size=64)
        assert (context.workers, context.bin_size) == (5, 64)


class TestBackendIntegration:
    def test_kernels_record_into_context(self):
        from repro.gmql.lang import execute
        from tests.engine.test_backends import random_dataset

        context = ExecutionContext()
        execute(
            "R = MAP() DATA DATA; MATERIALIZE R;",
            {"DATA": random_dataset(2)},
            context=context,
        )
        labels = [s.label for s in context.tracer.iter_spans()]
        assert sum(label.startswith("MAP") for label in labels) == 1
        map_span = next(
            s for s in context.tracer.iter_spans() if s.label.startswith("MAP")
        )
        assert map_span.attributes["output_regions"] > 0
        assert map_span.attributes["input_samples"] > 0
        assert map_span.children  # the SCAN nests under MAP
