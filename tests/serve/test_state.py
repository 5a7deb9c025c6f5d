"""WarmState bounds and reports: the compiled-program LRU, the pool size
and the store block counters."""

import asyncio
import gc
import weakref

import pytest

from repro.engine.context import ExecutionContext
from repro.gdm import results_digest
from repro.gmql.lang import execute
from repro.serve import state as state_mod
from repro.serve.scheduler import QueryScheduler
from repro.serve.state import WarmState

from tests.serve.util import make_sources


def _program(i: int) -> str:
    return f"OUT = JOIN(DLE({100 + i}); output: LEFT) REF EXP; MATERIALIZE OUT;"


def test_compiled_cache_is_bounded_and_keeps_recently_hit(monkeypatch):
    monkeypatch.setattr(state_mod, "COMPILED_PROGRAMS_MAX", 3)
    state = WarmState(make_sources(), engine="columnar")
    hot = state.compile(_program(0))
    for i in range(1, 6):
        # The hot program is hit between every two one-off programs, so
        # it is never the least recently used entry.
        assert state.compile(_program(0)) is hot
        state.compile(_program(i))
    stats = state.stats()
    assert stats["compiled_programs"] == 3
    assert stats["compile_evictions"] == 3
    assert stats["compile_misses"] == 6
    assert state.compile(_program(0)) is hot
    # The oldest one-off was evicted: asking again is a miss.
    state.compile(_program(1))
    assert state.stats()["compile_misses"] == 7


def test_pool_workers_reports_the_created_size():
    state = WarmState(make_sources(), engine="parallel", workers=2)
    try:
        assert state.stats()["pool_workers"] == 0
        state.shared_pool()
        assert state.stats()["pool_workers"] == 2
    finally:
        state.close()
    assert state.stats()["pool_workers"] == 0


def test_store_stats_count_blocks_of_derived_datasets():
    # The COVER builds its blocks on the region SELECT's output, a
    # derived dataset no source store knows about.
    state = WarmState(make_sources(), engine="columnar")
    state.warm()
    before = state.stats()["store"]
    execute(
        "R = SELECT(region: left > 40) EXP; C = COVER(1, ANY) R; "
        "MATERIALIZE C;",
        state.sources,
        engine="columnar",
    )
    after = state.stats()["store"]
    assert after["blocks_built"] > before["blocks_built"]
    assert after["resident_bytes"] == before["resident_bytes"]


def test_store_stats_count_rows_materialised():
    # A COVER result is born as columns: digesting it builds no region
    # objects, asking for its regions builds each row once.
    state = WarmState(make_sources(), engine="columnar")
    state.warm()
    before = state.stats()["store"]["rows_materialised"]
    results = execute("C = COVER(1, ANY) EXP; MATERIALIZE C;",
                      state.sources, engine="columnar")
    results_digest(results)
    assert state.stats()["store"]["rows_materialised"] == before
    (sample, *__) = results["C"]
    assert sample.regions
    assert state.stats()["store"]["rows_materialised"] == before + len(sample)


def test_a_slot_keeps_no_per_query_execution_record():
    """A resident backend slot records nothing of the queries it ran:
    each query's span tree and metrics live on its own context, which
    the slot lets go once the query is over."""
    state = WarmState(make_sources(), engine="auto")
    slots = []
    make_backend = state.make_backend

    def recording_make_backend():
        slots.append(make_backend())
        return slots[-1]

    state.make_backend = recording_make_backend
    records = []

    async def main():
        scheduler = QueryScheduler(state, max_concurrency=1)
        try:
            for i in range(6):
                context = ExecutionContext(result_cache=False)
                records.append(weakref.ref(context))
                await scheduler.run(
                    f"S = SELECT(region: left > {10 * i}) EXP; "
                    "OUT = MAP(n AS COUNT) REF S; MATERIALIZE OUT;",
                    context=context,
                )
                assert context.tracer.roots  # the record is the context's
                del context
        finally:
            await scheduler.aclose()

    try:
        asyncio.run(main())
    finally:
        state.close()
    (slot,) = slots
    gc.collect()
    assert all(record() is None for record in records)
    assert slot.context is None and not hasattr(slot, "stats")


def test_warm_state_takes_no_bin_size():
    # Queries run at the store's default bin size; there is no second,
    # server-wide way to set it.
    state = WarmState(make_sources(), engine="columnar")
    assert not hasattr(state, "bin_size")
    with pytest.raises(TypeError):
        WarmState(make_sources(), engine="columnar", bin_size=64)
