"""The served digest is computed once and travels with the cached result.

Every digest a response carries is compared with a fresh naive run's;
``digest_reused`` says whether the scheduler hashed rows or returned the
digest memoised on the result-cache entries.
"""

import asyncio
import pickle
import sys
import threading

import pytest

from repro.engine.context import ExecutionContext
from repro.engine.dispatch import get_backend
from repro.gdm import Dataset, GenomicRegion, RegionSchema, Sample
from repro.gmql.lang import Interpreter, compile_program, optimize
from repro.serve.scheduler import QueryScheduler, served_digest
from repro.serve.state import WarmState
from repro.store.cache import reset_result_cache

from tests.serve.util import (
    P_COVER,
    P_MAP,
    P_SELECT,
    make_sources,
    naive_digest,
)

P_COVER_AND_MAP = (
    "OUT = COVER(1, ANY) EXP; M = MAP(n AS COUNT) REF EXP; "
    "MATERIALIZE OUT; MATERIALIZE M;"
)
P_COMPUTED = "OUT = PROJECT(*; half AS left / 2.0) EXP; MATERIALIZE OUT;"


@pytest.fixture(autouse=True)
def isolated_cache():
    reset_result_cache()
    yield
    reset_result_cache()


def serve_sequence(steps):
    """Run *steps* one after another on one scheduler.

    A step is a program text, or a callable run between queries (to
    reset the cache).  Returns ``[(program, outcome, digests_reused)]``
    with the scheduler's counter read after each query.
    """
    state = WarmState(make_sources(), engine="columnar",
                      result_cache_enabled=True)
    state.warm()

    async def main():
        scheduler = QueryScheduler(state, max_concurrency=1)
        served = []
        try:
            for step in steps:
                if callable(step):
                    step()
                    continue
                outcome = await scheduler.run(
                    step, context=ExecutionContext(result_cache=True)
                )
                served.append(
                    (step, outcome, scheduler.stats()["digests_reused"])
                )
        finally:
            await scheduler.aclose()
        return served

    try:
        return asyncio.run(main())
    finally:
        state.close()


def assert_correct(served):
    sources = make_sources()
    expected: dict = {}
    for program, outcome, __ in served:
        if program not in expected:
            expected[program] = naive_digest(program, sources)
        assert outcome.digest == expected[program], program


def reused(served) -> list:
    return [outcome.digest_reused for __, outcome, __c in served]


def test_repeated_program_reuses_its_digest():
    served = serve_sequence([P_COVER, P_COVER])
    assert_correct(served)
    assert reused(served) == [False, True]
    assert [count for __, __o, count in served] == [0, 1]


def test_reset_cache_recomputes():
    served = serve_sequence([P_MAP, P_MAP, reset_result_cache, P_MAP, P_MAP])
    assert_correct(served)
    assert reused(served) == [False, True, False, True]


def test_capacity_one_alternating_programs_stay_correct():
    served = serve_sequence(
        [lambda: reset_result_cache(capacity=1)]
        + [P_COVER, P_MAP] * 3
        + [P_MAP]
    )
    assert_correct(served)
    # Each program evicts the other's entry; only the back-to-back
    # repeat at the end is served from the cache.
    assert reused(served) == [False] * 6 + [True]


def test_non_cache_safe_output_never_reuses():
    served = serve_sequence([P_COMPUTED] * 3)
    assert_correct(served)
    assert reused(served) == [False] * 3
    assert all(outcome.cache_hits == 0 for __, outcome, __c in served)


def test_partly_served_program_recomputes():
    served = serve_sequence([
        P_COVER,
        P_COVER_AND_MAP,    # OUT hits, M misses
        P_COVER_AND_MAP,    # both hit, both hold this program's digest
        P_COVER,            # hits, but OUT's entry holds the other key
        P_COVER_AND_MAP,    # both hit, but their memos disagree
        P_MAP,              # hits, but M's entry holds the other key
        P_COVER_AND_MAP,    # both hit; only OUT's memo has this key
    ])
    assert_correct(served)
    assert served[1][1].cache_hits == 1
    assert served[1][1].cache_misses == 1
    assert all(outcome.cache_misses == 0 for __, outcome, __c in served[2:])
    assert reused(served) == [False, False, True, False, False, False, False]


def test_entries_loaded_from_disk_carry_no_memo(tmp_path):
    directory = str(tmp_path / "results")
    served = serve_sequence([
        lambda: reset_result_cache(directory=directory),
        P_COVER,
        P_COVER,
        # A fresh cache over the same directory: the hit is unpickled.
        lambda: reset_result_cache(directory=directory),
        P_COVER,
        P_COVER,
    ])
    assert_correct(served)
    assert served[2][1].cache_hits == 1
    assert reused(served) == [False, True, False, True]


def test_threads_sharing_entries_always_get_their_own_digest():
    """Four threads race over shared cache entries, three of them under
    a capacity of two, with programs sharing entries under different
    keys; no digest is ever wrong."""
    sources = make_sources()
    programs = (P_COVER, P_MAP, P_COVER_AND_MAP, P_SELECT)
    expected = {p: naive_digest(p, sources) for p in programs}
    compiled = {
        p: optimize(compile_program(p, datasets=sources)) for p in programs
    }
    wrong: list = []
    reuses: list = []

    def worker(offset: int, steps: int = 30) -> None:
        backend = get_backend("columnar")
        try:
            for step in range(steps):
                program = programs[(offset + step) % len(programs)]
                context = ExecutionContext(result_cache=True)
                interpreter = Interpreter(backend, sources, context=context)
                physical = interpreter.plan(compiled[program])
                results = interpreter.run_physical(physical)
                digest, reused = served_digest(physical, results)
                reuses.append(reused)
                if digest != expected[program]:
                    wrong.append((program, reused))
        finally:
            backend.close()

    # Build the sources' stores and blocks before the race, as
    # WarmState.warm() does for a server.
    worker(0, steps=len(programs))
    reuses.clear()
    reset_result_cache(capacity=2)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(reuses) == 4 * 30
    assert wrong == []


class TestDatasetMemo:
    def _dataset(self):
        dataset = Dataset("D", RegionSchema.empty(), [
            Sample(1, [GenomicRegion("chr1", 0, 10)]),
        ])
        dataset._digest_memo = ((("OUT", "f"),), "d")
        return dataset

    def test_pickled_entry_has_no_memo(self):
        revived = pickle.loads(pickle.dumps(self._dataset()))
        assert revived._digest_memo is None
        assert revived.region_count() == 1

    def test_adding_a_sample_drops_the_memo(self):
        dataset = self._dataset()
        dataset.add_sample(Sample(2, [GenomicRegion("chr2", 0, 10)]))
        assert dataset._digest_memo is None

    def test_renamed_copy_has_no_memo(self):
        assert self._dataset().with_name("E")._digest_memo is None
