"""Lifecycle tests for the shared-memory block protocol.

Covers the :class:`ArrayShipper` handle protocol (segment vs raw
fallback, memoisation, byte accounting, the ``enabled=False`` seam) and
-- the part that matters operationally -- that segments are unlinked
when the owning backend closes, including when a pool task raises
mid-flight.

The ``REPRO_SHM`` / ``use_shm`` gate tests went with the gates; that the
pickle fallback still computes the same results is covered by the
``parallel/pickle`` arm of ``tests/engine/test_executor_differential.py``.

Note: these tests never construct ``SharedMemory`` directly
(``benchmarks/lint_repo.py`` bans that outside ``repro.store.shm``);
existence checks go through :func:`segment_exists`.
"""

import errno
import random
from functools import partial

import numpy as np
import pytest

from repro.engine import columnar as columnar_mod
from repro.engine import parallel as parallel_mod
from repro.engine.context import ExecutionContext
from repro.gdm import Dataset, FLOAT, Metadata, RegionSchema, Sample, region
from repro.gmql.lang import Interpreter, compile_program, execute, optimize
from repro.serve.state import WarmState
from repro.store import shm as shm_mod
from repro.store.shm import ArrayShipper, materialise, segment_exists

from tests.engine.test_float_aggregates import bitwise

BIG = np.arange(4096, dtype=np.int64)  # comfortably over MIN_SHARED_BYTES


class TestArrayShipper:
    def test_roundtrip_through_segment(self):
        with ArrayShipper(enabled=True) as shipper:
            handle = shipper.ship(BIG)
            assert handle[0] == "shm"
            arrays, release = materialise([handle])
            np.testing.assert_array_equal(arrays[0], BIG)
            release()
            assert shipper.bytes_shared == BIG.nbytes
            assert shipper.bytes_pickled == 0

    def test_small_array_rides_pickle(self):
        with ArrayShipper(enabled=True) as shipper:
            small = np.arange(4, dtype=np.int64)
            handle = shipper.ship(small)
            assert handle[0] == "raw"
            assert handle[1] is small
            assert shipper.bytes_shared == 0
            assert shipper.bytes_pickled == small.nbytes

    def test_non_contiguous_rides_pickle(self):
        with ArrayShipper(enabled=True) as shipper:
            strided = BIG[::2]
            assert not strided.flags.c_contiguous
            assert shipper.ship(strided)[0] == "raw"

    def test_disabled_shipper_never_creates_segments(self):
        with ArrayShipper(enabled=False) as shipper:
            assert shipper.ship(BIG)[0] == "raw"
            assert shipper.segment_names() == []

    def test_handles_memoised_per_array(self):
        with ArrayShipper(enabled=True) as shipper:
            first = shipper.ship(BIG)
            second = shipper.ship(BIG)
            assert first is second
            assert len(shipper.segment_names()) == 1
            assert shipper.bytes_shared == BIG.nbytes

    def test_close_unlinks_and_is_idempotent(self):
        shipper = ArrayShipper(enabled=True)
        shipper.ship(BIG)
        names = shipper.segment_names()
        assert names and all(segment_exists(name) for name in names)
        shipper.close()
        assert shipper.segment_names() == []
        assert not any(segment_exists(name) for name in names)
        shipper.close()  # second close is a no-op

    def test_release_unused_keeps_only_what_was_shipped_since(self):
        kept, dropped = BIG, BIG + 1
        with ArrayShipper(enabled=True) as shipper:
            first = shipper.ship(kept)
            shipper.ship(dropped)
            shipper.release_unused()  # both shipped since: both stay
            assert len(shipper.segment_names()) == 2
            assert shipper.ship(kept) is first
            (dropped_name,) = set(shipper.segment_names()) - {first[1]}
            shipper.release_unused()
            assert shipper.segment_names() == [first[1]]
            assert not segment_exists(dropped_name)
            assert shipper.ship(dropped)[1] != dropped_name  # re-shipped

    def test_materialise_raw_passthrough(self):
        values = np.arange(8, dtype=np.int64)
        arrays, release = materialise([("raw", values)])
        assert arrays[0] is values
        release()


def _seed_dataset(seed: int = 7, n_regions: int = 400) -> Dataset:
    rng = random.Random(seed)
    schema = RegionSchema.of(("score", FLOAT))
    samples = []
    for sample_id in (1, 2):
        regions = []
        for __ in range(n_regions):
            left = rng.randint(0, 20_000)
            regions.append(
                region("chr1", left, left + rng.randint(1, 300), "*",
                       float(sample_id))
            )
        samples.append(Sample(sample_id, regions, Metadata({"kind": "t"})))
    return Dataset("DATA", schema, samples)


def _crashing_kernel(*arrays):
    raise RuntimeError("worker crash injected by test")


class TestBackendLifecycle:
    def test_crashing_worker_leaves_no_segments(self, monkeypatch):
        """A raising pool task must not leak shared-memory segments.

        ``execute`` closes the backend in a ``finally``; the shipper is
        closed after the pool drains, so every segment the parent
        created is unlinked even though the task died mid-compute.
        """
        unlinked_names = []

        class RecordingShipper(ArrayShipper):
            def close(self):
                unlinked_names.extend(self.segment_names())
                super().close()

        monkeypatch.setattr(parallel_mod, "ArrayShipper", RecordingShipper)
        # MAP() hands every chromosome to the counting kernel; the
        # pool pickles the replacement by reference, so it is this
        # function that raises inside the worker.
        monkeypatch.setattr(columnar_mod, "overlap_counts", _crashing_kernel)
        # Ship everything regardless of size so the smoke-scale dataset
        # exercises real segments.
        monkeypatch.setattr(shm_mod, "MIN_SHARED_BYTES", 0)

        dataset = _seed_dataset()
        with pytest.raises(RuntimeError, match="worker crash injected"):
            execute(
                "R = MAP() DATA DATA; MATERIALIZE R;",
                {"DATA": dataset},
                engine="parallel",
                context=ExecutionContext(result_cache=False),
            )
        assert unlinked_names, "crash path never created shm segments"
        assert not any(segment_exists(name) for name in unlinked_names)

    def test_clean_run_unlinks_segments_on_close(self, monkeypatch):
        unlinked_names = []

        class RecordingShipper(ArrayShipper):
            def close(self):
                unlinked_names.extend(self.segment_names())
                super().close()

        monkeypatch.setattr(parallel_mod, "ArrayShipper", RecordingShipper)
        monkeypatch.setattr(shm_mod, "MIN_SHARED_BYTES", 0)

        dataset = _seed_dataset()
        results = execute(
            "R = MAP() DATA DATA; MATERIALIZE R;",
            {"DATA": dataset},
            engine="parallel",
            context=ExecutionContext(result_cache=False),
        )
        assert results["R"].region_count() > 0
        assert unlinked_names
        assert not any(segment_exists(name) for name in unlinked_names)

    def test_disabled_shipper_pickles_everything(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "MIN_SHARED_BYTES", 0)
        monkeypatch.setattr(
            parallel_mod, "ArrayShipper", partial(ArrayShipper, enabled=False)
        )
        context = ExecutionContext(result_cache=False)
        dataset = _seed_dataset()
        execute(
            "R = MAP() DATA DATA; MATERIALIZE R;",
            {"DATA": dataset},
            engine="parallel",
            context=context,
        )
        metrics = context.metrics.snapshot()
        assert metrics.get("shm.bytes_shared", 0) == 0
        assert metrics.get("shm.bytes_pickled", 0) > 0


def _refuse_segments(monkeypatch) -> None:
    """Make every ``SharedMemory`` construction fail the way a host out
    of ``/dev/shm`` space or file descriptors does."""
    from multiprocessing import shared_memory

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOSPC, "no space left for a segment")

    monkeypatch.setattr(shared_memory, "SharedMemory", refuse)


class TestSegmentCreationFails:
    """The shipper's last degradation path: segments are on by default,
    and the first failed create turns them off for good."""

    def test_ship_degrades_to_raw_and_stays_off(self, monkeypatch):
        _refuse_segments(monkeypatch)
        with ArrayShipper() as shipper:
            assert shipper.enabled
            handle = shipper.ship(BIG)
            assert handle[0] == "raw" and handle[1] is BIG
            assert shipper.bytes_pickled == BIG.nbytes
            assert shipper.bytes_shared == 0
            assert shipper.enabled is False
            assert shipper.ship(BIG + 1)[0] == "raw"
            assert shipper.segment_names() == []

    @pytest.mark.parametrize("program", [
        "R = MAP(n AS COUNT, a AS AVG(score)) DATA DATA; MATERIALIZE R;",
        "R = JOIN(DLE(50); output: LEFT) DATA DATA; MATERIALIZE R;",
    ], ids=["map", "join"])
    def test_parallel_matches_naive(self, monkeypatch, program):
        _refuse_segments(monkeypatch)
        monkeypatch.setattr(shm_mod, "MIN_SHARED_BYTES", 0)
        sources = {"DATA": _seed_dataset()}
        context = ExecutionContext(result_cache=False)
        got = execute(program, sources, engine="parallel", context=context)
        expected = execute(
            program, sources, engine="naive",
            context=ExecutionContext(result_cache=False),
        )
        assert got["R"].region_count() > 0
        assert bitwise(got) == bitwise(expected)
        metrics = context.metrics.snapshot()
        assert metrics.get("shm.bytes_shared", 0) == 0
        assert metrics.get("shm.bytes_pickled", 0) > 0


class TestMmapHandles:
    """Memmap-backed block arrays ship as handles, never as copies."""

    @pytest.fixture(autouse=True)
    def _isolated_store(self, tmp_path):
        from repro.store.persist import (
            close_opened_segments,
            reset_residency_ledger,
            set_store_root,
        )

        set_store_root(None)
        reset_residency_ledger(None)
        yield
        set_store_root(None)
        reset_residency_ledger(None)
        close_opened_segments()

    def _mapped_array(self, tmp_path):
        from repro.store import DatasetStore

        regions = [region("chr1", i * 10, i * 10 + 5) for i in range(64)]
        samples = [Sample(1, regions, Metadata({}))]
        dataset = Dataset("D", RegionSchema.empty(), samples, validate=False)
        builder = DatasetStore(dataset, 100, root=str(tmp_path), sync=True)
        builder.blocks(samples[0])
        fresh_ds = Dataset(
            "D", RegionSchema.empty(),
            [Sample(1, list(regions), Metadata({}))], validate=False,
        )
        fresh = DatasetStore(fresh_ds, 100, root=str(tmp_path))
        blocks = fresh.blocks(next(iter(fresh_ds)))
        return blocks.chroms["chr1"].starts

    def test_mapped_array_ships_as_handle_not_segment(self, tmp_path):
        array = self._mapped_array(tmp_path)
        with ArrayShipper(enabled=True) as shipper:
            handle = shipper.ship(array)
            assert handle[0] == "mmap"
            assert shipper.bytes_mapped == array.nbytes
            assert shipper.bytes_shared == 0
            assert shipper.bytes_pickled == 0
            assert shipper.segment_names() == []

    def test_mmap_handle_beats_shm_even_below_min_shared(
        self, tmp_path, monkeypatch
    ):
        # An mmap handle is free regardless of size: it must win even
        # for arrays the shm gate would refuse to ship.
        monkeypatch.setattr(shm_mod, "MIN_SHARED_BYTES", 10**9)
        array = self._mapped_array(tmp_path)
        with ArrayShipper(enabled=True) as shipper:
            assert shipper.ship(array)[0] == "mmap"

    def test_materialise_reopens_identical_view(self, tmp_path):
        array = self._mapped_array(tmp_path)
        with ArrayShipper(enabled=True) as shipper:
            handle = shipper.ship(array)
        arrays, release = materialise([handle])
        view = arrays[0]
        np.testing.assert_array_equal(view, array)
        # Release never invalidates mmap views: the memoised map stays
        # open for the worker's lifetime (segment files are immutable).
        release()
        np.testing.assert_array_equal(view, array)

    def test_disabled_shipper_still_ships_mmap_handles(self, tmp_path):
        array = self._mapped_array(tmp_path)
        with ArrayShipper(enabled=False) as shipper:
            assert shipper.ship(array)[0] == "mmap"


class TestResidentSlot:
    def test_slot_holds_at_most_one_querys_segments(self, monkeypatch):
        """A server slot runs many queries and closes only at shutdown.
        When a query's context goes (the scheduler unbinds the slot
        after every query) the slot keeps only what that query shipped:
        the resident source's segments are reused, each derived
        operand's are released, and close unlinks the rest."""
        shippers = []

        class RecordingShipper(ArrayShipper):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                shippers.append(self)

        monkeypatch.setattr(parallel_mod, "ArrayShipper", RecordingShipper)
        monkeypatch.setattr(shm_mod, "MIN_SHARED_BYTES", 0)
        sources = {"DATA": _seed_dataset()}
        state = WarmState(sources, engine="parallel", workers=1)
        slot = state.make_backend()
        held = []
        try:
            # Each program's MAP ships a fresh derived operand (the
            # region SELECT's output) next to the resident source.
            for threshold in range(4):
                program = (
                    f"S = SELECT(region: left >= {threshold}) DATA; "
                    "R = MAP() S DATA; MATERIALIZE R;"
                )
                compiled = optimize(compile_program(program, datasets=sources))
                Interpreter(
                    slot, sources, context=ExecutionContext(result_cache=False)
                ).run_program(compiled)
                slot.bind_context(None)
                held.append({
                    name for shipper in shippers
                    for name in shipper.segment_names()
                })
        finally:
            slot.close()
            state.close()
        assert held[0]
        assert max(len(names) for names in held) <= len(held[0])
        assert set.intersection(*held)  # the source's segments, reused
        assert not any(segment_exists(name) for name in set.union(*held))
