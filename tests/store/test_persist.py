"""The persisted store: layout, atomicity, mmap handles, residency budget."""

import json
import os
import threading

import numpy as np
import pytest

from repro.gdm import Dataset, GenomicRegion, Metadata, RegionSchema, Sample
from repro.store import DatasetStore, region_memo, store_counters
from repro.store.persist import (
    BLOCK_COLUMNS,
    MANIFEST_NAME,
    SEGMENTS_NAME,
    UNION_KEY,
    PersistedStore,
    ResidencyLedger,
    atomic_write_blob,
    close_opened_segments,
    map_blob,
    mmap_descriptor,
    open_segment,
    persist_store,
    reset_residency_ledger,
    set_store_root,
    store_directory,
    store_root,
)

BIN = 100


@pytest.fixture(autouse=True)
def isolated_store_state():
    """No test leaks a store root, ledger charge or segment memo."""
    set_store_root(None)
    reset_residency_ledger(None)
    yield
    set_store_root(None)
    reset_residency_ledger(None)
    close_opened_segments()


def region(chrom, left, right, strand="*", *values):
    return GenomicRegion(chrom, left, right, strand, tuple(values))


def make_dataset(name="D"):
    samples = [
        Sample(
            1,
            [
                region("chr1", 0, 50),
                region("chr1", 120, 120),   # zero-length
                region("chr2", 30, 260),    # spans bins
            ],
            Metadata({"kind": "ref"}),
        ),
        Sample(
            2,
            [region("chr1", 40, 90), region("chr1", 99, 101)],
            Metadata({"kind": "exp"}),
        ),
    ]
    return Dataset(name, RegionSchema.empty(), samples, validate=False)


def all_columns(blocks):
    """Every persisted column of every chromosome, concrete."""
    out = {}
    for chrom, block in blocks.chroms.items():
        entry = blocks.zone_map.entries[chrom]
        out[chrom] = {
            "starts": block.starts.tolist(),
            "stops": block.stops.tolist(),
            "strands": block.strands.tolist(),
            "index": block.index.tolist(),
            "sorted_starts": block.sorted_starts.tolist(),
            "sorted_stops": block.sorted_stops.tolist(),
            "left_order": block.left_order.tolist(),
            "left_stops": block.left_stops.tolist(),
            "zero_positions": block.zero_positions.tolist(),
            "max_width": block.max_width,
            "bins": entry.bins.tolist(),
            "zone": (entry.count, entry.min_start, entry.max_start,
                     entry.min_stop, entry.max_stop),
        }
    return out


class TestPersistRoundTrip:
    def test_persist_then_open_is_byte_identical(self, tmp_path):
        dataset = make_dataset()
        memory_store = DatasetStore(dataset, BIN, root=None)
        expected = {
            sample.id: all_columns(memory_store.blocks(sample))
            for sample in dataset
        }
        expected_union = all_columns(memory_store.union_blocks())

        disk_store = DatasetStore(
            dataset, BIN, root=str(tmp_path), sync=True
        )
        for sample in dataset:
            disk_store.blocks(sample)   # builds + persists synchronously
        final = store_directory(tmp_path, disk_store.digest(), BIN)
        assert (final / MANIFEST_NAME).is_file()
        assert (final / SEGMENTS_NAME).is_file()

        before = store_counters()
        fresh = DatasetStore(make_dataset(), BIN, root=str(tmp_path))
        for sample in fresh._dataset:
            assert all_columns(fresh.blocks(sample)) == expected[sample.id]
        assert all_columns(fresh.union_blocks()) == expected_union
        after = store_counters()
        # 2 samples + union
        assert after["blocks_mapped"] - before["blocks_mapped"] == 3
        assert after["blocks_built"] == before["blocks_built"]

    def test_mapped_blocks_are_memmap_views_costing_no_residency(
        self, tmp_path
    ):
        dataset = make_dataset()
        store = DatasetStore(dataset, BIN, root=str(tmp_path), sync=True)
        for sample in dataset:
            store.blocks(sample)
        fresh = DatasetStore(make_dataset(), BIN, root=str(tmp_path))
        blocks = fresh.blocks(next(iter(fresh._dataset)))
        base = blocks.chroms["chr1"].starts
        while isinstance(getattr(base, "base", None), np.ndarray):
            base = base.base
        assert isinstance(base, np.memmap)
        assert fresh.resident_bytes() == 0

    def test_no_tmp_directory_left_behind(self, tmp_path):
        store = DatasetStore(
            make_dataset(), BIN, root=str(tmp_path), sync=True
        )
        store.union_blocks()
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_persist_is_idempotent_and_race_tolerant(self, tmp_path):
        dataset = make_dataset()
        store = DatasetStore(dataset, BIN, root=str(tmp_path), sync=True)
        store.union_blocks()
        final = store_directory(tmp_path, store.digest(), BIN)
        before = (final / SEGMENTS_NAME).stat().st_mtime_ns
        # A second persist (another thread/process losing the race)
        # observes the final manifest and leaves the store untouched.
        other = DatasetStore(make_dataset(), BIN, root=str(tmp_path))
        assert persist_store(other) == final
        assert (final / SEGMENTS_NAME).stat().st_mtime_ns == before

    def test_manifest_is_the_sorted_one_shot_json_text(self, tmp_path):
        store = DatasetStore(
            make_dataset(), BIN, root=str(tmp_path), sync=True
        )
        store.union_blocks()
        final = store_directory(tmp_path, store.digest(), BIN)
        text = (final / MANIFEST_NAME).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True)

    def test_manifest_lists_every_column(self, tmp_path):
        store = DatasetStore(
            make_dataset(), BIN, root=str(tmp_path), sync=True
        )
        store.union_blocks()
        final = store_directory(tmp_path, store.digest(), BIN)
        manifest = json.loads((final / MANIFEST_NAME).read_text())
        assert UNION_KEY in manifest["samples"]
        for entry in manifest["samples"].values():
            for info in entry["chroms"].values():
                assert set(info["columns"]) == set(BLOCK_COLUMNS)


class TestOpenRejections:
    def _persisted(self, tmp_path):
        store = DatasetStore(
            make_dataset(), BIN, root=str(tmp_path), sync=True
        )
        store.union_blocks()
        return store.digest()

    def test_missing_directory(self, tmp_path):
        assert PersistedStore.open(tmp_path, "no-such-digest", BIN) is None

    def test_wrong_bin_size(self, tmp_path):
        digest = self._persisted(tmp_path)
        assert PersistedStore.open(tmp_path, digest, BIN + 1) is None

    def test_version_mismatch_degrades_to_none(self, tmp_path):
        digest = self._persisted(tmp_path)
        final = store_directory(tmp_path, digest, BIN)
        manifest = json.loads((final / MANIFEST_NAME).read_text())
        manifest["version"] = 999
        (final / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert PersistedStore.open(tmp_path, digest, BIN) is None

    def test_corrupt_manifest_degrades_to_none(self, tmp_path):
        digest = self._persisted(tmp_path)
        final = store_directory(tmp_path, digest, BIN)
        (final / MANIFEST_NAME).write_text("{not json")
        assert PersistedStore.open(tmp_path, digest, BIN) is None

    def test_missing_segments_degrades_to_none(self, tmp_path):
        digest = self._persisted(tmp_path)
        final = store_directory(tmp_path, digest, BIN)
        os.unlink(final / SEGMENTS_NAME)
        assert PersistedStore.open(tmp_path, digest, BIN) is None

    def test_open_miss_falls_back_to_in_memory_build(self, tmp_path,
                                                     monkeypatch):
        # The build would start a background persist, whose own builds
        # (the other sample, the union) race the count asserted here.
        monkeypatch.setattr(DatasetStore, "_schedule_persist", lambda self: None)
        store = DatasetStore(make_dataset(), BIN, root=str(tmp_path))
        built = store_counters()["blocks_built"]
        blocks = store.blocks(next(iter(store._dataset)))
        assert store_counters()["blocks_built"] - built == 1
        assert blocks.chroms["chr1"].starts.tolist() == [0, 120]


class TestMmapHandles:
    def test_descriptor_round_trip(self, tmp_path):
        dataset = make_dataset()
        store = DatasetStore(dataset, BIN, root=str(tmp_path), sync=True)
        for sample in dataset:
            store.blocks(sample)
        fresh = DatasetStore(make_dataset(), BIN, root=str(tmp_path))
        for sample in fresh._dataset:
            blocks = fresh.blocks(sample)
            for chrom, block in blocks.chroms.items():
                for name in ("starts", "stops", "sorted_starts",
                             "left_stops", "index"):
                    array = getattr(block, name)
                    if array.size == 0:
                        continue
                    descriptor = mmap_descriptor(array)
                    assert descriptor is not None, (sample.id, chrom, name)
                    reopened = open_segment(*descriptor)
                    np.testing.assert_array_equal(reopened, array)

    def test_in_memory_arrays_have_no_descriptor(self):
        assert mmap_descriptor(np.arange(10)) is None
        assert mmap_descriptor(np.empty(0, dtype=np.int64)) is None

    def test_open_segment_memoises_per_path(self, tmp_path):
        dataset = make_dataset()
        store = DatasetStore(dataset, BIN, root=str(tmp_path), sync=True)
        store.union_blocks()
        fresh = DatasetStore(make_dataset(), BIN, root=str(tmp_path))
        blocks = fresh.union_blocks()
        d1 = mmap_descriptor(blocks.chroms["chr1"].starts)
        d2 = mmap_descriptor(blocks.chroms["chr2"].starts)
        close_opened_segments()
        a = open_segment(*d1)
        b = open_segment(*d2)
        assert a.base is not None and b.base is not None
        # One underlying map serves both views of the same segment file.
        assert a.base.base is b.base.base


class TestBackgroundPersist:
    def test_background_thread_persists_eventually(self, tmp_path):
        dataset = make_dataset()
        store = DatasetStore(dataset, BIN, root=str(tmp_path), sync=False)
        store.union_blocks()
        assert isinstance(store._persist_thread, threading.Thread)
        store.wait_for_persist(timeout=30)
        final = store_directory(tmp_path, store.digest(), BIN)
        assert (final / MANIFEST_NAME).is_file()

    def test_no_root_means_no_disk_and_no_thread(self):
        store = DatasetStore(make_dataset(), BIN, root=None)
        store.union_blocks()
        assert store._persist_thread is None
        assert persist_store(store) is None


class TestStagedBlobs:
    def test_blob_round_trip(self, tmp_path):
        path = tmp_path / "x.staged"
        atomic_write_blob(path, (b"meta-bytes", b"region-bytes"))
        mapped, meta_len, region_len = map_blob(path)
        try:
            assert (meta_len, region_len) == (10, 12)
        finally:
            mapped.close()

    def test_foreign_magic_rejected(self, tmp_path):
        path = tmp_path / "x.staged"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 16 + b"payload")
        assert map_blob(path) is None

    def test_missing_and_truncated_files_rejected(self, tmp_path):
        assert map_blob(tmp_path / "absent.staged") is None
        short = tmp_path / "short.staged"
        short.write_bytes(b"RS")
        assert map_blob(short) is None


class TestResidencyLedger:
    def test_budget_evicts_least_recently_used(self, tmp_path):
        dataset = make_dataset()
        probe = DatasetStore(dataset, BIN, root=None)
        one_sample_bytes = probe.blocks(next(iter(dataset))).nbytes()

        reset_residency_ledger(int(one_sample_bytes * 1.5))
        store = DatasetStore(make_dataset(), BIN, root=None)
        samples = list(store._dataset)
        evicted = store_counters()["blocks_evicted"]
        store.blocks(samples[0])
        store.blocks(samples[1])   # overflows: sample 1 evicted
        assert store_counters()["blocks_evicted"] - evicted >= 1
        assert BIN not in region_memo(samples[0].regions).blocks
        # Evicted blocks rebuild transparently on next use.
        rebuilt = store.blocks(samples[0])
        assert rebuilt.chroms["chr1"].starts.tolist() == [0, 120]

    def test_freshly_charged_block_is_never_its_own_victim(self):
        reset_residency_ledger(1)  # absurdly small budget
        store = DatasetStore(make_dataset(), BIN, root=None)
        sample = next(iter(store._dataset))
        blocks = store.blocks(sample)
        # The block just built must stay resident for the caller.
        assert region_memo(sample.regions).blocks[BIN] is blocks

    def test_mapped_blocks_are_never_charged(self, tmp_path):
        dataset = make_dataset()
        builder = DatasetStore(dataset, BIN, root=str(tmp_path), sync=True)
        for sample in dataset:
            builder.blocks(sample)
        ledger = reset_residency_ledger(None)
        mapped = store_counters()["blocks_mapped"]
        fresh = DatasetStore(make_dataset(), BIN, root=str(tmp_path))
        for sample in fresh._dataset:
            fresh.blocks(sample)
        assert store_counters()["blocks_mapped"] - mapped > 0
        assert ledger.resident_bytes() == 0

    def test_touch_refreshes_recency(self):
        ledger = ResidencyLedger(budget_bytes=250)

        class Owner:
            def __init__(self):
                self.evicted = []

            def _evict_resident(self, key):
                self.evicted.append(key)

        owner = Owner()
        ledger.charge(owner, "a", 100)
        ledger.charge(owner, "b", 100)
        ledger.touch(owner, "a")           # "b" is now least recent
        ledger.charge(owner, "c", 100)     # overflow evicts "b"
        assert owner.evicted == ["b"]
        assert ledger.evictions == 1


class TestStoreRootResolution:
    def test_dataset_store_picks_up_process_root(self, tmp_path):
        set_store_root(str(tmp_path), sync=True)
        assert store_root() == str(tmp_path)
        store = DatasetStore(make_dataset(), BIN)
        assert store.root == str(tmp_path)
        assert store.sync is True
