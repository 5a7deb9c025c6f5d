"""The columnar region store: blocks, zone maps and the result cache.

This package is the physical data layout underneath the execution
engines (the paper's section 4 "cloud-based execution" direction):

* :mod:`repro.store.columnar` -- per-chromosome struct-of-arrays blocks
  with zone maps and typed value columns, memoised on each sample's
  region list (and so shared by every dataset holding that list), so
  kernels stop rebuilding numpy arrays from region objects on every
  operator;
* :mod:`repro.store.join_kernels` -- vectorised genometric JOIN/MAP
  pair kernels (``searchsorted``/merge arithmetic over one
  chromosome's sorted block arrays);
* :mod:`repro.store.cover_kernels` -- the event-sweep kernels serving
  the whole COVER family (COVER/FLAT/SUMMIT/HISTOGRAM) and
  DIFFERENCE's overlap test from one step-function coverage profile
  per chromosome, built from the persisted sorted columns;
* :mod:`repro.store.exact_sum` -- exact grouped float summation
  (``math.fsum`` per segment) backing the engines' float SUM/AVG/STD
  fast path;
* :mod:`repro.store.persist` -- the disk-native persisted store:
  content-addressed per-chromosome segment files opened lazily via
  ``np.memmap`` (the only module allowed to construct memory maps),
  plus the block-residency spill budget;
* :mod:`repro.store.shm` -- the shared-memory block-shipping protocol
  used by the parallel backend (the only module allowed to construct
  ``SharedMemory`` segments); disk-resident arrays ship as mmap
  handles instead;
* :mod:`repro.store.cache` -- the plan-fingerprint LRU result cache
  that lets identical (sub)queries over identical content skip
  execution entirely, optionally persisted beside the store.

See ``docs/PERFORMANCE.md`` for the layout, the pruning rules and the
cache-key/invalidation story.
"""

from repro.store.cache import (
    DEFAULT_CAPACITY,
    ResultCache,
    plan_token,
    reset_result_cache,
    result_cache,
)
from repro.store.columnar import (
    STRAND_CODES,
    ChromBlock,
    DatasetStore,
    RegionMemo,
    SampleBlocks,
    ValueColumn,
    ZoneEntry,
    ZoneMap,
    chromosome_ranks,
    count_morsels,
    count_overlaps_blocks,
    genome_order,
    live_block_pairs,
    occupied_bins,
    overlap_counts,
    point_feature_adjustment,
    region_column,
    region_memo,
    reset_store_counters,
    store_counters,
)
from repro.store.cover_kernels import (
    block_cover_columns,
    chrom_cover_rows,
    coverage_runs,
    flat_extents,
    group_cover_parts,
    group_cover_rows,
    mask_chrom_events,
    multiset_subtract,
    overlap_any_mask,
    profile_cover,
    profile_histogram,
    profile_summits,
    sweep_profile,
    wide_sorted_events,
)
from repro.store.exact_sum import segment_fsum
from repro.store.join_kernels import (
    expand_windows,
    group_offsets,
    join_pairs,
    overlap_pairs,
    segment_counts,
    segment_median_positions,
    segment_reduce,
)
from repro.store.persist import (
    PersistedStore,
    ResidencyLedger,
    mmap_descriptor,
    open_segment,
    persist_store,
    reset_residency_ledger,
    residency_ledger,
    set_store_root,
    store_root,
)
from repro.store.shm import (
    ArrayShipper,
    materialise,
    segment_exists,
)

__all__ = [
    "ArrayShipper",
    "ChromBlock",
    "DEFAULT_CAPACITY",
    "DatasetStore",
    "RegionMemo",
    "ResultCache",
    "STRAND_CODES",
    "SampleBlocks",
    "ValueColumn",
    "ZoneEntry",
    "ZoneMap",
    "block_cover_columns",
    "chrom_cover_rows",
    "chromosome_ranks",
    "count_morsels",
    "count_overlaps_blocks",
    "coverage_runs",
    "expand_windows",
    "flat_extents",
    "genome_order",
    "group_cover_parts",
    "group_cover_rows",
    "group_offsets",
    "join_pairs",
    "live_block_pairs",
    "mask_chrom_events",
    "materialise",
    "multiset_subtract",
    "occupied_bins",
    "overlap_any_mask",
    "overlap_counts",
    "overlap_pairs",
    "profile_cover",
    "profile_histogram",
    "profile_summits",
    "PersistedStore",
    "ResidencyLedger",
    "mmap_descriptor",
    "open_segment",
    "persist_store",
    "plan_token",
    "point_feature_adjustment",
    "region_column",
    "region_memo",
    "reset_residency_ledger",
    "reset_store_counters",
    "residency_ledger",
    "reset_result_cache",
    "result_cache",
    "store_counters",
    "set_store_root",
    "store_root",
    "segment_counts",
    "segment_exists",
    "segment_fsum",
    "segment_median_positions",
    "segment_reduce",
    "sweep_profile",
    "wide_sorted_events",
]
