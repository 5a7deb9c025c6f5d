"""COVER over sparse inputs: clusters plus isolated singletons.

A COVER of lower threshold 2 or more leaves an isolated singleton with
no qualifying position, yet the sweep reads every region.  These tests
hold the sweep to the naive interval functions on that shape, and pin
that a COVER reports no pruned partitions through either engine.
"""

import random

import pytest

from repro.engine.context import ExecutionContext
from repro.gdm import (
    Dataset,
    Metadata,
    RegionSchema,
    Sample,
    chromosome_sort_key,
    region,
)
from repro.gmql.lang import execute
from tests.store.test_cover_kernels import (
    BIN,
    VARIANTS,
    kernel_rows,
    naive_rows,
)


def random_sparse_groups(seed):
    """Clusters of coincident regions plus scattered singletons."""
    rng = random.Random(seed)
    groups = []
    for __ in range(rng.randint(1, 4)):
        spec = []
        for __r in range(rng.randint(0, 14)):
            chrom = rng.choice(["chr1", "chr2", "chrX"])
            if rng.random() < 0.5:
                pos = rng.choice([0, BIN - 1, BIN, 2 * BIN])  # clustered
            else:
                pos = rng.randint(0, 200) * BIN  # likely isolated
            spec.append(
                (chrom, pos, rng.choice([0, 1, BIN // 2, 3 * BIN]),
                 rng.choice("+-*"))
            )
        groups.append(spec)
    return groups


class TestPrunedSweepDifferential:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("lo,hi", [(2, 1 << 62), (3, 3)])
    def test_pruned_sweep_is_byte_identical(self, variant, seed, lo, hi):
        groups = random_sparse_groups(seed)
        assert kernel_rows(groups, lo, hi, variant) == \
            naive_rows(groups, lo, hi, variant)


def sparse_dataset() -> Dataset:
    """Three samples: one shared hot cluster, many lonely singletons,
    each in its own ``DEFAULT_BIN_SIZE`` (100 kb) zone-map bin."""
    rng = random.Random(31)
    ds = Dataset("DATA", RegionSchema())
    for sid in range(1, 4):
        regions = [region("chr1", 100, 200, "+")]
        for i in range(12):
            pos = (3 * i + sid) * 300_000 + 5_000
            regions.append(region("chr1", pos, pos + rng.randint(5, 40)))
        regions.sort(
            key=lambda r: (chromosome_sort_key(r.chrom), r.left, r.right)
        )
        ds.add_sample(Sample(sid, regions, Metadata({"s": str(sid)})))
    return ds


class TestCounterThroughEngines:
    PROGRAM = "R = COVER(2, ANY) DATA; MATERIALIZE R;"

    @pytest.mark.parametrize("engine", ["columnar", "parallel"])
    def test_counter_and_identity(self, engine):
        sources = {"DATA": sparse_dataset()}
        expected = execute(self.PROGRAM, dict(sources), engine="naive")
        context = ExecutionContext()
        actual = execute(
            self.PROGRAM, dict(sources), engine=engine, context=context
        )
        assert list(actual["R"].region_rows()) == list(
            expected["R"].region_rows()
        )
        # ``store.partitions_pruned`` counts MAP's and JOIN's zone-map
        # pruning; COVER sweeps every region and prunes nothing.
        assert context.metrics.counter("store.partitions_pruned") == 0
