"""E14 (ablation): interval-join kernels -- tree vs searchsorted.

DESIGN.md calls out the choice of overlap kernel as a design decision;
this ablation measures the two kernels the engines run on uniform and
clustered workloads: the naive engine's interval tree and the store's
searchsorted kernel behind every other engine.  Both must agree.
"""

import pytest

from repro.intervals import DEFAULT_BIN_SIZE, GenomeIndex
from repro.simulate import region_sample
from repro.store import SampleBlocks, count_overlaps_blocks

N = 4_000


@pytest.fixture(scope="module", params=["uniform", "clustered"])
def workload(request):
    clustered = request.param == "clustered"
    references = region_sample(61, N, clustered=clustered)
    probes = region_sample(62, N, clustered=clustered)
    return request.param, references, probes


def _tree_counts(references, probes):
    index = GenomeIndex(probes)
    return [sum(1 for __ in index.overlapping(r)) for r in references]


def _vector_counts(references, probes):
    counts, __ = count_overlaps_blocks(
        SampleBlocks(None, references, DEFAULT_BIN_SIZE),
        SampleBlocks(None, probes, DEFAULT_BIN_SIZE),
    )
    return counts.tolist()


def test_interval_tree(benchmark, workload):
    shape, references, probes = workload
    benchmark.group = f"join-{shape}"
    counts = benchmark(_tree_counts, references, probes)
    benchmark.extra_info["total_overlaps"] = sum(counts)


def test_searchsorted(benchmark, workload):
    shape, references, probes = workload
    benchmark.group = f"join-{shape}"
    counts = benchmark(_vector_counts, references, probes)
    benchmark.extra_info["total_overlaps"] = sum(counts)


def test_kernels_agree(workload):
    __, references, probes = workload
    assert _tree_counts(references, probes) == _vector_counts(
        references, probes
    )
