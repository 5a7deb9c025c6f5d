"""Interval algebra substrate: trees, coverage, distances, bins.

These are the scalar, region-at-a-time kernels of the naive engine, the
oracle every other engine is differentially tested against: the interval
tree answers MAP and DIFFERENCE overlaps, the coverage sweep answers COVER
and its variants, and the distance index answers JOIN's genometric
predicates.  The other engines run the vectorised kernels of
:mod:`repro.store` instead; one kernel per job, no strategy choice.
"""

from repro.intervals.bins import DEFAULT_BIN_SIZE, bin_span
from repro.intervals.coverage import (
    AccumulationBound,
    CoverageSegment,
    cover_intervals,
    coverage_profile,
    flat_intervals,
    histogram_intervals,
    merge_touching,
    summit_intervals,
)
from repro.intervals.distance import (
    NearestIndex,
    distance,
    is_downstream,
    is_upstream,
    stream_pair_mask,
)
from repro.intervals.tree import GenomeIndex, IntervalTree

__all__ = [
    "AccumulationBound",
    "CoverageSegment",
    "DEFAULT_BIN_SIZE",
    "GenomeIndex",
    "IntervalTree",
    "NearestIndex",
    "bin_span",
    "cover_intervals",
    "coverage_profile",
    "distance",
    "flat_intervals",
    "histogram_intervals",
    "is_downstream",
    "is_upstream",
    "merge_touching",
    "stream_pair_mask",
    "summit_intervals",
]
