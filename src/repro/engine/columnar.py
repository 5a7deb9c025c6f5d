"""The columnar backend: numpy kernels over cached store blocks.

Plays the part of the "vectorised cluster framework" in the paper's
section 4.2 comparison.  Hot kernels are vectorised and consume the
per-dataset columnar blocks (:meth:`Dataset.store`) instead of
rebuilding coordinate arrays from region objects on every operator:

* **MAP** -- COUNT-only aggregates use the two-``searchsorted`` counting
  identity (:func:`repro.store.overlap_counts`) with zone-map
  chromosome/bin pruning (:func:`repro.store.count_morsels`); every
  other registered aggregate runs on the overlap-pair kernel
  (:func:`repro.store.overlap_pairs`) with grouped
  ``reduceat``/sorted-prefix reductions.  Float SUM/AVG/STD reduce with
  :func:`repro.store.segment_fsum` (the ``math.fsum`` the naive
  aggregates are defined against, per group of gathered values, which
  fsum sums exactly in any order), MEDIAN with sorted-rank selection,
  and BAG with a lexsort/dedup pass over a stringified column -- so the old
  per-group Python fallback survives only for genuinely unvectorisable
  inputs (``None``-bearing columns, ints beyond 2**52, ``-0.0``/NaN
  tie-sensitive MIN/MAX/MEDIAN, unregistered aggregates);
* **JOIN** -- every genometric condition (DLE/DGE/MD(k)/UP/DOWN) runs on
  the vectorised pair kernel (:func:`repro.store.join_pairs`):
  ``searchsorted`` candidate windows, strand-aware stream masks, and a
  per-anchor nearest-k selection, with zone-map pruning of anchor
  chromosomes the experiment provably cannot reach; output coordinates
  and strands are computed as arrays and put in genome order by one
  stable lexsort (:func:`repro.store.genome_order`);
* **COVER/FLAT/SUMMIT/HISTOGRAM** -- the whole accumulation family is
  served from one event-sweep kernel
  (:mod:`repro.store.cover_kernels`): per chromosome, the persisted
  ``sorted_*`` columns become a +1/-1 event array, ``cumsum`` turns it
  into the step-function coverage profile, and each variant extracts
  its rows with array arithmetic (run extraction, ``reduceat`` maxima,
  shifted-comparison summits, prefix/suffix scans for FLAT extents);
* **DIFFERENCE** -- the right side's profile is swept once per
  chromosome into merged coverage runs; references are tested with
  ``searchsorted`` interval probes (crossing counts for zero-length
  references, strict-interior counts for zero-length probes), pruning
  zone-disjoint partitions;
* **SELECT** -- region predicates over fixed coordinates and numeric
  variable attributes evaluate as boolean array expressions over the
  operand's memoised value columns (:func:`repro.store.region_column`,
  the same columns MAP aggregates read), and conjunctive coordinate
  bounds prune whole chromosomes via the zone map; the kept rows are
  taken from the operand's column view (``ColumnRows.take``).

Operands are read through their samples' column views
(:meth:`~repro.gdm.sample.Sample.columns`) only, so one holding ragged
rows runs on the naive kernels (:func:`has_ragged_rows`).  Array
building lives in :mod:`repro.store` only.  Each operator plans in the
calling process -- sample pairing, zone-map pruning, output
schema -- and hands every (unit, chromosome) piece of pure array work to
:meth:`ColumnarBackend.submit_kernel`; whichever executor ran the
pieces, every output sample is *born as columns*
(:class:`~repro.gdm.sample.ColumnRows`), and region objects are built
only if something asks for ``sample.regions``.
This backend runs the pieces inline;
:class:`~repro.engine.parallel.ParallelBackend` overrides that one
method to run them on a process pool.  Metadata-centric operators fall
back to the naive kernels: backends differ only where vectorisation
pays, which is itself a faithful reproduction of how the Spark/Flink
encodings share their front end.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from repro.gdm import Dataset
from repro.gdm.sample import ColumnRows, listed, take_column
from repro.engine.naive import NaiveBackend
from repro.gmql.aggregates import Avg, Bag, Count, Max, Median, Min, Std, Sum
from repro.gmql.genometric import Downstream, Upstream
from repro.gmql.operators.base import (
    build_result,
    group_samples,
    merged_metadata,
    sample_pairs,
    union_group_metadata,
)
from repro.gmql.predicates import (
    RegionAnd,
    RegionCompare,
    RegionNot,
    RegionOr,
)
from repro.store.columnar import (
    chromosome_ranks,
    count_morsels,
    genome_order,
    live_block_pairs,
    overlap_counts,
    region_column,
)
from repro.store.cover_kernels import (
    chrom_cover_rows,
    group_cover_parts,
    mask_chrom_events,
    overlap_any_mask,
)
from repro.store.exact_sum import segment_fsum
from repro.store.join_kernels import (
    group_offsets,
    join_pairs,
    overlap_pairs,
    segment_counts,
    segment_median_positions,
    segment_reduce,
)

#: Integer magnitudes above which vectorised int64 reductions could
#: overflow or lose exactness; columns exceeding it take the Python path.
_SAFE_INT_MAGNITUDE = 2**52


def _conjuncts(predicate) -> list:
    """Flatten a predicate's top-level AND tree into its conjuncts."""
    if isinstance(predicate, RegionAnd):
        return _conjuncts(predicate.left) + _conjuncts(predicate.right)
    return [predicate]


def _chrom_provably_empty(conjuncts: list, entry) -> bool:
    """True when a zone entry proves no region there can satisfy SELECT.

    Only simple comparisons on the fixed coordinates participate; every
    other conjunct is ignored (pruning stays conservative).  *entry* is
    a :class:`repro.store.columnar.ZoneEntry`.
    """
    for node in conjuncts:
        if not isinstance(node, RegionCompare):
            continue
        attribute, op = node.attribute, node.operator
        if attribute in ("chrom", "chr"):
            target = str(node.value)
            if op == "==" and target != entry.chrom:
                return True
            if op == "!=" and target == entry.chrom:
                return True
            continue
        if attribute in ("left", "start", "right", "stop"):
            try:
                value = float(node.value)
            except (TypeError, ValueError):
                continue
            if attribute in ("left", "start"):
                low, high = entry.min_start, entry.max_start
            else:
                low, high = entry.min_stop, entry.max_stop
            if op == "<" and low >= value:
                return True
            if op == "<=" and low > value:
                return True
            if op == ">" and high <= value:
                return True
            if op == ">=" and high < value:
                return True
    return False


def has_ragged_rows(*datasets) -> bool:
    """Whether some sample of *datasets* has no column view (value tuples
    of unequal width, possible only with validation off): the one check
    that sends a columnar operator to the naive kernels."""
    return any(
        sample.columns() is None for dataset in datasets for sample in dataset
    )


def _vectorise_predicate(predicate, schema, rows):
    """Evaluate a region predicate as a boolean numpy array, or ``None``.

    Handles conjunction/disjunction/negation over comparisons on fixed
    coordinates and numeric variable attributes; anything else returns
    ``None`` and the caller falls back to per-region evaluation.
    Attribute columns come from :func:`repro.store.region_column`, so a
    predicate over resident rows reuses the arrays every earlier
    predicate or MAP aggregate built from them.
    """
    if not len(rows):
        return np.zeros(0, dtype=bool)

    def column(name: str):
        if name in ("left", "start"):
            return region_column(rows, "left").exact("INT")
        if name in ("right", "stop"):
            return region_column(rows, "right").exact("INT")
        if name in ("chrom", "chr", "strand"):
            field = "strand" if name == "strand" else "chrom"
            return region_column(rows, field).strings()
        if name not in schema:
            return None
        values = region_column(rows, schema.index_of(name))
        if schema[name].type.name in ("INT", "FLOAT"):
            return values.floats()
        return values.strings()

    def walk(node):
        if isinstance(node, RegionAnd):
            left, right = walk(node.left), walk(node.right)
            return None if left is None or right is None else left & right
        if isinstance(node, RegionOr):
            left, right = walk(node.left), walk(node.right)
            return None if left is None or right is None else left | right
        if isinstance(node, RegionNot):
            inner = walk(node.inner)
            return None if inner is None else ~inner
        if isinstance(node, RegionCompare):
            values = column(node.attribute)
            if values is None:
                return None
            target = node.value
            if np.issubdtype(values.dtype, np.number):
                try:
                    target = float(target)
                except (TypeError, ValueError):
                    return None
            else:
                target = str(target)
            if node.operator == "==":
                return values == target
            if node.operator == "!=":
                return values != target
            if node.operator == "<":
                return values < target
            if node.operator == "<=":
                return values <= target
            if node.operator == ">":
                return values > target
            if node.operator == ">=":
                return values >= target
            return None
        return None

    return walk(predicate)


# -- MAP aggregation over overlap pairs ---------------------------------------


def resolve_map_aggregates(aggregates, reference: Dataset,
                           experiment: Dataset) -> tuple:
    """Resolve MAP aggregate specs exactly like the naive operator.

    Returns ``(schema, resolved)`` with ``resolved`` a list of
    ``(aggregate, attr_index, input_type_name)`` -- *attr_index* is the
    experiment-schema column position (``None`` for COUNT) and the type
    name drives the exactness classification of the vector reductions.
    Raises the same :class:`EvaluationError`\\ s as the naive path for
    malformed specs.
    """
    from repro.errors import EvaluationError
    from repro.gdm import AttributeDef, INT
    from repro.gmql.aggregates import Aggregate

    resolved = []
    new_defs = []
    for out_name, (aggregate, attribute) in aggregates.items():
        if not isinstance(aggregate, Aggregate):
            raise EvaluationError(f"MAP: {out_name!r} needs an Aggregate")
        if aggregate.requires_attribute:
            if attribute is None:
                raise EvaluationError(
                    f"MAP: aggregate {aggregate.name} needs an experiment attribute"
                )
            index = experiment.schema.index_of(attribute)
            input_type = experiment.schema[attribute].type
        else:
            index, input_type = None, None
        resolved.append(
            (aggregate, index, input_type.name if input_type else None)
        )
        new_defs.append(
            AttributeDef(
                out_name,
                aggregate.result_type(input_type) if input_type else INT,
            )
        )
    return reference.schema.extend(*new_defs), resolved


def _emptied(values: list, counts: np.ndarray, empty) -> list:
    """Per-group *values* with *empty* at every group of count 0."""
    for i in np.flatnonzero(counts == 0).tolist():
        values[i] = empty
    return values


def aggregate_segments(
    aggregate, type_name, column, e_rows: np.ndarray,
    ref_rows: np.ndarray, offsets: np.ndarray,
) -> list:
    """Per-reference aggregate values over grouped overlap pairs.

    *e_rows* are experiment sample positions aligned with the pairs,
    already in canonical ``(left, right, position)`` hit order within
    each reference; *offsets* is the CSR grouping from
    :func:`repro.store.group_offsets`; *column* is the experiment's
    :class:`~repro.store.ValueColumn` of the aggregated attribute
    (``None`` for COUNT).  Dispatches to bit-exact vector reductions
    where the classification allows, otherwise reduces each group with
    ``aggregate.compute`` over the canonically ordered Python values --
    byte-identical to the naive operator either way.
    """
    counts = segment_counts(offsets)
    n = int(counts.size)
    empty = aggregate.compute([])
    if isinstance(aggregate, Count) and column is None:
        return [int(c) for c in counts.tolist()]

    array = column.exact(type_name) if column is not None else None
    if array is not None:
        gathered = array[e_rows]
        is_float = array.dtype.kind == "f"
        clean = True
        if is_float and gathered.size:
            # NaN poisons order-dependence; a -0.0/0.0 mix makes min/max
            # tie-resolution representation-dependent.  Both are rare --
            # take the Python path and stay byte-exact.
            clean = not bool(
                np.isnan(gathered).any()
                or ((gathered == 0) & np.signbit(gathered)).any()
            )
        safe_int = not is_float and (
            gathered.size == 0
            or int(np.abs(gathered).max()) < _SAFE_INT_MAGNITUDE
        )
        if isinstance(aggregate, (Min, Max)) and clean:
            how = "min" if isinstance(aggregate, Min) else "max"
            reduced = segment_reduce(gathered, offsets, how)
            return _emptied(reduced.tolist(), counts, empty)
        if isinstance(aggregate, (Sum, Avg)) and safe_int:
            sums = segment_reduce(gathered, offsets, "sum")
            if isinstance(aggregate, Sum):
                return _emptied(sums.tolist(), counts, empty)
            # Not one numpy division: ``int / int`` rounds the exact
            # quotient, which float division does not once a sum passes
            # 2**53.
            return [
                int(sums[i]) / int(counts[i]) if counts[i] else empty
                for i in range(n)
            ]
        if (
            isinstance(aggregate, (Sum, Avg, Std))
            and is_float
            # segment_fsum is bit-identical to the naive ``math.fsum``
            # only when the naive side sees floats too: a
            # FLOAT column carrying stray ints makes it return ``int``.
            and column.all_float()
        ):
            # segment_fsum == per-group math.fsum bit-for-bit (it raises
            # in parity too), which is the definition of the naive float
            # SUM/AVG/STD -- exactness without caring about pair order.
            sums = segment_fsum(gathered, offsets)
            if isinstance(aggregate, Sum):
                return _emptied(sums.tolist(), counts, empty)
            if isinstance(aggregate, Avg):
                # float64 / float64(count) is ``float(s) / int(c)``: a
                # count is exact as a float.
                means = np.divide(sums, counts, out=np.zeros_like(sums),
                                  where=counts > 0)
                return _emptied(means.tolist(), counts, empty)
            means = sums / np.maximum(counts, 1)
            deviations = gathered - np.repeat(means, counts)
            with np.errstate(over="ignore", invalid="ignore"):
                # Square overflow -> inf and nan arithmetic match Python
                # float semantics, which fsum then sums as the naive
                # side does.
                squares = segment_fsum(deviations * deviations, offsets)
            out = []
            for i in range(n):
                count = int(counts[i])
                if not count:
                    out.append(empty)
                elif count == 1:
                    out.append(0.0)
                else:
                    out.append(math.sqrt(float(squares[i]) / count))
            return out
        if isinstance(aggregate, Median) and clean and (is_float or safe_int):
            ordered, lo, hi = segment_median_positions(
                gathered, ref_rows, offsets
            )
            out = []
            for i in range(n):
                count = int(counts[i])
                if not count:
                    out.append(empty)
                elif count % 2:
                    out.append(float(ordered[lo[i]]))
                elif is_float:
                    out.append((float(ordered[lo[i]]) + float(ordered[hi[i]])) / 2)
                else:
                    out.append((int(ordered[lo[i]]) + int(ordered[hi[i]])) / 2)
            return out

    if (
        isinstance(aggregate, Bag)
        and column is not None
        # BAG filters missing values before stringifying: the Python
        # path does that.  numpy ``<U`` comparison orders by code point
        # exactly like ``str``, so a lexsort reproduces the naive
        # ``sorted(set(...))``.
        and not column.has_missing()
    ):
        gathered_strings = column.strings()[e_rows]
        order = np.lexsort((gathered_strings, ref_rows))
        groups_ordered = ref_rows[order]
        values_ordered = gathered_strings[order]
        keep = np.ones(order.size, dtype=bool)
        if order.size:
            keep[1:] = (values_ordered[1:] != values_ordered[:-1]) | (
                groups_ordered[1:] != groups_ordered[:-1]
            )
        kept_groups = groups_ordered[keep]
        kept_values = values_ordered[keep].tolist()
        group_ids = np.arange(n, dtype=np.int64)
        lo = np.searchsorted(kept_groups, group_ids, side="left")
        hi = np.searchsorted(kept_groups, group_ids, side="right")
        return [
            " ".join(kept_values[lo[i]:hi[i]]) if counts[i] else empty
            for i in range(n)
        ]

    # Canonical-order Python reduction: exact for None-bearing columns,
    # huge-int SUM/AVG, -0.0/NaN tie-sensitive MIN/MAX/MEDIAN, and any
    # unregistered aggregate.
    gathered_raw = (
        [column.values[i] for i in e_rows.tolist()]
        if column is not None else None
    )
    bounds = offsets.tolist()
    out = []
    for i in range(n):
        if not counts[i]:
            out.append(empty)
        else:
            out.append(aggregate.compute(gathered_raw[bounds[i]:bounds[i + 1]]))
    return out


def pair_group_columns(
    ref_block, exp_block, ref_rows: np.ndarray, e_pos: np.ndarray,
    columns: dict, resolved: list,
) -> list:
    """One aggregate-value list per resolved aggregate for a chrom block.

    *ref_rows*/*e_pos* come from :func:`repro.store.overlap_pairs` over
    the block pair; experiment positions are mapped back to sample
    order before gathering values.
    """
    offsets = group_offsets(ref_rows, len(ref_block))
    e_rows = exp_block.index[exp_block.left_order[e_pos]]
    return [
        aggregate_segments(
            aggregate, type_name, columns.get(attr_index),
            e_rows, ref_rows, offsets,
        )
        for aggregate, attr_index, type_name in resolved
    ]


#: Strand symbol of each :data:`repro.store.STRAND_CODES` code (``-1``
#: indexes from the end).
_STRAND_SYMBOLS = np.array(["*", "+", "-"], dtype=object)
_NO_ROWS = np.zeros(0, dtype=np.int64)


def cover_source(pieces: list) -> ColumnRows:
    """A COVER-family sample's rows from its per-chromosome
    ``(chrom, lefts, rights, depths)`` sweep results, in genome order:
    unstranded, the depth as the one value."""
    pieces = [piece for piece in pieces if piece[1].size]
    lefts, rights, depths = (
        np.concatenate([piece[column] for piece in pieces] or [_NO_ROWS])
        for column in (1, 2, 3)
    )
    return ColumnRows(
        [(piece[0], piece[1].size) for piece in pieces],
        lefts, rights, ["*"] * lefts.size, [depths],
    )


def map_source(reference: ColumnRows, columns: list) -> ColumnRows:
    """A MAP sample's rows: the reference's column view, shared, with
    one value column per aggregate appended."""
    return ColumnRows(
        reference.runs, reference.lefts, reference.rights,
        reference.strands, [*reference.values, *columns],
    )


def _runs(names: list, ids: np.ndarray) -> list:
    """``[(name, count), ...]`` of the consecutive equal *ids*."""
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    bounds = [0, *starts.tolist(), ids.size]
    return [
        (names[ids[start]], stop - start)
        for start, stop in zip(bounds, bounds[1:])
    ]


def join_ends(output: str, anchor: tuple, experiment: tuple) -> tuple:
    """``(lefts, rights)`` of JOIN output rows under one output option.

    The naive operator's LEFT/RIGHT/INT/CAT options over the paired
    rows' ``(lefts, rights)`` columns.  For INT the caller drops rows
    with ``rights <= lefts``.
    """
    (a_lefts, a_rights), (e_lefts, e_rights) = anchor, experiment
    if output == "LEFT":
        return a_lefts, a_rights
    if output == "RIGHT":
        return e_lefts, e_rights
    if output == "INT":
        return np.maximum(a_lefts, e_lefts), np.minimum(a_rights, e_rights)
    return np.minimum(a_lefts, e_lefts), np.maximum(a_rights, e_rights)


def join_strands(output: str, a_strands, e_strands):
    """Strand codes of JOIN output rows.

    LEFT/RIGHT keep their side's; INT/CAT combine like the naive
    ``_combine_strand`` -- equal strands stay, an unstranded side yields
    the other, opposite strands become unstranded -- which over codes in
    ``{-1, 0, 1}`` is the sign of their sum.
    """
    if output == "LEFT":
        return a_strands
    if output == "RIGHT":
        return e_strands
    return np.sign(a_strands + e_strands)


def join_rows(
    merged, output: str, tasks, anchor: ColumnRows, experiment: ColumnRows
) -> ColumnRows | list:
    """One sample pair's JOIN output, as columns in genome order.

    *tasks* are the pair's ``(a_block, e_block, handle)`` pieces, each
    handle yielding :func:`repro.store.join_pairs` triples.  Output
    coordinates and strands are computed as arrays from the block
    columns and ordered by the stable :func:`repro.store.genome_order`,
    which reproduces the naive operator's genome-order sort tie for
    tie: the naive operator enumerates anchor by anchor, each anchor's
    candidates in kernel order, so rows with equal keys are ranked by
    anchor position and then by piece order.  The value columns of the
    column views *anchor* and *experiment* are gathered by row and laid
    out by :meth:`~repro.gdm.schema.MergedSchema.combine_columns`, with the
    distance last; the sample is born from these columns
    (:class:`~repro.gdm.sample.ColumnRows`), no region is built here.
    """
    chroms, counts, parts = [], [], []
    for a_block, e_block, task in tasks:
        a_rows, e_pos, gaps = task.result()
        e_rows = e_block.left_order[e_pos]
        lefts, rights = join_ends(
            output,
            (a_block.starts[a_rows], a_block.stops[a_rows]),
            (e_block.starts[e_rows], e_block.stops[e_rows]),
        )
        strands = join_strands(
            output, a_block.strands[a_rows], e_block.strands[e_rows]
        )
        a_index, e_index = a_block.index[a_rows], e_block.index[e_rows]
        if output == "INT":
            keep = rights > lefts
            lefts, rights, strands = lefts[keep], rights[keep], strands[keep]
            a_index, e_index, gaps = a_index[keep], e_index[keep], gaps[keep]
        if lefts.size:
            chroms.append(a_block.chrom)
            counts.append(lefts.size)
            parts.append((lefts, rights, strands, a_index, e_index, gaps))
    if not parts:
        return []
    lefts, rights, strands, a_index, e_index, gaps = (
        np.concatenate(column) for column in zip(*parts)
    )
    chrom_ids = np.repeat(np.arange(len(chroms)), counts)
    # Anchor position only reorders ties across chromosomes whose sort
    # keys tie (``chr1``/``chr01``): within a piece it never decreases.
    order = genome_order(
        chromosome_ranks(chroms)[chrom_ids], lefts, rights, strands,
        ties=a_index,
    )
    a_index, e_index = a_index[order], e_index[order]
    values = merged.combine_columns(
        [listed(take_column(column, a_index)) for column in anchor.values],
        [listed(take_column(column, e_index))
         for column in experiment.values],
    )
    return ColumnRows(
        _runs(chroms, chrom_ids[order]), lefts[order], rights[order],
        _STRAND_SYMBOLS[strands[order]], [*values, gaps[order]],
    )


# -- array kernels: the unit of work an executor runs -------------------------
#
# Operators below plan in the calling process and hand each (unit,
# chromosome) piece of array work to :meth:`ColumnarBackend.submit_kernel`
# as ``fn(*arrays, **scalars)``.  *fn* is a module-level function of numpy
# arrays returning freshly allocated arrays -- never views of its inputs,
# which in a pool worker are shared-memory views released on return:
# :func:`repro.store.overlap_counts`, :func:`repro.store.overlap_pairs`,
# :func:`repro.store.join_pairs`, :func:`repro.store.overlap_any_mask`
# and :func:`cover_rows`.


def cover_rows(*columns, lo: int, hi: int, variant: str) -> tuple:
    """:func:`repro.store.chrom_cover_rows` over a flat column list.

    *columns* is each contributing block's
    :func:`repro.store.block_cover_columns` laid end to end (3 per
    block, 4 for FLAT), the shape an array shipper can carry.
    """
    per = 4 if variant == "FLAT" else 3
    parts = [columns[i:i + per] for i in range(0, len(columns), per)]
    return chrom_cover_rows(parts, lo, hi, variant)


class DeferredKernel:
    """A kernel call that runs when its result is asked for.

    The inline executor's stand-in for a pool future: nothing is
    computed or held until the operator's emit loop reaches the piece.
    """

    __slots__ = ("fn", "arrays", "scalars")

    def __init__(self, fn, arrays, scalars: dict) -> None:
        self.fn = fn
        self.arrays = arrays
        self.scalars = scalars

    def result(self):
        return self.fn(*self.arrays, **self.scalars)


class ColumnarBackend(NaiveBackend):
    """Numpy-vectorised backend (falls back to naive where noted above)."""

    name = "columnar"

    def submit_kernel(self, fn, arrays, **scalars):
        """Schedule ``fn(*arrays, **scalars)``; returns a ``.result()`` handle.

        The one decision executors differ in: here the call is deferred
        and runs inline when the result is read;
        :class:`~repro.engine.parallel.ParallelBackend` ships the arrays
        to a worker process instead.
        """
        return DeferredKernel(fn, arrays, scalars)

    # -- SELECT ----------------------------------------------------------------

    def run_select(self, plan, child: Dataset, semijoin_data):
        predicate = plan.region_predicate
        if predicate is not None and has_ragged_rows(child):
            return super().run_select(plan, child, semijoin_data)

        def kernel():
            from repro.gmql.operators.select import SemiJoin

            semijoin = None
            if semijoin_data is not None:
                semijoin = SemiJoin(
                    plan.semijoin_attributes, semijoin_data, plan.semijoin_negated
                )
            store = None if predicate is None else self.dataset_store(child)

            def parts():
                for sample in child:
                    if plan.meta_predicate is not None and not plan.meta_predicate(
                        sample.meta
                    ):
                        continue
                    if semijoin is not None and not semijoin.admits(sample):
                        continue
                    rows = sample.held_rows()
                    if predicate is not None:
                        rows = sample.columns().take(self._region_mask(
                            predicate, child.schema, store, sample
                        ))
                    yield (rows, sample.meta, [(child.name, sample.id)])

            # A metadata-only SELECT passes rows through as the naive
            # operator does, and is described as that operator does.
            described = [
                name for name, part in (("meta", plan.meta_predicate),
                                        ("semijoin", semijoin))
                if part is not None
            ]
            return build_result(
                "SELECT", f"SELECT({child.name})", child.schema, parts(),
                parameters="columnar" if predicate is not None
                else "+".join(described) or "all",
            )

        return self.checked("SELECT", kernel)

    def _region_mask(self, predicate, schema, store, sample) -> np.ndarray:
        """The rows of *sample* a region *predicate* keeps, as a mask;
        chromosomes the zone map proves empty are never evaluated."""
        rows = sample.held_rows()
        blocks = store.blocks(sample)
        live = None
        if len(rows):
            conjuncts = _conjuncts(predicate)
            dead_positions = []
            pruned = 0
            for chrom, entry in blocks.zone_map.entries.items():
                if _chrom_provably_empty(conjuncts, entry):
                    pruned += entry.partitions
                    dead_positions.append(blocks.chroms[chrom].index)
            if dead_positions:
                self.note_pruned(pruned)
                live = np.ones(blocks.n_regions, dtype=bool)
                live[np.concatenate(dead_positions)] = False
                if not live.any():
                    return live
        mask = _vectorise_predicate(predicate, schema, rows)
        if mask is None:
            bound = predicate.bind(schema)
            keeps = repeat(True) if live is None else live.tolist()
            return np.array([
                bool(keep and bound(region))
                for region, keep in zip(sample.regions, keeps)
            ], dtype=bool)
        return mask if live is None else mask & live

    # -- MAP ---------------------------------------------------------------------

    def run_map(self, plan, reference: Dataset, experiment: Dataset):
        aggregates = plan.aggregates or {"count": (Count(), None)}
        only_counts = all(
            isinstance(aggregate, Count) and attribute is None
            for aggregate, attribute in aggregates.values()
        )
        if has_ragged_rows(reference, experiment) or not only_counts and any(
            attribute is None and not isinstance(aggregate, Count)
            for aggregate, attribute in aggregates.values()
        ):
            # Attribute-free non-COUNT aggregates reduce over region
            # objects; only the naive kernel knows how.
            return super().run_map(plan, reference, experiment)
        if only_counts:
            return self._run_map_counts(plan, reference, experiment, aggregates)
        return self._run_map_pairs(plan, reference, experiment, aggregates)

    def _pair_stores(self, left: Dataset, right: Dataset) -> tuple:
        """Both operands' stores under this run's bin size."""
        bin_size = self.store_bin_size()
        return (
            self.dataset_store(left, bin_size),
            self.dataset_store(right, bin_size),
        )

    def _run_map_counts(self, plan, reference, experiment, aggregates):
        def kernel():
            from repro.gdm import AttributeDef, INT

            self.note_kernel("map.count")
            schema = reference.schema.extend(
                *(AttributeDef(name, INT) for name in aggregates)
            )
            ref_store, exp_store = self._pair_stores(reference, experiment)
            pairs = list(sample_pairs(reference, experiment, plan.joinby))
            planned = []  # per pair: [(reference rows, handle), ...]
            for ref_sample, exp_sample in pairs:
                morsels, pruned = count_morsels(
                    ref_store.blocks(ref_sample), exp_store.blocks(exp_sample)
                )
                self.note_pruned(pruned)
                planned.append([
                    (index, self.submit_kernel(overlap_counts, arrays))
                    for index, arrays in morsels
                ])
            width = len(aggregates)

            def parts():
                for (ref_sample, exp_sample), tasks in zip(pairs, planned):
                    counts = np.zeros(len(ref_sample), dtype=np.int64)
                    for index, task in tasks:
                        counts[index] = task.result()
                    yield (
                        map_source(
                            ref_sample.columns(), [counts.tolist()] * width
                        ),
                        merged_metadata(ref_sample, exp_sample),
                        [
                            (reference.name, ref_sample.id),
                            (experiment.name, exp_sample.id),
                        ],
                    )

            return build_result(
                "MAP",
                f"MAP({reference.name},{experiment.name})",
                schema,
                parts(),
                parameters="columnar-count",
            )

        return self.checked("MAP", kernel)

    def _run_map_pairs(self, plan, reference, experiment, aggregates):
        def kernel():
            self.note_kernel("map.pairs")
            schema, resolved = resolve_map_aggregates(
                aggregates, reference, experiment
            )
            ref_store, exp_store = self._pair_stores(reference, experiment)
            pairs = list(sample_pairs(reference, experiment, plan.joinby))
            planned = []  # per pair: [(ref_block, exp_block, handle), ...]
            for ref_sample, exp_sample in pairs:
                block_pairs, pruned = live_block_pairs(
                    ref_store.blocks(ref_sample), exp_store.blocks(exp_sample)
                )
                self.note_pruned(pruned)
                planned.append([
                    (
                        block,
                        exp_block,
                        self.submit_kernel(overlap_pairs, (
                            block.starts, block.stops,
                            exp_block.sorted_starts, exp_block.left_stops,
                        )),
                    )
                    for block, exp_block in block_pairs
                ])
            empties = [aggregate.compute([]) for aggregate, __, ___ in resolved]

            def parts():
                for (ref_sample, exp_sample), tasks in zip(pairs, planned):
                    columns = {
                        attr_index: region_column(
                            exp_sample.held_rows(), attr_index
                        )
                        for __, attr_index, ___ in resolved
                        if attr_index is not None
                    }
                    values = [[empty] * len(ref_sample) for empty in empties]
                    for block, exp_block, task in tasks:
                        ref_rows, e_pos = task.result()
                        columns_out = pair_group_columns(
                            block, exp_block, ref_rows, e_pos,
                            columns, resolved,
                        )
                        positions = block.index.tolist()
                        for full, part in zip(values, columns_out):
                            for position, value in zip(positions, part):
                                full[position] = value
                    yield (
                        map_source(ref_sample.columns(), values),
                        merged_metadata(ref_sample, exp_sample),
                        [
                            (reference.name, ref_sample.id),
                            (experiment.name, exp_sample.id),
                        ],
                    )

            return build_result(
                "MAP",
                f"MAP({reference.name},{experiment.name})",
                schema,
                parts(),
                parameters="columnar-pairs",
            )

        return self.checked("MAP", kernel)

    # -- COVER --------------------------------------------------------------------

    def run_cover(self, plan, child: Dataset):
        if has_ragged_rows(child):
            return super().run_cover(plan, child)

        def kernel():
            from repro.gdm import AttributeDef, INT, RegionSchema

            self.note_kernel("cover.sweep")
            schema = RegionSchema((AttributeDef("acc_index", INT),))
            store = self.dataset_store(child)
            groups = group_samples(child, plan.groupby)
            planned = []  # per group: genome-ordered [(chrom, handle), ...]
            for __, samples in groups:
                lo = plan.min_acc.resolve(len(samples), is_lower=True)
                hi = plan.max_acc.resolve(len(samples), is_lower=False)
                # No COVER variant merges runs across chromosomes, so
                # each chromosome's sweep is an independent piece.
                planned.append([
                    (
                        chrom,
                        self.submit_kernel(
                            cover_rows,
                            [column for part in chrom_parts for column in part],
                            lo=lo, hi=hi, variant=plan.variant,
                        ),
                    )
                    for chrom, chrom_parts in group_cover_parts(
                        [store.blocks(sample) for sample in samples],
                        plan.variant,
                    )
                ])

            def parts():
                for (__, samples), tasks in zip(groups, planned):
                    yield (
                        cover_source([
                            (chrom, *task.result()) for chrom, task in tasks
                        ]),
                        union_group_metadata(samples),
                        [(child.name, sample.id) for sample in samples],
                    )

            return build_result(
                plan.variant,
                f"{plan.variant}({child.name})",
                schema,
                parts(),
                parameters="columnar",
            )

        return self.checked("COVER", kernel)

    # -- JOIN -------------------------------------------------------------------------

    def run_join(self, plan, anchor: Dataset, experiment: Dataset):
        if has_ragged_rows(anchor, experiment):
            return super().run_join(plan, anchor, experiment)

        def kernel():
            from repro.gdm import AttributeDef, INT

            condition = plan.condition
            md_k = condition.min_distance_k()
            max_distance = condition.max_distance()
            clauses = {
                "max_distance": max_distance,
                "min_distance": condition.min_distance(),
                "md_k": md_k,
                "upstream": any(
                    isinstance(c, Upstream) for c in condition.clauses
                ),
                "downstream": any(
                    isinstance(c, Downstream) for c in condition.clauses
                ),
            }
            self.note_kernel(
                "join.nearest" if md_k is not None else "join.window"
            )

            merged = anchor.schema.merge(experiment.schema)
            schema = merged.schema.extend(AttributeDef("dist", INT))
            anchor_store, exp_store = self._pair_stores(anchor, experiment)
            # Anchor chromosomes the experiment provably cannot reach are
            # pruned: the DLE window is widened by one because DLE
            # accepts gap == limit while zone windows are strict (sound
            # under MD(k) too, which only ever shrinks the candidates).
            margin = None if max_distance is None else max_distance + 1
            pairs = list(sample_pairs(anchor, experiment, plan.joinby))
            planned = []  # per pair: [(a_block, e_block, handle), ...]
            for anchor_sample, exp_sample in pairs:
                block_pairs, pruned = live_block_pairs(
                    anchor_store.blocks(anchor_sample),
                    exp_store.blocks(exp_sample),
                    margin,
                )
                self.note_pruned(pruned)
                tasks = []
                for a_block, e_block in block_pairs:
                    arrays = [
                        a_block.starts, a_block.stops, a_block.strands,
                        e_block.sorted_starts, e_block.left_stops,
                    ]
                    if md_k is not None:
                        arrays.append(e_block.sorted_stops)
                    tasks.append((
                        a_block,
                        e_block,
                        self.submit_kernel(join_pairs, arrays, **clauses),
                    ))
                planned.append(tasks)

            def parts():
                for (anchor_sample, exp_sample), tasks in zip(pairs, planned):
                    yield (
                        join_rows(
                            merged, plan.output, tasks,
                            anchor_sample.columns(), exp_sample.columns(),
                        ),
                        merged_metadata(anchor_sample, exp_sample),
                        [
                            (anchor.name, anchor_sample.id),
                            (experiment.name, exp_sample.id),
                        ],
                    )

            return build_result(
                "JOIN",
                f"JOIN({anchor.name},{experiment.name})",
                schema,
                parts(),
                parameters="columnar-kernel",
            )

        return self.checked("JOIN", kernel)

    # -- DIFFERENCE ------------------------------------------------------------------

    def run_difference(self, plan, left: Dataset, right: Dataset):
        if plan.exact or plan.joinby or has_ragged_rows(left, right):
            return super().run_difference(plan, left, right)

        def kernel():
            self.note_kernel("difference.sweep")
            left_store, right_store = self._pair_stores(left, right)
            mask_blocks = right_store.union_blocks()
            # The probe side's sweep (merged coverage runs + raw wide
            # events) is a per-chromosome constant, shared by every
            # left-side sample's pieces.
            mask_events: dict = {}

            def chrom_events(mask_block) -> tuple:
                events = mask_events.get(mask_block.chrom)
                if events is None:
                    events = mask_chrom_events(mask_block)
                    mask_events[mask_block.chrom] = events
                return events

            samples = list(left)
            planned = []  # per sample: [(block, handle), ...]
            for sample in samples:
                block_pairs, pruned = live_block_pairs(
                    left_store.blocks(sample), mask_blocks
                )
                self.note_pruned(pruned)
                planned.append([
                    (
                        block,
                        self.submit_kernel(overlap_any_mask, (
                            block.starts, block.stops,
                            *chrom_events(mask_block),
                        )),
                    )
                    for block, mask_block in block_pairs
                ])

            def parts():
                for sample, tasks in zip(samples, planned):
                    overlapped = np.zeros(len(sample), dtype=bool)
                    for block, task in tasks:
                        overlapped[block.index] = task.result()
                    yield (sample.columns().take(~overlapped), sample.meta,
                           [(left.name, sample.id)])

            return build_result(
                "DIFFERENCE",
                f"DIFFERENCE({left.name},{right.name})",
                left.schema,
                parts(),
                parameters="columnar",
            )

        return self.checked("DIFFERENCE", kernel)
