"""Plan-effect analysis: static shardability, exactness and cache-safety.

The paper's section 4 cloud implementation rests on knowing -- before
execution -- which operators distribute safely.  This module derives
that knowledge from the plans themselves instead of hand-maintained
allowlists: a bottom-up dataflow pass annotates every plan node with an
:class:`Effects` record, and the consumers (federation planner, sharded
backend, auto router, result cache) gate on the inferred facts.

The effect lattice per node:

* **chromosome locality** (``chrom_local``): does any operator in the
  node's subtree match or aggregate *across* chromosomes?  A
  per-chromosome COVER is local; EXTEND/MERGE/ORDER/GROUP reduce whole
  samples, so one anywhere in the subtree makes the output global --
  its per-shard partials cannot be interleaved into the single-node
  answer.  ``locality_breaker`` names the first breaking operator.
* **aggregate exactness** (``exactness``): the weakest merge class of
  any aggregate in the subtree -- ``reorderable`` < ``exact-int`` <
  ``ordered`` -- derived from the aggregate registry's own
  :meth:`~repro.gmql.aggregates.Aggregate.merge_class` declarations
  (custom aggregates default to the conservative ``ordered``).
* **cache safety** (``cache_safe``): is the node's output a pure
  function of its content fingerprint?  PROJECT's computed attributes
  carry compiled lambdas whose fallback fingerprint token embeds a
  memory address, so such nodes (and everything above them) must not
  be stored in the result cache.
* **cardinality/byte bounds** (``bound_regions``/``bound_bytes``):
  sound upper bounds on the node's output, from source summaries and
  per-operator bounding rules (MD(k) JOIN emits at most ``k`` rows per
  anchor; an unbounded JOIN has no finite bound).  ``input_bound`` is
  the children's summed region bound -- what the auto router uses to
  cap bare row-count estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gdm import AttributeType
from repro.gmql.aggregates import EXACT_INT, ORDERED, REORDERABLE

#: Operator kinds whose kernels never look across a chromosome
#: boundary: slicing every operand to one chromosome group changes
#: nothing about the kernel's input, so per-shard outputs are final.
LOCAL_KINDS = frozenset({
    "scan", "empty", "select", "project", "union", "difference",
    "cover", "map", "join",
})

#: Operator kinds that reduce whole samples (across chromosomes):
#: per-shard partials of these cannot be interleaved into the exact
#: single-node answer (an fsum of per-shard fsums is not one fsum).
CROSS_CHROMOSOME_KINDS = frozenset({"extend", "merge", "order", "group"})

#: Kinds whose kernels do per-region matching work worth sharding; the
#: sharded backend leaves the cheap bookkeeping operators alone even
#: when they are chromosome-local.
SHARD_WORTHWHILE_KINDS = frozenset({
    "map", "join", "cover", "difference", "union",
})

_EXACTNESS_RANK = {REORDERABLE: 0, EXACT_INT: 1, ORDERED: 2}


def weakest_exactness(*classes: str) -> str:
    """The weakest (most order-sensitive) of the given merge classes."""
    weakest = REORDERABLE
    for cls in classes:
        if _EXACTNESS_RANK.get(cls, 2) > _EXACTNESS_RANK.get(weakest, 2):
            weakest = cls
    return weakest


@dataclass(frozen=True)
class Effects:
    """Derived effect record of one plan node, over its whole subtree."""

    chrom_local: bool = True
    locality_breaker: str | None = None
    exactness: str = REORDERABLE
    cache_safe: bool = True
    cache_breaker: str | None = None
    bound_regions: int | None = None
    bound_bytes: int | None = None
    #: Summed region bound of the node's children (``None`` =
    #: unbounded/unknown); caps the router's input-size estimates.
    input_bound: int | None = None

    def render(self) -> str:
        """Compact one-line form for EXPLAIN output."""
        parts = [
            "local" if self.chrom_local
            else f"global({self.locality_breaker})",
            self.exactness,
        ]
        parts.append(
            "cacheable" if self.cache_safe
            else f"nocache({self.cache_breaker})"
        )
        if self.bound_regions is not None:
            parts.append(f"bound<={self.bound_regions}")
        return " ".join(parts)


def _plan_aggregates(node) -> list:
    """``(aggregate, attribute)`` pairs a plan node applies, with the
    operand node whose schema types the attribute."""
    kind = node.kind
    if kind == "extend":
        return [(node.child, agg, attr) for agg, attr in
                node.assignments.values()]
    if kind == "map":
        return [(node.experiment, agg, attr) for agg, attr in
                node.aggregates.values()]
    if kind == "group":
        pairs = [(node.child, agg, attr) for agg, attr in
                 node.meta_aggregates.values()]
        pairs += [(node.child, agg, attr) for agg, attr in
                  node.region_aggregates.values()]
        return pairs
    return []


def _attribute_type(operand, attribute):
    """The inferred GDM type of a region attribute, when analysis ran."""
    if attribute is None:
        return None
    inferred = getattr(operand, "inferred", None)
    if inferred is None:
        return None
    found = inferred.region.get(attribute)
    # RegionInfo.get returns a sentinel for provably-missing attributes
    # and None for unknown; either way the type is not usable.
    return found if isinstance(found, AttributeType) else None


def _node_exactness(node) -> str:
    """The weakest merge class among the node's own aggregates."""
    classes = [
        aggregate.merge_class(_attribute_type(operand, attribute))
        for operand, aggregate, attribute in _plan_aggregates(node)
    ]
    return weakest_exactness(*classes)


def _scan_summary(node, summaries: dict | None) -> dict | None:
    if not summaries:
        return None
    summary = summaries.get(node.dataset_name)
    return summary if isinstance(summary, dict) else None


def _node_bounds(node, child_fx: list, summaries: dict | None) -> tuple:
    """``(bound_regions, bound_bytes)`` -- sound output upper bounds."""
    kind = node.kind
    if kind == "scan":
        summary = _scan_summary(node, summaries)
        if summary is None:
            return None, None
        return summary.get("regions"), summary.get("size_bytes")
    if kind == "empty":
        return 0, 0
    regions = [fx.bound_regions for fx in child_fx]
    sizes = [fx.bound_bytes for fx in child_fx]
    first_r = regions[0] if regions else None
    first_b = sizes[0] if sizes else None
    if kind in ("select", "order", "merge"):
        # Filters, reorders and sample merges never add regions.
        return first_r, first_b
    if kind == "project":
        # Computed attributes widen rows; a plain keep-list only narrows.
        return first_r, (None if node.new_region_attributes else first_b)
    if kind in ("extend", "group"):
        # Region count never grows; new aggregate columns break the
        # byte bound.
        return first_r, None
    if kind == "union":
        if any(r is None for r in regions):
            return None, None
        return sum(regions), (
            sum(sizes) if all(b is not None for b in sizes) else None
        )
    if kind == "difference":
        return first_r, first_b
    if kind == "cover":
        if first_r is None:
            return None, None
        # Merged accumulation intervals consume at least one event
        # each; HISTOGRAM splits at every boundary (< 2n segments).
        factor = 2 if getattr(node, "variant", "") == "HISTOGRAM" else 1
        return first_r * factor, None
    if kind == "map":
        # One output region per reference region, new value columns.
        return first_r, None
    if kind == "join":
        anchor_bound = first_r
        experiment_bound = regions[1] if len(regions) > 1 else None
        k = node.condition.min_distance_k()
        if k is not None and anchor_bound is not None:
            return anchor_bound * k, None
        if node.condition.max_distance() is None:
            return None, None  # no distance bound: |A| x |E| worst case
        if anchor_bound is None or experiment_bound is None:
            return None, None
        return anchor_bound * experiment_bound, None
    return None, None


def node_effects(node, child_effects: list | tuple = (),
                 summaries: dict | None = None) -> Effects:
    """The :class:`Effects` of one plan node given its children's.

    With ``child_effects`` omitted the record describes the node in
    isolation -- which is exactly what kernel-time gating needs, since
    by then the inputs are materialised datasets whose provenance no
    longer matters.
    """
    kind = node.kind
    child_fx = list(child_effects)

    breaker = next(
        (fx.locality_breaker for fx in child_fx
         if fx.locality_breaker is not None),
        None,
    )
    if breaker is None and kind in CROSS_CHROMOSOME_KINDS:
        breaker = node.label()

    exactness = weakest_exactness(
        _node_exactness(node), *(fx.exactness for fx in child_fx)
    )

    cache_breaker = next(
        (fx.cache_breaker for fx in child_fx
         if fx.cache_breaker is not None),
        None,
    )
    if cache_breaker is None and kind == "project" and getattr(
        node, "new_region_attributes", None
    ):
        # Computed attributes hold compiled lambdas; their fingerprint
        # token falls back to repr(), which embeds a memory address --
        # the node's output is not a pure function of a stable key.
        cache_breaker = node.label() + " computed attributes"

    bound_regions, bound_bytes = _node_bounds(node, child_fx, summaries)
    input_regions = [fx.bound_regions for fx in child_fx]
    input_bound = (
        sum(input_regions)
        if input_regions and all(r is not None for r in input_regions)
        else None
    )

    return Effects(
        chrom_local=breaker is None,
        locality_breaker=breaker,
        exactness=exactness,
        cache_safe=cache_breaker is None,
        cache_breaker=cache_breaker,
        bound_regions=bound_regions,
        bound_bytes=bound_bytes,
        input_bound=input_bound,
    )


def annotate_effects(program_or_plans, summaries: dict | None = None) -> dict:
    """Annotate every node of a compiled program (or plan iterable)
    bottom-up; returns ``{id(node): Effects}``.

    The walk memoises by node identity, so shared sub-plans of a
    multi-output program (a DAG, not a tree) are visited exactly once.
    Each node also gets the record stored as ``node.effects``.
    """
    outputs = getattr(program_or_plans, "outputs", None)
    plans = list(outputs.values()) if outputs is not None else list(
        program_or_plans
    )
    memo: dict = {}

    def visit(node) -> Effects:
        if id(node) in memo:
            return memo[id(node)]
        child_fx = [visit(child) for child in node.children]
        fx = node_effects(node, child_fx, summaries)
        memo[id(node)] = fx
        node.effects = fx
        return fx

    for plan in plans:
        visit(plan)
    return memo


def subtree_effects(node, summaries: dict | None = None) -> Effects:
    """The node's subtree-level effects, computing them if not yet
    annotated (results are cached on the nodes either way)."""
    existing = getattr(node, "effects", None)
    if existing is not None:
        return existing
    return annotate_effects([node], summaries)[id(node)]
