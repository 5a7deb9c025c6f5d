"""Physical plans: cost-annotated, backend-routed execution plans.

The logical plan (:mod:`repro.gmql.lang.plan`) says *what* to compute;
the physical plan says *how*: every node carries a cardinality estimate
(reusing the federation estimator of
:mod:`repro.federation.estimator`, so local and federated planning share
one cost model) and the kernel backend chosen to execute it.  Under the
``auto`` engine the choice is per node -- a query whose SELECT is tiny
but whose MAP is huge routes each operator to its best kernel; under a
named engine every node is pinned to that backend, preserving the old
one-backend-per-query behaviour.

During execution the interpreter links every node to its span (wall
time, output region/sample counts, the backend that really ran), which
is what ``repro explain --analyze`` renders: the plan tree with
estimated vs actual rows and per-node time/backend.

When source datasets are available at planning time, two store-backed
refinements kick in.  The cost model consults the scans' zone maps:
binary region operators whose operands trace back to scans are costed
on the *live* partitions only (zone-disjoint partitions produce no
pairs), which can route a nominally huge but spatially disjoint MAP to
a cheaper kernel.  And every node gets a *fingerprint* -- a digest of
its operator kind, resolved parameters and its children's fingerprints,
anchored in the scans' content digests -- which keys the
:mod:`repro.store.cache` result cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.engine.auto import choose_backend
from repro.errors import DatasetError
from repro.gmql.lang.effects import node_effects
from repro.gmql.lang.plan import (
    CompiledProgram,
    EmptyPlan,
    JoinPlan,
    PlanNode,
    ScanPlan,
)
from repro.store.cache import plan_token


@dataclass
class PhysicalNode:
    """One plan node annotated with cost estimates and a backend choice."""

    logical: PlanNode
    children: list = field(default_factory=list)
    estimate: object | None = None          # federation Estimate
    input_regions: float = 0.0              # estimated regions entering
    backend: str = "naive"
    reason: str = ""
    #: Content-based cache key (``None`` when sources are unavailable at
    #: planning time, which disables result caching for this node).
    fingerprint: str | None = None
    #: Derived effect record (:class:`repro.gmql.lang.effects.Effects`):
    #: chromosome locality, exactness class, cache safety, bounds.
    effects: object | None = None
    #: The node's :class:`~repro.engine.context.Span` from the last run
    #: (``None`` before execution): the one record of what ran.
    span: object | None = None
    cached: bool = False
    #: The pre-rename dataset this node served from (``cached``) or put
    #: into the result cache during execution; ``None`` when uncached.
    cache_entry: object | None = None

    @property
    def kind(self) -> str:
        return self.logical.kind

    def label(self) -> str:
        return self.logical.label()

    # -- rendering --------------------------------------------------------------

    def _annotation(self, analyze: bool) -> str:
        est_regions = (
            int(self.estimate.regions) if self.estimate is not None else 0
        )
        actual = self.span.attributes if self.span is not None else {}
        parts = [f"backend={actual.get('backend') or self.backend}"]
        if analyze and actual.get("kernel") is not None:
            # The kernel that ran, as the backend recorded it on the span.
            parts.append(f"kernel={actual['kernel']}")
        if analyze and self.span is not None:
            parts.append(f"rows={est_regions}->{actual['output_regions']}")
            parts.append(f"samples={actual['output_samples']}")
            parts.append(f"time={self.span.seconds * 1000:.2f}ms")
            if actual.get("cached"):
                parts.append("cached")
        else:
            parts.append(f"est_rows={est_regions}")
            if self.estimate is not None:
                parts.append(f"est_samples={int(self.estimate.samples)}")
        if self.logical.inferred is not None:
            parts.append(f"schema={self.logical.inferred.region.render()}")
        if self.effects is not None:
            parts.append(f"effects=[{self.effects.render()}]")
        if isinstance(self.logical, EmptyPlan):
            parts.append(f"pruned_by={self.logical.pruned_by}")
        return " ".join(parts)

    def explain(
        self, indent: int = 0, seen: set | None = None, analyze: bool = False
    ) -> str:
        """Indented physical plan tree (shared sub-plans printed once)."""
        seen = seen if seen is not None else set()
        prefix = "  " * indent
        if id(self) in seen:
            return f"{prefix}{self.label()} (shared)"
        seen.add(id(self))
        lines = [f"{prefix}{self.label()}  [{self._annotation(analyze)}]"]
        for child in self.children:
            lines.append(child.explain(indent + 1, seen, analyze))
        return "\n".join(lines)

    def walk(self):
        """Depth-first post-order walk over distinct physical nodes."""
        seen: set = set()

        def visit(node: "PhysicalNode"):
            if id(node) in seen:
                return
            seen.add(id(node))
            for child in node.children:
                yield from visit(child)
            yield node

        yield from visit(self)


class PhysicalProgram:
    """A compiled program lowered to backend-routed physical plans."""

    def __init__(
        self, outputs: dict, engine: str, summaries: dict | None = None
    ) -> None:
        self.outputs = outputs
        self.engine = engine
        self.summaries = dict(summaries or {})

    def explain(self, analyze: bool = False) -> str:
        """EXPLAIN (or EXPLAIN ANALYZE) text of every output plan."""
        parts = []
        for name, node in self.outputs.items():
            parts.append(f"-- {name} [engine={self.engine}] --")
            parts.append(node.explain(analyze=analyze))
        return "\n".join(parts)

    def walk(self):
        """Every distinct physical node across all outputs, post-order."""
        seen: set = set()
        for root in self.outputs.values():
            for node in root.walk():
                if id(node) not in seen:
                    seen.add(id(node))
                    yield node

    def chosen_backends(self) -> dict:
        """``{kind: set of chosen backend names}`` -- routing overview."""
        out: dict = {}
        for node in self.walk():
            out.setdefault(node.kind, set()).add(node.backend)
        return out


def _scan_source(node: PhysicalNode, datasets: dict):
    """The source dataset a node's content is drawn from, if derivable.

    Follows chains of row-preserving-or-filtering unary operators down
    to a scan; anything else (joins, unions, semijoin selects) returns
    ``None``.  Used only for cost refinement, so the answer being an
    upper bound on the node's content is exactly what is needed.
    """
    current = node
    while True:
        if current.kind == "scan":
            return datasets.get(current.logical.dataset_name)
        if (
            current.kind in ("select", "project", "order")
            and len(current.children) == 1
        ):
            current = current.children[0]
            continue
        return None


def _zone_refinement(node: PlanNode, children: list, datasets: dict):
    """``(live_fraction, note)`` from the operand scans' zone maps.

    For MAP/DIFFERENCE the live partitions are the (chromosome, bin)
    pairs occupied on *both* sides -- overlapping regions always share
    an occupied bin.  For JOIN with a finite DLE bound the test is
    chromosome-level with distance-widened windows; unbounded and MD(k)
    conditions can pair regions at any distance, so only chromosome
    *presence* on the experiment side keeps an anchor partition live.
    Returns ``(None, "")`` when the sources cannot be resolved.
    """
    import numpy as np

    if len(children) != 2:
        return None, ""
    left = _scan_source(children[0], datasets)
    right = _scan_source(children[1], datasets)
    if left is None or right is None:
        return None, ""
    try:
        left_zone = left.store().zone_map()
        right_zone = right.store().zone_map()
    except DatasetError:  # ragged rows: no columns to build zone maps from
        return None, ""
    total = left_zone.partitions()
    if not total:
        return None, ""
    live = 0
    if isinstance(node, JoinPlan):
        distance = node.condition.max_distance()
        for chrom, entry in left_zone.entries.items():
            other = right_zone.entry(chrom)
            if other is None:
                continue
            if distance is None or other.window_overlaps(
                entry.min_start - distance - 1,
                entry.max_stop + distance + 1,
            ):
                live += entry.partitions
    else:
        for chrom, entry in left_zone.entries.items():
            other = right_zone.entry(chrom)
            if other is not None:
                live += int(
                    np.intersect1d(
                        entry.bins, other.bins, assume_unique=True
                    ).size
                )
    return live / total, f"zone maps: {live}/{total} partitions live"


def plan_program(
    compiled: CompiledProgram,
    summaries: dict | None = None,
    engine: str = "auto",
    datasets: dict | None = None,
) -> PhysicalProgram:
    """Lower a (optimized) compiled program to a physical program.

    Parameters
    ----------
    summaries:
        ``{dataset_name: summary_dict}`` cardinalities for the scans; when
        omitted they are derived from *datasets* (in-memory sources).
    engine:
        ``auto`` routes each node independently via
        :func:`repro.engine.auto.choose_backend`; any other name pins
        every node to that backend.
    """
    # Imported lazily: repro.federation's package __init__ imports the
    # GMQL language package, which imports this module.
    from repro.federation.estimator import (
        estimate_plan,
        exact_select_estimate,
        summarize_datasets,
    )

    if summaries is None:
        summaries = summarize_datasets(datasets or {})
    estimates: dict = {}
    memo: dict = {}

    def fingerprint_of(node: PlanNode, children: list) -> str | None:
        if isinstance(node, ScanPlan):
            source = (datasets or {}).get(node.dataset_name)
            if source is None:
                return None
            return f"scan:{source.store().digest()}"
        if isinstance(node, EmptyPlan):
            columns = ",".join(f"{d.name}:{d.type.name}" for d in node.schema)
            return f"empty:{columns}"
        prints = [child.fingerprint for child in children]
        if any(print_ is None for print_ in prints):
            return None
        h = hashlib.blake2b(digest_size=16)
        h.update(node.kind.encode())
        # result_name is a rename, not content; the interpreter
        # re-applies it after a cache hit.  Analyzer annotations
        # (inferred shape, emptiness proofs, effect records) are derived
        # facts, not content, and must not perturb cache keys.
        params = {
            key: value
            for key, value in vars(node).items()
            if key not in
            ("children", "result_name", "inferred", "prunable_empty",
             "effects")
        }
        h.update(plan_token(params).encode())
        for print_ in prints:
            h.update(print_.encode())
        return h.hexdigest()

    def build(node: PlanNode) -> PhysicalNode:
        if id(node) in memo:
            return memo[id(node)]
        children = [build(child) for child in node.children]
        exact = exact_select_estimate(node, datasets) if datasets else None
        if exact is not None:
            estimates[id(node)] = exact
        estimate = estimate_plan(node, summaries, estimates)
        effects = node_effects(
            node, [child.effects for child in children], summaries
        )
        node.effects = effects
        if isinstance(node, ScanPlan):
            input_regions = estimate.regions
        else:
            input_regions = sum(
                child.estimate.regions for child in children
            )
        zone_note = ""
        zone_fraction = None
        if datasets and node.kind in ("map", "join", "difference"):
            zone_fraction, zone_note = _zone_refinement(
                node, children, datasets
            )
            if zone_fraction is not None and zone_fraction < 1.0:
                input_regions *= zone_fraction
        if zone_fraction is not None and zone_fraction < 1.0:
            # Zone maps prove partitions dead, so they refine the sound
            # bounds too: dead partitions contribute no output pairs.
            effects = replace(
                effects,
                bound_regions=(
                    None if effects.bound_regions is None
                    else int(effects.bound_regions * zone_fraction) + 1
                ),
                input_bound=(
                    None if effects.input_bound is None
                    else int(effects.input_bound * zone_fraction) + 1
                ),
            )
            node.effects = effects
        if isinstance(node, EmptyPlan):
            backend, reason = "empty", (
                f"statically pruned by {node.pruned_by}; nothing to execute"
            )
        elif engine == "auto":
            backend, reason = choose_backend(
                node.kind, input_regions, effects=effects
            )
        elif isinstance(node, ScanPlan):
            backend, reason = "source", "scans read datasets directly"
        else:
            backend, reason = engine, f"engine pinned to {engine!r}"
        if zone_note:
            reason = f"{reason} ({zone_note})"
        physical = PhysicalNode(
            logical=node,
            children=children,
            estimate=estimate,
            input_regions=input_regions,
            backend=backend,
            reason=reason,
            fingerprint=fingerprint_of(node, children),
            effects=effects,
        )
        memo[id(node)] = physical
        return physical

    outputs = {name: build(node) for name, node in compiled.outputs.items()}
    # ``build`` reaches itself through its closure cell; clearing the
    # cell breaks that cycle, so *datasets* and the plan it closes over
    # are freed by reference counting, not at the next full collection.
    del build
    return PhysicalProgram(outputs, engine, summaries)
