"""The plan-effect lattice: inferred shardability, exactness,
cache-safety and bounds.

These are the facts the federation planner, sharded backend, auto
router and result cache all gate on, so the lattice itself gets pinned
here: locality breaks exactly at the sample-reducing operators,
exactness follows the aggregate registry's merge classes, and bounds
compose soundly from source summaries.
"""

from repro.gmql.aggregates import EXACT_INT, ORDERED, REORDERABLE
from repro.gmql.lang import compile_program, optimize
from repro.gmql.lang.effects import (
    CROSS_CHROMOSOME_KINDS,
    SHARD_WORTHWHILE_KINDS,
    annotate_effects,
    node_effects,
    subtree_effects,
    weakest_exactness,
)


def plan_for(program: str, output: str):
    compiled = optimize(compile_program(program))
    annotate_effects(compiled)
    return compiled.outputs[output]


class TestLattice:
    def test_weakest_exactness_orders_the_classes(self):
        assert weakest_exactness() == REORDERABLE
        assert weakest_exactness(REORDERABLE, EXACT_INT) == EXACT_INT
        assert weakest_exactness(EXACT_INT, ORDERED) == ORDERED
        # Unknown classes rank as ordered-strength (conservative).
        assert weakest_exactness("custom-unknown", EXACT_INT) == (
            "custom-unknown"
        )

    def test_locality_breaks_at_sample_reducing_operators(self):
        plan = plan_for(
            "S = EXTEND(n AS COUNT) RAW;\nMATERIALIZE S;", "S"
        )
        assert plan.effects.chrom_local is False
        assert "EXTEND" in plan.effects.locality_breaker
        assert plan.kind in CROSS_CHROMOSOME_KINDS

    def test_locality_breaker_propagates_to_ancestors(self):
        plan = plan_for(
            """
            S = EXTEND(n AS COUNT) RAW;
            T = SELECT(n > 1) S;
            MATERIALIZE T;
            """,
            "T",
        )
        assert plan.kind == "select"
        assert plan.effects.chrom_local is False
        assert "EXTEND" in plan.effects.locality_breaker

    def test_per_chromosome_operators_stay_local(self):
        plan = plan_for(
            "M = MAP(hits AS COUNT) RAW OTHER;\nMATERIALIZE M;", "M"
        )
        assert plan.effects.chrom_local is True
        assert plan.effects.locality_breaker is None
        assert plan.kind in SHARD_WORTHWHILE_KINDS

    def test_count_is_exact_int(self):
        plan = plan_for(
            "M = MAP(hits AS COUNT) RAW OTHER;\nMATERIALIZE M;", "M"
        )
        assert plan.effects.exactness == EXACT_INT

    def test_float_avg_is_ordered(self):
        plan = plan_for(
            """
            P = PROJECT(*; ratio AS left / 2.0) RAW;
            X = EXTEND(m AS AVG(ratio)) P;
            MATERIALIZE X;
            """,
            "X",
        )
        assert plan.effects.exactness == ORDERED

    def test_min_max_are_reorderable(self):
        plan = plan_for(
            "M = MAP(lo AS MIN(score)) RAW OTHER;\nMATERIALIZE M;", "M"
        )
        assert plan.effects.exactness == REORDERABLE


class TestCacheSafety:
    def test_computed_attributes_break_caching_upward(self):
        plan = plan_for(
            """
            P = PROJECT(*; half AS left / 2.0) RAW;
            M = MAP(hits AS COUNT) P OTHER;
            MATERIALIZE M;
            """,
            "M",
        )
        assert plan.effects.cache_safe is False
        assert "computed attributes" in plan.effects.cache_breaker

    def test_plain_projection_stays_cacheable(self):
        plan = plan_for(
            "P = PROJECT(score) RAW;\nMATERIALIZE P;", "P"
        )
        assert plan.effects.cache_safe is True
        assert plan.effects.cache_breaker is None


class TestBounds:
    SUMMARIES = {
        "RAW": {"regions": 100, "size_bytes": 5_000},
        "OTHER": {"regions": 40, "size_bytes": 2_000},
    }

    def plan_with_bounds(self, program: str, output: str):
        compiled = optimize(compile_program(program))
        annotate_effects(compiled, summaries=self.SUMMARIES)
        return compiled.outputs[output]

    def test_scan_bounds_come_from_summaries(self):
        plan = self.plan_with_bounds(
            "P = SELECT() RAW;\nMATERIALIZE P;", "P"
        )
        assert plan.effects.bound_regions == 100
        assert plan.effects.bound_bytes == 5_000

    def test_map_is_bounded_by_the_reference(self):
        plan = self.plan_with_bounds(
            "M = MAP(n AS COUNT) RAW OTHER;\nMATERIALIZE M;", "M"
        )
        assert plan.effects.bound_regions == 100
        assert plan.effects.input_bound == 140

    def test_md_join_bound_is_k_per_anchor(self):
        plan = self.plan_with_bounds(
            "J = JOIN(MD(3)) RAW OTHER;\nMATERIALIZE J;", "J"
        )
        assert plan.effects.bound_regions == 300

    def test_unbounded_join_has_no_bound(self):
        plan = self.plan_with_bounds(
            "J = JOIN(DGE(100)) RAW OTHER;\nMATERIALIZE J;", "J"
        )
        assert plan.effects.bound_regions is None

    def test_union_sums_its_operands(self):
        plan = self.plan_with_bounds(
            "U = UNION() RAW OTHER;\nMATERIALIZE U;", "U"
        )
        assert plan.effects.bound_regions == 140

    def test_without_summaries_bounds_are_unknown(self):
        plan = plan_for(
            "M = MAP(n AS COUNT) RAW OTHER;\nMATERIALIZE M;", "M"
        )
        assert plan.effects.bound_regions is None
        assert plan.effects.input_bound is None


class TestDagWalk:
    def test_shared_subplans_are_annotated_once(self):
        compiled = optimize(compile_program(
            """
            BASE = SELECT() RAW;
            A = MAP(n AS COUNT) BASE OTHER;
            B = COVER(1, ANY) BASE;
            MATERIALIZE A;
            MATERIALIZE B;
            """
        ))
        memo = annotate_effects(compiled)
        # Both outputs share the SELECT subtree: the memo holds one
        # record per distinct node, and the shared node carries it.
        plan_a = compiled.outputs["A"]
        plan_b = compiled.outputs["B"]
        shared = [
            child for child in plan_a.children
            if any(child is c for c in plan_b.children)
        ]
        assert shared, "expected A and B to share the BASE subplan"
        assert id(shared[0]) in memo
        assert shared[0].effects is memo[id(shared[0])]

    def test_node_effects_without_children_is_node_local(self):
        compiled = optimize(compile_program(
            """
            S = EXTEND(n AS COUNT) RAW;
            M = MAP(k AS COUNT) RAW OTHER;
            MATERIALIZE S;
            MATERIALIZE M;
            """
        ))
        # Kernel-time view: the MAP node in isolation is local even in
        # a program that also aggregates across chromosomes.
        assert node_effects(compiled.outputs["M"]).chrom_local is True
        assert node_effects(compiled.outputs["S"]).chrom_local is False

    def test_subtree_effects_computes_and_caches(self):
        compiled = optimize(compile_program(
            "M = MAP(n AS COUNT) RAW OTHER;\nMATERIALIZE M;"
        ))
        plan = compiled.outputs["M"]
        fx = subtree_effects(plan)
        assert fx.chrom_local is True
        assert plan.effects is fx
        assert subtree_effects(plan) is fx
