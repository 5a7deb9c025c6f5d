"""The naive backend: record-at-a-time reference implementation.

Delegates every kernel to the operator functions of
:mod:`repro.gmql.operators`, which iterate Python region objects.  This is
the semantics oracle the other backends are tested against (differential
tests in ``tests/engine``), playing the role the single-node reference
implementation plays for the Spark/Flink encodings in the paper.
"""

from __future__ import annotations

from repro.gdm import Dataset
from repro.engine.base import Backend
from repro.gmql import operators as ops
from repro.gmql.operators.select import SemiJoin


class NaiveBackend(Backend):
    """Reference backend built directly on the operator algebra."""

    name = "naive"

    def run_select(self, plan, child: Dataset, semijoin_data: Dataset | None):
        semijoin = None
        if semijoin_data is not None:
            semijoin = SemiJoin(
                plan.semijoin_attributes, semijoin_data, plan.semijoin_negated
            )
        return self.checked(
            "SELECT",
            ops.select,
            child,
            plan.meta_predicate,
            plan.region_predicate,
            semijoin,
        )

    def run_project(self, plan, child: Dataset):
        return self.checked(
            "PROJECT",
            ops.project,
            child,
            list(plan.region_attributes)
            if plan.region_attributes is not None
            else None,
            list(plan.metadata_attributes)
            if plan.metadata_attributes is not None
            else None,
            plan.new_region_attributes,
        )

    def run_extend(self, plan, child: Dataset):
        return self.checked("EXTEND", ops.extend, child, plan.assignments)

    def run_merge(self, plan, child: Dataset):
        return self.checked("MERGE", ops.merge, child, plan.groupby)

    def run_group(self, plan, child: Dataset):
        return self.checked(
            "GROUP",
            ops.group,
            child,
            plan.meta_keys,
            plan.meta_aggregates,
            plan.region_aggregates,
        )

    def run_order(self, plan, child: Dataset):
        return self.checked(
            "ORDER",
            ops.order,
            child,
            plan.meta_keys,
            plan.top,
            plan.region_keys,
            plan.region_top,
        )

    def run_union(self, plan, left: Dataset, right: Dataset):
        return self.checked("UNION", ops.union, left, right)

    def run_difference(self, plan, left: Dataset, right: Dataset):
        return self.checked(
            "DIFFERENCE", ops.difference, left, right, plan.joinby, plan.exact
        )

    def run_cover(self, plan, child: Dataset):
        return self.checked(
            "COVER",
            ops.cover,
            child,
            plan.min_acc,
            plan.max_acc,
            plan.variant,
            plan.groupby,
        )

    def run_map(self, plan, reference: Dataset, experiment: Dataset):
        return self.checked(
            "MAP",
            ops.map_regions,
            reference,
            experiment,
            plan.aggregates,
            plan.joinby,
        )

    def run_join(self, plan, anchor: Dataset, experiment: Dataset):
        return self.checked(
            "JOIN",
            ops.join,
            anchor,
            experiment,
            plan.condition,
            plan.output,
            plan.joinby,
        )
