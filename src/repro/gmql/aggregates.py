"""GMQL aggregate functions.

Aggregates appear in MAP (``peak_count AS COUNT``), EXTEND, GROUP, COVER
and the genome-space builders.  Each aggregate reduces a list of region
attribute values to one value and declares its result type so result
schemas stay typed.  ``None`` inputs (missing values) are skipped, matching
SQL semantics; an aggregate over an empty or all-missing list returns
``None`` -- except COUNT, which returns 0.

Float reductions (SUM, AVG, STD) are defined against ``math.fsum``:
the correctly rounded value of the exact real sum.  fsum is
order-independent, which is what lets the columnar engine's grouped
summation (:mod:`repro.store.exact_sum`, fsum over each group's values
gathered in pair order) be bit-identical to this reference
implementation instead of merely close.  Integer
inputs keep Python's arbitrary-precision ``sum`` (and its ``int``
result type).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Sequence

from repro.errors import EvaluationError
from repro.gdm import AttributeType, FLOAT, INT, STR

#: Merge-exactness classes (ordered lattice, weakest guarantee last).
#: They answer one question for the effect analysis
#: (:mod:`repro.gmql.lang.effects`): if an aggregate's input bag is
#: split into partials, can the partial results be recombined exactly?
REORDERABLE = "reorderable"   # any regrouping/reordering is exact (MIN/MAX)
EXACT_INT = "exact-int"       # exact under re-association (integer arithmetic)
ORDERED = "ordered"           # fsum-order-sensitive: partials never re-merge


class Aggregate:
    """One aggregate function: a name, a result type, and a reducer.

    ``requires_attribute`` distinguishes COUNT-like aggregates (which
    reduce the bag of regions itself) from value aggregates (which reduce
    one attribute's values).
    """

    name = "ABSTRACT"
    requires_attribute = True

    def result_type(self, input_type: AttributeType) -> AttributeType:
        """Result type given the aggregated attribute's type."""
        return input_type

    def compute(self, values: Sequence[Any]) -> Any:
        """Reduce *values* (missing values not yet filtered).  Override."""
        raise NotImplementedError

    def merge_class(self, input_type: AttributeType | None = None) -> str:
        """Exactness class of recombining partial results of this
        aggregate: :data:`REORDERABLE`, :data:`EXACT_INT` or
        :data:`ORDERED`.  The conservative default (``ORDERED``) keeps
        custom registered aggregates safe: the effect analysis will
        never claim a partial merge is exact unless the aggregate
        declares it."""
        return ORDERED

    @staticmethod
    def present(values: Sequence[Any]) -> list:
        """The non-missing values."""
        return [v for v in values if v is not None]

    def __repr__(self) -> str:
        return f"Aggregate({self.name})"


class Count(Aggregate):
    """Number of regions (missing values still count: COUNT is per region)."""

    name = "COUNT"
    requires_attribute = False

    def result_type(self, input_type: AttributeType) -> AttributeType:
        return INT

    def compute(self, values: Sequence[Any]) -> int:
        return len(values)

    def merge_class(self, input_type: AttributeType | None = None) -> str:
        return EXACT_INT


def _exact_sum(present: list) -> Any:
    """``math.fsum`` for float inputs, exact ``int`` sum otherwise."""
    if any(isinstance(value, float) for value in present):
        return math.fsum(present)
    return sum(present)


class Sum(Aggregate):
    name = "SUM"

    def compute(self, values: Sequence[Any]) -> Any:
        present = self.present(values)
        return _exact_sum(present) if present else None

    def merge_class(self, input_type: AttributeType | None = None) -> str:
        # Integer sums re-associate exactly; float (or unknown-typed)
        # inputs are fsum-defined, and fsum-of-fsums is not fsum.
        return EXACT_INT if input_type is INT else ORDERED


class Avg(Aggregate):
    name = "AVG"

    def result_type(self, input_type: AttributeType) -> AttributeType:
        return FLOAT

    def compute(self, values: Sequence[Any]) -> Any:
        present = self.present(values)
        return _exact_sum(present) / len(present) if present else None

    def merge_class(self, input_type: AttributeType | None = None) -> str:
        # Over ints the numerator is an exact integer sum (one final
        # division); over floats it inherits fsum's order sensitivity.
        return EXACT_INT if input_type is INT else ORDERED


class Min(Aggregate):
    name = "MIN"

    def compute(self, values: Sequence[Any]) -> Any:
        present = self.present(values)
        return min(present) if present else None

    def merge_class(self, input_type: AttributeType | None = None) -> str:
        return REORDERABLE


class Max(Aggregate):
    name = "MAX"

    def compute(self, values: Sequence[Any]) -> Any:
        present = self.present(values)
        return max(present) if present else None

    def merge_class(self, input_type: AttributeType | None = None) -> str:
        return REORDERABLE


class Median(Aggregate):
    name = "MEDIAN"

    def result_type(self, input_type: AttributeType) -> AttributeType:
        return FLOAT

    def compute(self, values: Sequence[Any]) -> Any:
        present = self.present(values)
        return float(statistics.median(present)) if present else None


class Std(Aggregate):
    """Population standard deviation."""

    name = "STD"

    def result_type(self, input_type: AttributeType) -> AttributeType:
        return FLOAT

    def compute(self, values: Sequence[Any]) -> Any:
        present = self.present(values)
        if not present:
            return None
        if len(present) == 1:
            return 0.0
        mean = _exact_sum(present) / len(present)
        return math.sqrt(
            _exact_sum([(v - mean) * (v - mean) for v in present])
            / len(present)
        )


class Bag(Aggregate):
    """Space-joined sorted distinct values (GMQL's BAG)."""

    name = "BAG"

    def result_type(self, input_type: AttributeType) -> AttributeType:
        return STR

    def compute(self, values: Sequence[Any]) -> Any:
        present = self.present(values)
        if not present:
            return None
        return " ".join(sorted({str(v) for v in present}))


_REGISTRY: dict = {}


def register_aggregate(aggregate: Aggregate) -> None:
    """Register an aggregate under its name (upper-cased)."""
    _REGISTRY[aggregate.name.upper()] = aggregate


def aggregate_named(name: str) -> Aggregate:
    """Look up an aggregate by name (case-insensitive)."""
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise EvaluationError(
            f"unknown aggregate {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def available_aggregates() -> tuple:
    """Sorted names of all registered aggregates."""
    return tuple(sorted(_REGISTRY))


for _aggregate in (Count(), Sum(), Avg(), Min(), Max(), Median(), Std(), Bag()):
    register_aggregate(_aggregate)
