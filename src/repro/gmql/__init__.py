"""GenoMetric Query Language (GMQL).

"A closed algebra over datasets: results are expressed as new datasets
derived from their operands" (paper, section 2).  The package has three
layers:

* :mod:`repro.gmql.operators` -- the algebra itself, as Python functions;
* :mod:`repro.gmql.lang` -- the textual language: lexer, parser, compiler
  to logical plans, optimizer and interpreter;
* support modules: predicates, aggregates, genometric conditions and
  provenance.

The one-call entry point for textual queries is :func:`repro.gmql.run`.
"""

from repro.gmql.aggregates import (
    Aggregate,
    Avg,
    Bag,
    Count,
    Max,
    Median,
    Min,
    Std,
    Sum,
    aggregate_named,
    available_aggregates,
    register_aggregate,
)
from repro.gmql.genometric import (
    Downstream,
    DistGreater,
    DistLess,
    GenometricCondition,
    MinDistance,
    Upstream,
)
from repro.gmql.operators import (
    SemiJoin,
    cover,
    difference,
    extend,
    group,
    join,
    map_regions,
    materialize,
    merge,
    order,
    project,
    select,
    union,
)
from repro.gmql.predicates import (
    MetaAll,
    MetaAnd,
    MetaCompare,
    MetaExists,
    MetaNot,
    MetaOr,
    MetaPredicate,
    RegionAll,
    RegionAnd,
    RegionCompare,
    RegionNot,
    RegionOr,
    RegionPredicate,
)
from repro.gmql.provenance import ProvenanceRecord, explain, lineage, record


def run(program: str, datasets: dict, engine: str = "naive") -> dict:
    """Parse, compile, optimize and execute a textual GMQL program.

    Parameters
    ----------
    program:
        GMQL text, e.g. the paper's three-operation example.
    datasets:
        Source datasets by the names the program refers to.
    engine:
        Execution backend name (see :mod:`repro.engine`).

    Returns the materialised variables as ``{name: Dataset}``; when the
    program has no MATERIALIZE statement, all assigned variables are
    returned.
    """
    from repro.gmql.lang import execute

    return execute(program, datasets, engine=engine)


def run_analyzed(
    program: str, datasets: dict, engine: str = "auto", context=None
) -> tuple:
    """Run under EXPLAIN ANALYZE: ``(results, physical_program, context)``.

    The physical program carries per-node backend choices and estimates,
    each node linked to its span of the context's trace (actual
    cardinalities, timing and executing backend;
    :meth:`~repro.gmql.lang.physical.PhysicalProgram.explain` with
    ``analyze=True`` renders them); the context also holds the metrics
    registry.
    """
    from repro.gmql.lang import explain_analyze

    return explain_analyze(program, datasets, engine=engine, context=context)


__all__ = [
    "Aggregate",
    "Avg",
    "Bag",
    "Count",
    "DistGreater",
    "DistLess",
    "Downstream",
    "GenometricCondition",
    "Max",
    "Median",
    "MetaAll",
    "MetaAnd",
    "MetaCompare",
    "MetaExists",
    "MetaNot",
    "MetaOr",
    "MetaPredicate",
    "Min",
    "MinDistance",
    "ProvenanceRecord",
    "RegionAll",
    "RegionAnd",
    "RegionCompare",
    "RegionNot",
    "RegionOr",
    "RegionPredicate",
    "SemiJoin",
    "Std",
    "Sum",
    "Upstream",
    "aggregate_named",
    "available_aggregates",
    "cover",
    "difference",
    "explain",
    "extend",
    "group",
    "join",
    "lineage",
    "map_regions",
    "materialize",
    "merge",
    "order",
    "project",
    "record",
    "register_aggregate",
    "run",
    "run_analyzed",
    "select",
    "union",
]
