"""The textual GMQL language: lexer, parser, compiler, optimizer,
physical planner and interpreter.

End-to-end entry point::

    from repro.gmql.lang import execute
    results = execute(program_text, {"ENCODE": encode_ds, ...})

The pipeline is parse -> compile (logical plan) -> optimize -> physical
plan (cost annotation + per-node backend choice) -> execute.  Use
:func:`explain_analyze` to run a program and get back the annotated
physical plan (estimated vs actual cardinalities, per-node backend and
wall time) next to the results.
"""

from repro.gmql.lang.ast_nodes import Program
from repro.gmql.lang.compiler import compile_program
from repro.gmql.lang.interpreter import Interpreter
from repro.gmql.lang.lexer import tokenize
from repro.gmql.lang.optimizer import optimize
from repro.gmql.lang.parser import parse
from repro.gmql.lang.physical import (
    PhysicalNode,
    PhysicalProgram,
    plan_program,
)
from repro.gmql.lang.plan import CompiledProgram, PlanNode
from repro.gmql.lang.semantics import Analysis, Diagnostic, analyze_program


def execute(
    program: str,
    datasets: dict,
    engine: str = "naive",
    optimized: bool = True,
    context=None,
) -> dict:
    """Parse, compile, (optionally) optimize and run a GMQL program.

    Parameters
    ----------
    program:
        GMQL text.
    datasets:
        Source datasets by name.
    engine:
        Backend name (``naive``, ``columnar``, ``parallel``, or ``auto``
        for per-operator routing).
    optimized:
        Apply the logical optimizer (disable for ablation runs).
    context:
        Optional :class:`~repro.engine.context.ExecutionContext`
        (tracing, metrics, deadline, worker configuration).

    Returns ``{output_name: Dataset}`` -- the MATERIALIZE targets, or all
    assigned variables when nothing is materialised.
    """
    from repro.engine.dispatch import get_backend

    # Analysis runs against the actual sources, so data-dependent rules
    # (unknown attributes, provably-empty selections) apply; an
    # error-severity finding raises before any operator executes.
    compiled = compile_program(program, datasets=datasets)
    if optimized:
        compiled = optimize(compiled)
    backend = get_backend(engine)
    try:
        return Interpreter(backend, datasets, context=context).run_program(
            compiled
        )
    finally:
        backend.close()


def explain(
    program: str, optimized: bool = True, datasets: dict | None = None
) -> str:
    """EXPLAIN text for a GMQL program (no execution)."""
    compiled = compile_program(program, datasets=datasets)
    if optimized:
        compiled = optimize(compiled)
    return compiled.explain()


def explain_analyze(
    program: str,
    datasets: dict,
    engine: str = "auto",
    optimized: bool = True,
    context=None,
) -> tuple:
    """Run a program and return ``(results, physical_program, context)``.

    The physical program's nodes carry estimated cardinalities and the
    chosen backend, each linked to its span in the context's trace
    (actual cardinalities, executing backend, wall time);
    ``physical_program.explain(analyze=True)`` renders the annotated
    tree (this is what ``repro explain --analyze`` prints).  The context
    additionally holds the metrics registry.
    """
    from repro.engine.context import ExecutionContext
    from repro.engine.dispatch import get_backend

    compiled = compile_program(program, datasets=datasets)
    if optimized:
        compiled = optimize(compiled)
    backend = get_backend(engine)
    interpreter = Interpreter(
        backend, datasets, context=context or ExecutionContext()
    )
    physical = interpreter.plan(compiled)
    try:
        results = interpreter.run_physical(physical)
    finally:
        backend.close()
    return results, physical, interpreter.context


__all__ = [
    "Analysis",
    "CompiledProgram",
    "Diagnostic",
    "Interpreter",
    "PhysicalNode",
    "PhysicalProgram",
    "PlanNode",
    "Program",
    "analyze_program",
    "compile_program",
    "execute",
    "explain",
    "explain_analyze",
    "optimize",
    "parse",
    "plan_program",
    "tokenize",
]
