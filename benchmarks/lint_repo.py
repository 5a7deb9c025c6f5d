#!/usr/bin/env python
"""Repo-level static checks for project invariants ruff cannot express.

Run from the repository root (CI runs it next to ``ruff check``)::

    python benchmarks/lint_repo.py
    python benchmarks/lint_repo.py --select RL001,RL007
    python benchmarks/lint_repo.py --ignore RL002

Rules are a table -- :data:`RULES` -- with stable ``RL0xx`` codes, so CI
annotations, ``--select``/``--ignore`` filters and the golden-snippet
self-test suite (``tests/lint/``) all key on the same identifiers:

========  =======================================================
RL001     wall-clock read (``time.time``/``datetime.now``/
          ``datetime.utcnow``) outside ``resilience/clock.py``
RL002     bare ``except:`` swallows SystemExit/KeyboardInterrupt
RL003     raw ``SharedMemory`` construction outside ``store/shm.py``
RL004     raw ``np.memmap``/``mmap.mmap`` outside ``store/persist.py``
RL005     operator module not imported by ``gmql/operators/__init__``
RL006     file does not parse
RL007     ``time.sleep``/``time.monotonic``/``time.perf_counter``
          outside ``resilience/clock.py``
RL008     ``os.environ`` read outside a ``*_from_env`` function
RL009     in-place mutation of a ``.regions`` list under ``src``
RL010     ``sort``/``sorted`` keyed on ``GenomicRegion.sort_key``
          under ``src/repro/engine`` (columnar engines order output
          rows as arrays, ``repro.store.genome_order``; ``naive``
          delegates to ``gmql/operators``, which may sort objects)
RL011     ``GenomicRegion(...)`` or ``.with_values(...)`` call in
          ``src/repro/engine/columnar.py`` (its outputs are born as
          columns; rows are built only by ``ColumnRows``'
          materialisation in ``repro.gdm.sample``)
RL012     ``perf_counter`` import under ``src/repro/engine`` or
          ``src/repro/gmql`` outside ``engine/context.py`` (the
          interpreter's per-node span is the one execution timer)
RL013     ``.regions`` read in ``formats/meta.py``,
          ``repository/staging.py`` or ``store/cache.py`` (the GDM
          writer, the staged serialiser and the disk result cache read
          a sample's column view, ``Sample.columns``)
========  =======================================================

Checked trees: ``src``, ``tests``, ``benchmarks``.  The golden corpus
of *intentionally* violating snippets under ``tests/lint/snippets/`` is
exempt from the sweep (each snippet exists to trip exactly one rule,
verified by ``tests/lint/test_lint_rules.py``).  A rule may also be
scoped to some trees only (RL009: ``src``, RL010: ``src/repro/engine``,
RL011: ``src/repro/engine/columnar.py``, RL012: ``src/repro/engine``
and ``src/repro/gmql`` -- each also the corpus, so its snippet trips
it; RL013: its three modules and its own snippet only, since other
snippets read ``.regions`` legitimately).

Exits nonzero listing ``path:line: RL0xx message`` for every violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED_TREES = ("src", "tests", "benchmarks")
SRC_DIR = ROOT / "src"
ENGINE_DIR = ROOT / "src" / "repro" / "engine"
COLUMNAR_ENGINE = ENGINE_DIR / "columnar.py"
CONTEXT_MODULE = ENGINE_DIR / "context.py"
GMQL_DIR = ROOT / "src" / "repro" / "gmql"
SNIPPET_DIR = ROOT / "tests" / "lint" / "snippets"
CLOCK_MODULE = ROOT / "src" / "repro" / "resilience" / "clock.py"
SHM_MODULE = ROOT / "src" / "repro" / "store" / "shm.py"
PERSIST_MODULE = ROOT / "src" / "repro" / "store" / "persist.py"
OPERATORS_DIR = ROOT / "src" / "repro" / "gmql" / "operators"
#: Modules that write results and must read columns, not objects (RL013).
COLUMN_WRITERS = (
    ROOT / "src" / "repro" / "formats" / "meta.py",
    ROOT / "src" / "repro" / "repository" / "staging.py",
    ROOT / "src" / "repro" / "store" / "cache.py",
)

#: ``(qualifier, attribute)`` call patterns that read the wall clock.
WALL_CLOCK_CALLS = (
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
)

#: ``list`` methods that mutate in place (RL009).
LIST_MUTATORS = frozenset({
    "append", "extend", "sort", "insert", "pop", "remove", "clear",
    "reverse",
})

#: Monotonic/sleep reads that must route through the clock seam.
CLOCK_SEAM_CALLS = (
    ("time", "sleep"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
)


@dataclass(frozen=True)
class Problem:
    """One rule violation at a location."""

    code: str
    path: Path  # repo-relative
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _call_qualifier(func) -> tuple | None:
    """``("time", "time")`` for ``time.time(...)``-shaped calls."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr)
    if isinstance(func, ast.Attribute) and isinstance(
        func.value, ast.Attribute
    ):
        # datetime.datetime.now(...)
        return (func.value.attr, func.attr)
    return None


# -- per-node rule checks --------------------------------------------------------
#
# Each checker receives the repo-relative path, one AST node, and the
# name of the innermost enclosing function (or None), and yields
# ``(line, message)`` violations.  File exemptions live in the rule row.


def _check_wall_clock(rel, node, enclosing):
    if isinstance(node, ast.Call):
        pattern = _call_qualifier(node.func)
        if pattern in WALL_CLOCK_CALLS:
            yield (
                node.lineno,
                f"wall-clock call {pattern[0]}.{pattern[1]}() -- inject a "
                f"clock (see repro.resilience.clock) instead",
            )


def _check_bare_except(rel, node, enclosing):
    if isinstance(node, ast.ExceptHandler) and node.type is None:
        yield (
            node.lineno,
            "bare 'except:' -- catch Exception (or narrower) so "
            "SystemExit/KeyboardInterrupt propagate",
        )


def _check_shared_memory(rel, node, enclosing):
    if not isinstance(node, ast.Call):
        return
    func = node.func
    constructs_shm = (
        isinstance(func, ast.Name) and func.id == "SharedMemory"
    ) or (
        isinstance(func, ast.Attribute) and func.attr == "SharedMemory"
    )
    if constructs_shm:
        yield (
            node.lineno,
            "raw SharedMemory construction -- go through repro.store.shm "
            "(ArrayShipper / materialise) so segments cannot leak",
        )


def _check_memmap(rel, node, enclosing):
    if not isinstance(node, ast.Call):
        return
    func = node.func
    constructs_map = (
        isinstance(func, ast.Attribute) and func.attr == "memmap"
    ) or (
        isinstance(func, ast.Name) and func.id == "memmap"
    ) or (
        isinstance(func, ast.Attribute)
        and func.attr == "mmap"
        and isinstance(func.value, ast.Name)
        and func.value.id in ("mmap", "_mmap")
    )
    if constructs_map:
        yield (
            node.lineno,
            "raw memory-map construction -- go through repro.store.persist "
            "(PersistedStore / open_segment / map_blob) so segment files "
            "stay read-only and accounted",
        )


def _check_clock_seam(rel, node, enclosing):
    if isinstance(node, ast.Call):
        pattern = _call_qualifier(node.func)
        if pattern in CLOCK_SEAM_CALLS:
            yield (
                node.lineno,
                f"direct {pattern[0]}.{pattern[1]}() -- import it from "
                f"repro.resilience.clock so timing has one patchable seam",
            )


def _check_environ(rel, node, enclosing):
    is_environ = (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )
    if is_environ and (
        enclosing is None or not enclosing.endswith("_from_env")
    ):
        yield (
            node.lineno,
            "os.environ read outside a *_from_env function -- route "
            "configuration through one named entry point per knob",
        )


def _is_regions(node) -> bool:
    """``<anything>.regions``."""
    return isinstance(node, ast.Attribute) and node.attr == "regions"


def _check_region_mutation(rel, node, enclosing):
    message = (
        "in-place mutation of a .regions list -- region lists are shared "
        "between samples and carry memoised blocks and columns; build a "
        "new list instead"
    )
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in LIST_MUTATORS
        and _is_regions(node.func.value)
    ):
        yield (node.lineno, message)
    elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
        targets = (
            node.targets if isinstance(node, (ast.Assign, ast.Delete))
            else [node.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Subscript) and _is_regions(target.value)
            ) or (isinstance(node, ast.AugAssign) and _is_regions(target)):
                yield (node.lineno, message)


def _calls_sort_key(node) -> bool:
    """``<anything>.sort_key``, or a lambda calling ``<x>.sort_key()``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "sort_key"
    return isinstance(node, ast.Lambda) and any(
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Attribute)
        and inner.func.attr == "sort_key"
        for inner in ast.walk(node.body)
    )


def _check_region_sort_key(rel, node, enclosing):
    if not isinstance(node, ast.Call):
        return
    func = node.func
    is_sort = (isinstance(func, ast.Name) and func.id == "sorted") or (
        isinstance(func, ast.Attribute) and func.attr == "sort"
    )
    if is_sort and any(
        keyword.arg == "key" and _calls_sort_key(keyword.value)
        for keyword in node.keywords
    ):
        yield (
            node.lineno,
            "rows sorted by GenomicRegion.sort_key in an engine -- order "
            "the output columns with repro.store.genome_order and build "
            "regions once, in final order",
        )


def _check_columnar_region_build(rel, node, enclosing):
    if not isinstance(node, ast.Call):
        return
    func = node.func
    if (isinstance(func, ast.Name) and func.id == "GenomicRegion") or (
        isinstance(func, ast.Attribute)
        and func.attr in ("GenomicRegion", "with_values")
    ):
        yield (
            node.lineno,
            "region object built in the columnar engine -- hand "
            "build_result ColumnRows (repro.gdm.sample) and let "
            "sample.regions materialise on demand",
        )


def _check_span_timer(rel, node, enclosing):
    if isinstance(node, ast.ImportFrom) and any(
        alias.name == "perf_counter" for alias in node.names
    ):
        yield (
            node.lineno,
            "perf_counter imported by the engine or the language -- time "
            "execution with the interpreter's spans "
            "(repro.engine.context), not a second timer",
        )


def _check_regions_read(rel, node, enclosing):
    if isinstance(node, ast.Attribute) and node.attr == "regions":
        yield (
            node.lineno,
            "sample.regions read by a result writer -- serialise or "
            "store the sample's column view (Sample.columns), which "
            "builds no region object",
        )


@dataclass(frozen=True)
class Rule:
    """One table row: a stable code, a per-node checker, its scope."""

    code: str
    summary: str
    check: object  # callable(rel, node, enclosing) -> iterable
    exempt: tuple = ()  # absolute Paths the rule does not apply to
    only_under: tuple = ()  # absolute directories or files it is limited to

    def applies_to(self, path: Path) -> bool:
        if path in self.exempt:
            return False
        return not self.only_under or any(
            base == path or base in path.parents for base in self.only_under
        )


RULES: tuple = (
    Rule("RL001", "wall-clock read outside the clock module",
         _check_wall_clock, exempt=(CLOCK_MODULE,)),
    Rule("RL002", "bare except", _check_bare_except),
    Rule("RL003", "raw SharedMemory outside store/shm.py",
         _check_shared_memory, exempt=(SHM_MODULE,)),
    Rule("RL004", "raw memory map outside store/persist.py",
         _check_memmap, exempt=(PERSIST_MODULE,)),
    Rule("RL007", "sleep/monotonic/perf_counter outside the clock module",
         _check_clock_seam, exempt=(CLOCK_MODULE,)),
    Rule("RL008", "os.environ read outside a *_from_env function",
         _check_environ),
    Rule("RL009", "in-place mutation of a .regions list under src/",
         _check_region_mutation, only_under=(SRC_DIR, SNIPPET_DIR)),
    Rule("RL010", "sort keyed on GenomicRegion.sort_key under engine/",
         _check_region_sort_key, only_under=(ENGINE_DIR, SNIPPET_DIR)),
    Rule("RL011", "region object built in engine/columnar.py",
         _check_columnar_region_build,
         only_under=(COLUMNAR_ENGINE, SNIPPET_DIR)),
    Rule("RL012", "perf_counter import under engine/ or gmql/",
         _check_span_timer, exempt=(CONTEXT_MODULE,),
         only_under=(ENGINE_DIR, GMQL_DIR, SNIPPET_DIR)),
    Rule("RL013", ".regions read by a result writer",
         _check_regions_read,
         only_under=(*COLUMN_WRITERS, SNIPPET_DIR / "rl013_regions_read.py")),
)

#: Codes handled outside the per-node table (parse + repo-level checks).
SPECIAL_CODES = ("RL005", "RL006")

ALL_CODES = tuple(sorted(
    [rule.code for rule in RULES] + list(SPECIAL_CODES)
))


def _python_files():
    for tree in CHECKED_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            if SNIPPET_DIR in path.parents:
                continue  # golden corpus of intentional violations
            yield path


def _walk_with_enclosing(tree):
    """Yield ``(node, enclosing_function_name)`` over the whole AST."""
    stack = [(tree, None)]
    while stack:
        node, enclosing = stack.pop()
        yield node, enclosing
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        for child in ast.iter_child_nodes(node):
            stack.append((child, inner))


def check_file(path: Path, active: set, root: Path = ROOT) -> list:
    """All violations of the *active* rule codes in one file."""
    rel = path.relative_to(root)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(rel))
        compile(source, str(rel), "exec")
    except SyntaxError as exc:
        if "RL006" in active:
            return [Problem(
                "RL006", rel, exc.lineno or 1, f"syntax error: {exc.msg}"
            )]
        return []
    rules = [
        rule for rule in RULES
        if rule.code in active and rule.applies_to(path)
    ]
    problems = []
    for node, enclosing in _walk_with_enclosing(tree):
        for rule in rules:
            for line, message in rule.check(rel, node, enclosing):
                problems.append(Problem(rule.code, rel, line, message))
    problems.sort(key=lambda p: (p.line, p.code))
    return problems


def check_operator_registry(active: set) -> list:
    """RL005: every operator module is imported by the package init."""
    if "RL005" not in active:
        return []
    init = OPERATORS_DIR / "__init__.py"
    registered = set()
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            prefix = "repro.gmql.operators."
            if node.module.startswith(prefix):
                registered.add(node.module[len(prefix):])
    problems = []
    for module in sorted(OPERATORS_DIR.glob("*.py")):
        name = module.stem
        if name == "__init__":
            continue
        if name not in registered:
            problems.append(Problem(
                "RL005", module.relative_to(ROOT), 1,
                f"operator module {name!r} is not imported by "
                f"gmql/operators/__init__.py",
            ))
    return problems


def _parse_codes(raw: str | None) -> set | None:
    if raw is None:
        return None
    codes = {code.strip().upper() for code in raw.split(",") if code.strip()}
    unknown = codes - set(ALL_CODES)
    if unknown:
        raise SystemExit(
            f"unknown rule code(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(ALL_CODES)})"
        )
    return codes


def active_codes(select: str | None = None, ignore: str | None = None
                 ) -> set:
    """The rule codes a run enforces after --select/--ignore filtering."""
    active = _parse_codes(select) or set(ALL_CODES)
    return active - (_parse_codes(ignore) or set())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repo-invariant lint (RL0xx rules)"
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated RL0xx codes to enforce (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated RL0xx codes to skip",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="list the rule table and exit",
    )
    args = parser.parse_args(argv)
    if args.rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.summary}")
        print("RL005  operator module missing from the package registry")
        print("RL006  file does not parse")
        return 0
    active = active_codes(args.select, args.ignore)
    problems: list = []
    for path in _python_files():
        problems.extend(check_file(path, active))
    problems.extend(check_operator_registry(active))
    if problems:
        for problem in problems:
            print(problem.render())
        print(f"{len(problems)} problem(s)")
        return 1
    print("lint_repo: clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
