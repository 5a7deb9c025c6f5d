"""Static semantic analysis for GMQL: schema/type inference and plan lints.

GMQL is a *closed* algebra over typed datasets (paper, section 2): the
output schema of every operator is a function of its input schemas, so a
whole program can be type-checked -- and several classes of mistakes
proven -- before a single region is read.  This module implements that
front-end:

* **Schema/type inference.**  :class:`Analyzer` propagates a
  :class:`RegionInfo` (attribute name -> GDM type) and a
  :class:`MetaInfo` (possible metadata attribute set) through every
  operation, implementing the paper's schema-merge rules: UNION column
  unification (clashing types are suffixed ``_right``), MAP/EXTEND/GROUP
  aggregate columns with the aggregate's declared result type, JOIN
  left/right metadata prefixing plus the ``dist`` column.  Inference is
  *open-world* by default -- an unknown source contributes an open
  schema that never triggers unknown-attribute findings -- and turns
  closed (exact) as soon as source schemas or datasets are supplied.

* **Diagnostics.**  A rule engine emits :class:`Diagnostic` records with
  stable ``GQL1xx`` codes, a severity, and a source
  :class:`~repro.gmql.lang.span.Span` for caret rendering.  See
  :data:`RULES` for the catalogue.

* **Provable facts.**  SELECTs whose metadata predicate is statically
  false over a fully-known schema are recorded as *empty variables*; the
  optimizer replaces them with :class:`~repro.gmql.lang.plan.EmptyPlan`
  leaves annotated ``pruned_by=GQL107``.

Truth of predicates is decided by interval reasoning over numeric
comparisons: a conjunction's per-attribute satisfying sets are
intersected (with the coordinate domains ``left/right >= 0``), and an
empty intersection proves the predicate false.  The reasoning is
deliberately one-sided where data could disagree: *always true* is only
claimed for always-present fixed coordinates, and metadata atoms (which
are multi-valued) are only decided when the attribute provably cannot
exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.errors import EvaluationError
from repro.gdm import BOOL, FLOAT, INT, STR, RegionSchema
from repro.gdm.sample import ColumnRows
from repro.gmql.aggregates import ORDERED, aggregate_named
from repro.gmql.lang import ast_nodes as ast
from repro.gmql.lang.span import Span, caret_frame

ERROR = "error"
WARNING = "warning"

#: Rule catalogue: code -> one-line description (rendered by ``repro
#: check --rules`` and the docs table; keep in sync with docs/LANGUAGE.md).
RULES = {
    "GQL101": "unknown region attribute",
    "GQL102": "unknown metadata attribute",
    "GQL103": "aggregate over an incompatible type",
    "GQL104": "UNION operands have conflicting schemas",
    "GQL105": "unsatisfiable genometric condition",
    "GQL106": "COVER accumulation bounds are provably empty",
    "GQL107": "predicate is always false",
    "GQL108": "predicate is always true",
    "GQL109": "strand-dependent clause over unstranded data",
    "GQL110": "JOIN without a distance bound",
    "GQL111": "dead operator: result never materialised",
    "GQL112": "duplicate result attribute name",
    "GQL113": "unknown or misused aggregate function",
    "GQL114": "variable misuse (reassignment, unknown MATERIALIZE)",
    "GQL120": "output aggregates across chromosomes (cannot shard)",
    "GQL121": "aggregate forces an ordered merge",
    "GQL122": "computed attributes disable result caching",
    "GQL123": "exact/joinby DIFFERENCE falls back to the naive kernel",
    "GQL124": "output cardinality has no static bound",
}

#: Rules only emitted by effect analysis (``--effects``): they describe
#: execution-strategy consequences, not correctness problems.
EFFECT_RULES = frozenset({
    "GQL120", "GQL121", "GQL122", "GQL123", "GQL124",
})

#: Fixed GDM region attributes (and their aliases) with their types.
_FIXED_REGION_TYPES = {
    "chrom": STR,
    "chr": STR,
    "left": INT,
    "start": INT,
    "right": INT,
    "stop": INT,
    "strand": STR,
}

#: Canonical coordinate names: ``start`` is ``left``, ``stop`` is ``right``.
_COORD_ALIASES = {"start": "left", "stop": "right", "chr": "chrom"}

#: Names usable inside PROJECT arithmetic expressions besides the schema.
_ARITH_ENV_NAMES = frozenset({"chrom", "left", "right", "strand", "length"})

#: Aggregates whose reducer needs numeric inputs.
_NUMERIC_AGGREGATES = frozenset({"SUM", "AVG", "MEDIAN", "STD"})

#: How many regions to inspect when probing a dataset for strandedness.
_STRAND_PROBE_LIMIT = 10_000
_STRAND = attrgetter("strand")

#: Sentinel: an attribute that provably cannot exist.
_MISSING = object()


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding: rule code, severity, message, source span."""

    code: str
    severity: str
    message: str
    span: Span | None = None
    variable: str | None = None

    def format(self, source: str | None = None) -> str:
        """Human-readable rendering; with *source*, adds a caret frame."""
        location = f" ({self.span.location()})" if self.span else ""
        text = f"{self.code} {self.severity}: {self.message}{location}"
        if source is not None and self.span is not None:
            frame = caret_frame(source, self.span)
            if frame:
                text = f"{text}\n{frame}"
        return text

    def to_dict(self) -> dict:
        """JSON form used by ``repro check --format json``."""
        out = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "rule": RULES.get(self.code, ""),
        }
        if self.span is not None:
            out["span"] = self.span.to_dict()
        if self.variable is not None:
            out["variable"] = self.variable
        return out


# -- inferred shapes -----------------------------------------------------------


@dataclass(frozen=True)
class RegionInfo:
    """What is statically known about a region schema.

    ``attrs`` is an ordered tuple of ``(name, AttributeType | None)``;
    ``None`` means the attribute exists but its type is unknown.  A
    *closed* info is exact: attributes not listed provably do not exist.
    An open info only promises that the listed attributes are present.
    """

    attrs: tuple = ()
    closed: bool = False

    def names(self) -> tuple:
        return tuple(name for name, __ in self.attrs)

    def get(self, name: str):
        """The attribute's type (``None`` = unknown type), or the
        :data:`_MISSING` sentinel when it provably cannot exist."""
        for attr, attr_type in self.attrs:
            if attr == name:
                return attr_type
        return _MISSING if self.closed else None

    def render(self) -> str:
        inner = ", ".join(
            f"{name}:{attr_type.name if attr_type else '?'}"
            for name, attr_type in self.attrs
        )
        if not self.closed:
            inner = f"{inner}, ..." if inner else "..."
        return "{" + inner + "}"

    def to_schema(self) -> RegionSchema | None:
        """A concrete :class:`RegionSchema`, when fully known."""
        if not self.closed:
            return None
        if any(attr_type is None for __, attr_type in self.attrs):
            return None
        return RegionSchema.of(*self.attrs)

    @classmethod
    def from_schema(cls, schema: RegionSchema) -> "RegionInfo":
        return cls(tuple((d.name, d.type) for d in schema), True)


@dataclass(frozen=True)
class MetaInfo:
    """The *possible* metadata attribute set of a variable.

    Metadata is open-world (any sample may carry any attribute) until an
    operation bounds it: PROJECT's ``metadata:`` list, GROUP's key+
    aggregate output, or a source dataset's observed attributes.  A
    closed set is an upper bound: attributes outside it cannot exist.
    """

    attrs: frozenset = frozenset()
    closed: bool = False

    def possible(self, name: str) -> bool:
        return (not self.closed) or name in self.attrs


@dataclass(frozen=True)
class VarInfo:
    """Everything inferred about one variable (or source operand)."""

    region: RegionInfo = field(default_factory=RegionInfo)
    meta: MetaInfo = field(default_factory=MetaInfo)
    #: ``True`` = some regions carry ``+``/``-``; ``False`` = provably
    #: all unstranded; ``None`` = unknown.
    stranded: bool | None = None

    def render(self) -> str:
        parts = [self.region.render()]
        if self.stranded is False:
            parts.append("unstranded")
        return " ".join(parts)


@dataclass
class Analysis:
    """The analyzer's output for one program."""

    diagnostics: tuple
    variables: dict            # variable -> VarInfo
    empty_variables: dict      # variable -> rule code proving emptiness
    sources: dict = field(default_factory=dict)  # source dataset -> VarInfo
    source: str | None = None  # program text, when analyzed from text

    def errors(self) -> tuple:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    def warnings(self) -> tuple:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def ok(self) -> bool:
        return not self.errors()

    def render(self, with_frames: bool = True) -> str:
        source = self.source if with_frames else None
        return "\n".join(d.format(source) for d in self.diagnostics)


# -- predicate truth: interval reasoning ---------------------------------------

TRUTH_TRUE = "true"
TRUTH_FALSE = "false"
TRUTH_UNKNOWN = "unknown"


class _Constraint:
    """Satisfying-value set of conjoined atoms over one attribute.

    A numeric interval (``lo``/``hi``, ``None`` = unbounded) plus a set
    of excluded values plus at most one non-numeric equality.  Only ever
    refined (conjunction); disjunction drops constraints entirely.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open", "eq", "has_eq", "excluded")

    def __init__(self) -> None:
        self.lo = None
        self.hi = None
        self.lo_open = False
        self.hi_open = False
        self.eq = None
        self.has_eq = False
        self.excluded: set = set()

    def narrow_low(self, value, open_: bool) -> None:
        if self.lo is None or value > self.lo or (
            value == self.lo and open_ and not self.lo_open
        ):
            self.lo, self.lo_open = value, open_

    def narrow_high(self, value, open_: bool) -> None:
        if self.hi is None or value < self.hi or (
            value == self.hi and open_ and not self.hi_open
        ):
            self.hi, self.hi_open = value, open_

    def merge(self, other: "_Constraint") -> "_Constraint":
        merged = _Constraint()
        merged.lo, merged.lo_open = self.lo, self.lo_open
        merged.hi, merged.hi_open = self.hi, self.hi_open
        if other.lo is not None:
            merged.narrow_low(other.lo, other.lo_open)
        if other.hi is not None:
            merged.narrow_high(other.hi, other.hi_open)
        merged.excluded = self.excluded | other.excluded
        merged.eq, merged.has_eq = self.eq, self.has_eq
        if other.has_eq:
            if merged.has_eq and merged.eq != other.eq:
                # Two different non-numeric equalities: mark empty via an
                # impossible interval.
                merged.lo, merged.hi = 1, 0
            merged.eq, merged.has_eq = other.eq, True
        return merged

    def empty(self) -> bool:
        """True when no value can satisfy the constraint."""
        if self.has_eq and self.eq in self.excluded:
            return True
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            if self.lo_open or self.hi_open:
                return True
            if self.lo in self.excluded:
                return True
        return False

    def covers_all_from_zero(self) -> bool:
        """True when every value in ``[0, inf)`` satisfies the constraint."""
        if self.has_eq:
            return False
        if self.hi is not None:
            return False
        if self.lo is not None and (self.lo > 0 or (self.lo == 0 and self.lo_open)):
            return False
        return all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and v < 0
            for v in self.excluded
        )


def _atom_constraint(operator: str, value) -> _Constraint | None:
    """The satisfying set of one comparison, or ``None`` when undecidable."""
    if value is None:
        return None  # bare existence test
    constraint = _Constraint()
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if numeric:
        if operator == "==":
            constraint.narrow_low(value, False)
            constraint.narrow_high(value, False)
        elif operator == "<":
            constraint.narrow_high(value, True)
        elif operator == "<=":
            constraint.narrow_high(value, False)
        elif operator == ">":
            constraint.narrow_low(value, True)
        elif operator == ">=":
            constraint.narrow_low(value, False)
        elif operator == "!=":
            constraint.excluded.add(value)
        else:
            return None
        return constraint
    if operator == "==":
        constraint.eq, constraint.has_eq = value, True
        return constraint
    if operator == "!=":
        constraint.excluded.add(value)
        return constraint
    return None  # ordered comparison over strings: no reasoning


def _coordinate_domain(name: str) -> _Constraint | None:
    """The value domain of always-present numeric coordinates."""
    if name in ("left", "right"):
        domain = _Constraint()
        domain.narrow_low(0, False)
        return domain
    return None


def region_predicate_truth(node, info: RegionInfo) -> str:
    """Three-valued truth of a region predicate over schema *info*.

    Sound in both decided directions: ``false`` means no region can
    satisfy the predicate; ``true`` means every region does (only
    claimed for fixed, always-present coordinates).
    """
    truth, __ = _region_truth(node, info)
    return truth


def _region_truth(node, info: RegionInfo) -> tuple:
    """``(truth, constraints_by_attribute)``; constraints are only valid
    when the node sits in a positive conjunction context."""
    if isinstance(node, ast.Comparison):
        name = _COORD_ALIASES.get(node.attribute, node.attribute)
        constraint = _atom_constraint(node.operator, node.value)
        if constraint is None:
            return TRUTH_UNKNOWN, {}
        domain = _coordinate_domain(name)
        effective = constraint.merge(domain) if domain is not None else constraint
        if effective.empty():
            return TRUTH_FALSE, {}
        if domain is not None and constraint.covers_all_from_zero():
            return TRUTH_TRUE, {name: constraint}
        return TRUTH_UNKNOWN, {name: constraint}
    if isinstance(node, ast.BoolAnd):
        left_truth, left_cons = _region_truth(node.left, info)
        right_truth, right_cons = _region_truth(node.right, info)
        if TRUTH_FALSE in (left_truth, right_truth):
            return TRUTH_FALSE, {}
        merged = dict(left_cons)
        for name, constraint in right_cons.items():
            merged[name] = (
                merged[name].merge(constraint) if name in merged else constraint
            )
            effective = merged[name]
            domain = _coordinate_domain(name)
            if domain is not None:
                effective = effective.merge(domain)
            if effective.empty():
                return TRUTH_FALSE, {}
        if left_truth == right_truth == TRUTH_TRUE:
            return TRUTH_TRUE, merged
        return TRUTH_UNKNOWN, merged
    if isinstance(node, ast.BoolOr):
        left_truth, __ = _region_truth(node.left, info)
        right_truth, __ = _region_truth(node.right, info)
        if TRUTH_TRUE in (left_truth, right_truth):
            return TRUTH_TRUE, {}
        if left_truth == right_truth == TRUTH_FALSE:
            return TRUTH_FALSE, {}
        return TRUTH_UNKNOWN, {}
    if isinstance(node, ast.BoolNot):
        inner_truth, __ = _region_truth(node.inner, info)
        if inner_truth == TRUTH_TRUE:
            return TRUTH_FALSE, {}
        if inner_truth == TRUTH_FALSE:
            return TRUTH_TRUE, {}
        return TRUTH_UNKNOWN, {}
    return TRUTH_UNKNOWN, {}


def meta_predicate_truth(node, meta: MetaInfo) -> str:
    """Three-valued truth of a metadata predicate.

    Metadata attributes are multi-valued, so value constraints do not
    conjoin; atoms are decided only when the attribute provably cannot
    exist (an absent attribute satisfies only ``!=``).
    """
    if isinstance(node, ast.Comparison):
        if meta.possible(node.attribute):
            return TRUTH_UNKNOWN
        return TRUTH_TRUE if node.operator == "!=" else TRUTH_FALSE
    if isinstance(node, ast.BoolAnd):
        left = meta_predicate_truth(node.left, meta)
        right = meta_predicate_truth(node.right, meta)
        if TRUTH_FALSE in (left, right):
            return TRUTH_FALSE
        if left == right == TRUTH_TRUE:
            return TRUTH_TRUE
        return TRUTH_UNKNOWN
    if isinstance(node, ast.BoolOr):
        left = meta_predicate_truth(node.left, meta)
        right = meta_predicate_truth(node.right, meta)
        if TRUTH_TRUE in (left, right):
            return TRUTH_TRUE
        if left == right == TRUTH_FALSE:
            return TRUTH_FALSE
        return TRUTH_UNKNOWN
    if isinstance(node, ast.BoolNot):
        inner = meta_predicate_truth(node.inner, meta)
        if inner == TRUTH_TRUE:
            return TRUTH_FALSE
        if inner == TRUTH_FALSE:
            return TRUTH_TRUE
        return TRUTH_UNKNOWN
    return TRUTH_UNKNOWN


def _predicate_span(node) -> Span | None:
    """The span of the first positioned atom inside a predicate."""
    if isinstance(node, ast.Comparison):
        return node.span
    if isinstance(node, (ast.BoolAnd, ast.BoolOr)):
        return _predicate_span(node.left) or _predicate_span(node.right)
    if isinstance(node, ast.BoolNot):
        return _predicate_span(node.inner)
    return None


def _predicate_attributes(node):
    """``(attribute, span)`` pairs of every comparison in a predicate."""
    if isinstance(node, ast.Comparison):
        yield node.attribute, node.span
    elif isinstance(node, (ast.BoolAnd, ast.BoolOr)):
        yield from _predicate_attributes(node.left)
        yield from _predicate_attributes(node.right)
    elif isinstance(node, ast.BoolNot):
        yield from _predicate_attributes(node.inner)


# -- dataset probing -----------------------------------------------------------


def _dataset_var_info(dataset) -> VarInfo:
    """Exact :class:`VarInfo` for an in-memory dataset.

    Memoised on the dataset (its ``_var_info``, reset when a sample is
    added): a resident source is analysed once, not on every compile.
    """
    info = dataset._var_info
    if info is None:
        info = dataset._var_info = _derive_var_info(dataset)
    return info


def _strands_of(sample):
    """A sample's strand symbols in row order; a sample born as columns
    gives its strand column (never materialised)."""
    rows = sample.held_rows()
    if isinstance(rows, ColumnRows):
        return rows.strands
    return map(_STRAND, sample.regions)


def _derive_var_info(dataset) -> VarInfo:
    meta_attrs: set = set()
    for sample in dataset:
        meta_attrs.update(sample.meta.attributes())
    stranded: bool | None = False
    probed = 0
    for sample in dataset:
        for strand in _strands_of(sample):
            if strand in ("+", "-"):
                stranded = True
                break
            probed += 1
            if probed >= _STRAND_PROBE_LIMIT:
                stranded = None  # too big to prove unstranded
                break
        if stranded is not False:
            break
    return VarInfo(
        RegionInfo.from_schema(dataset.schema),
        MetaInfo(frozenset(meta_attrs), True),
        stranded,
    )


# -- the analyzer --------------------------------------------------------------


def _operand_names(op) -> tuple:
    """The variable/source names an operation reads, in operand order."""
    if isinstance(op, ast.OpSelect):
        names = [op.operand]
        if op.semijoin is not None:
            names.append(op.semijoin.variable)
        return tuple(names)
    if isinstance(op, (ast.OpUnion, ast.OpDifference)):
        return (op.left, op.right)
    if isinstance(op, ast.OpMap):
        return (op.reference, op.experiment)
    if isinstance(op, ast.OpJoin):
        return (op.anchor, op.experiment)
    return (op.operand,)


@dataclass(frozen=True)
class _EffectFacts:
    """Effect-relevant lineage facts of one variable (``--effects``).

    Each field records the *first* offending operator in the variable's
    lineage as ``(operator name, span)``, mirroring what
    :mod:`repro.gmql.lang.effects` infers over compiled plans -- but at
    the source level, where diagnostics can point at a line.
    """

    breaker: tuple | None = None        # cross-chromosome aggregation
    unbounded_join: tuple | None = None  # JOIN with no DLE/MD clause


class Analyzer:
    """One-program semantic analyzer.

    Parameters
    ----------
    schemas:
        ``{source_name: RegionSchema}`` -- known source schemas (e.g.
        published by federation hosts).  Metadata stays open.
    datasets:
        ``{source_name: Dataset}`` -- in-memory sources; provides exact
        region schemas, the observed metadata attribute set, and
        strandedness.  Takes precedence over *schemas*.
    effects:
        Enable the GQL120-124 effect diagnostics: findings about
        execution strategy (shardability, merge exactness, cache
        safety, cardinality bounds) rather than correctness.
    """

    def __init__(
        self,
        schemas: dict | None = None,
        datasets: dict | None = None,
        effects: bool = False,
    ):
        self._sources: dict = {}
        for name, schema in (schemas or {}).items():
            self._sources[name] = VarInfo(RegionInfo.from_schema(schema))
        for name, dataset in (datasets or {}).items():
            self._sources[name] = _dataset_var_info(dataset)
        self._vars: dict = {}
        self._used_sources: set = set()
        self._empty: dict = {}
        self._diagnostics: list = []
        self._variable: str | None = None  # statement being analyzed
        self._effects = effects
        self._facts: dict = {}  # variable -> _EffectFacts

    # -- plumbing -------------------------------------------------------------

    def _emit(
        self, code: str, severity: str, message: str, span: Span | None
    ) -> None:
        self._diagnostics.append(
            Diagnostic(code, severity, message, span, self._variable)
        )

    def _operand(self, name: str) -> VarInfo:
        if name in self._vars:
            return self._vars[name]
        self._used_sources.add(name)
        if name in self._sources:
            return self._sources[name]
        return VarInfo()  # unknown source: fully open

    # -- entry point ----------------------------------------------------------

    def analyze(self, program: ast.Program) -> Analysis:
        for statement in program.statements:
            if not isinstance(statement, ast.Assign):
                continue
            self._variable = statement.variable
            if statement.variable in self._vars:
                self._emit(
                    "GQL114",
                    ERROR,
                    f"variable {statement.variable!r} assigned twice",
                    statement.span,
                )
                continue
            if statement.variable in self._used_sources:
                self._emit(
                    "GQL114",
                    ERROR,
                    f"variable {statement.variable!r} was already used as a "
                    f"source dataset",
                    statement.span,
                )
                continue
            self._vars[statement.variable] = self._operation(statement.operation)
            if self._effects:
                self._facts[statement.variable] = self._operation_facts(
                    statement.operation
                )
        self._variable = None
        self._check_materialize(program)
        sources = {
            name: self._sources.get(name, VarInfo())
            for name in self._used_sources
        }
        return Analysis(
            tuple(self._diagnostics), dict(self._vars), dict(self._empty),
            sources,
        )

    def _operation_facts(self, op) -> _EffectFacts:
        """Effect facts of one assignment: operand lineage plus the
        operation's own contribution (the *first* offender wins, so the
        diagnostic points at the root cause)."""
        breaker = None
        unbounded = None
        for name in _operand_names(op):
            facts = self._facts.get(name)
            if facts is None:
                continue
            breaker = breaker or facts.breaker
            unbounded = unbounded or facts.unbounded_join
        if breaker is None and isinstance(
            op, (ast.OpExtend, ast.OpMerge, ast.OpOrder, ast.OpGroup)
        ):
            breaker = (type(op).__name__[2:].upper(), op.span)
        if unbounded is None and isinstance(op, ast.OpJoin):
            if op.clauses and not any(
                c.kind in ("DLE", "MD") for c in op.clauses
            ):
                unbounded = ("JOIN", op.span)
        return _EffectFacts(breaker, unbounded)

    def _check_materialize(self, program: ast.Program) -> None:
        materialized = []
        for statement in program.statements:
            if not isinstance(statement, ast.MaterializeStmt):
                continue
            if statement.variable not in self._vars:
                self._emit(
                    "GQL114",
                    ERROR,
                    f"MATERIALIZE of unknown variable {statement.variable!r}",
                    statement.span,
                )
                continue
            materialized.append(statement.variable)
            self._check_output_effects(statement)
        if not materialized:
            return
        # Reachability from the materialised roots through operand edges.
        dependencies = {}
        spans = {}
        for statement in program.statements:
            if isinstance(statement, ast.Assign):
                dependencies.setdefault(
                    statement.variable, _operand_names(statement.operation)
                )
                spans.setdefault(statement.variable, statement.span)
        reachable: set = set()
        frontier = [v for v in materialized]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            frontier.extend(
                n for n in dependencies.get(name, ()) if n in dependencies
            )
        for name in dependencies:
            if name not in reachable:
                self._emit(
                    "GQL111",
                    WARNING,
                    f"variable {name!r} never reaches a MATERIALIZE; "
                    f"the operator is dead code",
                    spans.get(name),
                )

    def _check_output_effects(self, statement) -> None:
        """GQL120/GQL124: per-output shardability and bound findings."""
        if not self._effects:
            return
        facts = self._facts.get(statement.variable)
        if facts is None:
            return
        self._variable = statement.variable
        if facts.breaker is not None:
            operator, span = facts.breaker
            where = f" at line {span.line}" if span is not None else ""
            self._emit(
                "GQL120",
                WARNING,
                f"output {statement.variable!r} cannot shard by chromosome: "
                f"{operator}{where} aggregates across chromosomes, so it "
                f"runs as one whole-genome unit",
                statement.span,
            )
        if facts.unbounded_join is not None:
            operator, span = facts.unbounded_join
            where = f" at line {span.line}" if span is not None else ""
            self._emit(
                "GQL124",
                WARNING,
                f"output {statement.variable!r} has no static cardinality "
                f"bound: {operator}{where} has no distance upper bound "
                f"(DLE or MD), so its result can grow with "
                f"|anchor| x |experiment|",
                statement.span,
            )
        self._variable = None

    # -- operation dispatch ----------------------------------------------------

    def _operation(self, op) -> VarInfo:
        handler = getattr(self, f"_op_{type(op).__name__[2:].lower()}", None)
        if handler is None:
            return VarInfo()
        return handler(op)

    # -- shared checks ---------------------------------------------------------

    def _check_region_attribute(
        self, info: RegionInfo, name: str, span: Span | None, where: str
    ) -> None:
        """GQL101 when *name* is not a usable region attribute."""
        if name in _FIXED_REGION_TYPES:
            return
        if info.get(name) is _MISSING:
            known = ", ".join(info.names()) or "(none)"
            self._emit(
                "GQL101",
                ERROR,
                f"{where}: unknown region attribute {name!r}; "
                f"schema has: {known}",
                span,
            )

    def _check_meta_attribute(
        self, meta: MetaInfo, name: str, span: Span | None, where: str
    ) -> None:
        """GQL102 when *name* provably cannot exist in the metadata."""
        if not meta.possible(name):
            self._emit(
                "GQL102",
                WARNING,
                f"{where}: metadata attribute {name!r} cannot exist here "
                f"(possible attributes: {', '.join(sorted(meta.attrs)) or '(none)'})",
                span,
            )

    def _aggregate_outputs(
        self, calls, region: RegionInfo, meta: MetaInfo, where: str,
        over: str = "region",
    ) -> list:
        """Validate aggregate calls; returns ordered ``(target, type)``.

        ``over`` selects the attribute space the aggregate reads from:
        region attributes (typed) or metadata attributes (untyped).
        Result types mirror the runtime kernels:
        ``aggregate.result_type(input_type) if input_type else INT``.
        """
        outputs = []
        seen: set = set()
        for call in calls:
            if call.target in seen:
                self._emit(
                    "GQL112",
                    ERROR,
                    f"{where}: duplicate target {call.target!r}",
                    call.span,
                )
                continue
            seen.add(call.target)
            try:
                aggregate = aggregate_named(call.function)
            except EvaluationError:
                self._emit(
                    "GQL113",
                    ERROR,
                    f"{where}: unknown aggregate {call.function!r}",
                    call.function_span,
                )
                outputs.append((call.target, None))
                continue
            if aggregate.requires_attribute and call.attribute is None:
                self._emit(
                    "GQL113",
                    ERROR,
                    f"{where}: {call.function} needs an attribute argument",
                    call.function_span,
                )
                outputs.append((call.target, None))
                continue
            input_type = None
            if call.attribute is not None:
                if over == "region":
                    if call.attribute in _FIXED_REGION_TYPES:
                        self._emit(
                            "GQL101",
                            ERROR,
                            f"{where}: {call.attribute!r} is a fixed coordinate; "
                            f"aggregates read variable region attributes",
                            call.attribute_span,
                        )
                    else:
                        found = region.get(call.attribute)
                        if found is _MISSING:
                            known = ", ".join(region.names()) or "(none)"
                            self._emit(
                                "GQL101",
                                ERROR,
                                f"{where}: unknown region attribute "
                                f"{call.attribute!r}; schema has: {known}",
                                call.attribute_span,
                            )
                        else:
                            input_type = found
                else:
                    self._check_meta_attribute(
                        meta, call.attribute, call.attribute_span, where
                    )
            if (
                call.function in _NUMERIC_AGGREGATES
                and input_type in (STR, BOOL)
            ):
                self._emit(
                    "GQL103",
                    ERROR,
                    f"{where}: {call.function} needs a numeric attribute, but "
                    f"{call.attribute!r} is {input_type.name}",
                    call.attribute_span or call.function_span,
                )
            if (
                self._effects
                and input_type is not None
                and aggregate.merge_class(input_type) == ORDERED
            ):
                self._emit(
                    "GQL121",
                    WARNING,
                    f"{where}: {call.function}({call.attribute}) over "
                    f"{input_type.name} values forces an ordered merge; "
                    f"sharded partials cannot be re-aggregated exactly",
                    call.function_span or call.span,
                )
            result_type = (
                aggregate.result_type(input_type) if input_type else INT
            )
            if over == "meta":
                # Metadata values are untyped at rest; only aggregates
                # with a fixed result type are known.
                result_type = aggregate.result_type(None)
            outputs.append((call.target, result_type))
        return outputs

    def _check_select_predicates(self, op: ast.OpSelect, info: VarInfo) -> bool:
        """All SELECT predicate rules; returns provable meta-emptiness."""
        empty = False
        if op.meta is not None:
            for attribute, span in _predicate_attributes(op.meta):
                self._check_meta_attribute(
                    info.meta, attribute, span, "SELECT"
                )
            truth = meta_predicate_truth(op.meta, info.meta)
            if truth == TRUTH_FALSE:
                self._emit(
                    "GQL107",
                    WARNING,
                    "SELECT metadata predicate is always false: "
                    "the result is statically empty",
                    _predicate_span(op.meta) or op.span,
                )
                empty = True
            elif truth == TRUTH_TRUE:
                self._emit(
                    "GQL108",
                    WARNING,
                    "SELECT metadata predicate is always true: "
                    "it never filters anything",
                    _predicate_span(op.meta) or op.span,
                )
        if op.region is not None:
            for attribute, span in _predicate_attributes(op.region):
                self._check_region_attribute(
                    info.region, attribute, span, "SELECT region"
                )
            truth = region_predicate_truth(op.region, info.region)
            if truth == TRUTH_FALSE:
                self._emit(
                    "GQL107",
                    WARNING,
                    "SELECT region predicate is always false: "
                    "every sample keeps zero regions",
                    _predicate_span(op.region) or op.span,
                )
            elif truth == TRUTH_TRUE:
                self._emit(
                    "GQL108",
                    WARNING,
                    "SELECT region predicate is always true: "
                    "it never filters anything",
                    _predicate_span(op.region) or op.span,
                )
        return empty

    # -- per-operation inference ------------------------------------------------

    def _op_select(self, op: ast.OpSelect) -> VarInfo:
        info = self._operand(op.operand)
        empty = self._check_select_predicates(op, info)
        if op.semijoin is not None:
            other = self._operand(op.semijoin.variable)
            for attribute, span in zip(
                op.semijoin.attributes, op.semijoin.attribute_spans or ()
            ):
                self._check_meta_attribute(
                    info.meta, attribute, span, "SELECT semijoin"
                )
                self._check_meta_attribute(
                    other.meta, attribute, span,
                    f"SELECT semijoin against {op.semijoin.variable!r}",
                )
        if empty and self._variable is not None:
            if info.region.to_schema() is not None:
                self._empty[self._variable] = "GQL107"
        return info

    def _op_project(self, op: ast.OpProject) -> VarInfo:
        info = self._operand(op.operand)
        child = info.region
        if op.region_attributes is None:
            kept = list(child.attrs)
            closed = child.closed
        else:
            kept = []
            spans = op.region_attribute_spans or ()
            for index, name in enumerate(op.region_attributes):
                span = spans[index] if index < len(spans) else op.span
                if name in _FIXED_REGION_TYPES:
                    # Fixed coordinates are implicit in every schema; the
                    # runtime rejects keeping them explicitly.
                    self._emit(
                        "GQL101",
                        ERROR,
                        f"PROJECT: {name!r} is a fixed coordinate and is "
                        f"always kept; list only variable attributes",
                        span,
                    )
                    continue
                if any(existing == name for existing, __ in kept):
                    self._emit(
                        "GQL112",
                        ERROR,
                        f"PROJECT: attribute {name!r} kept twice",
                        span,
                    )
                    continue
                found = child.get(name)
                if found is _MISSING:
                    known = ", ".join(child.names()) or "(none)"
                    self._emit(
                        "GQL101",
                        ERROR,
                        f"PROJECT: unknown region attribute {name!r}; "
                        f"schema has: {known}",
                        span,
                    )
                    continue
                kept.append((name, found))
            closed = True  # an explicit list closes the schema
        new_spans = op.new_attribute_spans or ()
        if self._effects and op.new_region_attributes:
            first_name, __ = op.new_region_attributes[0]
            self._emit(
                "GQL122",
                WARNING,
                f"PROJECT: computed attribute {first_name!r} has no stable "
                f"content fingerprint; this operator and everything above "
                f"it bypass the result cache",
                new_spans[0] if new_spans else op.span,
            )
        for index, (name, expression) in enumerate(op.new_region_attributes):
            span = new_spans[index] if index < len(new_spans) else op.span
            if name in _FIXED_REGION_TYPES or name == "id":
                self._emit(
                    "GQL112",
                    ERROR,
                    f"PROJECT: new attribute {name!r} collides with a fixed "
                    f"GDM attribute",
                    span,
                )
                continue
            if any(existing == name for existing, __ in kept):
                self._emit(
                    "GQL112",
                    ERROR,
                    f"PROJECT: duplicate result attribute {name!r}",
                    span,
                )
                continue
            kept.append((name, self._arith_type(expression, child)))
        region = RegionInfo(tuple(kept), closed)
        meta = info.meta
        if op.metadata_attributes is not None:
            meta_spans = op.metadata_attribute_spans or ()
            possible = set()
            for index, name in enumerate(op.metadata_attributes):
                span = meta_spans[index] if index < len(meta_spans) else op.span
                self._check_meta_attribute(
                    info.meta, name, span, "PROJECT metadata"
                )
                if info.meta.possible(name):
                    possible.add(name)
            meta = MetaInfo(frozenset(possible), True)
        return VarInfo(region, meta, info.stranded)

    def _arith_type(self, expression, child: RegionInfo):
        """Result type of a PROJECT expression, mirroring the compiler:
        INT for integer literals/coordinates combined with ``+ - *``,
        FLOAT for everything else (division, float literals, variable
        attributes).  Also checks attribute references (GQL101)."""

        def walk(node) -> bool:
            if isinstance(node, ast.Num):
                return isinstance(node.value, int)
            if isinstance(node, ast.Attr):
                if node.name not in _ARITH_ENV_NAMES:
                    if child.get(node.name) is _MISSING:
                        known = ", ".join(
                            sorted(set(child.names()) | _ARITH_ENV_NAMES)
                        )
                        self._emit(
                            "GQL101",
                            ERROR,
                            f"PROJECT: unknown attribute {node.name!r} in "
                            f"expression; in scope: {known}",
                            node.span,
                        )
                return node.name in ("left", "right", "length")
            if isinstance(node, ast.BinOp):
                left_int = walk(node.left)
                right_int = walk(node.right)
                return left_int and right_int and node.operator != "/"
            return False

        return INT if walk(expression) else FLOAT

    def _op_extend(self, op: ast.OpExtend) -> VarInfo:
        info = self._operand(op.operand)
        outputs = self._aggregate_outputs(
            op.assignments, info.region, info.meta, "EXTEND"
        )
        meta = MetaInfo(
            info.meta.attrs | {target for target, __ in outputs},
            info.meta.closed,
        )
        return VarInfo(info.region, meta, info.stranded)

    def _op_merge(self, op: ast.OpMerge) -> VarInfo:
        info = self._operand(op.operand)
        for name in op.groupby:
            self._check_meta_attribute(info.meta, name, op.span, "MERGE groupby")
        return info

    def _op_group(self, op: ast.OpGroup) -> VarInfo:
        info = self._operand(op.operand)
        for name in op.meta_keys or ():
            self._check_meta_attribute(info.meta, name, op.span, "GROUP groupby")
        meta_outputs = self._aggregate_outputs(
            op.meta_aggregates, info.region, info.meta, "GROUP metadata",
            over="meta",
        )
        region_outputs = self._aggregate_outputs(
            op.region_aggregates, info.region, info.meta, "GROUP region"
        )
        region = info.region
        if region_outputs:
            # Region aggregates *replace* the schema (one region per
            # group of duplicates, values = the aggregates).
            region = RegionInfo(tuple(region_outputs), True)
        if op.meta_keys is not None:
            attrs = set(op.meta_keys) | {t for t, __ in meta_outputs}
            meta = MetaInfo(frozenset(attrs), True)
        else:
            meta = info.meta
        return VarInfo(region, meta, info.stranded)

    def _op_order(self, op: ast.OpOrder) -> VarInfo:
        info = self._operand(op.operand)
        for attribute, __ in op.meta_keys:
            self._check_meta_attribute(info.meta, attribute, op.span, "ORDER")
        spans = op.region_key_spans or ()
        for index, (attribute, __) in enumerate(op.region_keys):
            span = spans[index] if index < len(spans) else op.span
            # The ORDER kernel resolves left/right plus variable attributes.
            if attribute in ("left", "right"):
                continue
            if info.region.get(attribute) is _MISSING:
                known = ", ".join(info.region.names()) or "(none)"
                self._emit(
                    "GQL101",
                    ERROR,
                    f"ORDER region: unknown region attribute {attribute!r}; "
                    f"schema has: left, right, {known}",
                    span,
                )
        return info

    def _op_union(self, op: ast.OpUnion) -> VarInfo:
        left = self._operand(op.left)
        right = self._operand(op.right)
        attrs = list(left.region.attrs)
        names = {name for name, __ in attrs}
        for name, right_type in right.region.attrs:
            left_type = dict(left.region.attrs).get(name)
            if name in names:
                if (
                    left_type is not None
                    and right_type is not None
                    and left_type != right_type
                ):
                    self._emit(
                        "GQL104",
                        WARNING,
                        f"UNION: attribute {name!r} is {left_type.name} in "
                        f"{op.left!r} but {right_type.name} in {op.right!r}; "
                        f"the right column is renamed {name + '_right'!r}",
                        op.span,
                    )
                    renamed = name + "_right"
                    while renamed in names:
                        renamed += "_"
                    attrs.append((renamed, right_type))
                    names.add(renamed)
                # Same name, same (or unknown) type: unified.
                continue
            attrs.append((name, right_type))
            names.add(name)
        region = RegionInfo(
            tuple(attrs), left.region.closed and right.region.closed
        )
        meta = MetaInfo(
            left.meta.attrs | right.meta.attrs,
            left.meta.closed and right.meta.closed,
        )
        stranded = _either_stranded(left.stranded, right.stranded)
        return VarInfo(region, meta, stranded)

    def _op_difference(self, op: ast.OpDifference) -> VarInfo:
        left = self._operand(op.left)
        right = self._operand(op.right)
        if self._effects and (op.exact or op.joinby):
            mode = (
                "exact region matching" if op.exact
                else "metadata joinby grouping"
            )
            self._emit(
                "GQL123",
                WARNING,
                f"DIFFERENCE: {mode} falls back to the per-region naive "
                f"kernel instead of the vectorised overlap sweep",
                op.span,
            )
        for name in op.joinby:
            self._check_meta_attribute(
                left.meta, name, op.span, "DIFFERENCE joinby"
            )
            self._check_meta_attribute(
                right.meta, name, op.span, f"DIFFERENCE joinby in {op.right!r}"
            )
        return left

    def _op_cover(self, op: ast.OpCover) -> VarInfo:
        info = self._operand(op.operand)
        low = op.min_acc
        high = op.max_acc
        if low.kind == "INT" and low.value < 0:
            self._emit(
                "GQL106",
                ERROR,
                f"{op.variant}: accumulation bound must be non-negative, "
                f"got {low.value}",
                low.span or op.span,
            )
        if high.kind == "INT" and high.value < 0:
            self._emit(
                "GQL106",
                ERROR,
                f"{op.variant}: accumulation bound must be non-negative, "
                f"got {high.value}",
                high.span or op.span,
            )
        if (
            low.kind == "INT"
            and high.kind == "INT"
            and low.value > high.value >= 0
        ):
            self._emit(
                "GQL106",
                ERROR,
                f"{op.variant}: minAcc={low.value} exceeds maxAcc="
                f"{high.value}; no interval can accumulate in that range",
                low.span or op.span,
            )
        for name in op.groupby:
            self._check_meta_attribute(
                info.meta, name, op.span, f"{op.variant} groupby"
            )
        region = RegionInfo((("acc_index", INT),), True)
        # COVER regions are built unstranded; group metadata is the
        # members' union, so the attribute bound carries over.
        return VarInfo(region, info.meta, False)

    def _op_map(self, op: ast.OpMap) -> VarInfo:
        reference = self._operand(op.reference)
        experiment = self._operand(op.experiment)
        calls = op.assignments or (
            ast.AggregateCall("count", "COUNT", None, span=op.span),
        )
        outputs = self._aggregate_outputs(
            calls, experiment.region, experiment.meta, "MAP"
        )
        attrs = list(reference.region.attrs)
        names = {name for name, __ in attrs}
        for target, result_type in outputs:
            if target in names or target in _FIXED_REGION_TYPES:
                self._emit(
                    "GQL112",
                    ERROR,
                    f"MAP: result attribute {target!r} collides with the "
                    f"reference schema",
                    _call_span(calls, target) or op.span,
                )
                continue
            attrs.append((target, result_type))
            names.add(target)
        for name in op.joinby:
            self._check_meta_attribute(
                reference.meta, name, op.span, "MAP joinby"
            )
            self._check_meta_attribute(
                experiment.meta, name, op.span,
                f"MAP joinby in {op.experiment!r}",
            )
        region = RegionInfo(tuple(attrs), reference.region.closed)
        meta = _prefixed_meta(reference.meta, experiment.meta)
        return VarInfo(region, meta, reference.stranded)

    def _op_join(self, op: ast.OpJoin) -> VarInfo:
        anchor = self._operand(op.anchor)
        experiment = self._operand(op.experiment)
        self._check_join_condition(op, anchor)
        for name in op.joinby:
            self._check_meta_attribute(anchor.meta, name, op.span, "JOIN joinby")
            self._check_meta_attribute(
                experiment.meta, name, op.span, f"JOIN joinby in {op.experiment!r}"
            )
        # Merged schema (paper section 2): same name+type unify, clashes
        # rename the right attribute `_right`; plus the `dist` column.
        attrs = list(anchor.region.attrs)
        names = {name for name, __ in attrs}
        left_types = dict(anchor.region.attrs)
        for name, right_type in experiment.region.attrs:
            if name in names:
                left_type = left_types.get(name)
                if (
                    left_type is not None
                    and right_type is not None
                    and left_type == right_type
                ):
                    continue  # unified
                if left_type is None or right_type is None:
                    continue  # unknown: assume unified
                renamed = name + "_right"
                while renamed in names:
                    renamed += "_"
                attrs.append((renamed, right_type))
                names.add(renamed)
                continue
            attrs.append((name, right_type))
            names.add(name)
        closed = anchor.region.closed and experiment.region.closed
        if "dist" in names and closed:
            self._emit(
                "GQL112",
                ERROR,
                "JOIN: the result carries a 'dist' attribute, but an operand "
                "already has one; rename it (e.g. with PROJECT) before joining",
                op.span,
            )
        elif "dist" not in names:
            attrs.append(("dist", INT))
        region = RegionInfo(tuple(attrs), closed)
        meta = _prefixed_meta(anchor.meta, experiment.meta)
        stranded = _either_stranded(anchor.stranded, experiment.stranded)
        return VarInfo(region, meta, stranded)

    def _check_join_condition(self, op: ast.OpJoin, anchor: VarInfo) -> None:
        if not op.clauses:
            self._emit(
                "GQL110",
                ERROR,
                "JOIN needs at least one genometric clause "
                "(DLE/DGE/MD/UP/DOWN)",
                op.span,
            )
            return
        dle = [c for c in op.clauses if c.kind == "DLE"]
        dge = [c for c in op.clauses if c.kind == "DGE"]
        md = [c for c in op.clauses if c.kind == "MD"]
        up = [c for c in op.clauses if c.kind == "UP"]
        down = [c for c in op.clauses if c.kind == "DOWN"]
        for clause in md:
            if clause.argument is None or clause.argument < 1:
                self._emit(
                    "GQL105",
                    ERROR,
                    f"MD({clause.argument}) is unsatisfiable: minimum-distance "
                    f"neighbourhoods need k >= 1",
                    clause.span or op.span,
                )
        if len(md) > 1:
            self._emit(
                "GQL105",
                ERROR,
                "JOIN accepts at most one MD clause",
                md[1].span or op.span,
            )
        if dle and dge:
            tightest = min(c.argument for c in dle)
            loosest = max(c.argument for c in dge)
            if loosest > tightest:
                self._emit(
                    "GQL105",
                    ERROR,
                    f"genometric condition is unsatisfiable: DLE({tightest}) "
                    f"requires distance <= {tightest} but DGE({loosest}) "
                    f"requires distance >= {loosest}",
                    dge[0].span or op.span,
                )
        if up and down:
            self._emit(
                "GQL105",
                ERROR,
                "UP and DOWN together are unsatisfiable: a region cannot be "
                "both upstream and downstream of its anchor",
                down[0].span or op.span,
            )
        if not dle and not md:
            self._emit(
                "GQL110",
                WARNING,
                "JOIN has no distance upper bound (DLE or MD): candidate "
                "pairs grow with |anchor| x |experiment| per chromosome",
                op.span,
            )
        if (up or down) and anchor.stranded is False:
            clause = (up or down)[0]
            self._emit(
                "GQL109",
                WARNING,
                f"{clause.kind} is strand-relative, but the anchor "
                f"{op.anchor!r} is provably unstranded (every strand is "
                f"'*'), so it degenerates to plain before/after",
                clause.span or op.span,
            )


def _call_span(calls, target: str) -> Span | None:
    for call in calls:
        if call.target == target:
            return call.span
    return None


def _prefixed_meta(left: MetaInfo, right: MetaInfo) -> MetaInfo:
    """Binary-operator result metadata: ``left.``/``right.`` prefixed."""
    attrs = {f"left.{name}" for name in left.attrs} | {
        f"right.{name}" for name in right.attrs
    }
    return MetaInfo(frozenset(attrs), left.closed and right.closed)


def _either_stranded(a: bool | None, b: bool | None) -> bool | None:
    if a is True or b is True:
        return True
    if a is False and b is False:
        return False
    return None


def analyze_program(
    program,
    schemas: dict | None = None,
    datasets: dict | None = None,
    effects: bool = False,
) -> Analysis:
    """Analyze a GMQL program (text or parsed
    :class:`~repro.gmql.lang.ast_nodes.Program`).

    With ``effects=True`` the GQL120-124 effect diagnostics are emitted
    alongside the correctness rules (see :data:`EFFECT_RULES`).

    Returns an :class:`Analysis`; never raises for semantic problems --
    callers decide what severity gates what (the compiler raises
    :class:`~repro.errors.GmqlCompileError` on error-severity findings,
    ``repro check --strict`` also fails on warnings).
    """
    source = None
    if isinstance(program, str):
        from repro.gmql.lang.parser import parse

        source = program
        program = parse(program)
    analysis = Analyzer(
        schemas=schemas, datasets=datasets, effects=effects
    ).analyze(program)
    analysis.source = source
    return analysis
