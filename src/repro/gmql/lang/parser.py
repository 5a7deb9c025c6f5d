"""Recursive-descent parser for the textual GMQL dialect.

Statement forms::

    VAR = SELECT(<bool>; region: <bool>; semijoin: a,b IN OTHER) DS;
    VAR = PROJECT(attr1, new AS right - left; metadata: cell) DS;
    VAR = EXTEND(n AS COUNT, m AS MAX(score)) DS;
    VAR = MERGE(groupby: cell) DS;
    VAR = GROUP(groupby: cell; metadata: n AS COUNT(rep); region: m AS COUNT) DS;
    VAR = ORDER(score DESC; top: 5; region: p_value ASC TOP 3) DS;
    VAR = UNION() A B;
    VAR = DIFFERENCE(joinby: cell; exact) A B;
    VAR = COVER(2, ANY; groupby: cell) DS;        # also FLAT/SUMMIT/HISTOGRAM
    VAR = MAP(peak_count AS COUNT; joinby: cell) REF EXP;
    VAR = JOIN(DLE(1000), MD(1), UP; output: LEFT; joinby: cell) A B;
    MATERIALIZE VAR;
    MATERIALIZE VAR INTO Name;

Keywords are case-insensitive; operands are variable or source-dataset
names.  Accumulation bounds accept ``N``, ``ANY``, ``ALL``, ``ALL + k``
and ``(ALL + k) / n``.

Token positions are threaded onto the AST as
:class:`~repro.gmql.lang.span.Span` records (excluded from node
equality), so the semantic analyzer can point diagnostics back into the
program text; syntax errors carry the same positions and render the same
caret frames.
"""

from __future__ import annotations

import dataclasses

from repro.errors import GmqlSyntaxError
from repro.gmql.lang import ast_nodes as ast
from repro.gmql.lang.lexer import tokenize
from repro.gmql.lang.tokens import EOF, IDENT, KEYWORD, NUMBER, STRING, Token

_COMPARISON_OPS = ("==", "!=", "<=", ">=", "<", ">")
_OPERATION_KEYWORDS = (
    "SELECT", "PROJECT", "EXTEND", "MERGE", "GROUP", "ORDER", "UNION",
    "DIFFERENCE", "COVER", "FLAT", "SUMMIT", "HISTOGRAM", "MAP", "JOIN",
)


class Parser:
    """One-pass recursive-descent parser over a token list."""

    def __init__(self, tokens: list) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token plumbing -------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        index = min(self._position + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.kind != EOF:
            self._position += 1
        return token

    def _error(self, message: str, token: Token | None = None) -> GmqlSyntaxError:
        token = token or self._peek()
        return GmqlSyntaxError(
            f"{message}, found {token}",
            token.line,
            token.column,
            token.span().length,
        )

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_symbol(symbol):
            raise self._error(f"expected {symbol!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise self._error(f"expected {word}")
        return self._advance()

    def _expect_name_token(self) -> tuple:
        """``(name, token)`` for an operand/attribute name: IDENT, or a
        keyword used as a name."""
        token = self._peek()
        if token.kind in (IDENT, KEYWORD):
            self._advance()
            name = token.value if token.kind == IDENT else token.value.lower()
            return name, token
        raise self._error("expected a name")

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind != IDENT:
            raise self._error("expected an identifier")
        self._advance()
        return token.value

    def _expect_int(self) -> int:
        negative = False
        if self._peek().is_symbol("-"):
            self._advance()
            negative = True
        token = self._peek()
        if token.kind != NUMBER:
            raise self._error("expected an integer")
        self._advance()
        try:
            value = int(token.value)
        except ValueError:
            raise self._error("expected an integer", token) from None
        return -value if negative else value

    # -- program --------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        statements = []
        while self._peek().kind != EOF:
            statements.append(self._statement())
        return ast.Program(tuple(statements))

    def _statement(self):
        token = self._peek()
        if token.is_keyword("MATERIALIZE"):
            self._advance()
            variable_token = self._peek()
            variable = self._expect_ident()
            target = None
            if self._peek().is_keyword("INTO"):
                self._advance()
                next_token = self._peek()
                if next_token.kind in (IDENT, STRING):
                    self._advance()
                    target = next_token.value
                else:
                    raise self._error("expected a name after INTO")
            self._expect_symbol(";")
            return ast.MaterializeStmt(
                variable, target, token.line, span=variable_token.span()
            )
        if token.kind != IDENT:
            raise self._error("expected a variable assignment or MATERIALIZE")
        variable = self._expect_ident()
        self._expect_symbol("=")
        operation = self._operation()
        self._expect_symbol(";")
        return ast.Assign(variable, operation, token.line, span=token.span())

    # -- operations -----------------------------------------------------------

    def _operation(self):
        token = self._peek()
        if token.kind != KEYWORD or token.value not in _OPERATION_KEYWORDS:
            raise self._error("expected a GMQL operation keyword")
        self._advance()
        handler = getattr(self, f"_op_{token.value.lower()}")
        operation = handler()
        return dataclasses.replace(operation, span=token.span())

    # Each operator parses '(' args ')' then its operand variable(s).

    def _op_select(self) -> ast.OpSelect:
        self._expect_symbol("(")
        meta = region = None
        semijoin = None
        if not self._peek().is_symbol(")"):
            while True:
                if self._peek().is_keyword("REGION"):
                    self._advance()
                    self._expect_symbol(":")
                    clause = self._bool_expr()
                    region = (
                        clause if region is None else ast.BoolAnd(region, clause)
                    )
                elif self._peek().is_keyword("SEMIJOIN"):
                    self._advance()
                    self._expect_symbol(":")
                    semijoin = self._semijoin_clause()
                else:
                    clause = self._bool_expr()
                    meta = clause if meta is None else ast.BoolAnd(meta, clause)
                if self._peek().is_symbol(";"):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        operand = self._expect_ident()
        return ast.OpSelect(operand, meta, region, semijoin)

    def _semijoin_clause(self) -> ast.SemiJoinClause:
        first = self._peek()
        attributes = []
        spans = []
        name, token = self._expect_name_token()
        attributes.append(name)
        spans.append(token.span())
        while self._peek().is_symbol(","):
            self._advance()
            name, token = self._expect_name_token()
            attributes.append(name)
            spans.append(token.span())
        negated = False
        if self._peek().is_keyword("NOT"):
            self._advance()
            negated = True
        self._expect_keyword("IN")
        variable = self._expect_ident()
        return ast.SemiJoinClause(
            tuple(attributes),
            variable,
            negated,
            span=first.span(),
            attribute_spans=tuple(spans),
        )

    def _op_project(self) -> ast.OpProject:
        self._expect_symbol("(")
        region_attributes: list | None = None
        region_spans: list | None = None
        new_attributes: list = []
        new_spans: list = []
        metadata_attributes: tuple | None = None
        metadata_spans: tuple = ()
        keep_all = False
        if not self._peek().is_symbol(")"):
            while True:
                if self._peek().is_keyword("METADATA"):
                    self._advance()
                    self._expect_symbol(":")
                    names, spans = self._name_list_spanned()
                    metadata_attributes = tuple(names)
                    metadata_spans = tuple(spans)
                else:
                    # Item list: '*' (keep all), names to keep, or
                    # `name AS <expr>` new attributes, comma-separated.
                    while True:
                        if self._peek().is_symbol("*"):
                            self._advance()
                            keep_all = True
                        else:
                            name, token = self._expect_name_token()
                            if self._peek().is_keyword("AS"):
                                self._advance()
                                new_attributes.append((name, self._arith_expr()))
                                new_spans.append(token.span())
                            else:
                                if region_attributes is None:
                                    region_attributes = []
                                    region_spans = []
                                region_attributes.append(name)
                                region_spans.append(token.span())
                        if self._peek().is_symbol(","):
                            self._advance()
                            continue
                        break
                if self._peek().is_symbol(";"):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        operand = self._expect_ident()
        if keep_all:
            region_attributes = None
            region_spans = None
        elif region_attributes is None and new_attributes:
            # Only new attributes were given: keep nothing of the original
            # variable schema (use '*' to keep it).
            region_attributes = []
            region_spans = []
        return ast.OpProject(
            operand,
            tuple(region_attributes) if region_attributes is not None else None,
            metadata_attributes,
            tuple(new_attributes),
            region_attribute_spans=(
                tuple(region_spans) if region_spans is not None else ()
            ),
            metadata_attribute_spans=metadata_spans,
            new_attribute_spans=tuple(new_spans),
        )

    def _aggregate_call(self) -> ast.AggregateCall:
        target, target_token = self._expect_name_token()
        self._expect_keyword("AS")
        function, function_token = self._expect_name_token()
        function = function.upper()
        attribute = None
        attribute_span = None
        if self._peek().is_symbol("("):
            self._advance()
            if not self._peek().is_symbol(")"):
                attribute, attribute_token = self._expect_name_token()
                attribute_span = attribute_token.span()
            self._expect_symbol(")")
        return ast.AggregateCall(
            target,
            function,
            attribute,
            span=target_token.span(),
            function_span=function_token.span(),
            attribute_span=attribute_span,
        )

    def _aggregate_list(self) -> list:
        calls = [self._aggregate_call()]
        while self._peek().is_symbol(","):
            self._advance()
            calls.append(self._aggregate_call())
        return calls

    def _op_extend(self) -> ast.OpExtend:
        self._expect_symbol("(")
        assignments = self._aggregate_list()
        self._expect_symbol(")")
        operand = self._expect_ident()
        return ast.OpExtend(operand, tuple(assignments))

    def _op_merge(self) -> ast.OpMerge:
        groupby: tuple = ()
        self._expect_symbol("(")
        if self._peek().is_keyword("GROUPBY"):
            self._advance()
            self._expect_symbol(":")
            groupby = tuple(self._name_list())
        self._expect_symbol(")")
        operand = self._expect_ident()
        return ast.OpMerge(operand, groupby)

    def _op_group(self) -> ast.OpGroup:
        self._expect_symbol("(")
        meta_keys: tuple | None = None
        meta_aggregates: tuple = ()
        region_aggregates: tuple = ()
        if not self._peek().is_symbol(")"):
            while True:
                if self._peek().is_keyword("GROUPBY"):
                    self._advance()
                    self._expect_symbol(":")
                    meta_keys = tuple(self._name_list())
                elif self._peek().is_keyword("METADATA"):
                    self._advance()
                    self._expect_symbol(":")
                    meta_aggregates = tuple(self._aggregate_list())
                elif self._peek().is_keyword("REGION"):
                    self._advance()
                    self._expect_symbol(":")
                    region_aggregates = tuple(self._aggregate_list())
                else:
                    raise self._error(
                        "expected groupby:, metadata: or region: in GROUP"
                    )
                if self._peek().is_symbol(";"):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        operand = self._expect_ident()
        return ast.OpGroup(operand, meta_keys, meta_aggregates, region_aggregates)

    def _order_keys(self) -> tuple:
        """``(keys, spans)``: ``[(attribute, dir), ...]`` plus positions."""
        keys = []
        spans = []
        while True:
            attribute, token = self._expect_name_token()
            direction = "ASC"
            if self._peek().is_keyword("ASC") or self._peek().is_keyword("DESC"):
                direction = self._advance().value
            keys.append((attribute, direction))
            spans.append(token.span())
            if self._peek().is_symbol(","):
                self._advance()
                continue
            break
        return keys, spans

    def _op_order(self) -> ast.OpOrder:
        self._expect_symbol("(")
        meta_keys: tuple = ()
        top = None
        region_keys: tuple = ()
        region_spans: tuple = ()
        region_top = None
        if not self._peek().is_symbol(")"):
            while True:
                if self._peek().is_keyword("TOP"):
                    self._advance()
                    self._expect_symbol(":")
                    top = self._expect_int()
                elif self._peek().is_keyword("REGION"):
                    self._advance()
                    self._expect_symbol(":")
                    keys, spans = self._order_keys()
                    region_keys = tuple(keys)
                    region_spans = tuple(spans)
                    if self._peek().is_keyword("TOP"):
                        self._advance()
                        region_top = self._expect_int()
                else:
                    keys, __ = self._order_keys()
                    meta_keys = tuple(keys)
                if self._peek().is_symbol(";"):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        operand = self._expect_ident()
        return ast.OpOrder(
            operand,
            meta_keys,
            top,
            region_keys,
            region_top,
            region_key_spans=region_spans,
        )

    def _op_union(self) -> ast.OpUnion:
        self._expect_symbol("(")
        self._expect_symbol(")")
        left = self._expect_ident()
        right = self._expect_ident()
        return ast.OpUnion(left, right)

    def _op_difference(self) -> ast.OpDifference:
        joinby: tuple = ()
        exact = False
        self._expect_symbol("(")
        if not self._peek().is_symbol(")"):
            while True:
                if self._peek().is_keyword("JOINBY"):
                    self._advance()
                    self._expect_symbol(":")
                    joinby = tuple(self._name_list())
                elif self._peek().is_keyword("EXACT"):
                    self._advance()
                    exact = True
                else:
                    raise self._error("expected joinby: or exact in DIFFERENCE")
                if self._peek().is_symbol(";"):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        left = self._expect_ident()
        right = self._expect_ident()
        return ast.OpDifference(left, right, joinby, exact)

    def _bound(self) -> ast.BoundExpr:
        start = self._peek()
        bound = self._bound_value()
        return dataclasses.replace(bound, span=start.span())

    def _bound_value(self) -> ast.BoundExpr:
        token = self._peek()
        if token.is_keyword("ANY"):
            self._advance()
            return ast.BoundExpr("ANY")
        if token.is_symbol("("):
            self._advance()
            bound = self._all_bound()
            self._expect_symbol(")")
            if self._peek().is_symbol("/"):
                self._advance()
                divisor = self._expect_int()
                bound = ast.BoundExpr("ALL", offset=bound.offset, divisor=divisor)
            return bound
        if token.is_keyword("ALL"):
            return self._all_bound()
        return ast.BoundExpr("INT", self._expect_int())

    def _all_bound(self) -> ast.BoundExpr:
        self._expect_keyword("ALL")
        offset = 0
        if self._peek().is_symbol("+"):
            self._advance()
            offset = self._expect_int()
        elif self._peek().is_symbol("-"):
            self._advance()
            offset = -self._expect_int()
        divisor = 1
        if self._peek().is_symbol("/"):
            self._advance()
            divisor = self._expect_int()
        return ast.BoundExpr("ALL", offset=offset, divisor=divisor)

    def _cover_like(self, variant: str) -> ast.OpCover:
        self._expect_symbol("(")
        min_acc = self._bound()
        self._expect_symbol(",")
        max_acc = self._bound()
        groupby: tuple = ()
        if self._peek().is_symbol(";"):
            self._advance()
            self._expect_keyword("GROUPBY")
            self._expect_symbol(":")
            groupby = tuple(self._name_list())
        self._expect_symbol(")")
        operand = self._expect_ident()
        return ast.OpCover(operand, variant, min_acc, max_acc, groupby)

    def _op_cover(self) -> ast.OpCover:
        return self._cover_like("COVER")

    def _op_flat(self) -> ast.OpCover:
        return self._cover_like("FLAT")

    def _op_summit(self) -> ast.OpCover:
        return self._cover_like("SUMMIT")

    def _op_histogram(self) -> ast.OpCover:
        return self._cover_like("HISTOGRAM")

    def _op_map(self) -> ast.OpMap:
        self._expect_symbol("(")
        assignments: tuple = ()
        joinby: tuple = ()
        if not self._peek().is_symbol(")"):
            while True:
                if self._peek().is_keyword("JOINBY"):
                    self._advance()
                    self._expect_symbol(":")
                    joinby = tuple(self._name_list())
                else:
                    assignments = tuple(self._aggregate_list())
                if self._peek().is_symbol(";"):
                    self._advance()
                    continue
                break
        self._expect_symbol(")")
        reference = self._expect_ident()
        experiment = self._expect_ident()
        return ast.OpMap(reference, experiment, assignments, joinby)

    def _op_join(self) -> ast.OpJoin:
        self._expect_symbol("(")
        clauses: list = []
        output = "CAT"
        joinby: tuple = ()
        while True:
            token = self._peek()
            if token.is_keyword("OUTPUT"):
                self._advance()
                self._expect_symbol(":")
                option = self._peek()
                if option.kind not in (KEYWORD, IDENT):
                    raise self._error("expected an output option")
                self._advance()
                output = option.value.upper()
            elif token.is_keyword("JOINBY"):
                self._advance()
                self._expect_symbol(":")
                joinby = tuple(self._name_list())
            else:
                clauses.extend(self._genometric_clauses())
            if self._peek().is_symbol(";"):
                self._advance()
                continue
            break
        self._expect_symbol(")")
        anchor = self._expect_ident()
        experiment = self._expect_ident()
        return ast.OpJoin(anchor, experiment, tuple(clauses), output, joinby)

    def _genometric_clauses(self) -> list:
        clauses = []
        while True:
            token = self._peek()
            if token.is_keyword("UP"):
                self._advance()
                clauses.append(ast.GenometricClause("UP", span=token.span()))
            elif token.is_keyword("DOWN"):
                self._advance()
                clauses.append(ast.GenometricClause("DOWN", span=token.span()))
            elif token.is_keyword("DLE") or token.is_keyword("DGE") or token.is_keyword("MD"):
                kind = self._advance().value
                self._expect_symbol("(")
                argument = self._expect_int()
                close = self._expect_symbol(")")
                span = dataclasses.replace(
                    token.span(),
                    length=close.column + 1 - token.column
                    if close.line == token.line
                    else token.span().length,
                )
                clauses.append(ast.GenometricClause(kind, argument, span=span))
            else:
                raise self._error("expected a genometric clause (DLE/DGE/MD/UP/DOWN)")
            if self._peek().is_symbol(","):
                self._advance()
                continue
            break
        return clauses

    # -- shared sub-grammars ----------------------------------------------------

    def _name_list(self) -> list:
        return self._name_list_spanned()[0]

    def _name_list_spanned(self) -> tuple:
        names = []
        spans = []
        name, token = self._expect_name_token()
        names.append(name)
        spans.append(token.span())
        while self._peek().is_symbol(","):
            self._advance()
            name, token = self._expect_name_token()
            names.append(name)
            spans.append(token.span())
        return names, spans

    def _bool_expr(self):
        return self._bool_or()

    def _bool_or(self):
        left = self._bool_and()
        while self._peek().is_keyword("OR"):
            self._advance()
            left = ast.BoolOr(left, self._bool_and())
        return left

    def _bool_and(self):
        left = self._bool_not()
        while self._peek().is_keyword("AND"):
            self._advance()
            left = ast.BoolAnd(left, self._bool_not())
        return left

    def _bool_not(self):
        if self._peek().is_keyword("NOT"):
            self._advance()
            return ast.BoolNot(self._bool_not())
        return self._bool_primary()

    def _bool_primary(self):
        token = self._peek()
        if token.is_symbol("("):
            self._advance()
            inner = self._bool_or()
            self._expect_symbol(")")
            return inner
        attribute, attribute_token = self._expect_name_token()
        operator_token = self._peek()
        if operator_token.kind == "SYMBOL" and operator_token.value in _COMPARISON_OPS:
            self._advance()
            return ast.Comparison(
                attribute,
                operator_token.value,
                self._literal(),
                span=attribute_token.span(),
            )
        # Bare attribute: existence test.
        return ast.Comparison(
            attribute, "!=", None, span=attribute_token.span()
        )

    def _literal(self):
        token = self._peek()
        if token.kind == STRING:
            self._advance()
            return token.value
        if token.is_symbol("-"):
            self._advance()
            return -self._number_value()
        if token.kind == NUMBER:
            return self._number_value()
        if token.is_keyword("TRUE"):
            self._advance()
            return True
        if token.is_keyword("FALSE"):
            self._advance()
            return False
        if token.kind in (IDENT, KEYWORD):
            # Bare word literal, e.g. annType == promoter.
            self._advance()
            return token.value
        raise self._error("expected a literal")

    def _number_value(self):
        token = self._peek()
        if token.kind != NUMBER:
            raise self._error("expected a number")
        self._advance()
        text = token.value
        if any(marker in text for marker in ".eE"):
            return float(text)
        return int(text)

    # -- arithmetic (PROJECT new attributes) -------------------------------------

    def _arith_expr(self):
        left = self._arith_term()
        while self._peek().is_symbol("+") or self._peek().is_symbol("-"):
            operator = self._advance().value
            left = ast.BinOp(operator, left, self._arith_term())
        return left

    def _arith_term(self):
        left = self._arith_factor()
        while self._peek().is_symbol("*") or self._peek().is_symbol("/"):
            operator = self._advance().value
            left = ast.BinOp(operator, left, self._arith_factor())
        return left

    def _arith_factor(self):
        token = self._peek()
        if token.is_symbol("("):
            self._advance()
            inner = self._arith_expr()
            self._expect_symbol(")")
            return inner
        if token.is_symbol("-"):
            self._advance()
            return ast.BinOp("-", ast.Num(0), self._arith_factor())
        if token.kind == NUMBER:
            return ast.Num(self._number_value())
        if token.kind in (IDENT, KEYWORD):
            name, name_token = self._expect_name_token()
            return ast.Attr(name, span=name_token.span())
        raise self._error("expected an arithmetic expression")


def parse(text: str) -> ast.Program:
    """Parse GMQL text into a :class:`~repro.gmql.lang.ast_nodes.Program`.

    Syntax errors leave the parser with their caret frame attached, so
    the CLI and the ``repro check`` gate print positions identically for
    syntax and semantic findings.
    """
    try:
        return Parser(tokenize(text)).parse_program()
    except GmqlSyntaxError as exc:
        raise exc.attach_source(text)
