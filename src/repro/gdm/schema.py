"""Region schemas: typed variable attributes of a dataset.

The paper (section 2) fixes the first five region attributes (sample id,
chromosome, left, right, strand) and lets each dataset declare further
*variable* attributes that "reflect the calling process that produced them".
:class:`RegionSchema` names and types those variable attributes, coerces and
validates values, and implements the paper's *schema merging* operation
(fixed attributes stay in common, variable attributes are concatenated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SchemaError

#: Names of the fixed GDM attributes, reserved and present in every schema.
FIXED_ATTRIBUTES = ("id", "chrom", "left", "right", "strand")

#: Fields :meth:`AttributeType.parse` reads as a missing value.
_MISSING_TOKENS = frozenset(("", ".", "NULL", "null", "NA"))


class AttributeType:
    """One of the four GDM value types, with parsing and coercion rules."""

    __slots__ = ("name", "_pytype")

    def __init__(self, name: str, pytype: type) -> None:
        self.name = name
        self._pytype = pytype

    def coerce(self, value: Any) -> Any:
        """Convert *value* to this type, raising :class:`SchemaError` on failure.

        ``None`` passes through unchanged: GDM allows missing variable values
        (schema merging introduces them for samples that lack an attribute).
        """
        if value is None:
            return None
        try:
            if self._pytype is bool and isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
                raise ValueError(value)
            coerced = self._pytype(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"cannot coerce {value!r} to {self.name}"
            ) from exc
        if self._pytype is float and isinstance(coerced, float) and math.isnan(coerced):
            return None
        return coerced

    def parse(self, text: str) -> Any:
        """Parse a textual field (as found in BED-like files)."""
        if text in _MISSING_TOKENS:
            return None
        return self.coerce(text)

    def parse_column(self, texts) -> list:
        """:meth:`parse` over a whole column of fields, in one pass.

        Gives exactly the values :meth:`parse` gives field by field.  A
        field it would reject raises here too, though not always with
        its :class:`SchemaError` (``INT`` and ``FLOAT`` raise the
        conversion's ``ValueError``), so a caller wanting that message
        re-parses field by field.  ``INT`` and ``FLOAT`` first convert
        the whole column; no missing token converts, so only a column
        holding one (or a bad field) takes the per-field pass.
        """
        pytype = self._pytype
        if pytype is bool:
            return list(map(self.parse, texts))
        if pytype is str:  # ``str`` of a field is the field itself
            return [None if text in _MISSING_TOKENS else text for text in texts]
        try:
            values = list(map(pytype, texts))
        except ValueError:
            values = [
                None if text in _MISSING_TOKENS else pytype(text)
                for text in texts
            ]
        if pytype is float and np.isnan(np.array(values, np.float64)).any():
            # NaN is the one float unequal to itself; parse maps it to
            # None (a None already there reads as NaN and stays None).
            return [None if value != value else value for value in values]
        return values

    def format(self, value: Any) -> str:
        """Serialise a value back to text (``"."`` for missing)."""
        if value is None:
            return "."
        if self._pytype is float:
            return repr(float(value))
        return str(value)

    def format_column(self, values: list) -> list:
        """:meth:`format` over a whole column of values, in one pass."""
        if self._pytype is float:
            return [
                "." if value is None else repr(float(value)) for value in values
            ]
        return ["." if value is None else str(value) for value in values]

    def __repr__(self) -> str:
        return f"AttributeType({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttributeType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


INT = AttributeType("INT", int)
FLOAT = AttributeType("FLOAT", float)
STR = AttributeType("STR", str)
BOOL = AttributeType("BOOL", bool)

_TYPES_BY_NAME = {t.name: t for t in (INT, FLOAT, STR, BOOL)}


def type_named(name: str) -> AttributeType:
    """Look up an :class:`AttributeType` by its name (case-insensitive)."""
    try:
        return _TYPES_BY_NAME[name.upper()]
    except KeyError:
        raise SchemaError(
            f"unknown attribute type {name!r}; expected one of "
            f"{sorted(_TYPES_BY_NAME)}"
        ) from None


def infer_type(value: Any) -> AttributeType:
    """Infer the narrowest GDM type for a Python value."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    return STR


@dataclass(frozen=True)
class AttributeDef:
    """Name and type of one variable region attribute."""

    name: str
    type: AttributeType

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"bad attribute name {self.name!r}")
        if self.name.lower() in FIXED_ATTRIBUTES:
            raise SchemaError(
                f"attribute name {self.name!r} collides with a fixed GDM attribute"
            )


class RegionSchema:
    """Ordered collection of variable attribute definitions.

    The fixed attributes are implicit and shared by every schema; equality
    and merging therefore only consider the variable part.

    >>> schema = RegionSchema.of(("p_value", FLOAT))
    >>> schema.names
    ('p_value',)
    """

    __slots__ = ("_defs", "_index")

    def __init__(self, defs: Iterable[AttributeDef] = ()) -> None:
        self._defs = tuple(defs)
        self._index = {d.name: i for i, d in enumerate(self._defs)}
        if len(self._index) != len(self._defs):
            seen: set = set()
            for d in self._defs:
                if d.name in seen:
                    raise SchemaError(f"duplicate attribute {d.name!r} in schema")
                seen.add(d.name)

    @classmethod
    def of(cls, *pairs: tuple) -> "RegionSchema":
        """Build a schema from ``(name, type)`` pairs.

        Types may be :class:`AttributeType` instances or type names.
        """
        defs = []
        for name, typ in pairs:
            if isinstance(typ, str):
                typ = type_named(typ)
            defs.append(AttributeDef(name, typ))
        return cls(defs)

    @classmethod
    def empty(cls) -> "RegionSchema":
        """Schema with no variable attributes (pure coordinate data)."""
        return cls(())

    # -- introspection ------------------------------------------------------

    @property
    def names(self) -> tuple:
        """Variable attribute names, in order."""
        return tuple(d.name for d in self._defs)

    @property
    def types(self) -> tuple:
        """Variable attribute types, in order."""
        return tuple(d.type for d in self._defs)

    def __len__(self) -> int:
        return len(self._defs)

    def __iter__(self) -> Iterator[AttributeDef]:
        return iter(self._defs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> AttributeDef:
        try:
            return self._defs[self._index[name]]
        except KeyError:
            raise SchemaError(f"no attribute {name!r} in schema {self.names}") from None

    def index_of(self, name: str) -> int:
        """Position of *name* among the variable attributes."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no attribute {name!r} in schema {self.names}") from None

    # -- value handling -----------------------------------------------------

    def coerce_values(self, values: Sequence[Any]) -> tuple:
        """Coerce a value tuple to the schema's types.

        Short tuples are padded with ``None`` (missing values); long tuples
        are an error.
        """
        if len(values) > len(self._defs):
            raise SchemaError(
                f"{len(values)} values for {len(self._defs)}-attribute schema"
            )
        coerced = [d.type.coerce(v) for d, v in zip(self._defs, values)]
        coerced.extend([None] * (len(self._defs) - len(values)))
        return tuple(coerced)

    def value_of(self, values: Sequence[Any], name: str) -> Any:
        """Extract the value of attribute *name* from a value tuple."""
        return values[self.index_of(name)]

    # -- schema algebra -------------------------------------------------------

    def project(self, names: Sequence[str]) -> "RegionSchema":
        """Schema restricted to *names*, in the order given."""
        return RegionSchema(tuple(self[name] for name in names))

    def extend(self, *defs: AttributeDef) -> "RegionSchema":
        """Schema with extra attributes appended."""
        return RegionSchema(self._defs + tuple(defs))

    def merge(self, other: "RegionSchema") -> "MergedSchema":
        """GDM schema merging (paper, section 2).

        Fixed attributes are in common; variable attributes are
        concatenated.  A name carried by both schemas with the same type is
        unified into a single attribute; a clash with different types gets
        the right-hand attribute suffixed with ``_right``.  The returned
        :class:`MergedSchema` also knows how to remap each operand's value
        tuples into the merged layout, which is what makes heterogeneous
        processed data interoperable.
        """
        defs = list(self._defs)
        positions_left = list(range(len(self._defs)))
        positions_right: list = [None] * len(other._defs)
        for j, d in enumerate(other._defs):
            if d.name in self._index and self[d.name].type == d.type:
                positions_right[j] = self._index[d.name]
                continue
            name = d.name
            if d.name in self._index:
                name = f"{d.name}_right"
            while any(existing.name == name for existing in defs):
                name += "_"
            defs.append(AttributeDef(name, d.type))
            positions_right[j] = len(defs) - 1
        merged = RegionSchema(defs)
        return MergedSchema(merged, tuple(positions_left), tuple(positions_right))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionSchema):
            return NotImplemented
        return self._defs == other._defs

    def __hash__(self) -> int:
        return hash(self._defs)

    def __repr__(self) -> str:
        body = ", ".join(f"{d.name}: {d.type.name}" for d in self._defs)
        return f"RegionSchema({body})"


class MergedSchema:
    """Result of :meth:`RegionSchema.merge`: the merged schema plus remappers."""

    __slots__ = ("schema", "_left_positions", "_right_positions",
                 "_widths", "_padding", "_right_targets", "_appends")

    def __init__(
        self,
        schema: RegionSchema,
        left_positions: tuple,
        right_positions: tuple,
    ) -> None:
        self.schema = schema
        self._left_positions = left_positions
        self._right_positions = right_positions
        # The layout :meth:`combine` fills, worked out once: a row whose
        # tuples have the operands' widths starts as the left tuple
        # padded with ``None`` (the left positions are the leading
        # slots), and with no attribute unified the right tuple simply
        # follows the left one.
        self._widths = (len(left_positions), len(right_positions))
        self._padding = (None,) * (len(schema) - len(left_positions))
        self._right_targets = tuple(enumerate(right_positions))
        self._appends = (
            left_positions + right_positions == tuple(range(len(schema)))
        )

    def remap_left(self, values: Sequence[Any]) -> tuple:
        """Lay out a left-operand value tuple in the merged schema."""
        out: list = [None] * len(self.schema)
        for source, target in enumerate(self._left_positions):
            out[target] = values[source]
        return tuple(out)

    def remap_right(self, values: Sequence[Any]) -> tuple:
        """Lay out a right-operand value tuple in the merged schema."""
        out: list = [None] * len(self.schema)
        for source, target in enumerate(self._right_positions):
            out[target] = values[source]
        return tuple(out)

    def combine(
        self, left_values: Sequence[Any], right_values: Sequence[Any]
    ) -> tuple:
        """Lay out one value tuple from each operand side by side.

        On attributes unified by the merge, a non-missing right value
        overwrites the left one (join semantics: the probed region's
        value is the fresher observation).
        """
        if (len(left_values), len(right_values)) == self._widths:
            if self._appends:
                return tuple(left_values) + tuple(right_values)
            out = [*left_values, *self._padding]
        else:
            out = list(self.remap_left(left_values))
        for source, target in self._right_targets:
            value = right_values[source]
            if value is not None:
                out[target] = value
        return tuple(out)

    def combine_columns(self, left_columns: list, right_columns: list) -> list:
        """:meth:`combine` over many rows at once, a column at a time.

        *left_columns* and *right_columns* hold one list of values per
        operand attribute, the lists row-aligned.  Returns one list per
        merged attribute; the i-th entries of the lists make
        :meth:`combine` of the operands' i-th rows.  An operand with
        fewer columns than its schema raises ``IndexError``, as
        :meth:`combine` does for a narrower row.
        """
        columns: list = [
            left_columns[index] for index in range(self._widths[0])
        ]
        columns += [None] * len(self._padding)
        for source, target in self._right_targets:
            right = right_columns[source]
            left = columns[target]
            columns[target] = right if left is None else [
                value if value is not None else kept
                for value, kept in zip(right, left)
            ]
        return columns
