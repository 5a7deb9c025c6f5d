"""Unit tests for RegionSchema: typing, coercion and schema merging."""

import pytest

from repro.errors import SchemaError
from repro.gdm import (
    AttributeDef,
    BOOL,
    FLOAT,
    INT,
    RegionSchema,
    STR,
    infer_type,
    type_named,
)


class TestTypes:
    def test_type_lookup_case_insensitive(self):
        assert type_named("float") is FLOAT
        assert type_named("Int") is INT

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            type_named("DOUBLE")

    def test_coerce_int(self):
        assert INT.coerce("42") == 42

    def test_coerce_float(self):
        assert FLOAT.coerce("0.5") == 0.5

    def test_coerce_bool_strings(self):
        assert BOOL.coerce("true") is True
        assert BOOL.coerce("0") is False

    def test_coerce_none_passthrough(self):
        assert STR.coerce(None) is None

    def test_coerce_failure_raises(self):
        with pytest.raises(SchemaError):
            INT.coerce("not-a-number")

    def test_parse_missing_markers(self):
        assert FLOAT.parse(".") is None
        assert FLOAT.parse("NA") is None
        assert FLOAT.parse("") is None

    def test_format_round_trip(self):
        assert FLOAT.parse(FLOAT.format(0.25)) == 0.25
        assert INT.format(None) == "."

    def test_infer_type(self):
        assert infer_type(True) is BOOL
        assert infer_type(3) is INT
        assert infer_type(3.5) is FLOAT
        assert infer_type("x") is STR


class TestSchemaBasics:
    def test_of_builds_ordered_schema(self):
        schema = RegionSchema.of(("score", FLOAT), ("name", "STR"))
        assert schema.names == ("score", "name")
        assert schema.types == (FLOAT, STR)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            RegionSchema.of(("a", INT), ("a", FLOAT))

    def test_fixed_attribute_names_reserved(self):
        with pytest.raises(SchemaError):
            RegionSchema.of(("chrom", STR))

    def test_bad_attribute_name_rejected(self):
        with pytest.raises(SchemaError):
            AttributeDef("with space", INT)

    def test_index_and_contains(self):
        schema = RegionSchema.of(("a", INT), ("b", STR))
        assert "a" in schema and "c" not in schema
        assert schema.index_of("b") == 1
        with pytest.raises(SchemaError):
            schema.index_of("c")

    def test_coerce_values_pads_missing(self):
        schema = RegionSchema.of(("a", INT), ("b", FLOAT))
        assert schema.coerce_values(("7",)) == (7, None)

    def test_coerce_values_rejects_excess(self):
        schema = RegionSchema.of(("a", INT))
        with pytest.raises(SchemaError):
            schema.coerce_values((1, 2))

    def test_project_preserves_order_given(self):
        schema = RegionSchema.of(("a", INT), ("b", FLOAT), ("c", STR))
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_extend(self):
        schema = RegionSchema.of(("a", INT)).extend(AttributeDef("b", STR))
        assert schema.names == ("a", "b")

    def test_empty_schema(self):
        assert len(RegionSchema.empty()) == 0


class TestSchemaMerging:
    """The paper's schema-merging operation: fixed attrs in common,
    variable attrs concatenated."""

    def test_disjoint_names_concatenate(self):
        left = RegionSchema.of(("p_value", FLOAT))
        right = RegionSchema.of(("score", INT))
        merged = left.merge(right)
        assert merged.schema.names == ("p_value", "score")

    def test_same_name_same_type_unifies(self):
        left = RegionSchema.of(("score", FLOAT), ("name", STR))
        right = RegionSchema.of(("score", FLOAT))
        merged = left.merge(right)
        assert merged.schema.names == ("score", "name")

    def test_same_name_different_type_renames(self):
        left = RegionSchema.of(("score", FLOAT))
        right = RegionSchema.of(("score", STR))
        merged = left.merge(right)
        assert merged.schema.names == ("score", "score_right")

    def test_remap_left_lays_out_values(self):
        left = RegionSchema.of(("a", INT))
        right = RegionSchema.of(("b", INT))
        merged = left.merge(right)
        assert merged.remap_left((1,)) == (1, None)
        assert merged.remap_right((2,)) == (None, 2)

    def test_remap_unified_attribute(self):
        left = RegionSchema.of(("score", FLOAT))
        right = RegionSchema.of(("score", FLOAT), ("extra", STR))
        merged = left.merge(right)
        assert merged.schema.names == ("score", "extra")
        assert merged.remap_right((0.5, "x")) == (0.5, "x")

    def test_merge_with_empty(self):
        left = RegionSchema.of(("a", INT))
        merged = left.merge(RegionSchema.empty())
        assert merged.schema == left

    @pytest.mark.parametrize("left, right, layout", [
        # unified: the right value overrides unless it is missing
        ((("score", FLOAT), ("name", STR)), (("score", FLOAT),),
         ("score", "name")),
        # clash of types: renamed and appended
        ((("score", FLOAT),), (("score", STR), ("extra", INT)),
         ("score", "score_right", "extra")),
        # disjoint: pure concatenation
        ((("p_value", FLOAT),), (("name", STR), ("hits", INT)),
         ("p_value", "name", "hits")),
        # a mix of all three
        ((("a", INT), ("b", STR)), (("b", STR), ("a", FLOAT), ("c", INT)),
         ("a", "b", "a_right", "c")),
        ((), (("x", INT),), ("x",)),
        ((("x", INT),), (), ("x",)),
    ])
    def test_combine_is_remap_then_override(self, left, right, layout):
        """``combine`` equals its definition -- the left tuple remapped,
        then every non-missing right value written to its merged slot --
        on every merge shape, with missing values on either side."""
        left_schema = RegionSchema.of(*left)
        right_schema = RegionSchema.of(*right)
        merged = left_schema.merge(right_schema)
        assert merged.schema.names == layout

        def definition(left_values, right_values):
            out = list(merged.remap_left(left_values))
            for source, target in enumerate(merged._right_positions):
                if right_values[source] is not None:
                    out[target] = right_values[source]
            return tuple(out)

        samples = {
            INT: (7, None, -0), FLOAT: (0.5, None, float("nan")),
            STR: ("x", None, ""),
        }
        left_rows = [
            tuple(samples[t][i] for __, t in left) for i in range(3)
        ]
        right_rows = [
            tuple(samples[t][i] for __, t in right) for i in range(3)
        ]
        for left_values in left_rows:
            for right_values in right_rows:
                got = merged.combine(left_values, right_values)
                want = definition(left_values, right_values)
                assert repr(got) == repr(want)
                assert isinstance(got, tuple)
        # Ragged tuples keep the definition's behaviour, errors included.
        if left:
            with pytest.raises(IndexError):
                merged.combine((), right_rows[0])
            longer = left_rows[0] + ("spare",)
            assert merged.combine(longer, right_rows[0]) == definition(
                longer, right_rows[0]
            )
        # combine_columns is combine a column at a time, row for row,
        # also when an operand holds a column its schema does not name.
        pairs = [(l, r) for l in left_rows for r in right_rows]

        def columns_of(rows, width):
            return [[row[index] for row in rows] for index in range(width)]

        for spare_left, spare_right in ((0, 0), (1, 0), (0, 1)):
            lefts = [l + ("spare",) * spare_left for l, __ in pairs]
            rights = [r + ("spare",) * spare_right for __, r in pairs]
            columns = merged.combine_columns(
                columns_of(lefts, len(left) + spare_left),
                columns_of(rights, len(right) + spare_right),
            )
            assert len(columns) == len(layout)
            assert repr(list(zip(*columns))) == repr(
                [merged.combine(l, r) for l, r in zip(lefts, rights)]
            )
        if left:
            with pytest.raises(IndexError):
                merged.combine_columns(
                    [], columns_of(right_rows, len(right))
                )
