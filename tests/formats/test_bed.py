"""Tests for BED parsing/serialisation and the custom-schema dialect."""

import pytest

from repro.errors import FormatError
from repro.formats import BedFormat, CustomBedFormat, schema_from_header, schema_to_header
from repro.gdm import FLOAT, INT, RegionSchema, STR, region


class TestBedParse:
    def test_bed6_line(self):
        fmt = BedFormat()
        regions = fmt.parse("chr1\t100\t200\tpeak1\t13.5\t+\n")
        assert len(regions) == 1
        r = regions[0]
        assert (r.chrom, r.left, r.right, r.strand) == ("chr1", 100, 200, "+")
        assert r.values == ("peak1", 13.5)

    def test_bed3_degrades(self):
        r = BedFormat().parse("chr1\t0\t10\n")[0]
        assert r.values == (None, None)
        assert r.strand == "*"

    def test_dot_strand_maps_to_star(self):
        r = BedFormat().parse("chr1\t0\t10\tx\t1\t.\n")[0]
        assert r.strand == "*"

    def test_comments_and_track_lines_skipped(self):
        text = "# comment\ntrack name=peaks\nbrowser position chr1\nchr1\t0\t10\n"
        assert len(BedFormat().parse(text)) == 1

    def test_blank_lines_skipped(self):
        assert len(BedFormat().parse("\n\nchr1\t0\t10\n\n")) == 1

    def test_too_few_fields_raises_with_line_number(self):
        with pytest.raises(FormatError, match="line 1"):
            BedFormat().parse("chr1\t100\n")

    def test_bad_coordinate_raises(self):
        with pytest.raises(FormatError):
            BedFormat().parse("chr1\tabc\t200\n")

    def test_round_trip(self):
        fmt = BedFormat()
        original = "chr1\t100\t200\tpeak1\t13.5\t+\n"
        regions = fmt.parse(original)
        assert fmt.serialize(regions) == original

    def test_missing_name_and_score_round_trip(self):
        fmt = BedFormat()
        text = fmt.serialize([region("chr2", 5, 9)])
        assert text == "chr2\t5\t9\t.\t.\t.\n"
        assert fmt.parse(text)[0].values == (None, None)


class TestCustomBed:
    @pytest.fixture()
    def fmt(self):
        return CustomBedFormat(RegionSchema.of(("p_value", FLOAT), ("count", INT)))

    def test_parse_with_schema(self, fmt):
        r = fmt.parse("chr1\t0\t10\t+\t1e-5\t42\n")[0]
        assert r.values == (1e-5, 42)

    def test_missing_values(self, fmt):
        r = fmt.parse("chr1\t0\t10\t+\t.\t7\n")[0]
        assert r.values == (None, 7)

    def test_short_line_rejected(self, fmt):
        # A line short of values would load a region narrower than the
        # schema (ragged rows), so it is an error like a long one.
        with pytest.raises(FormatError, match="0 variable fields"):
            fmt.parse("chr1\t0\t10\t-\n")
        with pytest.raises(FormatError, match="1 variable fields"):
            fmt.parse("chr1\t0\t10\t-\t1.5\n")

    def test_excess_fields_rejected(self, fmt):
        with pytest.raises(FormatError):
            fmt.parse("chr1\t0\t10\t+\t1\t2\t3\n")

    def test_round_trip(self, fmt):
        text = "chr1\t0\t10\t+\t1e-05\t42\n"
        regions = fmt.parse(text)
        reparsed = fmt.parse(fmt.serialize(regions))
        assert reparsed == regions


class TestSchemaHeader:
    def test_round_trip(self):
        schema = RegionSchema.of(("a", INT), ("b", FLOAT), ("c", STR))
        assert schema_from_header(schema_to_header(schema)) == schema

    def test_empty_schema(self):
        assert len(schema_from_header("")) == 0
        assert schema_to_header(RegionSchema.empty()) == ""

    def test_bad_token_rejected(self):
        with pytest.raises(FormatError):
            schema_from_header("no-type-marker")
