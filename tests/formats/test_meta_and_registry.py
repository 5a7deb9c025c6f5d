"""Tests for .meta files, dataset directories and the format registry."""

import pytest

from repro.errors import FormatError
from repro.formats import (
    available_formats,
    dataset_from_documents,
    format_for_path,
    format_named,
    parse_meta,
    read_dataset,
    register,
    serialize_meta,
    write_dataset,
)
from repro.formats.base import RegionFormat
from repro.gdm import (
    Dataset, FLOAT, Metadata, RegionSchema, Sample, STR, region,
)


class TestMetaFiles:
    def test_parse_pairs(self):
        meta = parse_meta("cell\tHeLa\nantibody\tCTCF\n")
        assert meta.first("cell") == "HeLa"
        assert meta.first("antibody") == "CTCF"

    def test_values_are_typed(self):
        meta = parse_meta("replicate\t2\nfrip\t0.25\nname\tx\n")
        assert meta.first("replicate") == 2
        assert meta.first("frip") == 0.25
        assert meta.first("name") == "x"

    def test_multivalued_attributes(self):
        meta = parse_meta("treatment\ta\ntreatment\tb\n")
        assert meta.values("treatment") == ("a", "b")

    def test_missing_tab_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_meta("no-separator\n")

    def test_round_trip(self):
        meta = Metadata({"cell": "HeLa", "replicate": 2})
        assert parse_meta(serialize_meta(meta)) == meta

    @pytest.mark.parametrize("text, value", [
        ("5", 5), ("-12", -12), ("0.25", 0.25), ("-0.0", -0.0),
        ("1e-05", 1e-05), ("1e+300", 1e300),
        # int() and float() accept these, but no number is written so.
        (" 5", " 5"), ("5 ", "5 "), ("1_000", "1_000"), ("+5", "+5"),
        ("05", "05"), ("-0", "-0"), ("1e3", "1e3"), ("1.", "1."),
        ("0.250", "0.250"), ("NaN", "NaN"), ("Infinity", "Infinity"),
    ])
    def test_a_value_is_a_number_only_as_that_number_is_written(
        self, text, value
    ):
        parsed = parse_meta(f"x\t{text}\n").first("x")
        assert type(parsed) is type(value)
        assert repr(parsed) == repr(value)

    def test_nan_and_inf_still_read_as_floats(self):
        meta = parse_meta("a\tnan\nb\tinf\nc\t-inf\n")
        assert repr(meta.first("a")) == "nan"
        assert meta.first("b") == float("inf")
        assert meta.first("c") == float("-inf")

    def test_string_values_int_and_float_would_accept_round_trip(self):
        meta = Metadata({"a": " 5", "b": "1_000", "c": "1e3", "d": "+5",
                         "e": 7, "f": 0.1})
        loaded = parse_meta(serialize_meta(meta))
        assert sorted(map(repr, loaded)) == sorted(map(repr, meta))


class TestDatasetDirectory:
    @pytest.fixture()
    def dataset(self):
        schema = RegionSchema.of(("p_value", FLOAT))
        return Dataset(
            "PEAKS",
            schema,
            [
                Sample(1, [region("chr1", 0, 10, "+", 1e-5)],
                       Metadata({"cell": "HeLa"})),
                Sample(2, [region("chr2", 5, 25, "*", 2e-3)],
                       Metadata({"cell": "K562", "sex": "female"})),
            ],
        )

    def test_write_read_round_trip(self, dataset, tmp_path):
        write_dataset(dataset, str(tmp_path / "PEAKS"))
        loaded = read_dataset(str(tmp_path / "PEAKS"))
        assert loaded.schema == dataset.schema
        assert len(loaded) == 2
        assert loaded[1].regions == dataset[1].regions
        assert loaded[2].meta.first("sex") == "female"

    #: Characters ``str.splitlines`` breaks at besides ``\n`` and
    #: ``\r``; the writers emit them verbatim inside values.
    LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_meta_value_with_a_line_break_character_round_trips(
        self, dataset, tmp_path, brk
    ):
        value = f"a{brk}b"
        dataset = Dataset("PEAKS", dataset.schema, [
            dataset[1].with_meta(Metadata({"note": value, "cell": "HeLa"})),
        ])
        write_dataset(dataset, str(tmp_path / "PEAKS"))
        loaded = read_dataset(str(tmp_path / "PEAKS"))
        assert loaded[1].meta == dataset[1].meta
        assert loaded[1].meta.first("note") == value

    def test_carriage_return_inside_values_round_trips(self, tmp_path):
        schema = RegionSchema.of(("name", STR))
        dataset = Dataset("D", schema, [
            Sample(1, [region("chr1", 0, 10, "+", "x\ry"),
                       region("chr1", 20, 30, "-", "\rz")],
                   Metadata({"note": "a\rb", "cell": "HeLa"})),
        ])
        write_dataset(dataset, str(tmp_path / "D"))
        loaded = read_dataset(str(tmp_path / "D"))
        assert list(loaded.region_rows()) == list(dataset.region_rows())
        assert loaded[1].meta == dataset[1].meta
        assert loaded[1].meta.first("note") == "a\rb"

    def test_crlf_dataset_directory_reads_as_lf(self, dataset, tmp_path):
        write_dataset(dataset, str(tmp_path / "LF"))
        (tmp_path / "CRLF").mkdir()
        for path in (tmp_path / "LF").iterdir():
            (tmp_path / "CRLF" / path.name).write_bytes(
                path.read_bytes().replace(b"\n", b"\r\n")
            )
        lf = read_dataset(str(tmp_path / "LF"), "D")
        crlf = read_dataset(str(tmp_path / "CRLF"), "D")
        assert list(crlf.region_rows()) == list(lf.region_rows())
        assert [s.meta for s in crlf] == [s.meta for s in lf]
        assert crlf.store().digest() == lf.store().digest()

    def test_crlf_meta_file_reads(self, tmp_path):
        assert parse_meta("cell\tHeLa\r\nreplicate\t2\r\n") == Metadata(
            {"cell": "HeLa", "replicate": 2}
        )

    def test_read_missing_schema_raises(self, tmp_path):
        with pytest.raises(FormatError):
            read_dataset(str(tmp_path))

    def test_dataset_name_defaults_to_directory(self, dataset, tmp_path):
        write_dataset(dataset, str(tmp_path / "MYDATA"))
        assert read_dataset(str(tmp_path / "MYDATA")).name == "MYDATA"


class TestRegistry:
    def test_builtins_present(self):
        names = available_formats()
        for expected in ("bed", "narrowpeak", "broadpeak", "gtf", "vcf", "sam"):
            assert expected in names

    def test_lookup_by_name_case_insensitive(self):
        assert format_named("BED").name == "bed"

    def test_unknown_name_raises(self):
        with pytest.raises(FormatError):
            format_named("bigwig")

    def test_lookup_by_path(self):
        assert format_for_path("/data/sample.narrowPeak").name == "narrowpeak"
        assert format_for_path("x.bed").name == "bed"

    def test_unknown_extension_raises(self):
        with pytest.raises(FormatError):
            format_for_path("file.xyz")

    def test_custom_format_registration(self):
        class TsvFormat(RegionFormat):
            name = "tsv-test"
            extensions = (".tsvtest",)

        register(TsvFormat())
        assert format_named("tsv-test").name == "tsv-test"
        assert format_for_path("a.tsvtest").name == "tsv-test"

    def test_dataset_from_documents(self):
        docs = [
            ("chr1\t0\t10\tp\t5\t+\n", {"cell": "HeLa"}),
            ("chr1\t20\t30\tq\t7\t-\n", {"cell": "K562"}),
        ]
        ds = dataset_from_documents("PEAKS", docs, "bed")
        assert len(ds) == 2
        assert ds[1].meta.first("cell") == "HeLa"
        assert ds.schema == format_named("bed").schema()
