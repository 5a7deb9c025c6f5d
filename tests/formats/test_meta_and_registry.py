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
from repro.gdm import Dataset, FLOAT, Metadata, RegionSchema, Sample, region


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
