"""The GDM repository reader parses a sample column by column.

``read_dataset`` reads each sample file with
``CustomBedFormat.parse_columns``: the sample is born as columns
(``ColumnRows``) and its store blocks and digest are built from them.
What must hold, against the line parser (``CustomBedFormat.parse``) it
replaces:

- the same rows, row digest, store digest, blocks and zone maps, for any
  dataset ``write_dataset`` writes, mangled the ways a hand-edited file
  is (missing-value tokens, CRLF endings, comment/track/blank lines);
- the same exception type and message, line number included, for every
  malformed file; a coordinate beyond int64 still loads;
- reading, digesting and blocking a source builds no region object, and
  neither does a whole ``repro run`` of MAP COUNT or COVER over sources
  on disk, written result and disk cache entry included, except for
  MAP's reference regions.
"""

import contextlib
import io
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.formats
from repro.cli import main
from repro.errors import CoordinateError, FormatError, SchemaError
from repro.federation.merge import parse_staged_sections
from repro.formats import CustomBedFormat, read_dataset, write_dataset
from repro.formats.bed import schema_from_header
from repro.formats.meta import parse_meta
from repro.gdm import (
    BOOL,
    FLOAT,
    INT,
    STR,
    Dataset,
    GenomicRegion,
    Metadata,
    RegionSchema,
    Sample,
    results_digest,
)
from repro.gdm.sample import ColumnRows, rows_materialised
from repro.intervals.bins import DEFAULT_BIN_SIZE
from repro.repository.staging import _serialise_sections
from repro.simulate import EncodeRepository, GenomeLayout
from repro.store.columnar import ZoneEntry

_SAMPLE_FILE = re.compile(r"^S_(\d+)\.gdm$")


def read_by_lines(directory: str, name: str) -> Dataset:
    """``read_dataset`` as it was before the column parse: every sample
    file through the line parser."""
    with open(os.path.join(directory, "schema.txt")) as handle:
        schema = schema_from_header(handle.readline())
    region_format = CustomBedFormat(schema)
    dataset = Dataset(name, schema)
    for entry in sorted(os.listdir(directory)):
        match = _SAMPLE_FILE.match(entry)
        if not match:
            continue
        with open(os.path.join(directory, entry)) as handle:
            regions = region_format.parse(handle)
        meta = Metadata()
        if os.path.exists(os.path.join(directory, entry + ".meta")):
            with open(os.path.join(directory, entry + ".meta")) as handle:
                meta = parse_meta(handle)
        dataset.add_sample(
            Sample(int(match.group(1)), regions, meta), validate=False
        )
    return dataset


def zone_state(entry) -> tuple:
    return (entry.chrom, entry.count, entry.min_start, entry.max_start,
            entry.min_stop, entry.max_stop, entry.bins.tolist())


def block_state(blocks) -> list:
    """Everything a ``SampleBlocks`` holds, dtypes included."""
    state = [blocks.n_regions, list(blocks.chroms)]
    for chrom, block in blocks.chroms.items():
        for name in ("starts", "stops", "index", "strands"):
            array = getattr(block, name)
            state.append((chrom, name, array.dtype.str, array.tolist()))
        state.append(zone_state(blocks.zone_map.entry(chrom)))
    return state


_CODES = {"+": 1, "-": -1, "*": 0}


def reference_state(sample_regions) -> list:
    """``block_state`` of the blocks of a region list, built region by
    region: one block per chromosome in first-seen order, rows in list
    order (the reference ``SampleBlocks`` must equal)."""
    grouped: dict = {}
    for position, r in enumerate(sample_regions):
        grouped.setdefault(r.chrom, []).append((position, r))
    state = [len(sample_regions), list(grouped)]
    for chrom, members in grouped.items():
        columns = {
            "starts": ("<i8", [r.left for __, r in members]),
            "stops": ("<i8", [r.right for __, r in members]),
            "index": ("<i8", [position for position, __ in members]),
            "strands": ("|i1", [_CODES[r.strand] for __, r in members]),
        }
        for name, (dtype, values) in columns.items():
            state.append((chrom, name, dtype, values))
        state.append(zone_state(ZoneEntry(
            chrom, np.array(columns["starts"][1], dtype=np.int64),
            np.array(columns["stops"][1], dtype=np.int64), DEFAULT_BIN_SIZE,
        )))
    return state


def assert_same_dataset(by_columns: Dataset, by_lines: Dataset) -> None:
    before = rows_materialised()
    assert repr(list(by_columns.region_rows())) == repr(
        list(by_lines.region_rows())
    )
    assert results_digest({"D": by_columns}) == results_digest(
        {"D": by_lines}
    )
    assert by_columns.store().digest() == by_lines.store().digest()
    for fresh, line_read in zip(by_columns, by_lines):
        assert block_state(by_columns.store().blocks(fresh)) == block_state(
            by_lines.store().blocks(line_read)
        ) == reference_state(line_read.regions)
    assert block_state(by_columns.store().union_blocks()) == block_state(
        by_lines.store().union_blocks()
    ) == reference_state([r for s in by_lines for r in s.regions])
    assert rows_materialised() == before


# -- generated datasets, written and mangled -------------------------------------

#: ``chr1``/``chr01`` tie under the natural chromosome order.
CHROMS = ("chr1", "chr01", "chr10", "chr2", "chrX", "chrΩ")
_TEXT = st.text(
    alphabet=st.sampled_from("abcXYZ019_-+:.éßδ漢"), min_size=0, max_size=6
)


def value_of(attr_type):
    if attr_type is INT:
        return st.one_of(st.none(), st.integers(-2**70, 2**70))
    if attr_type is FLOAT:
        return st.one_of(
            st.none(), st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, float("nan"), 1e-300]),
        )
    if attr_type is BOOL:
        return st.one_of(st.none(), st.booleans())
    return st.one_of(st.none(), _TEXT)


@st.composite
def datasets(draw):
    types = draw(st.lists(st.sampled_from((INT, FLOAT, STR, BOOL)),
                          max_size=4))
    schema = RegionSchema.of(
        *((f"v{i}", attr_type) for i, attr_type in enumerate(types))
    )
    samples = []
    for sample_id in range(1, draw(st.integers(1, 3)) + 1):
        regions = []
        for __ in range(draw(st.integers(0, 12))):
            left = draw(st.integers(0, 10**6))
            regions.append(GenomicRegion(
                draw(st.sampled_from(CHROMS)), left,
                left + draw(st.integers(0, 500)),
                draw(st.sampled_from("+-*")),
                tuple(draw(value_of(t)) for t in types),
            ))
        samples.append(Sample(sample_id, regions, Metadata({"n": sample_id})))
    return Dataset("D", schema, samples, validate=False)


@st.composite
def manglings(draw):
    """How to rewrite one written sample file, as a hand-edit would."""
    return {
        "crlf": draw(st.booleans()),
        "missing": draw(st.sampled_from([".", "NULL", "NA", "null", ""])),
        "strand": draw(st.sampled_from([".", "*", ""])),
        "extra": draw(st.lists(
            st.tuples(st.integers(0, 20), st.sampled_from(
                ["# a comment", "track name=peaks", "browser position x",
                 "", "#chr1\t1\t2\t+"]
            )),
            max_size=3,
        )),
    }


def mangle(path: str, how: dict) -> None:
    with open(path) as handle:
        lines = handle.read().split("\n")[:-1]
    rewritten = []
    for line in lines:
        fields = line.split("\t")
        if fields[3] == ".":
            fields[3] = how["strand"]
        fields[4:] = [how["missing"] if f == "." else f for f in fields[4:]]
        rewritten.append("\t".join(fields))
    for position, extra in how["extra"]:
        rewritten.insert(min(position, len(rewritten)), extra)
    ending = "\r\n" if how["crlf"] else "\n"
    with open(path, "w", newline="") as handle:
        handle.write("".join(line + ending for line in rewritten))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets(), st.lists(manglings(), min_size=3, max_size=3))
def test_column_read_equals_line_read(dataset, how):
    directory = tempfile.mkdtemp(prefix="repro-colread-")
    try:
        write_dataset(dataset, directory)
        for sample, mangling in zip(dataset, how):
            mangle(os.path.join(directory, f"S_{sample.id:05d}.gdm"),
                   mangling)
        # Text handed over as is (no newline translation) parses alike.
        region_format = CustomBedFormat(dataset.schema)
        for sample in dataset:
            path = os.path.join(directory, f"S_{sample.id:05d}.gdm")
            with open(path, newline="") as handle:
                text = handle.read()
            assert repr(list(Sample(1, region_format.parse_columns(text))
                             .rows())) == repr(
                list(Sample(1, region_format.parse(text)).rows())
            )
        by_columns = read_dataset(directory, "D")
        by_lines = read_by_lines(directory, "D")
        for sample in by_columns:
            assert isinstance(sample.held_rows(), ColumnRows)
        assert_same_dataset(by_columns, by_lines)
        # Materialising afterwards gives the line parser's regions, and
        # keeps the blocks the columns built.
        for fresh, line_read in zip(by_columns, by_lines):
            blocks = by_columns.store().blocks(fresh)
            assert [
                (r.chrom, r.left, r.right, r.strand, repr(r.values))
                for r in fresh.regions
            ] == [
                (r.chrom, r.left, r.right, r.strand, repr(r.values))
                for r in line_read.regions
            ]
            assert by_columns.store().blocks(fresh) is blocks
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# -- malformed files: the line parser's errors ----------------------------------

SCHEMA_TEXT = "score:FLOAT\tcount:INT\n"
GOOD = "chr1\t10\t20\t+\t1.5\t3\n"


@pytest.mark.parametrize("bad_line, error, message", [
    ("chr1\t10\t20\tx\t1.5\t3", FormatError,
     "gdm: line 3: bad strand field 'x'"),
    ("chr1\t10\t20\t+\t1.5\t3\t9", FormatError,
     "gdm: line 3: 3 variable fields for 2-attribute schema"),
    ("chr1\t10\t20", FormatError,
     "gdm: line 3: expected at least 4 fields, got 3"),
    ("chr1\tten\t20\t+\t1.5\t3", FormatError,
     "gdm: line 3: invalid literal for int() with base 10: 'ten'"),
    ("chr1\t10\t2.0\t+\t1.5\t3", FormatError,
     "gdm: line 3: invalid literal for int() with base 10: '2.0'"),
    # The region constructor's and the type's own errors carry no line.
    ("chr1\t-5\t20\t+\t1.5\t3", CoordinateError, "negative left end: -5"),
    ("chr1\t30\t20\t+\t1.5\t3", CoordinateError,
     "inverted region: [30, 20)"),
    ("\t10\t20\t+\t1.5\t3", CoordinateError, "empty chromosome name"),
    ("chr1\t10\t20\t+\tabc\t3", SchemaError,
     "cannot coerce 'abc' to FLOAT"),
    ("chr1\t10\t20\t+\t1.5\t3.5", SchemaError,
     "cannot coerce '3.5' to INT"),
])
def test_malformed_file_raises_the_line_parsers_error(
    tmp_path, bad_line, error, message
):
    directory = tmp_path / "D"
    directory.mkdir()
    (directory / "schema.txt").write_text(SCHEMA_TEXT)
    (directory / "S_00001.gdm").write_text(
        "# header\n" + GOOD + bad_line + "\n" + GOOD
    )
    for read in (read_dataset, read_by_lines):
        with pytest.raises(error) as raised:
            read(str(directory), "D")
        assert type(raised.value) is error
        assert str(raised.value) == message


@pytest.mark.parametrize("schema_text, lines, message", [
    # A short line and a long one with as many tabs between them as two
    # good lines: the field count of the document is right, only the
    # junction check sees the lines are not.
    (SCHEMA_TEXT, ["chr1\t10\t20\t+\t1.5", "chr1\t10\t20\t+\t1.5\t3\t9"],
     "gdm: line 2: 1 variable fields for 2-attribute schema"),
    (SCHEMA_TEXT, ["chr1\t10\t20\t+\t1.5\t3\t9", "chr1\t10\t20\t+\t1.5"],
     "gdm: line 2: 3 variable fields for 2-attribute schema"),
    (SCHEMA_TEXT, ["chr1\t10\t20", "chr1\t10\t20\t+\t1.5\t3\t9\t9\t9"],
     "gdm: line 2: expected at least 4 fields, got 3"),
    ("\n", ["chr1\t10\t20", "chr1\t10\t20\t+\tx"],
     "gdm: line 2: expected at least 4 fields, got 3"),
    ("\n", ["chr1\t10\t20\t+\tx", "chr1\t10\t20"],
     "gdm: line 2: 1 variable fields for 0-attribute schema"),
    ("name:STR\n", ["chr1\t1\t2\t+", "chr1\t1\t2\t+\ta\tb"],
     "gdm: line 2: 0 variable fields for 1-attribute schema"),
    # The line after the short one starts with an empty field, so the
    # newline lands in a coordinate piece ("1\n", which int() reads)
    # and every strided column converts: only the junction check
    # stops the parse.
    ("\n", ["chr1\t1", "\t2\t+\t5\t6\t-"],
     "gdm: line 2: expected at least 4 fields, got 2"),
])
def test_lines_whose_field_counts_cancel_out_raise_the_line_parsers_error(
    tmp_path, schema_text, lines, message
):
    directory = tmp_path / "D"
    directory.mkdir()
    (directory / "schema.txt").write_text(schema_text)
    schema = schema_from_header(schema_text)
    good = "\t".join(["chr1", "10", "20", "+"] + ["1"] * len(schema))
    (directory / "S_00001.gdm").write_text(
        "\n".join([good, *lines]) + "\n"
    )
    body = "\n".join([good, *lines])
    width = 4 + len(schema)
    assert len(body.split("\t")) == body.count("\n") * (width - 1) + width
    assert CustomBedFormat(schema).column_rows(body) is None
    for read in (read_dataset, read_by_lines):
        with pytest.raises(FormatError) as raised:
            read(str(directory), "D")
        assert type(raised.value) is FormatError
        assert str(raised.value) == message


def test_a_line_short_of_values_raises_instead_of_loading_ragged_rows(
    tmp_path
):
    directory = tmp_path / "D"
    directory.mkdir()
    (directory / "schema.txt").write_text(SCHEMA_TEXT)
    (directory / "S_00001.gdm").write_text(
        "chr1\t10\t20\t+\t1.5\t3\nchr1\t30\t40\t+\t2.5\n"
    )
    for read in (read_dataset, read_by_lines):
        with pytest.raises(FormatError) as raised:
            read(str(directory), "D")
        assert str(raised.value) == (
            "gdm: line 2: 1 variable fields for 2-attribute schema"
        )


@pytest.mark.parametrize("schema, text", [
    (RegionSchema.of(("s", FLOAT), ("n", INT)), "chr1\t10\t20\t+\t1.5\t3\n"),
    (RegionSchema.of(("s", FLOAT), ("n", INT)), "chr1\t10\t20\t+\t1.5\t3"),
    (RegionSchema.empty(), "chr2\t5\t9\t-\n"),
    (RegionSchema.empty(), "chr1\t1\t2\t+\nchr1\t3\t4\t.\nchr2\t0\t1\t-\n"),
    (RegionSchema.of(("s", FLOAT), ("n", INT), ("t", STR), ("b", BOOL)),
     "chr1\t1\t2\t+\t.\tNA\tNULL\t\nchr1\t3\t4\t-\tnull\t.\t\tNA\n"
     "chr2\t0\t1\t*\tNA\t\t.\t.\n"),
    # Comment lines with as many fields as a region line: they convert,
    # so only their chromosome runs' names give them away.
    (RegionSchema.empty(),
     "#chr1\t1\t2\t+\nchr1\t3\t4\t-\ntrack x\t5\t6\t+\nchr1\t7\t8\t.\n"),
], ids=["single_line", "single_line_no_newline", "no_values_single_line",
        "no_values", "only_missing_tokens", "full_width_comment_lines"])
def test_edge_documents_parse_as_the_line_parser_does(schema, text):
    region_format = CustomBedFormat(schema)
    rows = region_format.parse_columns(text)
    assert isinstance(rows, ColumnRows)
    assert len(rows.values) == len(schema)
    assert repr(list(Sample(1, rows).rows())) == repr(
        list(Sample(1, region_format.parse(text)).rows())
    )


def test_coordinate_beyond_int64_still_loads(tmp_path):
    directory = tmp_path / "D"
    directory.mkdir()
    (directory / "schema.txt").write_text(SCHEMA_TEXT)
    huge = 2**63
    (directory / "S_00001.gdm").write_text(
        GOOD + f"chr1\t{huge}\t{huge + 5}\t-\t.\t7\n"
    )
    by_columns = read_dataset(str(directory), "D")
    by_lines = read_by_lines(str(directory), "D")
    assert list(by_columns.region_rows()) == list(by_lines.region_rows())
    assert list(by_columns.region_rows())[1][2] == huge
    assert by_columns.store().digest() == by_lines.store().digest()


CHIP_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "data", "CHIP"
)


def test_staged_sections_parse_as_columns():
    chip = read_by_lines(CHIP_DIR, "CHIP")
    meta, regions = _serialise_sections(chip)
    staged = parse_staged_sections(meta, regions, "CHIP")
    assert all(isinstance(s.held_rows(), ColumnRows) for s in staged)
    assert repr(list(staged.region_rows())) == repr(list(chip.region_rows()))
    assert staged.store().digest() == chip.store().digest()
    bad = regions.replace(b"\t-\t", b"\tx\t", 1)
    with pytest.raises(FormatError, match=r"^bad strand field 'x'$"):
        parse_staged_sections(meta, bad, "CHIP")


@pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028", "\u2029"])
def test_staged_values_with_a_line_break_character_round_trip(brk):
    schema = RegionSchema.of(("name", STR))
    dataset = Dataset("D", schema, [
        Sample(1, [GenomicRegion("chr1", 0, 5, "+", (f"a{brk}b",)),
                   GenomicRegion("chr1", 7, 9, "*", ("c",))],
               Metadata({"note": f"x{brk}y"})),
        Sample(2, [GenomicRegion("chr2", 1, 2, "-", (None,))]),
    ])
    meta, regions = _serialise_sections(dataset)
    staged = parse_staged_sections(meta, regions, "D")
    assert list(staged.region_rows()) == list(dataset.region_rows())
    assert [s.meta for s in staged] == [s.meta for s in dataset]


# -- a repro run over sources on disk builds no source region -------------------


@pytest.fixture(scope="module")
def disk_sources(tmp_path_factory):
    layout = GenomeLayout.generate(seed=3, n_genes=120, n_enhancers=40)
    repo = EncodeRepository.generate(
        seed=3, n_samples=3, peaks_per_sample_mean=400, layout=layout
    )
    root = tmp_path_factory.mktemp("sources")
    dirs = {}
    for name, dataset in (("ANNOTATIONS", repo.annotations),
                          ("ENCODE", repo.encode)):
        dirs[name] = str(root / name)
        write_dataset(dataset, dirs[name])
    return dirs


@pytest.mark.parametrize("program", [
    "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
    "R = MAP(n AS COUNT) PROMS ENCODE;\nMATERIALIZE R;\n",
    "R = COVER(2, ANY) ENCODE;\nMATERIALIZE R;\n",
    "PROMS = SELECT(annType == 'promoter') ANNOTATIONS;\n"
    "R = JOIN(DLE(1000)) PROMS ENCODE;\nMATERIALIZE R;\n",
], ids=["map_count", "cover2", "join_dle"])
def test_repro_run_builds_no_encode_region(
    tmp_path, monkeypatch, disk_sources, program
):
    read = {}

    def recording_read(directory, name=None):
        read[name] = dataset = read_dataset(directory, name)
        return dataset

    monkeypatch.setattr(repro.formats, "read_dataset", recording_read)
    path = tmp_path / "query.gmql"
    path.write_text(program)
    argv = ["run", str(path), "--engine", "columnar",
            "--out", str(tmp_path / "out"),
            "--store-dir", str(tmp_path / "store")]
    for name, directory in sorted(disk_sources.items()):
        argv += ["--source", f"{name}={directory}"]
    before = rows_materialised()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert all(
        isinstance(sample.held_rows(), ColumnRows)
        for sample in read["ENCODE"]
    )
    # No region object at all: MAP's reference, JOIN's value gathers,
    # the disk result cache and the writer all read columns.
    assert rows_materialised() - before == 0


def test_parse_columns_of_an_empty_document():
    rows = CustomBedFormat(RegionSchema.of(("s", STR))).parse_columns(
        "# nothing\n\n"
    )
    assert isinstance(rows, ColumnRows) and len(rows) == 0
    assert np.asarray(rows.lefts).dtype == np.int64
