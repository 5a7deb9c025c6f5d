"""The GDM writer formats a sample column by column.

``write_dataset`` and the staged serialiser write each sample from its
column view (``Sample.columns``) through
``CustomBedFormat.column_chunks``.  What must hold, against the line
writer it replaces (``format_region`` once per region): the same bytes,
for samples born as columns (COVER and JOIN outputs, files read from
disk), MAP outputs and region lists; for missing, NaN, signed-zero,
infinite and BOOL values, coordinates beyond int64, empty samples and
tied chromosome names (``chr1``/``chr01``); at every chunk size.  And
writing a sample born as columns builds no region object.
"""

import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.formats.bed as bed
from repro.formats import CustomBedFormat, read_dataset, write_dataset
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
)
from repro.gdm.sample import ColumnRows, RegionList, rows_materialised
from repro.gmql.lang import execute
from repro.repository.staging import _serialise_sections

#: ``chr1``/``chr01`` tie under the natural chromosome order.
CHROMS = ("chr1", "chr01", "chr10", "chr2", "chrX")
_TEXT = st.text(
    alphabet=st.sampled_from("abcXYZ019_-+:.éδ漢"), min_size=0, max_size=5
)


def by_rows(region_format: CustomBedFormat, regions) -> str:
    """The line writer's document: ``format_region`` per region."""
    return "".join(region_format.format_region(r) + "\n" for r in regions)


def column_text(region_format: CustomBedFormat, sample: Sample) -> str:
    """The column writer's document, checked to build no region object
    for a sample that holds no region list."""
    before = rows_materialised()
    text = "".join(region_format.serialize_sample(sample))
    assert region_format.serialize(sample.columns()) == text
    assert rows_materialised() == before
    return text


def value_of(attr_type):
    if attr_type is INT:
        return st.one_of(st.none(), st.integers(-2**70, 2**70))
    if attr_type is FLOAT:
        return st.one_of(
            st.none(), st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                             float("-inf"), 1e-300]),
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
    huge = draw(st.booleans())
    samples = []
    for sample_id in range(1, draw(st.integers(1, 3)) + 1):
        regions = []
        for __ in range(draw(st.integers(0, 12))):
            left = draw(st.integers(0, 10**6)) + (2**63 if huge else 0)
            regions.append(GenomicRegion(
                draw(st.sampled_from(CHROMS)), left,
                left + draw(st.integers(0, 500)),
                draw(st.sampled_from("+-*")),
                tuple(draw(value_of(t)) for t in types),
            ))
        samples.append(Sample(sample_id, regions, Metadata({"n": sample_id})))
    return Dataset("D", schema, samples, validate=False)


_CHUNKS = st.sampled_from([1, 3, bed._ROWS_PER_CHUNK])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets(), _CHUNKS)
def test_region_lists_write_the_line_writers_bytes(dataset, chunk):
    region_format = CustomBedFormat(dataset.schema)
    with mock.patch.object(bed, "_ROWS_PER_CHUNK", chunk):
        for sample in dataset:
            assert isinstance(sample.held_rows(), RegionList)
            assert column_text(region_format, sample) == by_rows(
                region_format, sample.regions
            )


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets(), _CHUNKS)
def test_files_read_from_disk_write_back_the_same_bytes(dataset, chunk):
    region_format = CustomBedFormat(dataset.schema)
    directory = tempfile.mkdtemp(prefix="repro-colwrite-")
    try:
        write_dataset(dataset, directory)
        with mock.patch.object(bed, "_ROWS_PER_CHUNK", chunk):
            for sample in read_dataset(directory, "D"):
                held = sample.held_rows()
                # A coordinate beyond int64 is read line by line.
                assert isinstance(held, ColumnRows) or any(
                    r.right >= 2**63 for r in held
                )
                assert column_text(region_format, sample) == by_rows(
                    region_format, sample.regions
                )
    finally:
        for name in os.listdir(directory):
            os.unlink(os.path.join(directory, name))
        os.rmdir(directory)


@st.composite
def column_rows(draw):
    """Rows held as columns the way operators hold them: coordinate
    arrays, strands as a list or an object array, values as lists or
    typed arrays."""
    import numpy as np

    types = draw(st.lists(st.sampled_from((INT, FLOAT, STR, BOOL)),
                          max_size=3))
    runs = draw(st.lists(
        st.tuples(st.sampled_from(CHROMS), st.integers(0, 5)), max_size=4
    ))
    count = sum(n for __, n in runs)
    lefts = np.array(
        draw(st.lists(st.integers(0, 2**62), min_size=count,
                      max_size=count)), dtype=np.int64,
    )
    rights = lefts + np.array(
        draw(st.lists(st.integers(0, 100), min_size=count, max_size=count)),
        dtype=np.int64,
    )
    strands = draw(st.lists(st.sampled_from("+-*"), min_size=count,
                            max_size=count))
    if draw(st.booleans()):
        strands = np.array(strands, dtype=object)
    values = []
    for attr_type in types:
        column = draw(st.lists(value_of(attr_type), min_size=count,
                               max_size=count))
        if attr_type is FLOAT and None not in column and draw(st.booleans()):
            column = np.array(column, dtype=np.float64)
        elif (attr_type is INT and None not in column
              and all(abs(v) < 2**63 for v in column) and draw(st.booleans())):
            column = np.array(column, dtype=np.int64)
        values.append(column)
    schema = RegionSchema.of(
        *((f"v{i}", attr_type) for i, attr_type in enumerate(types))
    )
    return schema, ColumnRows(runs, lefts, rights, strands, values)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(column_rows(), _CHUNKS)
def test_column_rows_write_the_line_writers_bytes(drawn, chunk):
    schema, rows = drawn
    region_format = CustomBedFormat(schema)
    sample = Sample(1, rows)
    with mock.patch.object(bed, "_ROWS_PER_CHUNK", chunk):
        text = column_text(region_format, sample)
    assert sample.columns() is rows
    assert text == by_rows(region_format, sample.regions)


# -- operator outputs -------------------------------------------------------------

SCHEMA = RegionSchema.of(("score", FLOAT), ("label", STR), ("flag", BOOL))
SCORES = (1.5, None, -0.0, float("nan"), float("inf"), 0.0, -2.0)


def make_source(name: str, offset: int) -> Dataset:
    samples = []
    for sample_id in (1, 2):
        regions = []
        for i in range(40):
            chrom = ("chr1", "chr01", "chr2", "chr10")[(i + sample_id) % 4]
            left = offset + 37 * i % 900 + sample_id
            regions.append(GenomicRegion(
                chrom, left, left + 5 + (i * 13) % 60, "+-*"[i % 3],
                (SCORES[(i + offset) % len(SCORES)], ("a", None, "")[i % 3],
                 (True, False, None)[i % 3]),
            ))
        samples.append(Sample(sample_id, regions, Metadata({"s": name})))
    samples.append(Sample(3, [], Metadata({"s": name})))
    return Dataset(name, SCHEMA, samples, validate=False)


PROGRAMS = {
    "cover": ("R = COVER(1, ANY) B;", ColumnRows),
    "histogram": ("R = HISTOGRAM(1, ANY) B;", ColumnRows),
    "map_pairs": (
        "R = MAP(n AS COUNT, top AS MAX(score), labels AS BAG(label)) A B;",
        ColumnRows,
    ),
    "map_count": ("R = MAP(n AS COUNT) A B;", ColumnRows),
    "join_left": ("R = JOIN(DLE(40); output: LEFT) A B;", ColumnRows),
    "join_cat": ("R = JOIN(MD(2); output: CAT) A B;", ColumnRows),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_operator_outputs_write_the_line_writers_bytes(name, tmp_path):
    program, born = PROGRAMS[name]
    result = execute(
        program + " MATERIALIZE R;",
        {"A": make_source("A", 0), "B": make_source("B", 11)},
        engine="columnar",
    )["R"]
    region_format = CustomBedFormat(result.schema)
    assert any(isinstance(s.held_rows(), born) for s in result)
    before = rows_materialised()
    write_dataset(result, str(tmp_path / "R"))
    __, staged = _serialise_sections(result)
    assert rows_materialised() == before
    expected = []
    for sample in result:
        text = column_text(region_format, sample)
        assert text == by_rows(region_format, sample.regions)
        assert (tmp_path / "R" / f"S_{sample.id:05d}.gdm").read_text() == text
        expected.append(f"#sample\t{sample.id}\n" + text)
    assert staged.decode() == "".join(expected)


@st.composite
def operand(draw, name: str):
    samples = []
    for sample_id in range(1, draw(st.integers(1, 3)) + 1):
        regions = []
        for __ in range(draw(st.integers(0, 15))):
            left = draw(st.integers(0, 2000))
            regions.append(GenomicRegion(
                draw(st.sampled_from(CHROMS)), left,
                left + draw(st.integers(0, 300)),
                draw(st.sampled_from("+-*")),
                (draw(value_of(FLOAT)), draw(value_of(STR)),
                 draw(value_of(BOOL))),
            ))
        samples.append(Sample(sample_id, regions, Metadata({"s": name})))
    return Dataset(name, SCHEMA, samples, validate=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(operand("A"), operand("B"), st.sampled_from(sorted(PROGRAMS)),
       _CHUNKS)
def test_generated_operator_outputs_write_the_line_writers_bytes(
    a, b, name, chunk
):
    result = execute(PROGRAMS[name][0] + " MATERIALIZE R;",
                     {"A": a, "B": b}, engine="columnar")["R"]
    region_format = CustomBedFormat(result.schema)
    with mock.patch.object(bed, "_ROWS_PER_CHUNK", chunk):
        for sample in result:
            assert column_text(region_format, sample) == by_rows(
                region_format, sample.regions
            )


def test_ragged_rows_have_no_column_view_and_write_line_by_line(tmp_path):
    schema = RegionSchema.of(("a", INT), ("b", STR))
    regions = [GenomicRegion("chr1", 0, 5, "*", (1, "x")),
               GenomicRegion("chr1", 7, 9, "+", (2,))]
    dataset = Dataset("D", schema, [Sample(1, regions)], validate=False)
    (sample,) = dataset
    assert sample.columns() is None
    region_format = CustomBedFormat(schema)
    write_dataset(dataset, str(tmp_path / "D"))
    assert (tmp_path / "D" / "S_00001.gdm").read_text() == by_rows(
        region_format, regions
    ) == "chr1\t0\t5\t.\t1\tx\nchr1\t7\t9\t+\t2\n"
