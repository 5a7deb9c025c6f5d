"""Integration tests: multi-operator GMQL programs end to end."""

import pytest

from repro.gdm import Dataset, FLOAT, Metadata, RegionSchema, Sample, region
from repro.gmql import run, run_analyzed
from repro.simulate import EncodeRepository, GenomeLayout


@pytest.fixture(scope="module")
def repo():
    layout = GenomeLayout.generate(seed=3, n_genes=60, n_enhancers=30)
    return EncodeRepository.generate(seed=3, n_samples=12,
                                     peaks_per_sample_mean=100, layout=layout)


@pytest.fixture(scope="module")
def sources(repo):
    return {"ANNOTATIONS": repo.annotations, "ENCODE": repo.encode}


class TestCompositePrograms:
    def test_cover_of_replicates_then_map(self, sources):
        results = run(
            """
            CHIP = SELECT(dataType == 'ChipSeq') ENCODE;
            CONSENSUS = COVER(2, ANY) CHIP;
            PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
            HITS = MAP(n AS COUNT) PROMS CONSENSUS;
            MATERIALIZE HITS;
            """,
            sources,
        )
        hits = results["HITS"]
        assert len(hits) == 1  # 1 promoter sample x 1 consensus sample
        assert hits.schema.names[-1] == "n"

    def test_cover_all_arithmetic_bound(self, sources):
        results = run(
            """
            CHIP = SELECT(dataType == 'ChipSeq') ENCODE;
            MAJORITY = COVER((ALL + 1) / 2, ANY) CHIP;
            MATERIALIZE MAJORITY;
            """,
            sources,
        )
        majority = results["MAJORITY"]
        assert len(majority) == 1
        # Majority cover is much sparser than any single sample's peaks.
        chip_regions = sum(
            len(s) for s in sources["ENCODE"]
            if s.meta.first("dataType") == "ChipSeq"
        )
        assert majority.region_count() < chip_regions

    def test_semijoin_in_text(self, sources):
        results = run(
            """
            HELA = SELECT(cell == 'HeLa-S3') ENCODE;
            SAME_CELL = SELECT(semijoin: cell IN HELA) ENCODE;
            OTHERS = SELECT(semijoin: cell NOT IN HELA) ENCODE;
            MATERIALIZE SAME_CELL;
            MATERIALIZE OTHERS;
            """,
            sources,
        )
        total = len(results["SAME_CELL"]) + len(results["OTHERS"])
        assert total == len(sources["ENCODE"])

    def test_group_and_extend_pipeline(self, sources):
        results = run(
            """
            CHIP = SELECT(dataType == 'ChipSeq') ENCODE;
            STATS = EXTEND(n AS COUNT, best AS MIN(p_value)) CHIP;
            BYCELL = GROUP(groupby: cell; metadata: exps AS COUNT(n)) STATS;
            MATERIALIZE BYCELL;
            """,
            sources,
        )
        by_cell = results["BYCELL"]
        cells = {s.meta.first("cell") for s in by_cell}
        expected_cells = {
            s.meta.first("cell")
            for s in sources["ENCODE"]
            if s.meta.first("dataType") == "ChipSeq"
        }
        assert cells == expected_cells

    def test_join_with_joinby_clause(self, sources):
        results = run(
            """
            A = SELECT(dataType == 'ChipSeq') ENCODE;
            B = SELECT(dataType == 'ChipSeq') ENCODE;
            NEAR = JOIN(MD(1), DLE(5000); output: LEFT; joinby: cell) A B;
            MATERIALIZE NEAR;
            """,
            sources,
        )
        near = results["NEAR"]
        # joinby restricts pairs to same-cell samples.
        for sample in near:
            left_cells = set(map(str, sample.meta.values("left.cell")))
            right_cells = set(map(str, sample.meta.values("right.cell")))
            assert left_cells & right_cells

    def test_difference_then_order(self, sources):
        results = run(
            """
            CHIP = SELECT(dataType == 'ChipSeq') ENCODE;
            PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
            DISTAL = DIFFERENCE() CHIP PROMS;
            RANKED = ORDER(cell ASC; top: 3) DISTAL;
            MATERIALIZE RANKED;
            """,
            sources,
        )
        ranked = results["RANKED"]
        assert len(ranked) == 3
        # No surviving region overlaps any promoter.
        promoters = [r for s in sources["ANNOTATIONS"] for r in s.regions
                     if s.meta.first("annType") == "promoter"]
        for sample in ranked:
            for r in sample.regions:
                assert not any(r.overlaps(p) for p in promoters)

    def test_project_arithmetic_pipeline(self, sources):
        results = run(
            """
            CHIP = SELECT(dataType == 'ChipSeq') ENCODE;
            SHAPED = PROJECT(p_value, len AS right - left,
                             mid AS (left + right) / 2) CHIP;
            MATERIALIZE SHAPED;
            """,
            sources,
        )
        shaped = results["SHAPED"]
        assert shaped.schema.names == ("p_value", "len", "mid")
        sample = next(iter(shaped))
        for r in sample.regions:
            assert r.values[1] == r.length
            assert r.values[2] == pytest.approx((r.left + r.right) / 2)

    def test_multiple_meta_sections_are_anded(self, sources):
        results = run(
            """
            X = SELECT(dataType == 'ChipSeq'; cell == 'HeLa-S3') ENCODE;
            MATERIALIZE X;
            """,
            sources,
        )
        for sample in results["X"]:
            assert sample.meta.first("dataType") == "ChipSeq"
            assert sample.meta.first("cell") == "HeLa-S3"


class TestRunWithStats:
    def test_stats_returned(self, sources):
        results, physical, __ = run_analyzed(
            """
            PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
            CHIP = SELECT(dataType == 'ChipSeq') ENCODE;
            OUT = MAP() PROMS CHIP;
            MATERIALIZE OUT;
            """,
            sources,
            engine="columnar",
        )
        assert "OUT" in results
        kinds = [
            node.kind for node in physical.walk() if node.span is not None
        ]
        assert kinds.count("map") == 1
        assert kinds.count("select") == 2
        assert sum(
            node.span.attributes["output_samples"]
            for node in physical.walk() if node.kind != "scan"
        ) > 0

    def test_engines_agree_on_composite_program(self, sources):
        program = """
        CHIP = SELECT(dataType == 'ChipSeq') ENCODE;
        CONSENSUS = COVER(2, ANY) CHIP;
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        HITS = MAP(n AS COUNT) PROMS CONSENSUS;
        MATERIALIZE HITS;
        """
        naive = run(program, sources, engine="naive")["HITS"]
        columnar = run(program, sources, engine="columnar")["HITS"]
        naive_counts = [r.values[-1] for s in naive for r in s.regions]
        columnar_counts = [r.values[-1] for s in columnar for r in s.regions]
        assert naive_counts == columnar_counts
