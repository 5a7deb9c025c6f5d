"""The paper's section-2 query shapes over simulated ENCODE data.

Shared by the tier-1 tests that hold these programs to an invariant:
the semantic analyzer finds nothing in them
(``tests/gmql/lang/test_semantics.py``), and a second run over a
persisted store root maps every block set it needs instead of building
it (``tests/engine/test_persisted_differential.py``).  One operator is
in the spotlight per program; ``select_cover`` feeds a region-predicate
SELECT, whose output owns fresh region lists, into a COVER.
"""

PROGRAMS = {
    "map": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = MAP(peak_count AS COUNT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "map_avg": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = MAP(avg_p AS AVG(p_value)) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "map_max": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = MAP(max_p AS MAX(p_value)) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "join": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = JOIN(DLE(20000); output: LEFT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "join_md1": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = JOIN(MD(1); output: LEFT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "join_up": """
        PROMS = SELECT(annType == 'promoter') ANNOTATIONS;
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = JOIN(DLE(20000), UP; output: LEFT) PROMS PEAKS;
        MATERIALIZE RESULT;
    """,
    "cover": """
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = COVER(2, ANY) PEAKS;
        MATERIALIZE RESULT;
    """,
    "flat_summit": """
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        F = FLAT(1, ANY) PEAKS;
        S = SUMMIT(2, ANY) PEAKS;
        MATERIALIZE F;
        MATERIALIZE S;
    """,
    "histogram": """
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        RESULT = HISTOGRAM(1, ANY) PEAKS;
        MATERIALIZE RESULT;
    """,
    "select_cover": """
        PEAKS = SELECT(dataType == 'ChipSeq') ENCODE;
        STRONG = SELECT(region: p_value < 0.001) PEAKS;
        RESULT = COVER(1, ANY) STRONG;
        MATERIALIZE RESULT;
    """,
}


def smoke_sources(seed: int = 42) -> dict:
    """Freshly generated ``ANNOTATIONS`` and ``ENCODE`` source datasets
    (about 200 promoters and 8 samples of ~150 peaks): new objects on
    every call, identical content for one *seed*."""
    from repro.simulate import EncodeRepository, GenomeLayout

    layout = GenomeLayout.generate(seed=seed, n_genes=200, n_enhancers=100)
    repo = EncodeRepository.generate(
        seed=seed, n_samples=8, peaks_per_sample_mean=150, layout=layout
    )
    return {"ANNOTATIONS": repo.annotations, "ENCODE": repo.encode}
