"""Semantic analyzer: inference shapes, pruning, and the execution gate.

The golden corpus (``test_checks_corpus.py``) pins each rule's code,
span and message; this file covers the analyzer's *inference* output
(what schema/strandedness each operator produces), the optimizer's
empty-plan pruning, the guarantee that error-severity programs never
reach the engine, the paper's section-2 query shapes passing strict
analysis, and a property over arbitrary generated programs.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.context import ExecutionContext
from repro.errors import GmqlCompileError
from repro.formats import read_dataset
from repro.gdm import FLOAT, INT, Metadata, Sample, region
from repro.gdm.sample import rows_materialised
from repro.gmql.lang import (
    analyze_program,
    compile_program,
    execute,
    explain_analyze,
    optimize,
)
from repro.gmql.lang.compiler import Compiler
from repro.gmql.lang.parser import parse
from repro.gmql.lang.physical import plan_program
from repro.gmql.lang.plan import EmptyPlan
from tests.section2 import PROGRAMS as SECTION2_PROGRAMS

REPO_ROOT = Path(__file__).resolve().parents[3]
HEADLINE_QUERY = REPO_ROOT / "examples" / "queries" / "chipseq_overview.gmql"
CHIP_DIR = REPO_ROOT / "examples" / "data" / "CHIP"


def _attr_names(info):
    return tuple(name for name, __ in info.region.attrs)


class TestInference:
    def test_project_closes_schema(self):
        analysis = analyze_program(
            "P = PROJECT(score) RAW;\nMATERIALIZE P;\n"
        )
        info = analysis.variables["P"]
        assert info.region.closed is True
        assert _attr_names(info) == ("score",)

    def test_cover_output_shape(self):
        analysis = analyze_program(
            "C = COVER(1, ANY) RAW;\nMATERIALIZE C;\n"
        )
        info = analysis.variables["C"]
        assert dict(info.region.attrs) == {"acc_index": INT}
        assert info.region.closed is True
        assert info.stranded is False

    def test_map_output_is_reference_plus_aggregates(self):
        analysis = analyze_program(
            "C = COVER(1, ANY) RAW;\n"
            "M = MAP(n AS COUNT) C RAW;\n"
            "MATERIALIZE M;\n"
        )
        info = analysis.variables["M"]
        assert dict(info.region.attrs) == {"acc_index": INT, "n": INT}
        assert info.region.closed is True

    def test_join_appends_dist_column(self):
        analysis = analyze_program(
            "X = JOIN(DLE(1000)) RAW RAW;\nMATERIALIZE X;\n"
        )
        info = analysis.variables["X"]
        assert ("dist", INT) in info.region.attrs

    def test_union_clash_renames_right_attribute(self):
        analysis = analyze_program(
            "A = COVER(1, ANY) RAW;\n"
            "B = PROJECT(*, acc_index AS right / left) RAW;\n"
            "U = UNION() A B;\n"
            "MATERIALIZE U;\n"
        )
        assert any(d.code == "GQL104" for d in analysis.diagnostics)
        names = _attr_names(analysis.variables["U"])
        assert "acc_index" in names and "acc_index_right" in names

    def test_dataset_schema_closes_the_world(self, encode):
        analysis = analyze_program(
            "X = SELECT(region: wat > 1) ENCODE;\nMATERIALIZE X;\n",
            datasets={"ENCODE": encode},
        )
        assert [d.code for d in analysis.errors()] == ["GQL101"]

    def test_dataset_metadata_closes_the_world(self, encode):
        analysis = analyze_program(
            "X = SELECT(wat == 'x') ENCODE;\nMATERIALIZE X;\n",
            datasets={"ENCODE": encode},
        )
        codes = {d.code for d in analysis.diagnostics}
        # Absent attribute: the predicate both references an impossible
        # name (GQL102) and can never hold (GQL107).
        assert {"GQL102", "GQL107"} <= codes
        assert analysis.empty_variables["X"] == "GQL107"

    def test_source_info_derived_from_dataset(self, encode):
        analysis = analyze_program(
            "X = SELECT(cell == 'HeLa') ENCODE;\nMATERIALIZE X;\n",
            datasets={"ENCODE": encode},
        )
        source = analysis.sources["ENCODE"]
        assert dict(source.region.attrs) == {"p_value": FLOAT}
        assert source.stranded is False  # every region is '*'
        assert analysis.diagnostics == ()

    def test_source_info_memoised_until_a_sample_is_added(self, encode):
        program = "X = SELECT(cell == 'HeLa') ENCODE;\nMATERIALIZE X;\n"
        first = analyze_program(program, datasets={"ENCODE": encode})
        again = analyze_program(program, datasets={"ENCODE": encode})
        assert again.sources["ENCODE"] is first.sources["ENCODE"]
        encode.add_sample(Sample(99, [region("chr2", 0, 10, "+", 0.5)],
                                 Metadata({"cell": "K562"})))
        grown = analyze_program(program, datasets={"ENCODE": encode})
        assert grown.sources["ENCODE"].stranded is True

    def test_strand_probe_reads_a_column_born_source(self):
        chip = read_dataset(str(CHIP_DIR), "CHIP")
        before = rows_materialised()
        analysis = analyze_program(
            "X = COVER(1, ANY) CHIP;\nMATERIALIZE X;\n",
            datasets={"CHIP": chip},
        )
        assert analysis.sources["CHIP"].stranded is True
        assert rows_materialised() == before


class TestPruning:
    PROGRAM = "X = SELECT(wat == 'x') ENCODE;\nMATERIALIZE X;\n"

    def test_optimizer_rewrites_provably_empty_select(self, encode):
        compiled = optimize(
            compile_program(self.PROGRAM, datasets={"ENCODE": encode})
        )
        root = compiled.outputs["X"]
        assert isinstance(root, EmptyPlan)
        assert root.pruned_by == "GQL107"
        assert root.label() == "EMPTY[GQL107]"
        assert [d.name for d in root.schema] == ["p_value"]

    def test_pruned_plan_executes_as_empty_dataset(self, encode):
        results = execute(self.PROGRAM, {"ENCODE": encode}, engine="auto")
        dataset = results["X"]
        assert len(dataset) == 0
        assert [d.name for d in dataset.schema] == ["p_value"]

    def test_explain_analyze_reports_pruning(self, encode):
        __, physical, __ = explain_analyze(self.PROGRAM, {"ENCODE": encode})
        text = physical.explain(analyze=True)
        assert "EMPTY[GQL107]" in text
        assert "backend=empty" in text
        assert "pruned_by=GQL107" in text

    def test_unprunable_select_is_untouched(self, encode):
        compiled = optimize(
            compile_program(
                "X = SELECT(cell == 'HeLa') ENCODE;\nMATERIALIZE X;\n",
                datasets={"ENCODE": encode},
            )
        )
        assert not isinstance(compiled.outputs["X"], EmptyPlan)


class TestExecutionGate:
    def test_error_program_rejected_before_any_operator_runs(self, encode):
        context = ExecutionContext()
        with pytest.raises(GmqlCompileError) as exc:
            execute(
                "X = COVER(5, 2) ENCODE;\nMATERIALIZE X;\n",
                {"ENCODE": encode},
                context=context,
            )
        assert any(d.code == "GQL106" for d in exc.value.diagnostics)
        # Nothing executed: the span trace is empty.
        assert context.tracer.roots == []

    def test_compile_error_carries_warnings_too(self, encode):
        source = (
            "X = SELECT(region: left < 0) ENCODE;\n"
            "Y = COVER(5, 2) X;\n"
            "MATERIALIZE Y;\n"
        )
        with pytest.raises(GmqlCompileError) as exc:
            compile_program(source, datasets={"ENCODE": encode})
        severities = {d.severity for d in exc.value.diagnostics}
        assert severities == {"error", "warning"}

    def test_error_rendering_includes_caret_frame(self, encode):
        with pytest.raises(GmqlCompileError) as exc:
            compile_program(
                "X = COVER(5, 2) ENCODE;\nMATERIALIZE X;\n",
                datasets={"ENCODE": encode},
            )
        message = str(exc.value)
        assert "GQL106" in message
        assert "^" in message  # caret frame rendered from source text


class TestHeadlineQuery:
    def test_clean_open_world(self):
        analysis = analyze_program(HEADLINE_QUERY.read_text())
        assert analysis.diagnostics == ()

    def test_clean_against_real_chip_dataset(self):
        chip = read_dataset(str(CHIP_DIR), "CHIP")
        analysis = analyze_program(
            HEADLINE_QUERY.read_text(), datasets={"CHIP": chip}
        )
        assert analysis.diagnostics == ()


class TestSection2Programs:
    @pytest.mark.parametrize("name", sorted(SECTION2_PROGRAMS))
    @pytest.mark.parametrize("effects", [False, True])
    def test_clean_under_strict_analysis(self, name, effects):
        analysis = analyze_program(SECTION2_PROGRAMS[name], effects=effects)
        assert analysis.errors() == ()
        assert analysis.warnings() == ()


class TestFingerprintStability:
    def test_annotations_do_not_perturb_cache_keys(self, encode):
        source = "R = SELECT(dataType == 'ChipSeq') ENCODE;\nMATERIALIZE R;\n"
        datasets = {"ENCODE": encode}
        bare = Compiler().compile(parse(source))
        analyzed = compile_program(source, datasets=datasets)
        assert analyzed.outputs["R"].inferred is not None
        assert bare.outputs["R"].inferred is None
        fp_bare = plan_program(bare, datasets=datasets)
        fp_analyzed = plan_program(analyzed, datasets=datasets)
        assert (
            fp_bare.outputs["R"].fingerprint
            == fp_analyzed.outputs["R"].fingerprint
            is not None
        )


# -- property: the analyzer never crashes, the compiler never leaks ------------

_META_ATTRS = ["cell", "dataType", "quality"]
_REGION_EXPRS = ["left < 0", "right >= 0", "score > 0.5", "pval <= 1"]
_AGGREGATES = ["COUNT", "SUM(score)", "AVG(pval)", "BAG(cell)", "FROB(x)"]


@st.composite
def programs(draw):
    """Arbitrary parser-accepted programs, valid and invalid alike."""
    statements = []
    current = "RAW"
    for index in range(draw(st.integers(1, 4))):
        name = f"V{index}"
        kind = draw(
            st.sampled_from(
                ["select", "select_region", "project", "extend",
                 "cover", "merge", "map", "join", "union"]
            )
        )
        if kind == "select":
            attr = draw(st.sampled_from(_META_ATTRS))
            value = draw(st.sampled_from(["'HeLa'", "'x'", "3"]))
            op = draw(st.sampled_from(["==", "!=", "<", ">="]))
            statements.append(
                f"{name} = SELECT({attr} {op} {value}) {current};"
            )
        elif kind == "select_region":
            expr = draw(st.sampled_from(_REGION_EXPRS))
            statements.append(
                f"{name} = SELECT(region: {expr}) {current};"
            )
        elif kind == "project":
            item = draw(st.sampled_from(["*", "score", "pval"]))
            statements.append(f"{name} = PROJECT({item}) {current};")
        elif kind == "extend":
            agg = draw(st.sampled_from(_AGGREGATES))
            statements.append(f"{name} = EXTEND(m AS {agg}) {current};")
        elif kind == "cover":
            low = draw(st.integers(-1, 3))
            high = draw(st.sampled_from(["1", "2", "ANY"]))
            statements.append(f"{name} = COVER({low}, {high}) {current};")
        elif kind == "merge":
            statements.append(f"{name} = MERGE() {current};")
        elif kind == "map":
            agg = draw(st.sampled_from(_AGGREGATES))
            statements.append(
                f"{name} = MAP(n AS {agg}) {current} RAW;"
            )
        elif kind == "join":
            clause = draw(
                st.sampled_from(
                    ["DLE(100)", "DGE(50)", "DLE(10), DGE(500)",
                     "MD(0)", "DLE(100), UP"]
                )
            )
            statements.append(
                f"{name} = JOIN({clause}) {current} RAW;"
            )
        else:
            statements.append(f"{name} = UNION() {current} RAW;")
        current = name
    statements.append(f"MATERIALIZE {current};")
    return "\n".join(statements) + "\n"


class TestAnalyzerTotality:
    @given(programs())
    @settings(max_examples=80, deadline=None)
    def test_analysis_is_total_and_gates_compilation(self, source):
        program = parse(source)  # generator only emits parseable text
        analysis = analyze_program(source)
        assert analysis.diagnostics is not None
        if analysis.errors():
            with pytest.raises(GmqlCompileError):
                compile_program(source)
        else:
            compiled = compile_program(source)
            assert set(compiled.outputs) <= set(analysis.variables)
        assert len(program.statements) >= 2
