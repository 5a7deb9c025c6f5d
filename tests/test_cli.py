"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.formats import write_dataset
from repro.gdm import Dataset, FLOAT, Metadata, RegionSchema, Sample, region


@pytest.fixture()
def encode_dir(tmp_path):
    schema = RegionSchema.of(("p_value", FLOAT))
    dataset = Dataset(
        "ENCODE",
        schema,
        [
            Sample(1, [region("chr1", 0, 100, "*", 1e-5)],
                   Metadata({"dataType": "ChipSeq", "cell": "HeLa-S3"})),
            Sample(2, [region("chr1", 200, 300, "*", 1e-2)],
                   Metadata({"dataType": "RnaSeq", "cell": "K562"})),
        ],
    )
    directory = tmp_path / "ENCODE"
    write_dataset(dataset, str(directory))
    return str(directory)


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "query.gmql"
    path.write_text(
        "R = SELECT(dataType == 'ChipSeq') ENCODE;\nMATERIALIZE R;\n"
    )
    return str(path)


class TestRun:
    def test_run_prints_summary(self, capsys, encode_dir, program_file):
        code = main(["run", program_file, "--source", f"ENCODE={encode_dir}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "R: 1 sample(s), 1 region(s)" in out

    def test_run_materialises_output(self, capsys, tmp_path, encode_dir,
                                     program_file):
        out_dir = str(tmp_path / "results")
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--out", out_dir]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "R", "schema.txt"))

    def test_run_with_stats(self, capsys, encode_dir, program_file):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT" in out
        assert "total kernel time" in out

    def test_stats_count_blocks_of_derived_datasets(self, capsys, tmp_path,
                                                    encode_dir):
        # The COVER runs over the region SELECT's output, whose blocks
        # belong to a derived dataset's store, not to ENCODE's.
        from repro.store.columnar import store_counters

        query = tmp_path / "derived.gmql"
        query.write_text(
            "R = SELECT(region: p_value < 0.5) ENCODE;\n"
            "C = COVER(1, ANY) R;\n"
            "MATERIALIZE C;\n"
        )
        before = store_counters()
        code = main(
            ["run", str(query), "--source", f"ENCODE={encode_dir}",
             "--engine", "columnar", "--store-dir", str(tmp_path / "store"),
             "--stats"]
        )
        after = store_counters()
        assert code == 0
        out = capsys.readouterr().out
        built = after["blocks_built"] - before["blocks_built"]
        mapped = after["blocks_mapped"] - before["blocks_mapped"]
        assert built > 0
        assert (
            f"persistent store: {mapped} block set(s) mapped, {built} built,"
            in out
        )
        # The region SELECT reads ENCODE's columns and emits the kept
        # rows as columns: the source is never materialised.
        assert after["rows_materialised"] == before["rows_materialised"]
        assert "rows materialised: 0\n" in out

    def test_cold_cover_run_materialises_no_row(self, capsys, tmp_path,
                                                encode_dir):
        """Sources read from disk, the COVER kernel, the disk result-cache
        write and the GDM writer all work on columns."""
        query = tmp_path / "cover.gmql"
        query.write_text("C = COVER(1, ANY) ENCODE;\nMATERIALIZE C;\n")
        store = tmp_path / "store"
        code = main(
            ["run", str(query), "--source", f"ENCODE={encode_dir}",
             "--engine", "columnar", "--store-dir", str(store),
             "--out", str(tmp_path / "out"), "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "C: 1 sample(s), 2 region(s)" in out
        assert "rows materialised: 0\n" in out
        assert os.listdir(store / "results")
        assert (tmp_path / "out" / "C" / "S_00001.gdm").read_text() == (
            "chr1\t0\t100\t.\t1\nchr1\t200\t300\t.\t1\n"
        )

    def test_run_columnar_engine(self, capsys, encode_dir, program_file):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--engine", "columnar"]
        )
        assert code == 0

    def test_missing_source_is_clean_error(self, capsys, program_file):
        code = main(["run", program_file])
        # An unbound source is a compile-level problem: exit 3.
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_engine_is_clean_error(self, capsys, encode_dir,
                                       program_file):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--engine", "spark"]
        )
        assert code == 1
        assert "unknown engine" in capsys.readouterr().err

    def test_syntax_error_is_clean_error(self, capsys, tmp_path, encode_dir):
        bad = tmp_path / "bad.gmql"
        bad.write_text("THIS IS NOT GMQL")
        code = main(["run", str(bad), "--source", f"ENCODE={encode_dir}"])
        # Syntax errors get their own exit code (2), distinct from
        # semantic (3) and execution (1) failures.
        assert code == 2
        assert "syntax error:" in capsys.readouterr().err


class TestRunNewFlags:
    def test_run_auto_engine(self, capsys, encode_dir, program_file):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--engine", "auto"]
        )
        assert code == 0
        assert "R: 1 sample(s)" in capsys.readouterr().out

    def test_run_workers_flag(self, capsys, encode_dir, program_file):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--engine", "auto", "--workers", "2"]
        )
        assert code == 0

    def test_run_rejects_nonpositive_workers(self, capsys, encode_dir,
                                             program_file):
        with pytest.raises(SystemExit):
            main(
                ["run", program_file, "--source", f"ENCODE={encode_dir}",
                 "--engine", "parallel", "--workers", "0"]
            )
        assert "at least 1" in capsys.readouterr().err

    def test_run_trace_flag(self, capsys, encode_dir, program_file):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execution trace:" in out
        assert "SELECT" in out and "ms" in out


class TestChaosFlag:
    def test_chaos_transient_fault_is_retried_transparently(
        self, capsys, encode_dir, program_file
    ):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--chaos", "seed=7;transient@repository.load:*?times=1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "R: 1 sample(s), 1 region(s)" in out
        assert "chaos: 1 fault(s) injected: transient=1" in out

    def test_chaos_noop_spec_reports_nothing_injected(
        self, capsys, encode_dir, program_file
    ):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--chaos", "seed=7;crash@federation.*:nowhere"]
        )
        assert code == 0
        assert "chaos: no faults injected" in capsys.readouterr().out

    def test_chaos_permanent_fault_is_clean_error(
        self, capsys, encode_dir, program_file
    ):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--chaos", "seed=7;transient@repository.load:ENCODE"]
        )
        assert code == 1
        assert "attempt(s) failed" in capsys.readouterr().err

    def test_bad_chaos_spec_is_clean_error(
        self, capsys, encode_dir, program_file
    ):
        code = main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--chaos", "explode@everything"]
        )
        assert code == 1
        assert "unknown fault kind" in capsys.readouterr().err

    def test_chaos_disarmed_after_run(self, encode_dir, program_file):
        from repro.resilience import armed

        main(
            ["run", program_file, "--source", f"ENCODE={encode_dir}",
             "--chaos", "seed=7;latency@*?ms=1"]
        )
        assert armed() is None


class TestCheck:
    def test_clean_program_exits_zero(self, capsys, program_file):
        code = main(["check", program_file])
        assert code == 0
        assert "ok: no findings" in capsys.readouterr().out

    def test_clean_program_with_sources(self, capsys, encode_dir,
                                        program_file):
        code = main(
            ["check", program_file, "--source", f"ENCODE={encode_dir}"]
        )
        assert code == 0

    def test_semantic_error_exits_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.gmql"
        bad.write_text("X = COVER(5, 2) RAW;\nMATERIALIZE X;\n")
        code = main(["check", str(bad)])
        assert code == 3
        out = capsys.readouterr().out
        assert "GQL106" in out
        assert "1 error(s)" in out
        assert "^" in out  # caret frame

    def test_warning_only_exits_zero_without_strict(self, capsys, tmp_path):
        warn = tmp_path / "warn.gmql"
        warn.write_text(
            "X = SELECT(region: left < 0) RAW;\nMATERIALIZE X;\n"
        )
        code = main(["check", str(warn)])
        assert code == 0
        assert "GQL107" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, capsys, tmp_path):
        warn = tmp_path / "warn.gmql"
        warn.write_text(
            "X = SELECT(region: left < 0) RAW;\nMATERIALIZE X;\n"
        )
        code = main(["check", "--strict", str(warn)])
        assert code == 3

    def test_json_format(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.gmql"
        bad.write_text("X = COVER(5, 2) RAW;\nMATERIALIZE X;\n")
        code = main(["check", "--format", "json", str(bad)])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["errors"] == 1
        diagnostic = report["diagnostics"][0]
        assert diagnostic["code"] == "GQL106"
        assert diagnostic["severity"] == "error"
        assert diagnostic["span"]["line"] == 1

    def test_syntax_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.gmql"
        bad.write_text("THIS IS NOT GMQL")
        code = main(["check", str(bad)])
        assert code == 2
        assert "syntax error:" in capsys.readouterr().err

    def test_rules_listing(self, capsys):
        code = main(["check", "--rules"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GQL101" in out and "GQL114" in out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "GMQL semantic error" in out


class TestExplainAnalyze:
    def test_analyze_prints_backends_and_timings(
        self, capsys, encode_dir, program_file
    ):
        code = main(
            ["explain", program_file, "--analyze",
             "--source", f"ENCODE={encode_dir}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine=auto" in out
        assert "backend=" in out
        assert "rows=" in out and "->" in out
        assert "time=" in out
        assert out.strip().splitlines()[-1].startswith("total:")

    def test_analyze_with_pinned_engine(
        self, capsys, encode_dir, program_file
    ):
        code = main(
            ["explain", program_file, "--analyze", "--engine", "naive",
             "--source", f"ENCODE={encode_dir}"]
        )
        assert code == 0
        assert "backend=naive" in capsys.readouterr().out

    def test_analyze_missing_source_is_clean_error(
        self, capsys, program_file
    ):
        code = main(["explain", program_file, "--analyze"])
        assert code == 3
        assert "unknown source dataset" in capsys.readouterr().err


class TestOtherCommands:
    def test_explain(self, capsys, program_file):
        code = main(["explain", program_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT" in out and "SCAN ENCODE" in out

    def test_info(self, capsys, encode_dir):
        code = main(["info", encode_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "samples:        2" in out
        assert "p_value" in out

    def test_info_missing_directory(self, capsys, tmp_path):
        code = main(["info", str(tmp_path / "nope")])
        assert code == 1

    def test_formats_listing(self, capsys):
        code = main(["formats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "narrowpeak" in out
        assert ".bed" in out

    def test_convert_narrowpeak_to_bed(self, capsys, tmp_path):
        source = tmp_path / "in.narrowPeak"
        source.write_text(
            "chr1\t100\t200\tpeak1\t13\t+\t4.5\t3.2\t-1\t50\n"
        )
        destination = tmp_path / "out.bed"
        code = main(["convert", str(source), str(destination)])
        assert code == 0
        text = destination.read_text()
        assert text.startswith("chr1\t100\t200\tpeak1\t13\t+")

    def test_convert_unknown_extension(self, capsys, tmp_path):
        source = tmp_path / "in.xyz"
        source.write_text("x")
        code = main(["convert", str(source), str(tmp_path / "out.bed")])
        assert code == 1

    def test_serve_has_no_bin_size_flag(self, capsys, encode_dir):
        parser = build_parser()
        args = parser.parse_args(["serve", "--source", f"ENCODE={encode_dir}"])
        assert not hasattr(args, "bin_size")
        with pytest.raises(SystemExit) as raised:
            parser.parse_args(
                ["serve", "--source", f"ENCODE={encode_dir}",
                 "--bin-size", "10"]
            )
        assert raised.value.code == 2
        assert "unrecognized arguments: --bin-size" in capsys.readouterr().err
