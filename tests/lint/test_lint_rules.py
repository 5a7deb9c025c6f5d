"""Golden-snippet self-tests for the repo lint rules.

Every ``RL0xx`` rule has one intentionally-violating snippet under
``tests/lint/snippets/``; each snippet declares its expected findings
with ``#! expect: RL0xx @ <line>`` annotations and the tests verify the
rule fires at exactly those (code, line) pairs -- no more, no fewer.
A coverage test asserts the corpus spans the whole rule table, so a new
rule cannot land without its golden snippet.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SNIPPET_DIR = Path(__file__).resolve().parent / "snippets"

EXPECT = re.compile(r"#! expect: (RL\d{3}) @ (\d+)")


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "lint_repo", REPO_ROOT / "benchmarks" / "lint_repo.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lint_repo", module)
    spec.loader.exec_module(module)
    return module


lint = _load_lint()

SNIPPETS = sorted(SNIPPET_DIR.glob("*.py"))


def expectations(snippet: Path) -> list:
    """The ``(code, line)`` pairs a snippet declares it must trip."""
    return [
        (match.group(1), int(match.group(2)))
        for match in EXPECT.finditer(snippet.read_text())
    ]


class TestGoldenSnippets:
    @pytest.mark.parametrize(
        "snippet", SNIPPETS, ids=[s.stem for s in SNIPPETS]
    )
    def test_snippet_trips_exactly_its_expected_findings(self, snippet):
        expected = expectations(snippet)
        assert expected, f"{snippet.name} declares no '#! expect:' lines"
        problems = lint.check_file(snippet, set(lint.ALL_CODES))
        actual = [(p.code, p.line) for p in problems]
        assert sorted(actual) == sorted(expected)

    def test_every_file_rule_has_a_golden_snippet(self):
        covered = {code for s in SNIPPETS for code, __ in expectations(s)}
        # RL005 is repo-level (operator registry); it is covered by the
        # fixture-based test below, not a snippet.
        file_rules = set(lint.ALL_CODES) - {"RL005"}
        assert covered == file_rules

    def test_snippet_corpus_is_exempt_from_the_repo_sweep(self):
        swept = set(lint._python_files())
        assert not (swept & set(SNIPPETS))


class TestRegistryRule:
    def test_rl005_fires_on_an_unimported_operator_module(
        self, tmp_path, monkeypatch
    ):
        operators = tmp_path / "operators"
        operators.mkdir()
        (operators / "__init__.py").write_text(
            "from repro.gmql.operators.map import run_map\n"
        )
        (operators / "map.py").write_text("def run_map(): pass\n")
        (operators / "orphan.py").write_text("def run_orphan(): pass\n")
        monkeypatch.setattr(lint, "OPERATORS_DIR", operators)
        monkeypatch.setattr(lint, "ROOT", tmp_path)
        problems = lint.check_operator_registry({"RL005"})
        assert [(p.code, str(p.path)) for p in problems] == [
            ("RL005", "operators/orphan.py")
        ]

    def test_rl005_respects_ignore(self):
        assert lint.check_operator_registry(set()) == []


class TestRegionMutationRule:
    SNIPPET = SNIPPET_DIR / "rl009_region_mutation.py"

    def test_rl009_is_scoped_to_src(self, tmp_path):
        """Tests and benchmarks may build region lists however they
        like; only library code must treat ``.regions`` as immutable."""
        outside = tmp_path / "tests" / "test_x.py"
        outside.parent.mkdir()
        outside.write_text(self.SNIPPET.read_text())
        assert lint.check_file(outside, {"RL009"}, root=tmp_path) == []

    def test_rl009_fires_in_library_code(self, tmp_path, monkeypatch):
        library = tmp_path / "src" / "repro" / "x.py"
        library.parent.mkdir(parents=True)
        library.write_text(self.SNIPPET.read_text())
        scoped = [
            lint.Rule(rule.code, rule.summary, rule.check,
                      only_under=(tmp_path / "src",))
            if rule.code == "RL009" else rule
            for rule in lint.RULES
        ]
        monkeypatch.setattr(lint, "RULES", tuple(scoped))
        problems = lint.check_file(library, {"RL009"}, root=tmp_path)
        assert [p.line for p in problems] == [
            line for __, line in expectations(self.SNIPPET)
        ]


class TestRegionSortKeyRule:
    SNIPPET = SNIPPET_DIR / "rl010_region_sort_key.py"

    def scoped(self, tmp_path, monkeypatch) -> None:
        rules = [
            lint.Rule(rule.code, rule.summary, rule.check,
                      only_under=(tmp_path / "src" / "repro" / "engine",))
            if rule.code == "RL010" else rule
            for rule in lint.RULES
        ]
        monkeypatch.setattr(lint, "RULES", tuple(rules))

    def test_rl010_fires_in_engine_code(self, tmp_path, monkeypatch):
        self.scoped(tmp_path, monkeypatch)
        engine = tmp_path / "src" / "repro" / "engine" / "x.py"
        engine.parent.mkdir(parents=True)
        engine.write_text(self.SNIPPET.read_text())
        problems = lint.check_file(engine, {"RL010"}, root=tmp_path)
        assert [p.line for p in problems] == [
            line for __, line in expectations(self.SNIPPET)
        ]

    def test_rl010_leaves_the_operator_library_alone(
        self, tmp_path, monkeypatch
    ):
        """``naive`` delegates to ``gmql/operators``, the oracle's home,
        which sorts region objects by definition."""
        self.scoped(tmp_path, monkeypatch)
        operators = tmp_path / "src" / "repro" / "gmql" / "operators" / "x.py"
        operators.parent.mkdir(parents=True)
        operators.write_text(self.SNIPPET.read_text())
        assert lint.check_file(operators, {"RL010"}, root=tmp_path) == []

    def test_the_real_rule_is_scoped_to_the_engine_package(self):
        (rule,) = [rule for rule in lint.RULES if rule.code == "RL010"]
        assert rule.applies_to(lint.ENGINE_DIR / "columnar.py")
        assert not rule.applies_to(
            lint.SRC_DIR / "repro" / "gmql" / "operators" / "join.py"
        )


class TestColumnarRegionBuildRule:
    SNIPPET = SNIPPET_DIR / "rl011_columnar_region_build.py"

    def scoped(self, tmp_path, monkeypatch) -> Path:
        module = tmp_path / "src" / "repro" / "engine" / "columnar.py"
        rules = [
            lint.Rule(rule.code, rule.summary, rule.check,
                      only_under=(module,))
            if rule.code == "RL011" else rule
            for rule in lint.RULES
        ]
        monkeypatch.setattr(lint, "RULES", tuple(rules))
        module.parent.mkdir(parents=True)
        return module

    def test_rl011_fires_in_the_columnar_engine(self, tmp_path, monkeypatch):
        module = self.scoped(tmp_path, monkeypatch)
        module.write_text(self.SNIPPET.read_text())
        problems = lint.check_file(module, {"RL011"}, root=tmp_path)
        assert [p.line for p in problems] == [
            line for __, line in expectations(self.SNIPPET)
        ]

    def test_rl011_leaves_other_engine_modules_alone(
        self, tmp_path, monkeypatch
    ):
        """The rest of ``src`` -- ``ColumnRows`` itself, ``naive``'s
        operator library -- builds region objects by definition."""
        module = self.scoped(tmp_path, monkeypatch)
        other = module.parent / "naive.py"
        other.write_text(self.SNIPPET.read_text())
        assert lint.check_file(other, {"RL011"}, root=tmp_path) == []

    def test_the_real_rule_is_scoped_to_the_columnar_engine(self):
        (rule,) = [rule for rule in lint.RULES if rule.code == "RL011"]
        assert rule.applies_to(lint.COLUMNAR_ENGINE)
        assert not rule.applies_to(lint.ENGINE_DIR / "naive.py")
        assert not rule.applies_to(lint.SRC_DIR / "repro" / "gdm" / "sample.py")


class TestSpanTimerRule:
    SNIPPET = SNIPPET_DIR / "rl012_span_timer.py"

    def scoped(self, tmp_path, monkeypatch) -> Path:
        engine = tmp_path / "src" / "repro" / "engine"
        gmql = tmp_path / "src" / "repro" / "gmql"
        rules = [
            lint.Rule(rule.code, rule.summary, rule.check,
                      exempt=(engine / "context.py",),
                      only_under=(engine, gmql))
            if rule.code == "RL012" else rule
            for rule in lint.RULES
        ]
        monkeypatch.setattr(lint, "RULES", tuple(rules))
        return tmp_path / "src" / "repro"

    @pytest.mark.parametrize("module", ["engine/base.py", "gmql/lang/x.py"])
    def test_rl012_fires_in_engine_and_language_code(
        self, tmp_path, monkeypatch, module
    ):
        path = self.scoped(tmp_path, monkeypatch) / module
        path.parent.mkdir(parents=True)
        path.write_text(self.SNIPPET.read_text())
        problems = lint.check_file(path, {"RL012"}, root=tmp_path)
        assert [p.line for p in problems] == [
            line for __, line in expectations(self.SNIPPET)
        ]

    def test_rl012_leaves_the_span_tracer_and_other_trees_alone(
        self, tmp_path, monkeypatch
    ):
        """The spans themselves need a timer; the server and the store
        time their own layers."""
        package = self.scoped(tmp_path, monkeypatch)
        for module in ("engine/context.py", "serve/state.py"):
            path = package / module
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.SNIPPET.read_text())
            assert lint.check_file(path, {"RL012"}, root=tmp_path) == []

    def test_the_real_rule_is_scoped_to_engine_and_language(self):
        (rule,) = [rule for rule in lint.RULES if rule.code == "RL012"]
        assert rule.applies_to(lint.ENGINE_DIR / "base.py")
        assert rule.applies_to(lint.GMQL_DIR / "lang" / "interpreter.py")
        assert not rule.applies_to(lint.CONTEXT_MODULE)
        assert not rule.applies_to(
            lint.SRC_DIR / "repro" / "serve" / "scheduler.py"
        )


class TestRegionsReadRule:
    SNIPPET = SNIPPET_DIR / "rl013_regions_read.py"
    WRITERS = ("formats/meta.py", "repository/staging.py", "store/cache.py")

    def scoped(self, tmp_path, monkeypatch) -> Path:
        package = tmp_path / "src" / "repro"
        rules = [
            lint.Rule(rule.code, rule.summary, rule.check,
                      only_under=tuple(package / m for m in self.WRITERS))
            if rule.code == "RL013" else rule
            for rule in lint.RULES
        ]
        monkeypatch.setattr(lint, "RULES", tuple(rules))
        return package

    @pytest.mark.parametrize("module", WRITERS)
    def test_rl013_fires_in_the_result_writers(
        self, tmp_path, monkeypatch, module
    ):
        path = self.scoped(tmp_path, monkeypatch) / module
        path.parent.mkdir(parents=True)
        path.write_text(self.SNIPPET.read_text())
        problems = lint.check_file(path, {"RL013"}, root=tmp_path)
        assert [p.line for p in problems] == [
            line for __, line in expectations(self.SNIPPET)
        ]

    def test_rl013_leaves_other_modules_alone(self, tmp_path, monkeypatch):
        """Operators, ``ColumnRows`` and the line-level format API
        read region objects by definition."""
        package = self.scoped(tmp_path, monkeypatch)
        for module in ("formats/bed.py", "gdm/sample.py", "store/persist.py"):
            path = package / module
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.SNIPPET.read_text())
            assert lint.check_file(path, {"RL013"}, root=tmp_path) == []

    def test_the_real_rule_is_scoped_to_the_three_writers(self):
        (rule,) = [rule for rule in lint.RULES if rule.code == "RL013"]
        package = lint.SRC_DIR / "repro"
        for module in self.WRITERS:
            assert rule.applies_to(package / module)
        assert not rule.applies_to(package / "formats" / "bed.py")
        assert not rule.applies_to(lint.SNIPPET_DIR / "rl009_region_mutation.py")


class TestRuleSelection:
    def test_select_narrows_to_the_named_codes(self):
        assert lint.active_codes(select="RL001,RL007") == {"RL001", "RL007"}

    def test_ignore_removes_codes_from_the_default_set(self):
        active = lint.active_codes(ignore="RL002")
        assert "RL002" not in active
        assert active == set(lint.ALL_CODES) - {"RL002"}

    def test_unknown_code_is_rejected(self):
        with pytest.raises(SystemExit, match="RL999"):
            lint.active_codes(select="RL999")

    def test_selected_rule_is_the_only_one_that_fires(self):
        snippet = SNIPPET_DIR / "rl007_clock_seam.py"
        only_environ = lint.check_file(snippet, {"RL008"})
        assert only_environ == []
        only_clock = lint.check_file(snippet, {"RL007"})
        assert {p.code for p in only_clock} == {"RL007"}


class TestRepoIsClean:
    def test_the_repo_passes_its_own_lint(self):
        problems = []
        for path in lint._python_files():
            problems.extend(lint.check_file(path, set(lint.ALL_CODES)))
        problems.extend(lint.check_operator_registry(set(lint.ALL_CODES)))
        assert problems == [], "\n".join(p.render() for p in problems)
