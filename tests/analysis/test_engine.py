"""Unit tests for the reprolint engine internals."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    all_rules,
    count_pragmas,
    get_rule,
    lint_paths,
)
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import (
    attach_decorator_pragmas,
    dotted_name,
    parse_pragmas,
)

import ast


class TestRegistry:
    def test_all_ten_rules_registered(self):
        codes = [r.code for r in all_rules()]
        assert codes == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
            "RL007", "RL008", "RL010", "RL011",
        ]

    def test_concurrency_tier_is_project_or_scoped(self):
        # the interprocedural rules declare requires_project; the rest
        # stay on the cheap per-file path
        by_code = {r.code: r for r in all_rules()}
        assert by_code["RL007"].requires_project
        assert by_code["RL011"].requires_project
        assert not by_code["RL008"].requires_project
        assert not by_code["RL010"].requires_project

    def test_rules_sorted_and_documented(self):
        for rule in all_rules():
            assert rule.name and rule.summary and rule.protects

    def test_get_rule_case_insensitive(self):
        assert get_rule("rl003").code == "RL003"

    def test_get_rule_unknown_lists_choices(self):
        with pytest.raises(KeyError, match="RL001"):
            get_rule("RL999")


class TestPragmaParsing:
    def test_line_pragma(self):
        pragmas = parse_pragmas("x = 1  # reprolint: disable=RL004\n")
        assert pragmas.by_line == {1: frozenset({"RL004"})}
        assert not pragmas.file_wide
        assert pragmas.count == 1

    def test_multiple_codes(self):
        pragmas = parse_pragmas("y = 2  # reprolint: disable=RL001, rl002\n")
        assert pragmas.by_line[1] == frozenset({"RL001", "RL002"})

    def test_file_wide_pragma(self):
        pragmas = parse_pragmas("# reprolint: disable-file=RL006\nx = 1\n")
        assert pragmas.file_wide == frozenset({"RL006"})

    def test_all_wildcard(self):
        pragmas = parse_pragmas("z = 3  # reprolint: disable=all\n")
        diag = Diagnostic(
            path="f.py", line=1, col=0, code="RL002", message="m"
        )
        assert pragmas.suppresses(diag)

    def test_unrelated_comments_ignored(self):
        pragmas = parse_pragmas("# EXPECT: RL004\n# noqa: E501\n")
        assert pragmas.count == 0

    def test_pragma_in_string_literal_does_not_count(self):
        source = 's = "x  # reprolint: disable=RL004"\n'
        assert parse_pragmas(source).count == 0

    def test_pragma_in_docstring_does_not_count(self):
        source = '"""Docs quote ``# reprolint: disable=RL001``."""\n'
        assert parse_pragmas(source).count == 0

    def test_suppression_is_line_scoped(self):
        pragmas = parse_pragmas("a = 1  # reprolint: disable=RL004\nb = 2\n")
        on_line = Diagnostic(
            path="f.py", line=1, col=0, code="RL004", message="m"
        )
        off_line = Diagnostic(
            path="f.py", line=2, col=0, code="RL004", message="m"
        )
        assert pragmas.suppresses(on_line)
        assert not pragmas.suppresses(off_line)


class TestDecoratorPragmas:
    """Pragmas written on decorator lines must cover the decorated def."""

    def test_pragma_on_decorator_binds_to_def_line(self):
        src = (
            '@rank_task("count")  # reprolint: disable=RL010\n'
            "def count(payload):\n"
            "    pass\n"
        )
        pragmas = attach_decorator_pragmas(parse_pragmas(src), ast.parse(src))
        assert pragmas.by_line[2] == frozenset({"RL010"})
        # the decorator's own line keeps its pragma too
        assert pragmas.by_line[1] == frozenset({"RL010"})

    def test_multi_code_pragma_on_decorator(self):
        src = (
            "@deco  # reprolint: disable=RL010, rl007\n"
            "class Holder:\n"
            "    pass\n"
        )
        pragmas = attach_decorator_pragmas(parse_pragmas(src), ast.parse(src))
        assert pragmas.by_line[2] == frozenset({"RL007", "RL010"})

    def test_multiline_decorator_call(self):
        src = (
            "@deco(\n"
            '    "arg",  # reprolint: disable=RL010\n'
            ")\n"
            "def f():\n"
            "    pass\n"
        )
        pragmas = attach_decorator_pragmas(parse_pragmas(src), ast.parse(src))
        assert pragmas.by_line[4] == frozenset({"RL010"})

    def test_undecorated_defs_untouched(self):
        src = "x = 1  # reprolint: disable=RL004\ndef f():\n    pass\n"
        parsed = parse_pragmas(src)
        pragmas = attach_decorator_pragmas(parsed, ast.parse(src))
        assert pragmas.by_line == parsed.by_line

    def test_budget_counts_pre_expansion_pragmas(self, tmp_path):
        # one pragma on a decorator suppresses the def-line diagnostic
        # but still costs exactly one budget unit
        file = tmp_path / "tasks.py"
        file.write_text(
            '@rank_task("count")  # reprolint: disable=RL010\n'
            "def count(payload): global _N\n"
        )
        config = LintConfig(task_scope=("*.py",))
        result = lint_paths([file], config, root=tmp_path)
        assert not result.diagnostics
        assert [d.code for d in result.suppressed] == ["RL010"]
        assert result.pragma_count == 1

    def test_disable_file_beats_line_pragmas(self, tmp_path):
        # disable-file suppresses everywhere, even where a line pragma
        # names a different code
        file = tmp_path / "wire.py"
        file.write_text(
            "# reprolint: disable-file=RL004\n"
            "import time\n"
            "T = time.time()  # reprolint: disable=RL001\n"
        )
        config = LintConfig(determinism_scope=("wire.py",))
        result = lint_paths([file], config, root=tmp_path)
        assert not result.diagnostics
        assert [d.code for d in result.suppressed] == ["RL004"]
        assert result.pragma_count == 2


class TestDottedName:
    def test_chain(self):
        node = ast.parse("a.b.c(1)").body[0].value.func
        assert dotted_name(node) == "a.b.c"

    def test_non_name_base(self):
        node = ast.parse("f().g(1)").body[0].value.func
        assert dotted_name(node) is None


class TestRunner:
    def test_exclude_patterns_skip_files(self, tmp_path):
        (tmp_path / "skip_me.py").write_text("import time\ntime.time()\n")
        config = LintConfig(
            determinism_scope=("*.py",), exclude=("skip_*.py",)
        )
        result = lint_paths([tmp_path], config, root=tmp_path)
        assert result.files_checked == 0
        assert result.clean

    def test_single_file_path(self, tmp_path):
        file = tmp_path / "wire.py"
        file.write_text("import time\n\nT = time.time()\n")
        config = LintConfig(determinism_scope=("wire.py",))
        result = lint_paths([file], config, root=tmp_path)
        assert [d.code for d in result.diagnostics] == ["RL004"]
        assert result.diagnostics[0].line == 3

    def test_render_formats_path_line_col(self, tmp_path):
        file = tmp_path / "wire.py"
        file.write_text("import time\n\nT = time.time()\n")
        config = LintConfig(determinism_scope=("wire.py",))
        result = lint_paths([file], config, root=tmp_path)
        line = result.render().splitlines()[0]
        assert line.startswith("wire.py:3:")
        assert "RL004" in line and "hint:" in line

    def test_json_payload_shape(self, tmp_path):
        file = tmp_path / "wire.py"
        file.write_text("import time\nT = time.time()\n")
        config = LintConfig(determinism_scope=("wire.py",))
        result = lint_paths([file], config, root=tmp_path)
        payload = json.loads(result.to_json())
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        assert len(payload["rules"]) == len(all_rules())
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "RL004" and diag["path"] == "wire.py"

    def test_count_pragmas(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "x = 1  # reprolint: disable=RL001\n"
            "# reprolint: disable-file=RL002\n"
        )
        (tmp_path / "b.py").write_text("y = 2\n")
        assert count_pragmas([tmp_path], LintConfig(), root=tmp_path) == 2

    def test_select_unknown_rule_raises(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(KeyError):
            lint_paths(
                [tmp_path], LintConfig(), root=tmp_path, select=["RL999"]
            )

    def test_paths_outside_root_keep_absolute(self, tmp_path):
        # a file that is not under root still lints (path falls back)
        file = tmp_path / "wire.py"
        file.write_text("x = 1\n")
        other_root = tmp_path / "elsewhere"
        other_root.mkdir()
        result = lint_paths([file], LintConfig(), root=other_root)
        assert result.files_checked == 1


class TestDiagnosticOrdering:
    def test_sorted_by_path_then_line(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nT = time.time()\n")
        (tmp_path / "a.py").write_text(
            "import time\n\n\nT = time.time()\nU = time.time_ns()\n"
        )
        config = LintConfig(determinism_scope=("*.py",))
        result = lint_paths([tmp_path], config, root=tmp_path)
        keys = [(d.path, d.line) for d in result.diagnostics]
        assert keys == sorted(keys)
