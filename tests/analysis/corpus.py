"""Shared helpers for the reprolint fixture corpus.

The corpus lives in ``tests/analysis/fixtures/`` — one directory per
rule, each holding at least one clean and two violating snippets.
Expected findings are **declared inside the fixtures themselves** with
``# EXPECT: RL00x`` markers on the violating line (repeat the code for
multiple findings on one line), so fixture and oracle cannot drift
apart: the driver parses the markers and asserts the engine's findings
match them *exactly* — path, line and rule code.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

from repro.analysis import LintConfig

CORPUS = Path(__file__).resolve().parent / "fixtures"

_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([A-Z0-9 ]+)")


def corpus_config() -> LintConfig:
    """A config whose scopes map rule → fixture directory."""
    return LintConfig(
        kernel_boundary={"rl001/*.py": frozenset({"zeros"})},
        transport_scope=("rl002/*.py",),
        transport_exempt=("rl002/exempt_*.py",),
        scheme_scope=("rl003/*.py",),
        determinism_scope=("rl004/*.py", "pragmas/*.py"),
        obs_scope=("rl005/*.py",),
        obs_exempt=("rl005/exempt_*.py",),
        cli_scope=("rl006/*.py",),
        async_scope=("rl007/*.py", "rl008/*.py"),
        blocking_calls=frozenset({"time.sleep", "open", "subprocess.run"}),
        blocking_suspects=frozenset({"join", "recv", "sleep", "wait"}),
        blocking_roots=frozenset({"RunSession.run"}),
        task_scope=("rl010/*.py",),
        task_purity_allow=frozenset({"clean_allowlisted.stamped"}),
        # helper_threads.py sits outside fork scope on purpose: it is the
        # cross-file callee the transitive RL011 fixture reaches into
        fork_scope=("rl011/viol_*.py", "rl011/clean_*.py"),
        exclude=("broken/*",),
    )


def expected_findings() -> Counter[tuple[str, int, str]]:
    """``(relative_path, line, code) -> count`` parsed from the markers."""
    expected: Counter[tuple[str, int, str]] = Counter()
    for file in sorted(CORPUS.rglob("*.py")):
        rel = file.relative_to(CORPUS).as_posix()
        if rel.startswith("broken/"):
            continue
        lines = file.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = _EXPECT_RE.search(line)
            if match is None:
                continue
            for code in match.group(1).split():
                expected[(rel, lineno, code)] += 1
    return expected
