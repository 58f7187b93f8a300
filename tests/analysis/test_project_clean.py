"""The repository's own tree lints clean — the PR's acceptance bar.

``repro lint`` with the committed project configuration must report zero
violations over ``src`` and ``tests``.  Any rule that fires here is
either a genuine invariant regression (fix the code) or an allowlist
gap (audit the entry into ``repro/analysis/config.py`` — a reviewed
act, per that module's docstring).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import lint_paths, project_config
from repro.analysis.rules.rl001_kernel_boundary import (
    _dotted_numpy_call,
    _numpy_aliases,
)

REPO = Path(__file__).resolve().parents[2]


def test_repository_lints_clean():
    result = lint_paths(
        [REPO / "src", REPO / "tests"], project_config(), root=REPO
    )
    assert result.clean, "\n" + result.render()


def test_fixture_corpus_is_excluded_from_project_lint():
    config = project_config()
    assert config.matches(
        "tests/analysis/fixtures/rl003/viol_distribute_first.py",
        config.exclude,
    )


def test_kernel_boundary_allowlists_reference_real_files():
    """Allowlist keys must point at files that exist (no rot)."""
    for pattern in project_config().kernel_boundary:
        assert (REPO / pattern).is_file(), f"stale allowlist key {pattern}"


def test_kernel_boundary_allowlists_name_only_calls_the_module_makes():
    """An allowlist is no wider than its module: every entry is called."""
    for pattern, allowed in project_config().kernel_boundary.items():
        tree = ast.parse((REPO / pattern).read_text(encoding="utf-8"))
        aliases = _numpy_aliases(tree)
        called = {
            _dotted_numpy_call(node, aliases)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        unused = sorted(allowed - called)
        assert not unused, f"{pattern} never calls np.{', np.'.join(unused)}"
