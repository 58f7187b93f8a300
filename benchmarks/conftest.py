"""Shared infrastructure for the benchmark harness.

Each ``test_table*.py`` regenerates one published table or figure; the
``test_ablation_*.py`` files probe the design choices DESIGN.md §5 calls
out.  Shape assertions (who wins, by what factor) run once per session on
the full published grid; ``benchmark()`` then times one representative
configuration so ``--benchmark-only`` also reports real wall-clock numbers
for the simulator itself.
"""

from __future__ import annotations

import pytest

from repro.sweep import paper_tables_manifest, sweep_records, table_from_store


@pytest.fixture(scope="session")
def paper_records():
    """Every cell of the published Tables 3–5 grids, swept once."""
    return sweep_records(paper_tables_manifest())


@pytest.fixture(scope="session")
def table3(paper_records):
    """Full published grid of Table 3 (row partition)."""
    return table_from_store(paper_records, "table3")


@pytest.fixture(scope="session")
def table4(paper_records):
    """Full published grid of Table 4 (column partition)."""
    return table_from_store(paper_records, "table4")


@pytest.fixture(scope="session")
def table5(paper_records):
    """Full published grid of Table 5 (2-D mesh partition)."""
    return table_from_store(paper_records, "table5")


def print_paper_comparison(repro) -> None:
    from repro.runtime import format_table, shape_report

    print()
    print(format_table(repro))
    print(f"   shape report: {shape_report(repro)}")
