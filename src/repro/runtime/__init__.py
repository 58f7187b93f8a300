"""Experiment harness: drivers, table grids, rendering, verification."""

from .compare import SchemeComparison, compare_schemes
from .driver import run_scheme
from .experiments import SCHEMES_ORDER, TableReproduction
from .paper_results import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLES,
    TABLE3_SIZES,
    TABLE5_SIZES,
)
from .plot import ascii_chart
from .session import RequestError, RunRequest, RunSession
from .stats import ReplicationStats, replicate
from .tables import format_comparison_row, format_table, shape_report
from .verify import verify_all_schemes_agree, verify_distribution

__all__ = [
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PAPER_TABLES",
    "ReplicationStats",
    "RequestError",
    "RunRequest",
    "RunSession",
    "SchemeComparison",
    "SCHEMES_ORDER",
    "TABLE3_SIZES",
    "TABLE5_SIZES",
    "TableReproduction",
    "ascii_chart",
    "compare_schemes",
    "format_comparison_row",
    "format_table",
    "replicate",
    "run_scheme",
    "shape_report",
    "verify_all_schemes_agree",
    "verify_distribution",
]
