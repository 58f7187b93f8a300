"""Unit tests for table rendering and the shape report."""

import pytest

from repro.runtime import format_comparison_row, format_table, shape_report

from ..paper_grid import reduced_table


@pytest.fixture(scope="module")
def repro():
    return reduced_table("table3", [60, 120], [4])[1]


class TestFormatting:
    def test_comparison_row_with_paper(self):
        row = format_comparison_row([1.5, 2.0], [1.0, 3.0])
        assert "1.500" in row and "3.000" in row and "(" in row

    def test_comparison_row_without_paper(self):
        row = format_comparison_row([1.5], None)
        assert "(" not in row

    def test_format_table_layout(self, repro):
        text = format_table(repro)
        assert "table3" in text and "row partition" in text
        assert "-- p = 4" in text
        for scheme in ("SFC", "CFS", " ED"):
            assert scheme in text
        assert "T_dist" in text and "T_comp" in text

    def test_format_table_without_paper_column(self, repro):
        text = format_table(repro, with_paper=False)
        assert "(paper ms)" not in text


class TestShapeReport:
    def test_fields_and_ranges(self, repro):
        report = shape_report(repro)
        assert report["cells"] == 2
        for key in (
            "distribution_order_ed_cfs_sfc",
            "compression_order_sfc_cfs_ed",
            "ed_beats_cfs_overall",
        ):
            assert 0.0 <= report[key] <= 1.0

    def test_paper_scale_shapes_all_hold(self):
        _, big = reduced_table("table3", [200], [4])
        report = shape_report(big)
        assert report["distribution_order_ed_cfs_sfc"] == 1.0
        assert report["compression_order_sfc_cfs_ed"] == 1.0
        assert report["ed_beats_cfs_overall"] == 1.0
