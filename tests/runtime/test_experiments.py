"""The table reproduction grids on reduced sizes, through the one path:
paper-table manifest → sweep store → ``table_from_store``."""

import pytest

from repro.runtime import PAPER_TABLE3, TABLE3_SIZES, TABLE5_SIZES
from repro.sweep import paper_tables_manifest, table_from_store

from ..paper_grid import reduced_table


@pytest.fixture(scope="module")
def small_table3():
    return reduced_table("table3", [40, 80], [4])


class TestGrid:
    def test_all_cells_present(self, small_table3):
        _, table = small_table3
        assert set(table.cells) == {
            (4, s, n) for s in ("sfc", "cfs", "ed") for n in (40, 80)
        }

    def test_series_extraction(self, small_table3):
        series = small_table3[1].series(4, "ed", "t_distribution")
        assert len(series) == 2
        assert series[0] < series[1]  # bigger arrays take longer

    def test_same_matrix_shared_within_cell(self, small_table3):
        records, _ = small_table3
        nnz = {
            r["result"]["global_nnz"] for r in records if r["params"]["n"] == 40
        }
        seeds = {r["seed"] for r in records if r["params"]["n"] == 40}
        assert len(nnz) == 1 and len(seeds) == 1

    def test_t_accessor(self, small_table3):
        _, table = small_table3
        cell = table.cells[(4, "ed", 40)]
        assert table.t(4, "ed", 40, "t_total") == cell.t_total


class TestPaperAlignment:
    def test_paper_series_for_on_grid_sizes(self):
        _, table = reduced_table("table3", [200, 400], [4])
        paper = table.paper_series(4, "sfc", "t_distribution")
        assert paper == PAPER_TABLE3[4]["sfc"]["t_distribution"][:2]

    def test_paper_series_none_for_off_grid_sizes(self, small_table3):
        assert small_table3[1].paper_series(4, "sfc", "t_distribution") is None

    def test_paper_series_none_for_off_grid_procs(self):
        _, table = reduced_table("table3", [200], [8])
        assert table.paper_series(8, "sfc", "t_distribution") is None


class TestShapes:
    def test_orderings_hold_at_paper_scale(self):
        _, table = reduced_table("table3", [200], [4, 16])
        for p in (4, 16):
            assert table.distribution_order_holds(p, 200)
            assert table.compression_order_holds(p, 200)
            assert table.ed_beats_cfs_overall(p, 200)

    def test_mesh_table_uses_explicit_meshes(self):
        records, table = reduced_table("table5", [120], [4])
        assert table.partition == "mesh2d"
        assert all(r["params"]["mesh_shape"] == [2, 2] for r in records)

    def test_specs_match_paper_grids(self):
        rows, mesh = paper_tables_manifest().grids
        assert rows.partition == ("row", "column")
        assert rows.n == tuple(TABLE3_SIZES) == (200, 400, 800, 1000, 2000)
        assert rows.n_procs == (4, 16, 32)
        assert mesh.n == tuple(TABLE5_SIZES) == (120, 240, 480, 960, 1920)
        assert mesh.n_procs == (4, 16, 64)
        assert mesh.mesh_shape_for(64) == (8, 8)
        assert rows.mesh_shape_for(4) is None

    def test_custom_sparse_ratio(self):
        records, table = reduced_table("table3", [40], [4], sparse_ratio=0.3)
        assert table.cells[(4, "ed", 40)].t_total > 0
        assert all(r["result"]["sparse_ratio"] == pytest.approx(0.3) for r in records)

    def test_unknown_table_rejected(self, small_table3):
        with pytest.raises(KeyError):
            table_from_store(small_table3[0], "table9")
