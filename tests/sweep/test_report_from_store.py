"""Tables render exclusively from the store; example manifests stay honest."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runtime import RunRequest, RunSession, run_scheme
from repro.sweep import (
    Manifest,
    StoreError,
    paper_tables_manifest,
    run_sweep,
    table_from_store,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "sweeps"


class TestExampleManifests:
    def test_tables_json_is_the_paper_tables_manifest(self):
        on_disk = json.loads((EXAMPLES / "tables.json").read_text())
        assert on_disk == paper_tables_manifest().to_dict()
        assert (
            Manifest.from_file(EXAMPLES / "tables.json").manifest_hash()
            == paper_tables_manifest().manifest_hash()
        )

    def test_tables_json_covers_the_published_grids(self):
        manifest = Manifest.from_file(EXAMPLES / "tables.json")
        cells = manifest.expand()
        partitions = {c.partition for c in cells}
        assert partitions == {"row", "column", "mesh2d"}
        mesh = {c.n_procs: c.mesh_shape for c in cells if c.partition == "mesh2d"}
        assert mesh == {4: (2, 2), 16: (4, 4), 64: (8, 8)}
        # table recipe seeds throughout
        assert all(c.seed == 2002 + c.n + 131 * c.n_procs for c in cells)

    def test_smoke_json_loads_and_is_small(self):
        manifest = Manifest.from_file(EXAMPLES / "smoke.json")
        assert 1 <= len(manifest) <= 12

    def test_cell_ids_and_hashes_are_pinned(self):
        """Literal ids and hashes: a change to the run description that
        moves a store byte fails here, not in a stale-store resume."""
        tables = Manifest.from_file(EXAMPLES / "tables.json")
        ids = [c.cell_id for c in tables.expand()]
        assert tables.manifest_hash() == (
            "bbc1c3a3cf497261e37f82aa456874e1070f694b0bfd0bbe235cfa12b19c2e21"
        )
        assert len(ids) == 135
        assert (ids[0], ids[-1]) == ("f8583fca23c05a27", "3ea9e4873054d438")
        assert hashlib.sha256(",".join(ids).encode()).hexdigest() == (
            "85839eb74b0b5ff841dd8cdf9eff8ae8987177bacd05c2d43d36285cf371fd1b"
        )
        smoke = Manifest.from_file(EXAMPLES / "smoke.json")
        assert smoke.manifest_hash() == (
            "6bce6769746e4bfe5d1cc90dbb7199c662ed7c9eaa5b10e3a554be39fc2fb5aa"
        )
        assert [c.cell_id for c in smoke.expand()] == [
            "6402330bdcd7f22b", "4ac4f4b4fc5dbad6", "77fc3c5c521be5fe",
            "232b644c376defd0", "492877815345c1b7", "4466a1275d087264",
        ]


class TestTableFromStore:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        manifest = paper_tables_manifest(
            sizes=[32, 48], proc_counts=[4],
            mesh_sizes=[48], mesh_proc_counts=[4],
        )
        store = tmp_path_factory.mktemp("sweep") / "reduced.jsonl"
        return run_sweep(manifest, store).records

    def test_matches_per_cell_driver_runs_exactly(self, records):
        stored = table_from_store(
            records, "table3", sizes=(32, 48), proc_counts=(4,)
        )
        assert len(stored.cells) == 2 * 3
        with RunSession() as session:
            for (p, scheme, n), cell in stored.cells.items():
                request = RunRequest(scheme=scheme, n=n, n_procs=p, seed=2002 + n + 131 * p)
                direct = run_scheme(scheme, session.matrix_for(request), n_procs=p)
                assert cell.t_distribution == direct.t_distribution
                assert cell.t_compression == direct.t_compression
                assert cell.t_total == direct.t_total

    def test_table4_and_5_render_from_the_same_store(self, records):
        t4 = table_from_store(records, "table4", sizes=(32, 48), proc_counts=(4,))
        assert len(t4.cells) == 2 * 3
        t5 = table_from_store(records, "table5", sizes=(48,), proc_counts=(4,))
        assert len(t5.cells) == 3

    def test_shape_verdicts_work_on_stored_cells(self, records):
        stored = table_from_store(
            records, "table3", sizes=(32, 48), proc_counts=(4,)
        )
        # the orderings are data facts; here we only need the calls to work
        assert isinstance(stored.distribution_order_holds(4, 48), bool)
        assert stored.fault_totals() == {}

    def test_missing_cells_are_an_error_not_a_truncated_table(self, records):
        with pytest.raises(StoreError, match="does not cover"):
            table_from_store(records, "table3", sizes=(32, 9999), proc_counts=(4,))

    def test_markdown_renderer_accepts_stored_tables(self, records):
        from repro.runtime.report import _md_table

        stored = table_from_store(
            records, "table3", sizes=(32, 48), proc_counts=(4,)
        )
        lines = _md_table(stored)
        assert lines[0].startswith("| p | scheme |")
        assert len(lines) == 2 + 1 * 3 * 2  # header+sep, p x scheme x metric
