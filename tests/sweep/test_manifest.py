"""Manifest schema validation, expansion order and cell identity."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.runtime import RunRequest
from repro.sweep import Manifest, ManifestError, cell_seed


def _manifest(**overrides):
    data = {
        "name": "t",
        "seed": 2002,
        "grid": {"scheme": ["sfc", "ed"], "n": [40, 80], "n_procs": [2, 4]},
    }
    data.update(overrides)
    return Manifest.from_dict(data)


class TestSchema:
    def test_minimal_manifest_expands(self):
        m = _manifest()
        assert len(m) == 2 * 2 * 2
        assert all(isinstance(c, RunRequest) for c in m.expand())

    def test_defaults_mirror_the_paper_knobs(self):
        cell = _manifest().expand()[0]
        assert cell.partition == "row"
        assert cell.compression == "crs"
        assert cell.sparse_ratio == 0.1

    def test_scalars_promote_to_axes(self):
        m = Manifest.from_dict(
            {"name": "s", "grid": {"scheme": "ed", "n": 40, "n_procs": 4}}
        )
        assert len(m) == 1
        assert m.expand()[0].scheme == "ed"

    def test_grids_list_concatenates_in_order(self):
        m = Manifest.from_dict({
            "name": "two",
            "grids": [
                {"scheme": "ed", "n": 40, "n_procs": 4},
                {"scheme": "ed", "n": 80, "n_procs": 4, "partition": "column"},
            ],
        })
        assert [c.n for c in m.expand()] == [40, 80]

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"grid": {"scheme": "ed", "n": 40}}, "n_procs"),
            ({"grid": {"scheme": "ed", "n_procs": 4}}, "'n'"),
            ({"grid": {"n": 40, "n_procs": 4}}, "scheme"),
            ({"bogus": 1}, "unknown manifest key"),
            ({"name": "bad name!"}, "name"),
            ({"seed": "x"}, "seed"),
            ({"grids": []}, "no grids"),
            ({"grid": {"scheme": "nope", "n": 40, "n_procs": 4}}, "unknown scheme"),
            (
                {"grid": {"scheme": "ed", "n": 40, "n_procs": 4, "procs": 8}},
                "unknown grid key",
            ),
            (
                {"grid": {"scheme": "ed", "n": [40, 40], "n_procs": 4}},
                "duplicate",
            ),
            (
                {"grid": {"scheme": "ed", "n": 40, "n_procs": 4,
                          "sparse_ratio": 1.5}},
                "sparse_ratio",
            ),
            (
                {"grid": {"scheme": "ed", "n": 40, "n_procs": 4,
                          "mesh_shapes": {"4": [2, 2]}}},
                "mesh2d",
            ),
            (
                {"grid": {"scheme": "ed", "partition": "mesh2d", "n": 40,
                          "n_procs": 4, "mesh_shapes": {"4": [3, 2]}}},
                "factor",
            ),
        ],
    )
    def test_invalid_manifests_fail_with_friendly_messages(
        self, mutation, fragment
    ):
        data = {
            "name": "t",
            "grid": {"scheme": ["sfc"], "n": [40], "n_procs": [2]},
        }
        if "grids" in mutation:
            del data["grid"]
        data.update(mutation)
        with pytest.raises(ManifestError, match="(?i)" + fragment):
            Manifest.from_dict(data)

    def test_overlapping_grids_are_rejected(self):
        grid = {"scheme": "ed", "n": 40, "n_procs": 4}
        with pytest.raises(ManifestError, match="overlap"):
            Manifest.from_dict({"name": "dup", "grids": [grid, dict(grid)]})

    def test_both_grid_and_grids_is_an_error(self):
        grid = {"scheme": "ed", "n": 40, "n_procs": 4}
        with pytest.raises(ManifestError, match="pick one"):
            Manifest.from_dict({"name": "x", "grid": grid, "grids": [grid]})


class TestFromFile:
    def test_round_trips_a_file(self, tmp_path):
        m = _manifest()
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_dict()))
        assert Manifest.from_file(path) == m
        assert Manifest.from_file(path).manifest_hash() == m.manifest_hash()

    def test_missing_file_is_friendly(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            Manifest.from_file(tmp_path / "absent.json")

    def test_directory_is_friendly(self, tmp_path):
        with pytest.raises(ManifestError, match="directory"):
            Manifest.from_file(tmp_path)

    def test_bad_json_is_friendly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError, match="not valid JSON"):
            Manifest.from_file(path)


class TestExpansion:
    def test_fixed_axis_order(self):
        m = Manifest.from_dict({
            "name": "order",
            "grid": {
                "scheme": ["sfc", "ed"],
                "partition": ["row", "column"],
                "n": [40, 80],
                "n_procs": [2],
            },
        })
        key = [(c.partition, c.n, c.scheme) for c in m.expand()]
        assert key == [
            ("row", 40, "sfc"), ("row", 40, "ed"),
            ("row", 80, "sfc"), ("row", 80, "ed"),
            ("column", 40, "sfc"), ("column", 40, "ed"),
            ("column", 80, "sfc"), ("column", 80, "ed"),
        ]

    def test_seed_recipe_matches_the_tables(self):
        m = _manifest()
        for cell in m.expand():
            assert cell.seed == 2002 + cell.n + 131 * cell.n_procs
            assert cell.seed == cell_seed(2002, cell.n, cell.n_procs)

    def test_mesh_shape_reaches_the_cells(self):
        m = Manifest.from_dict({
            "name": "mesh",
            "grid": {
                "scheme": "ed", "partition": "mesh2d", "n": 48,
                "n_procs": [4, 6], "mesh_shapes": {"4": [2, 2]},
            },
        })
        by_p = {c.n_procs: c.mesh_shape for c in m.expand()}
        assert by_p == {4: (2, 2), 6: None}

    def test_cell_id_is_key_order_independent(self):
        cell = _manifest().expand()[0]
        params = cell.params()
        shuffled = dict(reversed(list(params.items())))
        assert RunRequest.from_dict(shuffled).cell_id == cell.cell_id

    def test_cell_round_trips_through_params(self):
        for cell in _manifest().expand():
            assert RunRequest.from_dict(cell.params()) == cell

    def test_to_request_carries_the_cell_and_not_the_placement(self):
        cell = _manifest().expand()[0]
        request = replace(cell, executor="process", backend="python")
        assert request.cell_id == cell.cell_id
        assert request.params() == cell.params()
        assert "executor" not in cell.params()
        assert "backend" not in cell.params()
