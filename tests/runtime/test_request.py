"""RunRequest: one run description, one validator, one message everywhere."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faults import FaultSpec
from repro.runtime import RequestError, RunRequest
from repro.service import ProtocolError, parse_request_line
from repro.sweep import Manifest, ManifestError

BASE = {"scheme": "ed", "n": 24, "n_procs": 2}
CLI_BASE = ["run", "--scheme", "ed", "--n", "24", "--procs", "2"]

#: (bad request fields, the CLI flags that carry them, the manifest that
#: carries them); None = that entry point cannot express the field
BAD_FIELDS = {
    "sparse_ratio": (
        {"sparse_ratio": 1.5}, ["--sparse-ratio", "1.5"],
        {"grid": {**BASE, "sparse_ratio": 1.5}},
    ),
    "n": ({"n": 0}, ["--n", "0"], {"grid": {**BASE, "n": 0}}),
    "n_procs": ({"n_procs": 0}, ["--procs", "0"], {"grid": {**BASE, "n_procs": 0}}),
    # a cell seed is base + n + 131 * p: -287 + 24 + 262 = -1
    "seed": ({"seed": -1}, ["--seed", "-1"], {"seed": -287, "grid": BASE}),
    "scheme": ({"scheme": "brs"}, None, {"grid": {**BASE, "scheme": "brs"}}),
    "mesh_shape": (
        {"partition": "mesh2d", "mesh_shape": [3, 2], "n_procs": 4},
        None,
        {"grid": {**BASE, "partition": "mesh2d", "n_procs": 4,
                  "mesh_shapes": {"4": [3, 2]}}},
    ),
    "recovery": ({"recovery": "host-resend"}, ["--recovery", "host-resend"], None),
}


@pytest.mark.parametrize("field", sorted(BAD_FIELDS))
def test_same_error_everywhere(field, capsys):
    fields, argv, manifest = BAD_FIELDS[field]
    with pytest.raises(RequestError) as direct:
        RunRequest.from_dict({**BASE, **fields})
    message = str(direct.value)
    assert "\n" not in message

    with pytest.raises(ProtocolError) as served:
        parse_request_line(json.dumps({"id": "r1", **BASE, **fields}))
    assert str(served.value) == message
    assert served.value.request_id == "r1"

    if manifest is not None:
        with pytest.raises(ManifestError) as swept:
            Manifest.from_dict({"name": "bad", **manifest})
        assert str(swept.value) == message

    if argv is not None:
        with pytest.raises(SystemExit) as exited:
            main([*CLI_BASE, *argv])
        assert exited.value.code == 2
        assert capsys.readouterr().out == f"error: {message}\n"


class TestFromDict:
    def test_defaults_fill_only_missing_keys(self):
        request = RunRequest.from_dict(
            {**BASE, "backend": "python", "executor": None},
            defaults={"backend": "numpy", "executor": "sim"},
        )
        assert (request.backend, request.executor) == ("python", "sim")

    def test_unknown_keys_list_the_schema(self):
        with pytest.raises(RequestError, match=r"\['nnz'\]; known keys: \["):
            RunRequest.from_dict({**BASE, "nnz": 9})

    def test_inline_spec_objects_or_mappings(self):
        spec = FaultSpec.lossy(0.1)
        by_object = RunRequest.from_dict({**BASE, "faults": spec})
        by_mapping = RunRequest.from_dict({**BASE, "faults": spec.to_dict()})
        assert by_object == by_mapping
        assert by_object.faults == spec

    def test_faults_join_the_identity_only_when_present(self):
        clean = RunRequest.from_dict(BASE)
        assert "faults" not in clean.params()
        assert "fault_seed" not in clean.params()
        lossy = RunRequest.from_dict({**BASE, "faults": {"drop": 0.1}, "fault_seed": 3})
        assert lossy.params()["fault_seed"] == 3
        assert lossy.cell_id != clean.cell_id
        assert RunRequest.from_dict(lossy.params()) == lossy
