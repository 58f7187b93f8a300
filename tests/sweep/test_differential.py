"""Differential: a 1-cell sweep record equals a direct `repro run`.

Proves the extracted session object changed nothing: the store's
``result`` payload for a single-cell manifest is byte-identical
(canonical JSON; no wall-clock fields exist in either) to
``result_to_dict`` of the same parameters run through the one-shot
driver — on both the sim and the process executor — and the sim and
process stores are byte-identical to each other.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.machine.export import result_to_dict
from repro.runtime import RunSession
from repro.sweep import Manifest, canonical_json, load_store, run_sweep

ONE_CELL = {
    "name": "one-cell",
    "seed": 2002,
    "grid": {"scheme": "cfs", "partition": "column", "compression": "ccs",
             "n": 48, "n_procs": 4},
}


def _driver_payload(executor):
    cell = Manifest.from_dict(ONE_CELL).expand()[0]
    with RunSession() as session:
        return result_to_dict(session.run(replace(cell, executor=executor)))


@pytest.mark.parametrize("executor", ["sim", "process"])
def test_sweep_record_equals_direct_run(tmp_path, executor):
    manifest = Manifest.from_dict(ONE_CELL)
    store = tmp_path / f"{executor}.jsonl"
    report = run_sweep(manifest, store, executor=executor)
    [record] = report.records
    assert canonical_json(record["result"]) == canonical_json(
        _driver_payload(executor)
    )
    assert record["seed"] == 2002 + 48 + 131 * 4


def test_sim_and_process_stores_are_byte_identical(tmp_path):
    manifest = Manifest.from_dict(ONE_CELL)
    for executor in ("sim", "process"):
        run_sweep(manifest, tmp_path / f"{executor}.jsonl", executor=executor)
    sim = (tmp_path / "sim.jsonl").read_bytes()
    process = (tmp_path / "process.jsonl").read_bytes()
    assert sim == process
    # the placement knob must leave no trace in the store
    for record in load_store(tmp_path / "sim.jsonl").records:
        assert "executor" not in record["params"]
