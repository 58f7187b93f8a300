"""The output checks: golden.json pins the program's one-shot results."""

import json

from harness import checks
from harness.workloads import WORKLOADS


def test_golden_pins_every_distinct_request_of_the_current_program():
    requests = [r for w in WORKLOADS.values() for r in w.requests]
    errors = []
    found = {r.key for r, _ in checks.references(requests, errors)}
    assert errors == []
    assert found == {r.key for r in requests}


def test_a_result_that_differs_from_golden_is_no_reference(tmp_path, monkeypatch):
    request = WORKLOADS["served-small"].requests[0]
    golden = json.loads(checks.GOLDEN.read_text())
    key = next(k for k in golden if k.startswith(f"{request.scheme}/{request.partition}/n{request.n}/"))
    golden[key]["ledger"] = "0" * 64  # as if a change moved the ledger
    moved = tmp_path / "golden.json"
    moved.write_text(json.dumps(golden))
    monkeypatch.setattr(checks, "GOLDEN", moved)
    errors = []
    assert list(checks.references([request], errors)) == []
    assert len(errors) == 1 and key in errors[0]


def test_scrub_wall_drops_only_wall_clock_fields():
    payload = {"a": 1, "top_spans": [{"wall_elapsed_s": 0.3, "sim_elapsed_ms": 2.0}]}
    assert checks.scrub_wall(payload) == {"a": 1, "top_spans": [{"sim_elapsed_ms": 2.0}]}
