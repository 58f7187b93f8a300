"""The JSONL wire protocol: strict parsing, friendly one-line errors."""

from __future__ import annotations

import json

import pytest

from repro.service import (
    ProtocolError,
    encode_line,
    error_response,
    parse_request_line,
    reject_response,
    result_response,
)


def parse(payload, **kwargs):
    return parse_request_line(json.dumps(payload), **kwargs)


class TestRunRequests:
    def test_minimal_run_request(self):
        request = parse({"scheme": "ed", "n": 64, "n_procs": 4})
        assert request.op == "run"
        assert request.config is not None
        assert request.config.scheme == "ed"
        assert request.config.partition == "row"
        assert request.config.compression == "crs"
        assert request.config.sparse_ratio == 0.1
        assert request.observe is False

    def test_id_defaults_to_sequence_number(self):
        request = parse({"scheme": "ed", "n": 64, "n_procs": 4}, seq=7)
        assert request.id == "req-7"
        assert parse({"id": "mine", "scheme": "ed", "n": 8, "n_procs": 2}).id == "mine"

    def test_scheme_names_are_case_insensitive(self):
        request = parse({"scheme": "SFC", "n": 64, "n_procs": 4})
        assert request.config.scheme == "sfc"

    @pytest.mark.parametrize("key", ["scheme", "n", "n_procs"])
    def test_missing_required_key(self, key):
        payload = {"scheme": "ed", "n": 64, "n_procs": 4}
        del payload[key]
        with pytest.raises(ProtocolError, match=f"missing required key '{key}'"):
            parse(payload)

    def test_unknown_key_lists_the_schema(self):
        with pytest.raises(ProtocolError, match=r"unknown run request key\(s\) \['nnz'\]"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4, "nnz": 9})

    def test_unknown_scheme_lists_alternatives(self):
        with pytest.raises(ProtocolError, match="unknown scheme 'nope'; available:"):
            parse({"scheme": "nope", "n": 64, "n_procs": 4})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ProtocolError, match="'n' must be an integer"):
            parse({"scheme": "ed", "n": True, "n_procs": 4})

    @pytest.mark.parametrize("ratio", [0.0, -0.5, 1.5, "dense"])
    def test_sparse_ratio_domain(self, ratio):
        with pytest.raises(ProtocolError, match="sparse_ratio"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4, "sparse_ratio": ratio})

    def test_mesh_shape_requires_mesh2d(self):
        with pytest.raises(ProtocolError, match="only meaningful with the 'mesh2d'"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4, "mesh_shape": [2, 2]})

    def test_mesh_shape_must_factor_n_procs(self):
        with pytest.raises(ProtocolError, match="does not factor 4 processors"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4,
                   "partition": "mesh2d", "mesh_shape": [3, 2]})

    def test_mesh_shape_happy_path(self):
        request = parse({"scheme": "ed", "n": 64, "n_procs": 4,
                         "partition": "mesh2d", "mesh_shape": [2, 2]})
        assert request.config.mesh_shape == (2, 2)

    def test_recovery_requires_a_fault_plan(self):
        with pytest.raises(ProtocolError, match="needs a fault plan"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4,
                   "recovery": "host-resend"})

    def test_unknown_recovery_policy(self):
        with pytest.raises(ProtocolError, match="unknown recovery policy"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4,
                   "faults": {"drop": 0.1}, "recovery": "pray"})

    def test_inline_faults_parse_strictly(self):
        request = parse({"scheme": "ed", "n": 64, "n_procs": 4,
                         "faults": {"drop": 0.25}, "recovery": "host-resend"})
        assert request.config.faults is not None
        assert request.config.faults.drop == 0.25
        with pytest.raises(ProtocolError, match="'faults' is invalid"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4,
                   "faults": {"gremlins": 1.0}})

    def test_supervise_requires_the_process_executor(self):
        with pytest.raises(ProtocolError, match="needs the process executor"):
            parse({"scheme": "ed", "n": 64, "n_procs": 4,
                   "supervise": {"max_restarts": 1}})
        request = parse({"scheme": "ed", "n": 64, "n_procs": 4,
                         "executor": "process",
                         "supervise": {"max_restarts": 1}})
        assert request.config.supervise is not None

    def test_supervise_sees_the_server_default_executor(self):
        request = parse(
            {"scheme": "ed", "n": 64, "n_procs": 4, "supervise": {}},
            default_executor="process",
        )
        assert request.config.executor == "process"

    def test_explicit_backend_beats_the_server_default(self):
        request = parse(
            {"scheme": "ed", "n": 64, "n_procs": 4, "backend": "python"},
            default_backend="numpy",
        )
        assert request.config.backend == "python"

    def test_unknown_backend_and_executor(self):
        with pytest.raises(ProtocolError):
            parse({"scheme": "ed", "n": 64, "n_procs": 4, "backend": "gpu"})
        with pytest.raises(ProtocolError):
            parse({"scheme": "ed", "n": 64, "n_procs": 4, "executor": "mpi"})

    def test_observe_must_be_a_boolean(self):
        assert parse({"scheme": "ed", "n": 8, "n_procs": 2,
                      "observe": True}).observe is True
        with pytest.raises(ProtocolError, match="'observe' must be a boolean"):
            parse({"scheme": "ed", "n": 8, "n_procs": 2, "observe": 1})

    def test_error_carries_the_request_id_when_parseable(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse({"id": "r9", "scheme": "nope", "n": 64, "n_procs": 4})
        assert excinfo.value.request_id == "r9"


class TestControlOps:
    @pytest.mark.parametrize("op", ["ping", "stats", "metrics"])
    def test_control_ops_carry_only_id(self, op):
        assert parse({"op": op, "id": "c1"}).op == op
        with pytest.raises(ProtocolError, match=f"unknown {op} request key"):
            parse({"op": op, "id": "c1", "scheme": "ed"})

    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op 'dance'"):
            parse({"op": "dance"})


class TestMalformedLines:
    def test_not_json(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request_line(b"{nope")

    def test_not_an_object(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            parse_request_line(b"[1, 2]")

    def test_error_message_is_one_line(self):
        for bad in (b"{bad", b"[]", b'{"op": "dance"}',
                    b'{"scheme": "nope", "n": 4, "n_procs": 2}'):
            with pytest.raises(ProtocolError) as excinfo:
                parse_request_line(bad)
            assert "\n" not in str(excinfo.value)
            assert "Traceback" not in str(excinfo.value)


class TestResponseLines:
    def test_encode_line_is_canonical(self):
        line = encode_line({"b": 1, "a": [2, 3]})
        assert line == b'{"a":[2,3],"b":1}\n'

    def test_typed_responses(self):
        assert result_response("r1", {"x": 1}) == {
            "type": "result", "id": "r1", "result": {"x": 1},
        }
        assert error_response("r1", "boom")["code"] == 400
        assert error_response(None, "boom").get("id") is None
        assert reject_response("r1", 64)["code"] == 429

    def test_session_key_matches_machine_signature(self):
        a = parse({"scheme": "ed", "n": 64, "n_procs": 4}).config
        b = parse({"scheme": "sfc", "n": 32, "n_procs": 4, "seed": 3}).config
        c = parse({"scheme": "ed", "n": 64, "n_procs": 2}).config
        assert a.machine_key() == b.machine_key()  # same machine shape
        assert a.machine_key() != c.machine_key()
