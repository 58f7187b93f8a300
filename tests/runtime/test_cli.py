"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "all" and args.n == 1000 and args.procs == 16

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--scheme", "ed", "--n", "64", "--procs", "4",
             "--partition", "mesh2d", "--compression", "ccs",
             "--sparse-ratio", "0.2", "--seed", "7"]
        )
        assert args.scheme == "ed"
        assert args.partition == "mesh2d"
        assert args.sparse_ratio == 0.2

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "brs"])

    def test_tables_choices(self):
        args = build_parser().parse_args(["tables", "table4", "--quick"])
        assert args.table == "table4" and args.quick


class TestCommands:
    def test_run_all_schemes(self, capsys):
        assert main(["run", "--n", "60", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        for token in ("SFC", "CFS", "ED", "verified"):
            assert token in out

    def test_run_single_scheme(self, capsys):
        assert main(["run", "--scheme", "ed", "--n", "40", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "ED" in out and "SFC" not in out

    def test_run_mesh_ccs(self, capsys):
        assert main(
            ["run", "--n", "36", "--procs", "4", "--partition", "mesh2d",
             "--compression", "ccs"]
        ) == 0
        assert "mesh2d" in capsys.readouterr().out

    def test_crossover(self, capsys):
        assert main(["crossover", "--n", "200", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "1.6250" in out and "1.8750" in out

    def test_crossover_column_partition(self, capsys):
        assert main(
            ["crossover", "--n", "200", "--procs", "4", "--partition", "column"]
        ) == 0
        out = capsys.readouterr().out
        assert "0.3750" in out and "0.6250" in out  # 3/8 and 5/8

    def test_collection(self, capsys):
        assert main(["collection", "--count", "30"]) == 0
        out = capsys.readouterr().out
        assert "fraction_below_0.1" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_report_written(self, tmp_path, capsys, monkeypatch):
        # keep the report fast by shrinking the paper-table grids
        import repro.sweep as sweep

        original = sweep.paper_tables_manifest
        monkeypatch.setattr(sweep, "paper_tables_manifest", lambda: original(
            sizes=[40], proc_counts=[4], mesh_sizes=[40], mesh_proc_counts=[4],
        ))
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", str(target)]) == 0
        text = target.read_text()
        assert "# EXPERIMENTS" in text
        assert "Table 3" in text and "Erratum" in text


class TestSweepCommand:
    def test_parser(self):
        args = build_parser().parse_args(
            ["sweep", "ratio", "--start", "0.5", "--stop", "3.0"]
        )
        assert args.parameter == "ratio" and args.points == 20

    def test_ratio_sweep_reports_crossover(self, capsys):
        assert main(
            ["sweep", "ratio", "--start", "0.5", "--stop", "3.0",
             "--points", "16", "--n", "300", "--procs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "S=SFC" in out
        assert "winner changes" in out

    def test_dominated_sweep_reports_single_winner(self, capsys):
        # ED beats CFS everywhere: sweeping only those two has no crossover
        assert main(
            ["sweep", "s", "--start", "0.01", "--stop", "0.4",
             "--points", "8", "--n", "200", "--procs", "4",
             "--metric", "t_distribution"]
        ) == 0
        out = capsys.readouterr().out
        assert "wins across the whole range" in out or "winner changes" in out

    def test_simulated_sweep(self, capsys):
        assert main(
            ["sweep", "s", "--start", "0.05", "--stop", "0.2", "--points", "3",
             "--n", "64", "--procs", "4", "--simulate"]
        ) == 0
        assert "t_total" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_reports_all_three_analyses(self, capsys):
        assert main(["analyze", "--n", "120", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "peak memory" in out
        assert "amortisation" in out
        assert "storage-format advice" in out

    def test_advice_reflects_workload(self, capsys):
        assert main(["analyze", "--n", "64", "--procs", "2",
                     "--sparse-ratio", "0.02"]) == 0
        out = capsys.readouterr().out
        assert any(f in out for f in ("CRS", "CCS", "JDS"))


def test_run_with_timeline(capsys):
    assert main(["run", "--scheme", "ed", "--n", "40", "--procs", "2",
                 "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "phase" in out and "lane" in out and "#" in out


class TestFaultSpecLoading:
    """``--faults`` is user input: every malformed file must exit with one
    friendly ``error:`` line (exit code 2), never a traceback."""

    def _run(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheme", "sfc", "--n", "24", "--procs", "2",
                  *argv])
        assert exc.value.code == 2
        return capsys.readouterr().out

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "faults.json"
        bad.write_text('{"drop": 0.1,,}')
        out = self._run(capsys, "--faults", str(bad))
        assert out.startswith("error:")
        assert "not valid JSON" in out
        assert "line 1" in out

    def test_unknown_key_rejected_with_known_list(self, tmp_path, capsys):
        bad = tmp_path / "faults.json"
        bad.write_text('{"drp": 0.1}')
        out = self._run(capsys, "--faults", str(bad))
        assert "error:" in out and "unknown fault-spec keys" in out
        assert "'drp'" in out and "drop" in out  # the fix is on screen

    def test_unknown_fail_stop_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "faults.json"
        bad.write_text('{"fail_stop": {"dead_rank": 1}}')
        out = self._run(capsys, "--faults", str(bad))
        assert "unknown fail_stop keys" in out

    def test_out_of_range_value_rejected(self, tmp_path, capsys):
        bad = tmp_path / "faults.json"
        bad.write_text('{"drop": 1.5}')
        out = self._run(capsys, "--faults", str(bad))
        assert "error:" in out and "invalid" in out

    def test_missing_file(self, capsys, tmp_path):
        out = self._run(capsys, "--faults", str(tmp_path / "nope.json"))
        assert "does not exist" in out

    def test_directory_path(self, capsys, tmp_path):
        out = self._run(capsys, "--faults", str(tmp_path))
        assert "is a directory" in out


class TestBackendFlag:
    """``--backend`` is user input: a typo'd name must exit with one
    friendly ``error:`` line (exit code 2, same convention as --faults)."""

    def test_parser_default_is_none(self):
        args = build_parser().parse_args(["run"])
        assert args.backend is None

    @pytest.mark.parametrize("name", ["numpy", "python"])
    def test_run_with_backend(self, name, capsys):
        assert main(["run", "--scheme", "ed", "--n", "30", "--procs", "2",
                     "--backend", name]) == 0
        assert "ED" in capsys.readouterr().out

    def test_backends_print_identical_phase_times(self, capsys):
        assert main(["run", "--n", "40", "--procs", "4",
                     "--backend", "python"]) == 0
        out_py = capsys.readouterr().out
        assert main(["run", "--n", "40", "--procs", "4",
                     "--backend", "numpy"]) == 0
        out_np = capsys.readouterr().out
        assert out_py == out_np  # byte-identical contract, end to end

    def test_unknown_backend_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheme", "sfc", "--n", "24", "--procs", "2",
                  "--backend", "cython"])
        assert exc.value.code == 2
        out = capsys.readouterr().out
        assert out.startswith("error:")
        assert "unknown kernel backend 'cython'" in out
        assert "numpy" in out and "python" in out  # the fix is on screen

    def test_backend_with_timeline_path(self, capsys):
        assert main(["run", "--scheme", "ed", "--n", "24", "--procs", "2",
                     "--backend", "python", "--timeline"]) == 0
        assert "lane" in capsys.readouterr().out

    def test_tables_accepts_backend(self, capsys, monkeypatch):
        import repro.sweep as sweep

        seen = {}
        original = sweep.sweep_records

        def small(manifest, **kwargs):
            seen["backend"] = kwargs.get("backend")
            small_grid = sweep.paper_tables_manifest(
                sizes=[40], proc_counts=[4], mesh_sizes=[40], mesh_proc_counts=[4]
            )
            return original(small_grid, **kwargs)

        monkeypatch.setattr(sweep, "sweep_records", small)
        assert main(["tables", "table3", "--backend", "python"]) == 0
        assert seen["backend"] == "python"

    def test_tables_unknown_backend_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "table3", "--backend", "fortran"])
        assert exc.value.code == 2
        assert "unknown kernel backend 'fortran'" in capsys.readouterr().out


class TestRecoveryFlag:
    def _spec_file(self, tmp_path, dead_ranks=(1,)):
        path = tmp_path / "failstop.json"
        path.write_text(
            '{"fail_stop": {"dead_ranks": %s, "detect_after": 2}}'
            % list(dead_ranks)
        )
        return str(path)

    def test_parser_accepts_policies(self):
        args = build_parser().parse_args(
            ["run", "--recovery", "peer-redistribute"]
        )
        assert args.recovery == "peer-redistribute"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--recovery", "pray"])

    def test_recovery_without_faults_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheme", "sfc", "--n", "24", "--procs", "2",
                  "--recovery", "host-resend"])
        assert exc.value.code == 2
        assert "needs a fault plan" in capsys.readouterr().out

    @pytest.mark.parametrize("policy", ["host-resend", "peer-redistribute"])
    def test_recovered_run_prints_summary_line(self, policy, tmp_path,
                                               capsys):
        spec = self._spec_file(tmp_path)
        assert main(["run", "--scheme", "cfs", "--n", "30", "--procs", "3",
                     "--faults", spec, "--recovery", policy]) == 0
        out = capsys.readouterr().out
        assert f"recovery[{policy}]:" in out
        assert "dead=[1]" in out

    def test_recovered_run_with_timeline(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path)
        assert main(["run", "--scheme", "ed", "--n", "24", "--procs", "3",
                     "--faults", spec, "--recovery", "host-resend",
                     "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "recovery[host-resend]:" in out
        assert "lane" in out

    def test_clean_fault_plan_reports_no_failures(self, tmp_path, capsys):
        spec = self._spec_file(tmp_path, dead_ranks=())
        assert main(["run", "--scheme", "sfc", "--n", "24", "--procs", "2",
                     "--faults", spec, "--recovery", "host-resend"]) == 0
        assert "no failures" in capsys.readouterr().out


class TestSuperviseFlag:
    """``--supervise`` is user input: bad specs and executor mismatches
    must exit with one friendly ``error:`` line (exit code 2)."""

    def _run(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scheme", "sfc", "--n", "24", "--procs", "2",
                  *argv])
        assert exc.value.code == 2
        return capsys.readouterr().out

    def _spec_file(self, tmp_path, body='{"max_restarts": 1}'):
        spec = tmp_path / "supervise.json"
        spec.write_text(body)
        return str(spec)

    def test_parser_default_is_none(self):
        args = build_parser().parse_args(["run"])
        assert args.supervise is None

    def test_needs_process_executor(self, tmp_path, capsys):
        out = self._run(capsys, "--executor", "sim",
                        "--supervise", self._spec_file(tmp_path))
        assert out.startswith("error:")
        assert "needs the process executor" in out
        assert "current: sim" in out

    def test_missing_file(self, tmp_path, capsys):
        out = self._run(capsys, "--executor", "process",
                        "--supervise", str(tmp_path / "nope.json"))
        assert out.startswith("error:") and "does not exist" in out

    def test_directory_path(self, tmp_path, capsys):
        out = self._run(capsys, "--executor", "process",
                        "--supervise", str(tmp_path))
        assert "is a directory" in out

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        path = self._spec_file(tmp_path, '{"max_restarts": 1,,}')
        out = self._run(capsys, "--executor", "process", "--supervise", path)
        assert "not valid JSON" in out and "line 1" in out

    def test_unknown_key_rejected_with_known_list(self, tmp_path, capsys):
        path = self._spec_file(tmp_path, '{"retries": 3}')
        out = self._run(capsys, "--executor", "process", "--supervise", path)
        assert "unknown supervise-spec keys" in out
        assert "'retries'" in out and "max_restarts" in out

    def test_out_of_range_value_rejected(self, tmp_path, capsys):
        path = self._spec_file(tmp_path, '{"max_restarts": -1}')
        out = self._run(capsys, "--executor", "process", "--supervise", path)
        assert "is invalid" in out

    def test_supervised_run_succeeds_and_stays_quiet(self, tmp_path, capsys):
        path = self._spec_file(tmp_path)
        assert main(["run", "--scheme", "sfc", "--n", "24", "--procs", "2",
                     "--executor", "process", "--supervise", path]) == 0
        out = capsys.readouterr().out
        assert "SFC" in out
        # no real faults fired, so no supervisor noise in the report
        assert "supervisor:" not in out

    def test_supervised_tables_run(self, tmp_path, capsys):
        path = self._spec_file(tmp_path)
        assert main(["tables", "table4", "--quick", "--executor", "process",
                     "--supervise", path]) == 0
        assert "table4" in capsys.readouterr().out


class TestEnvironmentDefaults:
    """``REPRO_EXECUTOR`` / ``REPRO_KERNEL_BACKEND`` are user input too: a
    bad value exits 2 with the same one line a bad flag gets."""

    @pytest.mark.parametrize(
        "var, message",
        [
            ("REPRO_EXECUTOR", "error: unknown executor 'bogus' (choose from process, sim)"),
            ("REPRO_KERNEL_BACKEND",
             "error: unknown kernel backend 'bogus' (choose from numpy, python)"),
        ],
    )
    def test_bad_env_value_is_one_line_exit_2(self, var, message):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, var: "bogus", "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--scheme", "ed",
             "--n", "24", "--procs", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == message + "\n"
        assert "Traceback" not in proc.stderr
