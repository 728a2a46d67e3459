"""Command-line interface tests."""

import json
import os
import tempfile

import numpy as np
import pytest

from ssflow import bench as bench_mod
from ssflow import integrator
from ssflow.bench import CSV_COLUMNS
from ssflow.cli import main
from ssflow.models import NgfErkProblem, generate_data


class TestGenerateData:
    def test_writes_deterministic_payload(self, tmp_path, capsys):
        out = tmp_path / "data.json"
        assert main(["generate-data", "--seed", "42", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["seed"] == 42
        expected = generate_data(NgfErkProblem(), 42)
        assert np.allclose(payload["data"], expected, atol=0.0)

    def test_noise_variance_defaults_to_the_problem_s(self, capsys):
        assert main(["generate-data", "--seed", "3"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(["generate-data", "--seed", "3", "--noise-var", "0.01"]) == 0
        assert default["noise_var"] == 0.01
        assert default == json.loads(capsys.readouterr().out)

    def test_prints_to_stdout_without_out(self, capsys):
        assert main(["generate-data", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["data"]) == 10


    @pytest.mark.parametrize(
        "noise_var, message",
        [
            ("-1", "noise variance must be non-negative"),
            ("nan", "noise_var must be a finite number, got nan"),
            ("inf", "noise_var must be a finite number, got inf"),
        ],
        ids=["-1", "nan", "inf"],
    )
    def test_invalid_noise_variance_is_a_usage_error(self, capsys, noise_var, message):
        with pytest.raises(SystemExit) as info:
            main(["generate-data", "--noise-var", noise_var])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data.json"
        with pytest.raises(SystemExit) as info:
            main(["generate-data", "--seed", "-5", "--out", str(out)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0" in captured.err
        assert not out.exists()


    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "data.json"
        with pytest.raises(SystemExit) as info:
            main(["generate-data", "--out", str(out)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {out}" in captured.err


class TestValidate:
    @pytest.mark.parametrize("problem", ["conversion_reaction", "ngf_erk"])
    def test_passes_for_benchmarks(self, problem, capsys):
        assert main(["validate", "--problem", problem]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validates_conversion_reaction_by_default(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model: conversion_reaction\n")
        assert out.endswith("PASS\n")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_a_usage_error(self, capsys, samples):
        # no PASS for a check of nothing
        with pytest.raises(SystemExit) as info:
            main(["validate", "--samples", samples])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_samples must be >= 1" in captured.err

    def test_a_negative_seed_is_a_usage_error_naming_seed(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["validate", "--seed", "-1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0, got -1" in captured.err


class TestRun:
    def test_conversion_reaction_run(self, capsys):
        code = main(
            [
                "run",
                "--problem",
                "conversion_reaction",
                "--seed",
                "0",
                "--lambda",
                "20",
                "--start-index",
                "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"]
        assert payload["manifold_residual"] < 1e-6
        # one Jacobian per accepted step; the run stopped right after one
        assert payload["jacobian_evals"] == payload["steps_accepted"] > 0
        assert 0.0 < payload["min_step"] <= payload["max_step"]
        # one state column: plain calls, nothing evaluated ahead
        assert payload["discarded_evals"] == 0
        assert payload["stage_failures"] == 0
        # the default tolerances run Rodas3, and a converged run has no failure
        assert (payload["scheme"], payload["failure"]) == ("rodas3", "")
        keys = list(payload)
        assert keys.index("failure") == keys.index("reason") + 1
        assert keys.index("scheme") == keys.index("failure") + 1

    @pytest.mark.parametrize(
        "attr, error, failure",
        [
            (
                "step",
                integrator.StageSolveFailure("singular"),
                "StepUnderflow",
            ),
            (
                "_fd_jacobian",
                FloatingPointError("no Jacobian"),
                "FloatingPointError: no Jacobian",
            ),
        ],
    )
    def test_a_failed_run_prints_its_cause(self, capsys, monkeypatch, attr, error, failure):
        # every trial step fails its stage solve, so the step shrinks to the
        # floor; or the first Jacobian raises, which ends the run
        def fail(*args):
            raise error

        monkeypatch.setattr(integrator, attr, fail)
        code = main(["run", "--problem", "conversion_reaction"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "NumericalFailure"
        assert payload["failure"] == failure

    def test_a_run_past_failing_stage_points_says_so(self, capsys, tmp_path):
        # criterion 6's start 80 meets two stage points where the flow rhs
        # fails; each rejects its step, and the run reaches the stop test
        config = tmp_path / "c6.json"
        config.write_text(
            json.dumps(
                {"problem": "ngf_erk", "integrator_rel_tol": 1e-4, "integrator_abs_tol": 1e-6}
            )
        )
        code = main(["run", "--config", str(config), "--start-index", "80"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "ToleranceMet"
        assert (payload["stage_failures"], payload["steps_rejected"]) == (2, 20)
        # rel_tol 1e-4 is below flow.RODAS3_FROM_REL_TOL
        assert (payload["scheme"], payload["failure"]) == ("rodas4", "")
        keys = list(payload)
        assert keys.index("stage_failures") == keys.index("steps_rejected") + 1

    def test_run_stopped_at_the_start_prints_no_step_sizes(self, capsys):
        # with a huge tolerance the stop test passes at the initial point
        code = main(["run", "--problem", "conversion_reaction", "--tol", "1e9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "ToleranceMet"
        assert (payload["steps_accepted"], payload["jacobian_evals"]) == (0, 0)
        assert payload["min_step"] is None and payload["max_step"] is None

    def test_ngf_run_stopped_at_the_start_prints_its_discarded_rows(self, capsys):
        # the initial point's value comes with its 26 FD points; the run
        # stops there, so no Jacobian takes them
        code = main(["run", "--problem", "ngf_erk", "--tol", "1e9"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] == "ToleranceMet"
        assert (payload["rhs_evals"], payload["discarded_evals"]) == (1, 26)
        keys = list(payload)
        assert keys.index("discarded_evals") == keys.index("rhs_evals") + 1

    def test_out_of_range_start_index(self, capsys):
        code = main(
            [
                "run",
                "--problem",
                "conversion_reaction",
                "--starts",
                "2",
                "--start-index",
                "5",
            ]
        )
        assert code == 2


    def test_invalid_lambda_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "--problem", "conversion_reaction", "--lambda", "-1"])
        assert info.value.code == 2
        assert "retraction factor" in capsys.readouterr().err


    @pytest.mark.parametrize("flag", ["--tol", "--r-max", "--lambda"])
    def test_nan_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["run", "--problem", "conversion_reaction", flag, "nan"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err


class TestBench:
    def test_invalid_lambda_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "bench",
                    "--problem",
                    "conversion_reaction",
                    "--starts",
                    "1",
                    "--lambda",
                    "-1",
                    "--out",
                    str(out),
                ]
            )
        assert info.value.code == 2
        assert "retraction factor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["abc", "-3", "0", "1.5", ""])
    def test_bad_worker_count_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        monkeypatch.setenv("SSFLOW_WORKERS", workers)
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as info:
            main(["bench", "--starts", "1", "--out", str(out)])
        assert info.value.code == 2
        assert f"SSFLOW_WORKERS must be an integer >= 1, got {workers!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, flags, message",
        [
            ('{"bogus": 1}', [], "bogus"),
            ('{"n_starts": 1,', [], "cannot read config file"),
            ("[1, 2]", [], "must hold a JSON object"),
            (None, [], "cannot read config file"),
            ('{"seed": 1.5}', [], "seed must be an integer, got 1.5"),
            ('{"theta_box": [1]}', [], "theta_box must hold 2 numbers, got [1]"),
            ('{"n_starts": 2.5}', [], "n_starts must be an integer, got 2.5"),
            ('{"n_starts": true}', [], "n_starts must be an integer, got True"),
            ("{}", ["--seed", "-5"], "seed must be >= 0"),
            (
                "{}",
                ["--method", "unconstrained", "--method", "unconstrained"],
                "methods must not repeat",
            ),
            ("{}", ["--lambda", "20", "--lambda", "20.0"], "lambdas must not repeat"),
            (
                '{"problem": "ngf_erk", "theta_true": [1]}',
                [],
                "theta_true must hold 6 numbers, got [1]",
            ),
            ('{"max_rhs_evals": 2.5}', [], "max_rhs_evals must be an integer, got 2.5"),
            ('{"max_rhs_evals": true}', [], "max_rhs_evals must be an integer, got True"),
            # 1e400 reads as infinity
            (
                '{"problem": "ngf_erk", "noise_var": 1e400}',
                [],
                "noise_var must be a finite number, got inf",
            ),
            (
                '{"classification_tol": 1e400}',
                [],
                "classification_tol must be a finite number, got inf",
            ),
            ('{"theta_box": [0, 1e400]}', [], "theta_box must be a finite number, got inf"),
            ('{"state_box": [0, 1e400]}', [], "state_box must be a finite number, got inf"),
            # an integer too large for a float
            (
                '{"problem": "ngf_erk", "noise_var": 1%s}' % ("0" * 400),
                [],
                "noise_var is too large for a float",
            ),
            ('{"tol": 1e400}', [], "tol must be a finite number, got inf"),
            ('{"tol": 1%s}' % ("0" * 400), [], "tol is too large for a float"),
            ('{"theta_box": [0, 1%s]}' % ("0" * 400), [], "theta_box is too large"),
            ('{"lambdas": [-1%s]}' % ("0" * 400), [], "lambdas is too large"),
            # a bool or a string is not a number
            (
                '{"problem": "ngf_erk", "noise_var": true, "classification_tol": true, '
                '"n_starts": 1, "methods": ["unconstrained"]}',
                [],
                "noise_var must be a finite number, got True",
            ),
            ('{"lambdas": ["20"]}', [], "lambdas must be a finite number, got '20'"),
            ('{"noise_var": "0.1"}', [], "noise_var must be a finite number, got '0.1'"),
            ('{"methods": "flow"}', [], "methods must hold method names, got 'flow'"),
            ('{"methods": 5}', [], "methods must hold method names, got 5"),
        ],
        ids=[
            "unknown-key",
            "malformed-json",
            "not-an-object",
            "missing-file",
            "float-seed",
            "one-number-box",
            "float-starts",
            "bool-starts",
            "negative-seed-flag",
            "repeated-method",
            "repeated-lambda",
            "short-theta-true",
            "float-rhs-budget",
            "bool-rhs-budget",
            "infinite-noise",
            "infinite-classification-tol",
            "infinite-theta-box",
            "infinite-state-box",
            "huge-int-noise",
            "infinite-tol",
            "huge-int-tol",
            "huge-int-theta-box",
            "huge-int-lambda",
            "bool-noise-and-classification-tol",
            "string-lambda",
            "string-noise",
            "string-methods",
            "number-methods",
        ],
    )
    def test_bad_config_file_is_a_usage_error(
        self, tmp_path, capsys, content, flags, message
    ):
        cfg_file = tmp_path / "cfg.json"
        if content is not None:
            cfg_file.write_text(content)
        out = tmp_path / "bench"
        # no --starts: it would override the file's n_starts
        with pytest.raises(SystemExit) as info:
            main(["bench", "--config", str(cfg_file), *flags, "--out", str(out)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_string_output_dir_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # no --out, which would override the file's output_dir
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"output_dir": 5, "n_starts": 1}')
        with pytest.raises(SystemExit) as info:
            main(["bench", "--config", str(cfg_file)])
        assert info.value.code == 2
        assert "output_dir must be a string, got 5" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize("unwritable", ["under-a-file", "read-only"])
    def test_unwritable_out_is_a_usage_error_before_any_task(
        self, tmp_path, capsys, monkeypatch, unwritable
    ):
        tasks = []
        monkeypatch.setattr(bench_mod, "_execute_task", tasks.append)
        if unwritable == "under-a-file":
            a_file = tmp_path / "a_file"
            a_file.write_text("")
            out = a_file / "bench"
        else:
            # a directory that exists and refuses new files, as a mode
            # without write permission does for any user but root

            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied")

            monkeypatch.setattr(tempfile, "TemporaryFile", refuse)
            out = tmp_path
        with pytest.raises(SystemExit) as info:
            main(["bench", "--starts", "1", "--out", str(out)])
        assert info.value.code == 2
        assert f"cannot write bench output to {out}" in capsys.readouterr().err
        assert tasks == []

    def test_failed_write_after_the_runs_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(path, text):
            raise OSError("no space left")

        monkeypatch.setattr(bench_mod, "_atomic_write", refuse)
        out = tmp_path / "bench"
        argv = ["bench", "--starts", "1", "--method", "unconstrained", "--out", str(out)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"failed writing bench output to {out}: no space left" in err

    def test_small_bench_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--problem",
                "conversion_reaction",
                "--starts",
                "2",
                "--seed",
                "1",
                "--method",
                "flow",
                "--lambda",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "runs.csv") as fh:
            header = fh.readline().strip().split(",")
        # the run counters printed by `ssflow run` do not enter runs.csv
        assert header == list(CSV_COLUMNS)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["methods"]["flow_lambda_20"]["reasons"] == {"ToleranceMet": 2}
        # the stop reason counts are printed next to the converged count
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("flow_lambda_20: 2/2 converged")
        assert line.endswith("; stopped: 2 ToleranceMet")

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "problem": "conversion_reaction",
                    "n_starts": 4,
                    "seed": 9,
                    "methods": ["flow"],
                    "lambdas": [2.0],
                }
            )
        )
        out = tmp_path / "bench"
        code = main(
            [
                "bench",
                "--config",
                str(cfg_file),
                "--starts",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["n_starts"] == 1
        assert summary["config"]["seed"] == 9
