"""Multistart harness tests: sampling, classification, statistics, emission."""

import json
import math
import os
import re
import struct
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssflow import bench
from ssflow.bench import (
    CSV_COLUMNS,
    BenchConfig,
    classify,
    default_config,
    emit,
    read_runs_csv,
    run_bench,
    sample_starts,
    summarize,
)
from ssflow.core import FlowConfig, StopReason
from ssflow.flow import FlowNumericalError
from ssflow.models import ConversionReactionProblem, NgfErkProblem

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

WALL_FIELDS = ("wall_time",)

NAN = float("nan")
INF = float("inf")
# an integer no float holds, as a JSON file may give one
HUGE = 10**400

FLOAT_FIELDS = ("final_objective", "reduced_objective", "manifold_residual", "wall_time")

# runs.csv records with any float (NaN, +-inf and -0.0 included) in every
# float field and in the start, and lam None or a float
RECORDS = st.fixed_dictionaries(
    {
        "method": st.sampled_from(bench.METHODS),
        "lam": st.none() | st.floats(),
        "start_index": st.integers(0, 10**6),
        "seed": st.integers(-(2**63), 2**63 - 1),
        "start": st.lists(st.floats(), max_size=30),
        "converged": st.booleans(),
        "reason": st.sampled_from(["ToleranceMet", "NumericalFailure", "Error:ValueError"]),
        "rhs_evals": st.integers(0, 10**9),
        **{name: st.floats() for name in FLOAT_FIELDS},
    }
)


def same_float(a, b):
    """a and b are the same double bit for bit, or both NaN."""
    if math.isnan(b):
        return math.isnan(a)
    return struct.pack("<d", a) == struct.pack("<d", b)


def strip_wall_time(records):
    return [{k: v for k, v in r.items() if k not in WALL_FIELDS} for r in records]


class TestBenchConfig:
    def test_defaults(self):
        cfg = BenchConfig()
        assert cfg.lambdas == (2.0, 20.0)
        assert cfg.n_starts == 100
        assert cfg.classification_tol == 1e-3
        # each of these has one default, its owner's
        flow = FlowConfig(lam=20.0)
        assert [getattr(cfg, name) for name in bench._FLOW_FIELDS] == [
            getattr(flow, name) for name in bench._FLOW_FIELDS
        ]
        assert bench._FLOW_FIELDS == (
            "tol", "r_max", "max_rhs_evals", "integrator_rel_tol", "integrator_abs_tol"
        )
        ngf = NgfErkProblem()
        assert (cfg.noise_var, cfg.theta_true) == (ngf.noise_var, ngf.theta_true)
        assert bench._flow_config(cfg, 20.0) == flow

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"problem": "unknown"},
            {"methods": ("flow", "nope")},
            {"n_starts": 0},
            {"theta_box": (2.0, 1.0)},
            {"methods": ()},
            {"lambdas": ()},
            {"lambdas": (20.0, -1.0)},
            {"tol": -1.0},
            {"r_max": 0.0},
            {"max_rhs_evals": 0},
            {"integrator_rel_tol": 0.0},
            {"classification_tol": -1e-3},
            {"problem": "ngf_erk", "noise_var": -1.0},
            # NaN fails every check
            {"classification_tol": NAN},
            {"noise_var": NAN},
            {"tol": NAN},
            {"r_max": NAN},
            {"integrator_rel_tol": NAN},
            {"integrator_abs_tol": NAN},
            {"lambdas": (NAN,)},
            # a repeat would run every start of it twice
            {"methods": ("unconstrained", "unconstrained")},
            {"lambdas": (20, 20.0)},
            {"problem": "ngf_erk", "theta_true": (1.0,)},
            {"max_rhs_evals": 2.5},
            {"max_rhs_evals": True},
            # infinity fails the checks that bound a number on both sides
            {"problem": "ngf_erk", "noise_var": INF},
            {"noise_var": INF},
            {"classification_tol": INF},
            {"theta_box": (0.0, INF)},
            {"theta_box": (-INF, 1.0)},
            {"state_box": (0.0, INF)},
            {"state_box": (NAN, 1.0)},
            # an integer too large for a float
            {"problem": "ngf_erk", "noise_var": HUGE},
            {"tol": HUGE},
            {"classification_tol": HUGE},
            {"theta_box": (0.1, HUGE)},
            {"state_box": (-HUGE, 1.0)},
            {"lambdas": (2.0, HUGE)},
            {"problem": "ngf_erk", "theta_true": (HUGE,) + (0.0,) * 5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BenchConfig(**kwargs)

    @pytest.mark.parametrize(
        "methods, message",
        [
            # a string is no list of names, though it iterates
            ("flow", "methods must hold method names, got 'flow'"),
            (5, "methods must hold method names, got 5"),
            (None, "methods must hold method names, got None"),
            (("flow", "newton"), "unknown methods ['newton']"),
            ([["flow"]], "unknown methods [['flow']]"),
        ],
    )
    def test_a_bad_methods_value_names_the_field(self, methods, message):
        with pytest.raises(ValueError) as info:
            BenchConfig(methods=methods)
        assert str(info.value) == message

    def test_round_trips_through_dict(self):
        # summary.json echoes asdict(config); its arrays read back as tuples
        cfg = default_config("ngf_erk", n_starts=7, seed=3)
        assert BenchConfig(**asdict(cfg)) == cfg
        assert BenchConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg

    @pytest.mark.parametrize(
        "problem, bundle_class",
        [("conversion_reaction", ConversionReactionProblem), ("ngf_erk", NgfErkProblem)],
    )
    def test_sampling_boxes_default_to_the_problems(self, problem, bundle_class):
        cfg = BenchConfig(problem=problem)
        assert cfg.theta_box == bundle_class.theta_box
        assert cfg.state_box == bundle_class.state_box

    def test_default_config_builds_no_bundle(self, monkeypatch):
        def no_bundle(config):
            raise AssertionError("default_config built a problem bundle")

        monkeypatch.setattr(bench, "_build_problem", no_bundle)
        cfg = default_config("ngf_erk", n_starts=2)
        assert cfg.theta_box == NgfErkProblem.theta_box


class TestSampleStarts:
    def test_deterministic(self):
        cfg = default_config("ngf_erk", n_starts=5, seed=11)
        a = sample_starts(cfg)
        b = sample_starts(cfg)
        assert all(np.array_equal(x.pack(), y.pack()) for x, y in zip(a, b))

    def test_degenerate_box(self):
        cfg = default_config(
            "conversion_reaction",
            n_starts=4,
            theta_box=(2.0, 2.0),
            state_box=(0.5, 0.5),
        )
        for s in sample_starts(cfg):
            assert np.all(s.theta == 2.0)
            assert all(np.all(x == 0.5) for x in s.states)

    def test_ngf_dimensions_and_bounds(self):
        cfg = default_config("ngf_erk", n_starts=10, seed=0)
        for s in sample_starts(cfg):
            assert s.theta.shape == (6,)
            assert len(s.states) == 10
            assert all(x.shape == (2,) for x in s.states)
            assert s.pack().size == 26
            assert np.all((s.theta >= -3.0) & (s.theta <= 1.0))
            assert all(np.all((x >= 0.0) & (x <= 3.0)) for x in s.states)


class TestClassify:
    def test_within_tolerance_of_best(self):
        records = [
            {"reduced_objective": 1.0},
            {"reduced_objective": 1.0005},
            {"reduced_objective": 1.1},
            {"reduced_objective": float("inf")},
        ]
        best = classify(records, 1e-3)
        assert best == 1.0
        assert [r["converged"] for r in records] == [True, True, False, False]

    def test_all_infinite(self):
        records = [{"reduced_objective": float("inf")}]
        assert classify(records, 1e-3) is None
        assert not records[0]["converged"]


class TestRunBench:
    def test_single_start_all_methods_agree(self):
        cfg = default_config(
            "conversion_reaction", n_starts=1, seed=5, lambdas=(20.0,)
        )
        summary, records = run_bench(cfg)
        assert len(records) == 3
        for stats in summary["methods"].values():
            assert stats["fraction_converged"] == 1.0

    def test_conversion_reaction_flow_fraction(self):
        cfg = default_config(
            "conversion_reaction",
            n_starts=50,
            seed=1,
            lambdas=(20.0,),
            methods=("flow",),
        )
        summary, records = run_bench(cfg)
        assert summary["methods"]["flow_lambda_20"]["fraction_converged"] >= 0.95

    def test_paired_starts_across_methods(self):
        cfg = default_config(
            "conversion_reaction", n_starts=3, seed=2, lambdas=(2.0,)
        )
        _, records = run_bench(cfg)
        by_method = {}
        for r in records:
            by_method.setdefault(r["method"], []).append(r["start"])
        starts = list(by_method.values())
        assert len(starts) == 3
        for other in starts[1:]:
            assert other == starts[0]

    def test_summary_consistent_with_records(self, tmp_path):
        cfg = default_config(
            "conversion_reaction", n_starts=4, seed=3, lambdas=(20.0,)
        )
        summary, records = run_bench(cfg)
        runs_path, _ = emit(summary, records, str(tmp_path))
        for rows in (records, read_runs_csv(runs_path)):
            recomputed = summarize(rows, cfg.classification_tol)
            assert recomputed["methods"] == summary["methods"]
            assert recomputed["best_objective"] == summary["best_objective"]
        for label, stats in summary["methods"].items():
            reasons = [r["reason"] for r in records if r["method"] == label]
            assert stats["reasons"] == {k: reasons.count(k) for k in sorted(set(reasons))}

    def test_pool_and_sequential_runs_agree(self, monkeypatch):
        cfg = default_config("conversion_reaction", n_starts=3, seed=7)
        runs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SSFLOW_WORKERS", workers)
            runs[workers] = run_bench(cfg)[1]
        assert len(runs["1"]) == 12
        assert strip_wall_time(runs["1"]) == strip_wall_time(runs["2"])

    @pytest.mark.parametrize("workers", ["abc", "-3", "0"])
    def test_bad_worker_count_raises_before_any_run(self, monkeypatch, workers):
        monkeypatch.setenv("SSFLOW_WORKERS", workers)
        monkeypatch.setattr(bench, "_execute_task", None)
        cfg = default_config("conversion_reaction", n_starts=1, lambdas=(20.0,))
        with pytest.raises(ValueError, match="SSFLOW_WORKERS must be an integer >= 1"):
            run_bench(cfg)

    def test_worker_count(self, monkeypatch):
        monkeypatch.setenv("SSFLOW_WORKERS", "3")
        assert bench.worker_count() == 3
        monkeypatch.delenv("SSFLOW_WORKERS")
        if hasattr(os, "sched_getaffinity"):
            assert bench.worker_count() == len(os.sched_getaffinity(0))
        else:
            assert bench.worker_count() == (os.cpu_count() or 1)

    def test_worker_count_defaults_to_the_cpus_the_process_may_run_on(
        self, monkeypatch
    ):
        # an affinity mask (taskset, a cpuset) narrower than the machine
        monkeypatch.delenv("SSFLOW_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert bench.worker_count() == 2
        # a platform without affinity masks counts every CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        assert bench.worker_count() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert bench.worker_count() == 1

    def test_failed_run_gives_a_failure_record(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SSFLOW_WORKERS", "1")
        cfg = default_config("conversion_reaction", n_starts=2, seed=8, lambdas=(20.0,))
        _, reference = run_bench(cfg)

        def failing_run_flow(problem, init):
            raise FlowNumericalError("forced failure")

        monkeypatch.setattr(bench, "run_flow", failing_run_flow)
        _, records = run_bench(cfg)
        failed = [r for r in records if r["method"] == "flow_lambda_20"]
        starts = sample_starts(cfg)
        assert len(failed) == 2
        for r in failed:
            assert r["reason"] == "Error:FlowNumericalError"
            assert r["lam"] == 20.0 and r["seed"] == 8
            assert r["final_objective"] == r["reduced_objective"] == float("inf")
            assert r["manifold_residual"] == float("inf")
            assert (r["rhs_evals"], r["wall_time"], r["converged"]) == (0, 0.0, False)
            assert r["start"] == list(starts[r["start_index"]].pack())
        runs_path, _ = emit(summarize(records), records, str(tmp_path))
        assert read_runs_csv(runs_path) == records
        baselines = [r for r in records if r["lam"] is None]
        expected = [r for r in reference if r["lam"] is None]
        assert len(baselines) == 4
        assert strip_wall_time(baselines) == strip_wall_time(expected)


class _PatchedSolver(Exception):
    pass


class TestMethodTable:
    """The contract perfbench relies on: each method's solver is looked up in
    the bench module when a run starts, and every record's reason is one
    vocabulary."""

    # run_flow: TestRunBench.test_failed_run_gives_a_failure_record
    @pytest.mark.parametrize(
        "name, label",
        [
            ("quasi_newton_unconstrained", "unconstrained"),
            ("augmented_lagrangian_constrained", "constrained"),
        ],
    )
    def test_patching_a_baseline_changes_only_its_method(self, monkeypatch, name, label):
        monkeypatch.setenv("SSFLOW_WORKERS", "1")
        cfg = default_config("conversion_reaction", n_starts=2, seed=8)
        _, reference = run_bench(cfg)

        def patched(*args, **kwargs):
            raise _PatchedSolver

        monkeypatch.setattr(bench, name, patched)
        _, records = run_bench(cfg)
        assert len(records) == len(reference) == 8
        for before, after in zip(strip_wall_time(reference), strip_wall_time(records)):
            if after["method"] == label:
                assert after["reason"] == "Error:_PatchedSolver"
            else:
                assert after == before

    def test_every_reason_is_a_stop_reason_or_an_error(self, monkeypatch):
        # every method forced to its limit: the flow by its evaluation
        # budget, BFGS by one iteration and the AL by one outer iteration.
        # The flow runs Rodas3 at the default tolerances, and its fewest
        # evaluations to the stop test here are 49, so the budget is 30
        monkeypatch.setenv("SSFLOW_WORKERS", "1")
        qn, auglag = bench.quasi_newton_unconstrained, bench.augmented_lagrangian_constrained
        monkeypatch.setattr(
            bench, "quasi_newton_unconstrained", lambda *a, **k: qn(*a, **k, max_iter=1)
        )
        monkeypatch.setattr(
            bench,
            "augmented_lagrangian_constrained",
            lambda *a, **k: auglag(*a, **k, max_outer=1),
        )
        cfg = default_config("conversion_reaction", n_starts=3, seed=2, max_rhs_evals=30)
        _, records = run_bench(cfg)
        reasons = {r["reason"] for r in records}
        assert reasons == {"EvalBudgetExhausted", "IterationLimit", "OuterLimit"}
        vocabulary = {reason.value for reason in StopReason}
        for reason in reasons:
            assert reason in vocabulary or re.fullmatch(r"Error:\w+", reason)

    def test_bfgs_line_search_failure_is_recorded(self, monkeypatch):
        # a wrong-sign gradient: no step along the search direction descends
        monkeypatch.setenv("SSFLOW_WORKERS", "1")
        qn = bench.quasi_newton_unconstrained

        def wrong_sign(fun_grad, theta0, **kwargs):
            def flipped(theta):
                value, grad = fun_grad(theta)
                return value, -np.asarray(grad)

            return qn(flipped, theta0, **kwargs)

        monkeypatch.setattr(bench, "quasi_newton_unconstrained", wrong_sign)
        cfg = default_config(
            "conversion_reaction", n_starts=3, seed=8, methods=("unconstrained",)
        )
        _, records = run_bench(cfg)
        assert [r["reason"] for r in records] == ["LineSearchFailure"] * 3

    def test_constrained_records_do_not_depend_on_lambdas(self, monkeypatch):
        monkeypatch.setenv("SSFLOW_WORKERS", "1")
        runs = []
        for lambdas in ((2.0,), (20.0,)):
            cfg = default_config(
                "conversion_reaction",
                n_starts=3,
                seed=5,
                lambdas=lambdas,
                methods=("constrained",),
            )
            runs.append(run_bench(cfg)[1])
        assert len(runs[0]) == 3
        assert strip_wall_time(runs[0]) == strip_wall_time(runs[1])


class TestEmit:
    def test_empty_methods(self, tmp_path):
        # a config without methods is rejected, so the empty record list is
        # summarised and emitted directly
        with pytest.raises(ValueError):
            default_config("conversion_reaction", methods=(), n_starts=2)
        records = []
        summary = summarize(records)
        runs_path, summary_path = emit(summary, records, str(tmp_path))
        lines = open(runs_path).read().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("method,lam,start_index")
        assert json.load(open(summary_path))["methods"] == {}

    def test_readme_documents_the_column_order(self):
        with open(README) as fh:
            readme = fh.read()
        assert f"`{','.join(CSV_COLUMNS)}`" in readme

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(RECORDS, max_size=5))
    def test_emit_read_round_trip_keeps_every_float(self, records):
        # every float, +-inf and -0.0 included, is read back bit for bit; a
        # NaN is read back as a NaN; lam None stays None
        with tempfile.TemporaryDirectory() as out_dir:
            runs_path, _ = emit({}, records, out_dir)
            parsed = read_runs_csv(runs_path)
        assert len(parsed) == len(records)
        for got, want in zip(parsed, records):
            assert set(got) == set(CSV_COLUMNS)
            for name in CSV_COLUMNS:
                if name in FLOAT_FIELDS:
                    assert same_float(got[name], want[name]), name
                elif name == "start":
                    assert len(got[name]) == len(want[name])
                    assert all(map(same_float, got[name], want[name]))
                elif name == "lam" and want[name] is None:
                    assert got[name] is None
                elif name == "lam":
                    assert same_float(got[name], want[name])
                else:
                    assert got[name] == want[name], name

    def test_round_trip_and_recompute(self, tmp_path):
        cfg = default_config(
            "conversion_reaction", n_starts=3, seed=4, lambdas=(20.0,)
        )
        summary, records = run_bench(cfg)
        runs_path, summary_path = emit(summary, records, str(tmp_path))
        parsed = read_runs_csv(runs_path)
        assert len(parsed) == len(records)
        for a, b in zip(parsed, records):
            for key in a:
                assert a[key] == b[key], key
        recomputed = summarize(parsed, cfg.classification_tol)
        stored = json.load(open(summary_path))
        assert recomputed["best_objective"] == stored["best_objective"]
        for label, stats in recomputed["methods"].items():
            assert stats["n_converged"] == stored["methods"][label]["n_converged"]
            assert stats["best_objective"] == stored["methods"][label]["best_objective"]

    def test_determinism_up_to_wall_time(self, tmp_path):
        # per-run wall times are genuine measurements and differ between
        # repetitions; everything else must match exactly
        cfg = default_config(
            "conversion_reaction", n_starts=2, seed=6, lambdas=(2.0,)
        )
        parsed = []
        for sub in ("a", "b"):
            summary, records = run_bench(cfg)
            runs_path, _ = emit(summary, records, str(tmp_path / sub))
            parsed.append(strip_wall_time(read_runs_csv(runs_path)))
        assert parsed[0] == parsed[1]

    def test_schema_version_and_config_echo(self, tmp_path):
        cfg = default_config(
            "conversion_reaction", n_starts=1, seed=0, lambdas=(2.0,)
        )
        summary, records = run_bench(cfg)
        _, summary_path = emit(summary, records, str(tmp_path))
        stored = json.load(open(summary_path))
        assert stored["schema_version"] == 1
        assert stored["config"]["problem"] == "conversion_reaction"
        assert "artifact_version" in stored
