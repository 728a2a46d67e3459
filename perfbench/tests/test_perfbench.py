"""Tests for the benchmark itself.

    python -m pytest perfbench/tests

The smoke runs start ``perfbench/run.py`` in a fresh process, as the
benchmark is meant to be run; the in-process tests import only modules that
set no environment.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracing  # noqa: E402
from calibration import PROBE_REF_S, SpeedLog  # noqa: E402
from workloads import DATA_SEED, WORKLOADS, check, make_starts, tail  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
GATED_WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}


def run_bench(workload, trace, seconds):
    """One benchmark run on a tiny slice; returns (exit code, stdout lines)."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    return out.returncode, out.stdout.splitlines()


def tiny_seconds(workload):
    """--seconds that sizes the workload to a single start."""
    return WORKLOADS[workload].nominal_start_s


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    code, lines = run_bench(workload, 0, tiny_seconds(workload))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    labels = {"flow": ["flow_lambda_%g" % lam for lam in WORKLOADS[workload].lambdas]}
    table = "\n".join(lines[:-1])
    names = ["setup_s", "wall_s", "peak_rss_mb", "failed_fraction"]
    for method in WORKLOADS[workload].methods:
        for label in labels.get(method, [method]):
            names += [
                f"{label}.{suffix}"
                for suffix in (
                    "time_per_converged_start_s",
                    "fraction_converged",
                    "evals_per_s",
                    "start_p50_s",
                    "start_tail_s",
                )
            ]
    for name in names:
        assert f"  {name} " in table, name
    assert "records sha256 (wall_time removed) " in table
    assert '"SSFLOW_WORKERS": "1"' in table
    if workload in GATED_WORKLOADS:
        assert code == 0 and result["correct"], table


def test_traced_smoke_run_prints_every_layer_metric():
    code, lines = run_bench("cr_methods", 1, tiny_seconds("cr_methods"))
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
    ]
    layer_self = sum(v["value"] for k, v in metrics.items() if k.startswith("layer."))
    assert layer_self + metrics["trace.untimed_s"]["value"] == pytest.approx(
        metrics["trace.wall_s"]["value"]
    )
    assert metrics["integrator.rhs_evals"]["value"] == metrics["flow.assemble_calls"]["value"]


def _module_attributes():
    from ssflow import baselines, bench, flow, integrator, models, numerics

    return {
        mod.__name__: dict(vars(mod))
        for mod in (baselines, bench, flow, integrator, models, numerics)
    }


def test_tracer_restores_every_patched_attribute():
    before = _module_attributes()
    patches = tracing.install(tracing.Tracer())
    try:
        during = _module_attributes()
        changed = {
            (mod, name)
            for mod, attrs in before.items()
            for name, value in attrs.items()
            if during[mod][name] is not value
        }
    finally:
        patches.restore()
    assert ("ssflow.flow", "_assemble") in changed
    assert ("ssflow.bench", "quasi_newton_unconstrained") in changed
    assert ("ssflow.baselines", "quasi_newton_unconstrained") in changed
    after = _module_attributes()
    for mod, attrs in before.items():
        assert after[mod].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[mod][name] is value, (mod, name)


def test_self_time_of_nested_spans():
    # outer opens at 0; inner spans cover [1, 3] and [4, 4.5]; outer closes at 10
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "integrator.inner")

    def body():
        inner()
        inner()

    tracer.wrap(body, "flow.outer")()
    outer_stats = tracer.stats["flow.outer"]
    inner_stats = tracer.stats["integrator.inner"]
    assert (inner_stats.calls, inner_stats.total_s, inner_stats.self_s) == (2, 2.5, 2.5)
    assert (outer_stats.calls, outer_stats.total_s, outer_stats.self_s) == (1, 10.0, 7.5)
    assert tracer.root_s() == 10.0
    layers = tracer.layer_self_s()
    assert (layers["flow"], layers["integrator"]) == (7.5, 2.5)


def test_excluded_time_leaves_every_open_span():
    # outer opens at 0, inner covers [1, 3] and 0.5 s of it is a probe
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: tracer.exclude(0.5), "integrator.inner")
    tracer.wrap(inner, "flow.outer")()
    inner_stats = tracer.stats["integrator.inner"]
    outer_stats = tracer.stats["flow.outer"]
    assert (inner_stats.total_s, inner_stats.self_s) == (1.5, 1.5)
    assert (outer_stats.total_s, outer_stats.self_s) == (9.5, 8.0)
    assert tracer.root_s() == 9.5


def _record(label, lam, value, reason="ToleranceMet"):
    return {
        "method": label,
        "lam": lam,
        "start_index": 0,
        "seed": DATA_SEED,
        "start": [0.5, 0.5, 0.5],
        "final_objective": value,
        "reduced_objective": value,
        "manifold_residual": 0.0,
        "converged": False,
        "reason": reason,
        "wall_time": 0.1,
        "rhs_evals": 10,
    }


def test_check_fails_each_label_that_misses_j_ref(tmp_path):
    from ssflow import bench

    config = WORKLOADS["cr_methods"].config(seconds=WORKLOADS["cr_methods"].nominal_start_s)
    j_ref = 1.0
    good = [
        _record("flow_lambda_2", 2.0, j_ref),
        _record("flow_lambda_20", 20.0, j_ref + 0.5 * config.classification_tol),
        _record("unconstrained", None, j_ref),
        _record("constrained", None, j_ref),
    ]
    bad = good[:3] + [_record("constrained", None, j_ref + 10 * config.classification_tol)]
    for name, records in (("good", good), ("bad", bad)):
        runs_path, _ = bench.emit(bench.summarize(records), records, str(tmp_path / name))
        problems = check(config, records, runs_path, j_ref)
        if name == "good":
            assert problems == []
        else:
            assert len(problems) == 1 and problems[0].startswith("constrained:"), problems


def test_check_fails_a_non_finite_objective_without_a_failure_reason(tmp_path):
    from ssflow import bench

    config = WORKLOADS["cr_methods"].config(seconds=WORKLOADS["cr_methods"].nominal_start_s)
    records = [
        _record("flow_lambda_2", 2.0, 1.0),
        _record("flow_lambda_20", 20.0, 1.0),
        _record("unconstrained", None, 1.0),
        _record("constrained", None, 1.0),
        _record("constrained", None, float("inf"), reason="OuterLimit"),
        _record("constrained", None, float("inf"), reason="NumericalFailure"),
    ]
    runs_path, _ = bench.emit(bench.summarize(records), records, str(tmp_path))
    problems = [p for p in check(config, records, runs_path, 1.0) if "records, expected" not in p]
    assert len(problems) == 1 and "OuterLimit" in problems[0], problems


def test_seed_redraws_only_initial_states():
    from ssflow import bench

    config = WORKLOADS["ngf_flow"].config(seconds=3 * WORKLOADS["ngf_flow"].nominal_start_s)
    bundle = bench._build_problem(config)
    own = bench.sample_starts(config, bundle)
    a, b, a_again = (make_starts(config, bundle, seed) for seed in (1, 2, 1))
    assert config.seed == DATA_SEED and len(a) == config.n_starts == 3
    for start, other, again, package in zip(a, b, a_again, own):
        assert (start.theta == package.theta).all() and (other.theta == package.theta).all()
        assert (start.pack() == again.pack()).all()
        assert not (start.pack() == other.pack()).all()


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(range(19)) is None
    assert tail(range(1, 21)) == (50.0, 10)
    assert tail(range(1, 101)) == (90.0, 90)
    assert tail(range(1, 1001)) == (99.0, 990)


def test_reference_seconds_leave_out_probes_and_rescale_by_them():
    speed = SpeedLog(kernel=lambda: None)
    speed.samples = [(0.0, 2 * PROBE_REF_S), (1.0, 2 * PROBE_REF_S), (3.0, 4 * PROBE_REF_S)]
    # [0.5, 2.5] holds the probe at 1.0: it is taken off and sets the scale
    assert speed.net(0.5, 2.5) == pytest.approx(2.0 - 2 * PROBE_REF_S)
    assert speed.to_ref(0.5, 2.5) == pytest.approx((2.0 - 2 * PROBE_REF_S) / 2)
    # [2.0, 2.5] holds none: the probes at 1.0 and 3.0 around it set the scale
    assert speed.to_ref(2.0, 2.5) == pytest.approx(0.5 / 3)
