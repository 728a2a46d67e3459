"""Single-worker multistart benchmark for ssflow.

    python3 perfbench/run.py --workload ngf_flow --seed 0 --seconds 15 --trace 0

Runs one workload through the user-facing path (``bench.run_bench`` then
``bench.emit`` into a scratch directory, as ``ssflow bench`` does) on one
worker, checks the output, and prints a metric table followed by one JSON
line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats
the workload with every layer boundary wrapped and reports the per-layer
table. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import envinfo  # noqa: E402

envinfo.configure()  # before numpy is imported
import tracing  # noqa: E402
from calibration import SpeedLog  # noqa: E402
from workloads import WORKLOADS, check, given_starts, is_failure, make_starts  # noqa: E402
from workloads import method_metrics, records_digest, reference_optimum  # noqa: E402

SETUP_REPEATS = 9
# a process that imports what ssflow imports from outside the package, run
# after each set-up; its time is taken as REFERENCE_SETUP_S, a fixed scale
# near its median on the machine the first baseline was taken on, so set-up
# reference seconds compare across runs and commits
REFERENCE_SETUP_CMD = [sys.executable, "-c", "import numpy, scipy.linalg"]
REFERENCE_SETUP_S = 0.5
SETUP_TIMEOUT_S = 60
OUT_DIR = os.path.join(envinfo.ROOT, ".perfbench_out")

# end-to-end metrics on the JSON line; the per-method ones count a few
# starts each and move with the seed's initial states (see README.md), so
# they are printed only
GATED = ("setup_s", "wall_s", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up measured from a fresh process
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_only(workload, seed, seconds):
    """Everything before the first task: imports, problem and data build,
    start sampling. Prints when it ended."""
    envinfo.import_package()
    from ssflow import bench

    config = workload.config(seconds)
    make_starts(config, bench._build_problem(config), seed)
    print(json.dumps({"end": time.perf_counter()}))


def measure_setup(args):
    """Median set-up time of fresh processes, in reference seconds.

    A set-up runs from spawning the process to the end of start sampling;
    perf_counter is the system-wide monotonic clock, so the child's end time
    compares with the parent's start time. Each set-up is followed by a
    reference process that only imports what the package imports from
    outside it, and is rescaled by that process's time: set-up is mostly
    imports, whose speed drifts with the machine, and the probe does not
    follow it (see README.md).
    """
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--setup-only",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(
            cmd, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True, text=True
        )
        raw.append(json.loads(out.stdout.splitlines()[-1])["end"] - t0)
        t0 = time.perf_counter()
        subprocess.run(REFERENCE_SETUP_CMD, check=True, timeout=SETUP_TIMEOUT_S)
        scaled.append(raw[-1] * REFERENCE_SETUP_S / (time.perf_counter() - t0))
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """One timed run_bench + emit and what it produced."""

    def __init__(self, records, runs_path, wall_raw_s, wall_ref_s, task_ref_s):
        self.records = records
        self.runs_path = runs_path
        self.wall_raw_s = wall_raw_s
        self.wall_ref_s = wall_ref_s
        self.task_ref_s = task_ref_s
        self.digest = records_digest(runs_path)


def timed_pass(config, starts, out_dir, speed):
    """run_bench on ``starts`` then emit, timing every task while probes run
    from the timer; probe time is never counted. Task spans are kept in task
    order, which on one worker is the record order.
    """
    from ssflow import bench

    clock = time.perf_counter
    spans = []
    execute = bench._execute_task

    def timed_execute(task):
        t0 = clock()
        try:
            return execute(task)
        finally:
            spans.append((t0, clock()))

    bench._execute_task = timed_execute
    try:
        with given_starts(starts), speed.sampling():
            t0 = clock()
            summary, records = bench.run_bench(config)
            runs_path, _ = bench.emit(summary, records, out_dir)
            t1 = clock()
        speed.sample()
    finally:
        bench._execute_task = execute
    if len(spans) != len(records):
        raise RuntimeError(f"{len(spans)} task spans for {len(records)} records")
    return Pass(
        records,
        runs_path,
        speed.net(t0, t1),
        speed.to_ref(t0, t1),
        [speed.to_ref(s, e) for s, e in spans],
    )


def layer_metrics(tracer, traced, untraced):
    """Per-layer table from the traced pass: (name, value, unit, better) rows."""
    stats = tracer.stats
    counters = tracer.counters

    def calls(name):
        return stats[name].calls if name in stats else 0

    def total(name):
        return stats[name].total_s if name in stats else 0.0

    def self_s(name):
        return stats[name].self_s if name in stats else 0.0

    def us_per_call(name):
        return total(name) / calls(name) * 1e6 if calls(name) else 0.0

    accepted = counters.get("integrator.steps_accepted", 0)
    rejected = counters.get("integrator.steps_rejected", 0)
    rows = [
        ("integrator.fd_jacobian_calls", calls("integrator.fd_jacobian"), "count", "lower"),
        ("integrator.fd_jacobian_s", total("integrator.fd_jacobian"), "s", "lower"),
        ("integrator.fd_jacobian_self_s", self_s("integrator.fd_jacobian"), "s", "lower"),
        ("flow.assemble_calls", calls("flow.assemble"), "count", "lower"),
        ("flow.assemble_us_per_call", us_per_call("flow.assemble"), "us", "lower"),
        ("flow.assemble_self_s", self_s("flow.assemble"), "s", "lower"),
        ("models.batch_calls", calls("models.batch"), "count", "lower"),
        ("models.batch_us_per_call", us_per_call("models.batch"), "us", "lower"),
        ("integrator.step_calls", calls("integrator.step"), "count", "lower"),
        ("integrator.step_self_s", self_s("integrator.step"), "s", "lower"),
        ("integrator.integrate_self_s", self_s("integrator.integrate"), "s", "lower"),
        ("integrator.rhs_evals", counters.get("integrator.rhs_evals", 0), "count", "lower"),
        ("integrator.steps_accepted", accepted, "count", "lower"),
        ("integrator.steps_rejected", rejected, "count", "lower"),
        (
            "integrator.accept_ratio",
            accepted / (accepted + rejected) if accepted + rejected else 0.0,
            "ratio",
            "higher",
        ),
        ("models.single_calls", calls("models.single"), "count", "lower"),
        ("models.single_us_per_call", us_per_call("models.single"), "us", "lower"),
        ("baselines.fun_grad_calls", calls("baselines.fun_grad"), "count", "lower"),
        ("baselines.fun_grad_s", total("baselines.fun_grad"), "s", "lower"),
        ("baselines.bfgs_calls", calls("baselines.bfgs"), "count", "lower"),
        ("baselines.bfgs_self_s", self_s("baselines.bfgs"), "s", "lower"),
        ("baselines.bfgs_iterations", counters.get("baselines.bfgs_iterations", 0), "count", "lower"),
        ("baselines.auglag_calls", calls("baselines.auglag"), "count", "lower"),
        (
            "baselines.auglag_outer_iterations",
            counters.get("baselines.auglag_outer_iterations", 0),
            "count",
            "lower",
        ),
        ("numerics.solve_calls", calls("numerics.solve"), "count", "lower"),
        ("numerics.solve_s", total("numerics.solve"), "s", "lower"),
        ("numerics.pinv_calls", calls("numerics.pinv"), "count", "lower"),
        ("sensitivity.exact_calls", calls("sensitivity.exact"), "count", "lower"),
        ("sensitivity.exact_s", total("sensitivity.exact"), "s", "lower"),
        ("bench.task_calls", calls("bench.task"), "count", "lower"),
        ("bench.task_self_s", self_s("bench.task"), "s", "lower"),
        ("bench.build_problem_calls", calls("bench.build_problem"), "count", "lower"),
        ("bench.build_problem_s", total("bench.build_problem"), "s", "lower"),
        ("bench.reduced_value_s", total("bench.reduced_value"), "s", "lower"),
        ("bench.summarize_s", total("bench.summarize"), "s", "lower"),
        ("bench.emit_s", total("bench.emit"), "s", "lower"),
    ]
    for layer, value in tracer.layer_self_s().items():
        rows.append((f"layer.{layer}_self_s", value, "s", "lower"))
    rows += [
        ("trace.wall_s", traced.wall_raw_s, "s", "lower"),
        ("trace.untimed_s", traced.wall_raw_s - tracer.root_s(), "s", "lower"),
        ("trace.overhead_ratio", traced.wall_ref_s / untraced.wall_ref_s, "ratio", "lower"),
    ]
    return rows


def _fmt(value):
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_rows(title, rows):
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<44} {_fmt(value):>14} {unit:<6} {note}")


def end_to_end_rows(setup, run, rss, methods):
    """Every end-to-end metric as (name, value, unit, note) rows: the gated
    workload-level ones first, then the per-method ones."""
    rows = [
        ("setup_s", setup[0], "s", f"lower, gated  (raw {setup[1]:.4g} s)"),
        ("wall_s", run.wall_ref_s, "s", f"lower, gated  (raw {run.wall_raw_s:.4g} s)"),
        ("peak_rss_mb", rss, "MB", "lower, gated"),
        (
            "failed_fraction",
            sum(1 for r in run.records if is_failure(r)) / len(run.records),
            "1",
            "lower",
        ),
    ]
    for label, m in methods.items():
        tail = m["start_tail"]
        rows += [
            (f"{label}.time_per_converged_start_s", m["time_per_converged_start_s"], "s", "lower"),
            (f"{label}.fraction_converged", m["fraction_converged"], "1", "higher"),
            (f"{label}.evals_per_s", m["evals_per_s"], "1/s", "higher"),
            (f"{label}.start_p50_s", m["start_p50_s"], "s", f"lower  (n={m['n_runs']})"),
            (
                f"{label}.start_tail_s",
                tail[1] if tail else None,
                "s",
                f"lower  (p{tail[0]:g} of n={m['n_runs']})"
                if tail
                else f"lower  (n={m['n_runs']} < 20)",
            ),
        ]
    return rows


def run(args):
    workload = WORKLOADS[args.workload]
    envinfo.import_package()
    from ssflow import bench

    config = workload.config(args.seconds)
    starts = make_starts(config, bench._build_problem(config), args.seed)
    setup = measure_setup(args) if not args.trace else None

    os.makedirs(OUT_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        speed = SpeedLog()
        untraced = timed_pass(config, starts, os.path.join(out_dir, "untraced"), speed)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            speed.on_probe = tracer.exclude  # probe time is no layer's time
            patches = tracing.install(tracer)
            try:
                traced = timed_pass(config, starts, os.path.join(out_dir, "traced"), speed)
            finally:
                patches.restore()
                speed.on_probe = None
        j_ref = reference_optimum(config, starts)
        problems = check(config, untraced.records, untraced.runs_path, j_ref)
        if traced is not None and traced.digest != untraced.digest:
            problems.append("traced records differ from untraced records")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(
        f"workload {workload.name}: {config.problem}, methods {list(config.methods)}, "
        f"lambdas {list(config.lambdas)}, {config.n_starts} starts, "
        f"{len(untraced.records)} tasks, data and parameter starts from seed "
        f"{config.seed}, initial states from seed {args.seed}"
    )
    print("environment " + json.dumps(envinfo.environment(args.seed), sort_keys=True))
    print(f"records sha256 (wall_time removed) {untraced.digest}")
    print(f"J_ref {j_ref!r} (classification_tol {config.classification_tol})")
    if args.trace:
        rows = layer_metrics(tracer, traced, untraced)
        print_rows("per-layer metrics (traced pass, raw seconds without probes)", rows)
    else:
        methods = method_metrics(
            untraced.records, untraced.task_ref_s, j_ref, config.classification_tol
        )
        rows = end_to_end_rows(setup, untraced, rss, methods)
        print_rows("end-to-end metrics (reference seconds, see README.md)", rows)
        rows = [row for row in rows if row[0] in GATED]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(f"correct: {not problems}")
    result = {
        "correct": not problems,
        "attempted": len(untraced.records),
        "failed": sum(1 for r in untraced.records if is_failure(r)),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None):
    args = parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        print("--seconds must be positive", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            setup_only(WORKLOADS[args.workload], args.seed, args.seconds)
            return 0
        return run(args)
    except envinfo.MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
