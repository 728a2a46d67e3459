"""Workload table, per-method metrics and the correctness check.

A workload fixes the problem, methods and integrator settings, and a fixed
amount of work: ``--seconds`` sets how many starts run, from the workload's
nominal single-worker cost per start. The bench config's seed is always
``DATA_SEED``, so the NGF synthetic data and the parameter part of every
start are the package's own draw at that seed. ``--seed`` redraws only the
initial states of the starts. The parameter start sets a run's cost: on
NGF, per-start rhs evaluations vary by 40 % across parameter starts and by
4-7 % across state starts at a fixed parameter start (coefficients of
variation), so over seed-drawn parameter slices of ten starts the quartile
distance of ``wall_s`` would be about 16 % of its median with no change to
the code. The same seed and seconds always run the same tasks.
"""

import contextlib
import dataclasses
import hashlib
import math
import statistics
from dataclasses import dataclass

import numpy as np

FAILURE_REASONS = ("NumericalFailure",)
ERROR_PREFIX = "Error:"
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# the bench config's seed on every run: NGF data and parameter starts
DATA_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    methods: tuple
    lambdas: tuple
    # (rel, abs) integrator tolerances; None keeps the library default
    integrator_tols: tuple
    # single-worker seconds per start over all of the workload's methods,
    # measured on the reference machine; sizes the slice to --seconds
    nominal_start_s: float

    def n_starts(self, seconds):
        return max(1, round(seconds / self.nominal_start_s))

    def config(self, seconds):
        from ssflow import bench

        overrides = dict(
            n_starts=self.n_starts(seconds),
            seed=DATA_SEED,
            methods=self.methods,
            lambdas=self.lambdas,
        )
        if self.integrator_tols is not None:
            overrides["integrator_rel_tol"], overrides["integrator_abs_tol"] = self.integrator_tols
        return bench.default_config(self.problem, **overrides)


def make_starts(config, bundle, seed):
    """The workload's starts: the parameters of the package's own draw at
    the config's seed, each with initial states the package draws at
    ``seed``, from the same boxes."""
    from ssflow import bench
    from ssflow.core import FlowState

    fixed = bench.sample_starts(config, bundle)
    redrawn = bench.sample_starts(dataclasses.replace(config, seed=seed), bundle)
    return [FlowState(theta=f.theta, states=r.states) for f, r in zip(fixed, redrawn)]


@contextlib.contextmanager
def given_starts(starts):
    """run_bench runs ``starts`` in place of its own draw while the block
    runs; it reads ``sample_starts`` from its module at call time."""
    from ssflow import bench

    sample = bench.sample_starts
    bench.sample_starts = lambda config, bundle=None: list(starts)
    try:
        yield
    finally:
        bench.sample_starts = sample


WORKLOADS = {
    w.name: w
    for w in (
        # the 26-variable stiff flow: FD Jacobian, _assemble and the batched
        # kernels; the baselines get no work
        Workload(
            name="ngf_flow",
            problem="ngf_erk",
            methods=("flow",),
            lambdas=(20.0,),
            integrator_tols=(1e-4, 1e-6),
            nominal_start_s=1.5,
        ),
        # per-condition kernels, BFGS, AL and exact sensitivities, never the
        # integrator; not gated: its check fails (see README.md)
        Workload(
            name="ngf_baselines",
            problem="ngf_erk",
            methods=("unconstrained", "constrained"),
            lambdas=(20.0,),
            integrator_tols=None,
            nominal_start_s=2.0,
        ),
        # 3 variables: per-call Python and per-task bench overhead, two
        # stiffness levels at the default tolerances
        Workload(
            name="cr_methods",
            problem="conversion_reaction",
            methods=("flow", "unconstrained", "constrained"),
            lambdas=(2.0, 20.0),
            integrator_tols=None,
            nominal_start_s=0.3,
        ),
    )
}


def is_failure(record):
    return record["reason"].startswith(ERROR_PREFIX) or record["reason"] in FAILURE_REASONS


def reference_optimum(config, starts):
    """J_ref: the best reduced objective that BFGS on the analytic reduced
    objective reaches from the workload's starts."""
    from ssflow import bench, models
    from ssflow.baselines import quasi_newton_unconstrained

    bundle = bench._build_problem(config)
    reduced = (
        models.reduced_objective_cr
        if config.problem == "conversion_reaction"
        else models.reduced_objective_ngf
    )
    best = math.inf
    for start in starts:
        with np.errstate(all="ignore"):
            result = quasi_newton_unconstrained(
                lambda t: reduced(t, bundle), start.theta, tol=config.tol
            )
        best = min(best, bench._reduced_value(config, bundle, result.theta))
    return best


def records_digest(runs_csv_path):
    """sha256 of runs.csv with the wall_time column removed."""
    with open(runs_csv_path) as fh:
        lines = fh.read().splitlines()
    keep = [i for i, name in enumerate(lines[0].split(",")) if name != "wall_time"]
    h = hashlib.sha256()
    for line in lines:
        cells = line.split(",")
        h.update((",".join(cells[i] for i in keep) + "\n").encode())
    return h.hexdigest()


def check(config, records, runs_csv_path, j_ref):
    """Problems with the bench output; an empty list means correct."""
    from ssflow import bench

    problems = []
    labels = sum(len(config.lambdas) if m == "flow" else 1 for m in config.methods)
    if len(records) != labels * config.n_starts:
        problems.append(f"{len(records)} records, expected {labels * config.n_starts}")
    if not math.isfinite(j_ref):
        problems.append("reference optimum J_ref is not finite")
    best = {}
    for r in records:
        value = r["reduced_objective"]
        if not math.isfinite(value) and not is_failure(r):
            problems.append(
                f"{r['method']} start {r['start_index']}: reduced objective {value} "
                f"without a failure reason ({r['reason']})"
            )
        best[r["method"]] = min(best.get(r["method"], math.inf), value)
    for label, value in sorted(best.items()):
        if not value <= j_ref + config.classification_tol:
            problems.append(
                f"{label}: best reduced objective {value!r} is not within "
                f"{config.classification_tol} of J_ref {j_ref!r}"
            )
    reread = bench.read_runs_csv(runs_csv_path)
    fields = ("method", "lam", "start_index", "seed", "start", "reduced_objective", "reason")
    if [[r[k] for k in fields] for r in reread] != [[r[k] for k in fields] for r in records]:
        problems.append("runs.csv does not read back to the records")
    return problems


def tail(values):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, by nearest rank; None with fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def method_metrics(records, task_ref_s, j_ref, classification_tol):
    """Per method label: convergence against J_ref and per-start times.

    ``task_ref_s`` holds each record's task time in reference seconds.
    Evaluations are the records' ``rhs_evals``: rhs evaluations for the
    flow, objective evaluations for the baselines.
    """
    by_label = {}
    for r, t in zip(records, task_ref_s):
        by_label.setdefault(r["method"], []).append((r, t))
    out = {}
    for label in sorted(by_label):
        runs = by_label[label]
        times = [t for _, t in runs]
        evals = sum(r["rhs_evals"] for r, _ in runs)
        n_conv = sum(1 for r, _ in runs if r["reduced_objective"] <= j_ref + classification_tol)
        out[label] = {
            "n_runs": len(runs),
            "n_converged": n_conv,
            "fraction_converged": n_conv / len(runs),
            "failed_fraction": sum(1 for r, _ in runs if is_failure(r)) / len(runs),
            "evals_per_s": evals / sum(times),
            "time_per_converged_start_s": sum(times) / n_conv if n_conv else None,
            "start_p50_s": statistics.median(times),
            "start_tail": tail(times),
        }
    return out
