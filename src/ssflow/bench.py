"""Multistart comparison harness: start sampling, execution across methods,
convergence classification, statistics, and CSV/JSON emission."""

import csv
import json
import os
import statistics
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import __version__
from .baselines import augmented_lagrangian_constrained, quasi_newton_unconstrained
from .core import FlowConfig, FlowState, _integer, _real, _reals
from .flow import run_flow
from .models import ConversionReactionProblem, NgfErkProblem

# problem name -> bundle class; the one place a name picks a problem
PROBLEMS = {
    "conversion_reaction": ConversionReactionProblem,
    "ngf_erk": NgfErkProblem,
}


def _flow(config, bundle, lam, start):
    r = run_flow(bundle.flow_problem(_flow_config(config, lam)), start)
    return r.final.theta, r.objective, r.manifold_residual, r.reason, r.rhs_evals, r.wall_time


def _unconstrained(config, bundle, lam, start):
    r = quasi_newton_unconstrained(bundle.reduced_objective, start.theta, tol=config.tol)
    return r.theta, r.objective, 0.0, r.reason, r.n_evals, r.wall_time


def _constrained(config, bundle, lam, start):
    r = augmented_lagrangian_constrained(bundle, start, tol=config.tol)
    return r.theta, r.objective, r.constraint_violation, r.reason, r.n_evals, r.wall_time


# method name -> (runs once per lambda, run(config, bundle, lam, start)), the
# one place a name picks a method. A run looks its solver up here when called
# and returns the final theta, objective, residual, StopReason, evals, wall time.
METHOD_RUNS = {
    "flow": (True, _flow),
    "unconstrained": (False, _unconstrained),
    "constrained": (False, _constrained),
}
METHODS = tuple(METHOD_RUNS)


def _write_float(value):
    return format(float(value), ".17g")


# The runs.csv schema, in column order: (name, write, read). write turns a
# record value into its cell, read turns the cell back into the value.
COLUMNS = (
    ("method", str, str),
    (
        "lam",
        lambda v: "" if v is None else _write_float(v),
        lambda s: float(s) if s else None,
    ),
    ("start_index", str, int),
    ("seed", str, int),
    (
        "start",
        lambda v: ";".join(format(x, ".17g") for x in v),
        lambda s: [float(x) for x in s.split(";") if x],
    ),
    ("final_objective", _write_float, float),
    ("reduced_objective", _write_float, float),
    ("manifold_residual", _write_float, float),
    ("converged", lambda v: "true" if v else "false", lambda s: s == "true"),
    ("reason", str, str),
    ("wall_time", _write_float, float),
    ("rhs_evals", str, int),
)
CSV_COLUMNS = tuple(name for name, _, _ in COLUMNS)

SCHEMA_VERSION = 1
WORKERS_ENV = "SSFLOW_WORKERS"


# the settings a BenchConfig passes to each lambda's FlowConfig, by name
_FLOW_FIELDS = tuple(f.name for f in fields(FlowConfig) if f.name != "lam")


@dataclass
class BenchConfig:
    """One bench run's settings. The five flow settings (tol, r_max,
    max_rhs_evals and the integrator tolerances) take their defaults from
    core.FlowConfig and are checked by building it at each lambda; noise_var
    and theta_true take theirs from models.NgfErkProblem and are checked by
    building one without data, whatever the problem. Each keeps its owner's
    normalised value. Every number follows core's one rule: the float fields
    become finite floats, the boxes, lambdas and theta_true tuples of them,
    n_starts, seed and max_rhs_evals ints; a bool, a string, NaN, +-inf or
    an integer too large for a float is a ValueError naming the field."""

    problem: str = "conversion_reaction"
    methods: tuple = METHODS
    lambdas: tuple = (2.0, 20.0)
    n_starts: int = 100
    seed: int = 0
    # sampling boxes; None takes the problem bundle's (the benchmark protocol's)
    theta_box: Optional[tuple] = None
    state_box: Optional[tuple] = None
    output_dir: str = ""
    tol: float = FlowConfig.tol
    r_max: float = FlowConfig.r_max
    max_rhs_evals: int = FlowConfig.max_rhs_evals
    integrator_rel_tol: float = FlowConfig.integrator_rel_tol
    integrator_abs_tol: float = FlowConfig.integrator_abs_tol
    noise_var: float = NgfErkProblem.noise_var
    theta_true: tuple = NgfErkProblem.theta_true
    classification_tol: float = 1e-3

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        # ngf_erk draws its data from seed and every problem its starts from
        # seed + 1; numpy's generators take no negative seed
        for name, low in (("n_starts", 1), ("seed", 0)):
            setattr(self, name, _integer(name, getattr(self, name), low))
        ngf = NgfErkProblem(noise_var=self.noise_var, theta_true=self.theta_true)
        self.noise_var, self.theta_true = ngf.noise_var, ngf.theta_true
        self.classification_tol = _real("classification_tol", self.classification_tol)
        if not self.classification_tol >= 0:
            raise ValueError("classification_tol must be finite and >= 0")
        for name in ("theta_box", "state_box"):
            box = getattr(self, name)
            box = _reals(name, getattr(PROBLEMS[self.problem], name) if box is None else box, 2)
            if not box[0] <= box[1]:
                raise ValueError(f"{name} must be ordered")
            setattr(self, name, box)
        if not isinstance(self.output_dir, str):
            raise TypeError(f"output_dir must be a string, got {self.output_dir!r}")
        # a string is iterable too, one method name per character
        if isinstance(self.methods, str) or not hasattr(self.methods, "__iter__"):
            raise ValueError(f"methods must hold method names, got {self.methods!r}")
        self.methods = tuple(self.methods)
        self.lambdas = _reals("lambdas", self.lambdas)
        unknown = [name for name in self.methods if name not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}")
        if not (self.methods and self.lambdas):
            raise ValueError("methods and lambdas must not be empty")
        # a repeat would run, and count, every start of it twice
        for name in ("methods", "lambdas"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat, got {list(values)}")
        flow_configs = [_flow_config(self, lam) for lam in self.lambdas]
        for name in _FLOW_FIELDS:
            setattr(self, name, getattr(flow_configs[0], name))


def default_config(problem, **overrides):
    """Config for a problem; overrides take precedence over the defaults."""
    return BenchConfig(problem=problem, **overrides)


def _build_problem(config):
    """Instantiate the benchmark problem bundle for a config.

    For ngf_erk the synthetic data are generated deterministically from
    config.seed.
    """
    bundle_class = PROBLEMS[config.problem]
    if bundle_class is NgfErkProblem:
        bundle = bundle_class(noise_var=config.noise_var, theta_true=config.theta_true)
        return bundle.with_generated_data(config.seed)
    return bundle_class()


def sample_starts(config, bundle=None):
    """n_starts uniform draws from the theta and state boxes.

    All methods within one bench run share this list (paired comparison);
    the generator is seeded from config.seed, so repeated calls are
    identical.
    """
    if bundle is None:
        bundle = _build_problem(config)
    model = bundle.model()
    m = len(bundle.u_matrix)
    rng = np.random.default_rng(config.seed + 1)
    starts = []
    for _ in range(config.n_starts):
        theta = rng.uniform(config.theta_box[0], config.theta_box[1], model.n_theta)
        # row by row, as one draw per condition would make them
        states = rng.uniform(config.state_box[0], config.state_box[1], (m, model.n_x))
        starts.append(FlowState(theta=theta, states=states))
    return starts


def _flow_config(config, lam):
    return FlowConfig(lam=lam, **{name: getattr(config, name) for name in _FLOW_FIELDS})


def _reduced_value(config, bundle, theta):
    """Objective restricted to the steady-state manifold at theta; inf where
    it is not finite (reduced_objective's own rule) or the bundle raises."""
    try:
        return float(bundle.reduced_objective(theta)[0])
    except Exception:
        return float("inf")


def _finite_or_inf(value):
    return value if np.isfinite(value) else float("inf")


def _execute_task(task):
    """Run one (method, start) pair; top-level so a worker pool can pickle it.

    A task is (config, bundle, method, lam, start_index, start), lam None
    for a method run once for all lambdas. A failed run becomes a
    non-converged record; the bench never aborts because one run failed.
    """
    config, bundle, method, lam, start_index, start = task
    try:
        _, run = METHOD_RUNS[method]
        theta, objective, residual, reason, evals, wall_time = run(config, bundle, lam, start)
        objective, residual = _finite_or_inf(objective), _finite_or_inf(residual)
        reduced, reason = _reduced_value(config, bundle, theta), reason.value
    except Exception as exc:
        objective = reduced = residual = float("inf")
        reason, evals, wall_time = f"Error:{type(exc).__name__}", 0, 0.0
    return {
        "method": method if lam is None else f"{method}_lambda_{lam:g}",
        "lam": lam,
        "start_index": start_index,
        "seed": config.seed,
        "start": list(start.pack()),
        "final_objective": objective,
        "reduced_objective": reduced,
        "manifold_residual": residual,
        "converged": False,
        "reason": reason,
        "wall_time": wall_time,
        "rhs_evals": evals,
    }


def classify(records, classification_tol):
    """Mark each run converged iff its objective restricted to the
    steady-state manifold (the reduced objective at the final parameters)
    lies within classification_tol of the best such value overall.

    Comparing on the manifold is what makes the comparison fair: a
    constrained solver can report a near-zero objective at a point where
    the constraint is degenerate (all rates tiny makes f vanish for any
    state), which no on-manifold point can match.
    """
    objs = [r["reduced_objective"] for r in records if np.isfinite(r["reduced_objective"])]
    best = min(objs) if objs else None
    for r in records:
        r["converged"] = bool(
            best is not None and r["reduced_objective"] <= best + classification_tol
        )
    return best


def summarize(records, classification_tol=BenchConfig.classification_tol):
    """Per-method statistics, stop reason counts included; also (re)derives
    the classification so the summary can be recomputed from a parsed
    runs.csv alone."""
    best = classify(records, classification_tol)
    methods = {}
    for r in records:
        methods.setdefault(r["method"], []).append(r)
    out = {}
    for label in sorted(methods):
        runs = methods[label]
        n_conv = sum(1 for r in runs if r["converged"])
        times = [r["wall_time"] for r in runs]
        total_time = sum(times)
        finite = [r["reduced_objective"] for r in runs if np.isfinite(r["reduced_objective"])]
        out[label] = {
            "n_runs": len(runs),
            "n_converged": n_conv,
            "fraction_converged": n_conv / len(runs),
            "mean_wall_time": total_time / len(runs),
            "median_wall_time": statistics.median(times),
            "total_wall_time": total_time,
            "time_per_converged_start": (total_time / n_conv) if n_conv else None,
            "best_objective": min(finite) if finite else None,
            "reasons": dict(sorted(Counter(r["reason"] for r in runs).items())),
        }
    return {"best_objective": best, "methods": out}


def worker_count():
    """The bench's worker count: the SSFLOW_WORKERS environment variable,
    or the available parallelism when it is unset: the CPUs this process
    may run on, where the platform tells (os.sched_getaffinity), else every
    CPU. Raises ValueError naming the variable when its value is not an
    integer >= 1."""
    value = os.environ.get(WORKERS_ENV)
    if value is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {value!r}")
    return workers


def run_bench(config):
    """Execute every (method, start) pair and return (summary, records).

    Individual run failures are recorded, never propagated. Worker count
    comes from worker_count() (a bad SSFLOW_WORKERS raises ValueError
    before any run); results are ordered by (method, start index)
    regardless of completion order.
    """
    workers = worker_count()
    bundle = _build_problem(config)
    starts = sample_starts(config, bundle)
    tasks = []
    for method in config.methods:
        per_lambda, _ = METHOD_RUNS[method]
        lams = config.lambdas if per_lambda else (None,)
        for lam in lams:
            for idx, start in enumerate(starts):
                tasks.append((config, bundle, method, lam, idx, start))

    if workers > 1 and len(tasks) > 1:
        # imported here: a one-worker bench never starts a pool, and the
        # module is a noticeable part of importing the bench
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_execute_task, tasks, chunksize=4))
    else:
        records = [_execute_task(task) for task in tasks]
    summary = summarize(records, classification_tol=config.classification_tol)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "config": asdict(config),
        **summary,
    }
    return summary, records


# --------------------------------------------------------------------------
# File emission
# --------------------------------------------------------------------------

def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(summary, records, out_dir):
    """Write runs.csv and summary.json atomically into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(write(r[name]) for name, write, _ in COLUMNS))
    runs_path = os.path.join(out_dir, "runs.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    try:
        _atomic_write(runs_path, "\n".join(lines) + "\n")
        _atomic_write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing bench output to {out_dir}: {exc}") from exc
    return runs_path, summary_path


def read_runs_csv(path):
    """Parse runs.csv back into record dicts (floats round-trip exactly)."""
    with open(path, newline="") as fh:
        return [
            {name: read(row[name]) for name, _, read in COLUMNS}
            for row in csv.DictReader(fh)
        ]
