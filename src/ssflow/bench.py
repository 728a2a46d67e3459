"""Multistart comparison harness: start sampling, execution across methods,
convergence classification, statistics, and CSV/JSON emission."""

import csv
import json
import os
import statistics
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .baselines import augmented_lagrangian_constrained, quasi_newton_unconstrained
from .core import FlowConfig, FlowState
from .flow import run_flow
from .models import ConversionReactionProblem, NgfErkProblem

PROBLEMS = ("conversion_reaction", "ngf_erk")
METHODS = ("flow", "unconstrained", "constrained")

CSV_COLUMNS = (
    "method",
    "lam",
    "start_index",
    "seed",
    "start",
    "final_objective",
    "reduced_objective",
    "manifold_residual",
    "converged",
    "reason",
    "wall_time",
    "rhs_evals",
)

SCHEMA_VERSION = 1
WORKERS_ENV = "SSFLOW_WORKERS"


@dataclass
class BenchConfig:
    problem: str = "conversion_reaction"
    methods: tuple = METHODS
    lambdas: tuple = (2.0, 20.0)
    n_starts: int = 100
    seed: int = 0
    theta_box: tuple = (0.1, 8.0)
    state_box: tuple = (0.0, 1.0)
    output_dir: str = ""
    tol: float = 1e-6
    r_max: float = 1e4
    max_rhs_evals: int = 100_000
    integrator_rel_tol: float = 1e-6
    integrator_abs_tol: float = 1e-8
    noise_var: float = 0.01
    theta_true: tuple = (0.0,) * 6
    classification_tol: float = 1e-3

    def __post_init__(self):
        self.methods = tuple(self.methods)
        self.lambdas = tuple(float(v) for v in self.lambdas)
        self.theta_true = tuple(float(v) for v in self.theta_true)
        self.theta_box = tuple(float(v) for v in self.theta_box)
        self.state_box = tuple(float(v) for v in self.state_box)
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if not (self.theta_box[0] <= self.theta_box[1]):
            raise ValueError("theta_box must be ordered")
        if not (self.state_box[0] <= self.state_box[1]):
            raise ValueError("state_box must be ordered")

    def to_dict(self):
        d = asdict(self)
        d["methods"] = list(self.methods)
        d["lambdas"] = list(self.lambdas)
        d["theta_box"] = list(self.theta_box)
        d["state_box"] = list(self.state_box)
        d["theta_true"] = list(self.theta_true)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def default_config(problem, **overrides):
    """Config with the problem bundle's sampling boxes (the benchmark
    protocol's); overrides take precedence."""
    config = BenchConfig(problem=problem, **overrides)
    bundle = _build_problem(config)
    boxes = {
        name: getattr(bundle, name)
        for name in ("theta_box", "state_box")
        if name not in overrides
    }
    return replace(config, **boxes)


def _build_problem(config):
    """Instantiate the benchmark problem bundle for a config.

    For ngf_erk the synthetic data are generated deterministically from
    config.seed.
    """
    if config.problem == "conversion_reaction":
        return ConversionReactionProblem()
    prob = NgfErkProblem(noise_var=config.noise_var, theta_true=config.theta_true)
    return prob.with_generated_data(config.seed)


def _problem_dims(config, bundle):
    model = bundle.model()
    m = len(bundle.conditions())
    return model.n_theta, model.n_x, m


def sample_starts(config, bundle=None):
    """n_starts uniform draws from the theta and state boxes.

    All methods within one bench run share this list (paired comparison);
    the generator is seeded from config.seed, so repeated calls are
    identical.
    """
    if bundle is None:
        bundle = _build_problem(config)
    n_theta, n_x, m = _problem_dims(config, bundle)
    rng = np.random.default_rng(config.seed + 1)
    starts = []
    for _ in range(config.n_starts):
        theta = rng.uniform(config.theta_box[0], config.theta_box[1], n_theta)
        states = [
            rng.uniform(config.state_box[0], config.state_box[1], n_x)
            for _ in range(m)
        ]
        starts.append(FlowState(theta=theta, states=states))
    return starts


def _method_label(method, lam=None):
    if method == "flow":
        return f"flow_lambda_{lam:g}"
    return method


def _flow_config(config, lam):
    return FlowConfig(
        lam=lam,
        tol=config.tol,
        r_max=config.r_max,
        max_rhs_evals=config.max_rhs_evals,
        integrator_rel_tol=config.integrator_rel_tol,
        integrator_abs_tol=config.integrator_abs_tol,
    )


def _execute_task(args):
    """Run one (method, start) pair; top-level so a worker pool can pickle it.

    Any per-run failure is converted into a non-converged record; the bench
    never aborts because one run failed.
    """
    cfg_dict, method, lam, start_index, start_vec = args
    try:
        return _run_task(args)
    except Exception as exc:
        return {
            "method": _method_label(method, lam),
            "lam": lam if method == "flow" else None,
            "start_index": start_index,
            "seed": cfg_dict["seed"],
            "start": list(start_vec),
            "final_objective": float("inf"),
            "reduced_objective": float("inf"),
            "manifold_residual": float("inf"),
            "converged": False,
            "reason": f"Error:{type(exc).__name__}",
            "wall_time": 0.0,
            "rhs_evals": 0,
        }


def _reduced_value(config, bundle, theta):
    """Objective restricted to the steady-state manifold at theta."""
    try:
        with np.errstate(all="ignore"):
            value, _ = bundle.reduced_objective(theta)
        return float(value) if np.isfinite(value) else float("inf")
    except Exception:
        return float("inf")


def _run_task(args):
    cfg_dict, method, lam, start_index, start_vec = args
    config = BenchConfig.from_dict(cfg_dict)
    bundle = _build_problem(config)
    n_theta, n_x, m = _problem_dims(config, bundle)
    start = FlowState.unpack(np.asarray(start_vec, dtype=float), n_theta, n_x, m)
    record = {
        "method": _method_label(method, lam),
        "lam": lam if method == "flow" else None,
        "start_index": start_index,
        "seed": config.seed,
        "start": list(start.pack()),
        "converged": False,
    }
    if method == "flow":
        problem = bundle.flow_problem(_flow_config(config, lam))
        result = run_flow(problem, start)
        final_theta = result.final.theta
        record.update(
            final_objective=result.objective,
            manifold_residual=result.manifold_residual,
            reason=result.reason.value,
            wall_time=result.wall_time,
            rhs_evals=result.rhs_evals,
        )
    elif method == "unconstrained":
        result = quasi_newton_unconstrained(
            bundle.reduced_objective, start.theta, tol=config.tol
        )
        final_theta = result.theta
        record.update(
            final_objective=result.objective,
            manifold_residual=0.0,
            reason="ToleranceMet" if result.converged else "IterationLimit",
            wall_time=result.wall_time,
            rhs_evals=result.n_evals,
        )
    elif method == "constrained":
        problem = bundle.flow_problem(_flow_config(config, config.lambdas[0]))
        result = augmented_lagrangian_constrained(
            problem, start, tol=config.tol
        )
        final_theta = result.theta
        record.update(
            final_objective=result.objective,
            manifold_residual=result.constraint_violation,
            reason="ToleranceMet" if result.converged else "OuterLimit",
            wall_time=result.wall_time,
            rhs_evals=result.n_evals,
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    record["reduced_objective"] = _reduced_value(config, bundle, final_theta)
    if not np.isfinite(record["final_objective"]):
        record["final_objective"] = float("inf")
    if not np.isfinite(record["manifold_residual"]):
        record["manifold_residual"] = float("inf")
    return record


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


def summarize(records, classification_tol=1e-3):
    """Per-method statistics; also (re)derives the classification so the
    summary can be recomputed from a parsed runs.csv alone."""
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
        }
    return {"best_objective": best, "methods": out}


def run_bench(config):
    """Execute every (method, start) pair and return (summary, records).

    Individual run failures are recorded, never propagated. Worker count
    comes from the SSFLOW_WORKERS environment variable (default: available
    parallelism); results are ordered by (method, start index) regardless
    of completion order.
    """
    bundle = _build_problem(config)
    starts = sample_starts(config, bundle)
    cfg_dict = config.to_dict()
    tasks = []
    for method in config.methods:
        lams = config.lambdas if method == "flow" else (None,)
        for lam in lams:
            for idx, start in enumerate(starts):
                tasks.append((cfg_dict, method, lam, idx, list(start.pack())))

    workers = int(os.environ.get(WORKERS_ENV, os.cpu_count() or 1))
    records = []
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for record in pool.map(_execute_task, tasks, chunksize=4):
                records.append(record)
    else:
        for task in tasks:
            records.append(_execute_task(task))
    summary = summarize(records, classification_tol=config.classification_tol)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "config": cfg_dict,
        **summary,
    }
    return summary, records


# --------------------------------------------------------------------------
# File emission
# --------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


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
        row = [
            r["method"],
            _fmt(r["lam"]),
            str(r["start_index"]),
            str(r["seed"]),
            ";".join(format(v, ".17g") for v in r["start"]),
            _fmt(float(r["final_objective"])),
            _fmt(float(r["reduced_objective"])),
            _fmt(float(r["manifold_residual"])),
            _fmt(bool(r["converged"])),
            r["reason"],
            _fmt(float(r["wall_time"])),
            str(r["rhs_evals"]),
        ]
        lines.append(",".join(row))
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
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(
                {
                    "method": row["method"],
                    "lam": float(row["lam"]) if row["lam"] else None,
                    "start_index": int(row["start_index"]),
                    "seed": int(row["seed"]),
                    "start": [float(v) for v in row["start"].split(";") if v],
                    "final_objective": float(row["final_objective"]),
                    "reduced_objective": float(row["reduced_objective"]),
                    "manifold_residual": float(row["manifold_residual"]),
                    "converged": row["converged"] == "true",
                    "reason": row["reason"],
                    "wall_time": float(row["wall_time"]),
                    "rhs_evals": int(row["rhs_evals"]),
                }
            )
    return records
