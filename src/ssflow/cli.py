"""Command-line interface.

Subcommands: generate-data, validate, run, bench. A JSON config file can
supply the same fields as the flags; flags take precedence.
"""

import argparse
import json
import sys

import numpy as np

from . import bench as bench_mod
from .bench import BenchConfig, default_config, emit, run_bench, sample_starts
from .core import validate_model
from .flow import run_flow


def _load_config_file(parser, path):
    """The JSON object in a config file; an unreadable file is a usage error."""
    try:
        with open(path) as fh:
            file_cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(file_cfg, dict):
        parser.error(f"config file {path} must hold a JSON object")
    return file_cfg


def _merged_config(parser, args, extra_overrides=None):
    """Build a BenchConfig from defaults, then the config file, then flags;
    an invalid config (an unknown field, a value of the wrong type or out of
    range) is a usage error."""
    problem = args.problem
    file_cfg = _load_config_file(parser, args.config) if args.config else {}
    if problem is None:
        problem = file_cfg.get("problem", "conversion_reaction")
    overrides = dict(file_cfg)
    overrides.pop("problem", None)
    flag_map = {
        "starts": "n_starts",
        "seed": "seed",
        "tol": "tol",
        "r_max": "r_max",
        "out": "output_dir",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if extra_overrides:
        overrides.update(extra_overrides)
    try:
        return default_config(problem, **overrides)
    except (TypeError, ValueError) as exc:
        parser.error(str(exc))


def _add_common_flags(p):
    p.add_argument("--problem", choices=bench_mod.PROBLEMS, default=None)
    p.add_argument("--config", help="JSON file supplying config fields")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--r-max", dest="r_max", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--starts", type=int, default=None)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ssflow",
        description="Simulation-based optimisation under steady-state constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate-data", help="generate synthetic dose-response data"
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--noise-var", type=float, default=0.01)
    p_gen.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_val = sub.add_parser("validate", help="check model Jacobians against finite differences")
    p_val.add_argument(
        "--problem", choices=bench_mod.PROBLEMS, default="conversion_reaction"
    )
    p_val.add_argument("--samples", type=int, default=100)
    p_val.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="one optimiser-flow run from a sampled start")
    _add_common_flags(p_run)
    p_run.add_argument("--lambda", dest="lam", type=float, default=20.0)
    p_run.add_argument("--start-index", type=int, default=0)

    p_bench = sub.add_parser("bench", help="multistart comparison across methods")
    _add_common_flags(p_bench)
    p_bench.add_argument(
        "--method",
        action="append",
        choices=bench_mod.METHODS,
        default=None,
        help="repeatable; default: all methods",
    )
    p_bench.add_argument(
        "--lambda",
        dest="lam",
        action="append",
        type=float,
        default=None,
        help="repeatable; retraction factors for the flow method",
    )

    args = parser.parse_args(argv)

    if args.command == "generate-data":
        try:
            config = default_config("ngf_erk", seed=args.seed, noise_var=args.noise_var)
        except ValueError as exc:
            p_gen.error(str(exc))
        problem = bench_mod._build_problem(config)
        payload = {
            "seed": args.seed,
            "noise_var": args.noise_var,
            "inputs": list(problem.inputs),
            "data": [float(v) for v in problem.data],
        }
        text = json.dumps(payload, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return 0

    if args.command == "validate":
        config = default_config(args.problem)
        model = bench_mod._build_problem(config).model()
        try:
            report = validate_model(model, n_samples=args.samples, seed=args.seed)
        except ValueError as exc:
            p_val.error(str(exc))
        print(f"model: {model.name}")
        print(f"max rel err jac_x:     {report.max_rel_err_jac_x:.3e}")
        print(f"max rel err jac_theta: {report.max_rel_err_jac_theta:.3e}")
        for failure in report.failures:
            print(f"failure: {failure}")
        ok = report.ok()
        print("PASS" if ok else "FAIL")
        return 0 if ok else 1

    if args.command == "run":
        config = _merged_config(p_run, args, {"lambdas": (args.lam,)})
        bundle = bench_mod._build_problem(config)
        starts = sample_starts(config, bundle)
        idx = args.start_index
        if not (0 <= idx < len(starts)):
            print(f"start index {idx} out of range", file=sys.stderr)
            return 2
        problem = bundle.flow_problem(bench_mod._flow_config(config, args.lam))
        result = run_flow(problem, starts[idx])
        payload = {
            "lambda": args.lam,
            "theta": [float(v) for v in result.final.theta],
            "objective": result.objective,
            "manifold_residual": result.manifold_residual,
            "converged": result.converged,
            "reason": result.reason.value,
            "rhs_evals": result.rhs_evals,
            "discarded_evals": result.discarded_evals,
            "steps_accepted": result.steps_accepted,
            "steps_rejected": result.steps_rejected,
            "jacobian_evals": result.jacobian_evals,
            "min_step": result.min_step if result.steps_accepted else None,
            "max_step": result.max_step if result.steps_accepted else None,
            "wall_time": result.wall_time,
        }
        print(json.dumps(payload, indent=2))
        return 0

    if args.command == "bench":
        extra = {}
        if args.method:
            extra["methods"] = tuple(args.method)
        if args.lam:
            extra["lambdas"] = tuple(args.lam)
        config = _merged_config(p_bench, args, extra)
        try:
            bench_mod.worker_count()
        except ValueError as exc:
            p_bench.error(str(exc))
        summary, records = run_bench(config)
        out_dir = config.output_dir or "bench_out"
        runs_path, summary_path = emit(summary, records, out_dir)
        for label, stats in summary["methods"].items():
            tpc = stats["time_per_converged_start"]
            tpc_s = f"{tpc:.3f}s" if tpc is not None else "n/a"
            reasons = ", ".join(f"{n} {reason}" for reason, n in stats["reasons"].items())
            print(
                f"{label}: {stats['n_converged']}/{stats['n_runs']} converged "
                f"({stats['fraction_converged']:.0%}), "
                f"time/converged start {tpc_s}; stopped: {reasons}"
            )
        print(f"wrote {runs_path} and {summary_path}")
        return 0

    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
