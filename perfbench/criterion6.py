"""Time acceptance criterion 6's NGF bench on one worker.

Runs the configuration of tests/test_acceptance.py (NGF/Erk, 100 starts,
seed 0, all three methods, flow at lambda 20, integrator tolerances 1e-4 /
1e-6) through bench.run_bench with SSFLOW_WORKERS=1 and prints one JSON
object: total wall time, per-method summary and the environment.

    python3 perfbench/criterion6.py
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import envinfo  # noqa: E402

envinfo.configure()  # before numpy is imported


def main():
    envinfo.import_package()
    from ssflow import bench

    config = bench.default_config(
        "ngf_erk",
        n_starts=100,
        seed=0,
        lambdas=(20.0,),
        integrator_rel_tol=1e-4,
        integrator_abs_tol=1e-6,
    )
    t0 = time.perf_counter()
    summary, _ = bench.run_bench(config)
    elapsed = time.perf_counter() - t0
    methods = {
        label: {
            key: stats[key]
            for key in (
                "n_runs",
                "n_converged",
                "fraction_converged",
                "total_wall_time",
                "median_wall_time",
                "time_per_converged_start",
            )
        }
        for label, stats in summary["methods"].items()
    }
    print(
        json.dumps(
            {
                "wall_s": elapsed,
                "bound_s": 300.0,
                "methods": methods,
                "environment": envinfo.environment(seed=0),
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
