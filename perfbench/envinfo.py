"""Process environment for the benchmark: one worker, one BLAS thread, and the
package imported from this checkout's ``src/``.

``configure()`` must run before numpy is imported; ``environment()`` returns
the block recorded with every result.
"""

import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "ssflow")

WORKERS_ENV = "SSFLOW_WORKERS"
THREAD_ENVS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def configure():
    """One worker and one BLAS thread, and ``<root>/src`` first on sys.path.

    The benchmark measures the single-worker path; a pool or BLAS threads
    would make results depend on spare cores on a shared machine.
    """
    for name in (WORKERS_ENV, *THREAD_ENVS):
        os.environ[name] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


class MissingPackage(RuntimeError):
    """The ssflow sources are not in this checkout."""


def import_package():
    """Import ssflow from ``<root>/src`` and refuse any other copy."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        raise MissingPackage(f"no ssflow package under {SRC}")
    import ssflow

    found = os.path.dirname(os.path.abspath(ssflow.__file__))
    if found != PACKAGE_DIR:
        raise MissingPackage(f"ssflow imported from {found}, expected {PACKAGE_DIR}")
    return ssflow


def source_digest():
    """sha256 over the package sources, so a result names the exact code
    even in a checkout without git metadata."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        WORKERS_ENV: os.environ.get(WORKERS_ENV),
        **{name: os.environ.get(name) for name in THREAD_ENVS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }
