"""Paths and process settings shared by the benchmark's scripts.

The benchmark runs from the root of a source checkout and imports the
package from ``src/`` there; it never relies on an installed copy.
"""

import os
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
BENCH_DIR = Path(__file__).resolve().parent

# Workload processes may use at most this many threads (the reference
# machine has 2 cores).
MAX_THREADS = "2"


class CheckoutError(RuntimeError):
    """The working directory is not a checkout holding the package source."""


def require_checkout():
    """Fail unless ``src/couponcollector`` exists under the working directory."""
    if not (SRC / "couponcollector" / "__init__.py").is_file():
        raise CheckoutError(
            f"no package source at {SRC / 'couponcollector'}; run from the "
            f"root of a checkout"
        )


def child_env() -> dict:
    """Environment for a benchmark child process.

    The package comes from the checkout's ``src``; native thread pools are
    capped; ``COUPONCOLLECTOR_WORKERS`` is removed so the CLI's default
    worker count is what gets measured.
    """
    env = dict(os.environ)
    env.pop("COUPONCOLLECTOR_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = MAX_THREADS
    return env
