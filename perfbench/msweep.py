"""Ungated reference timing of the default ``figure m-sweep``.

Runs ``couponcollector figure m-sweep`` with its defaults (m = 5..20,
1e5 trials, seed 0) in a fresh interpreter per sample and prints the
wall-clock median with the sample count as JSON. Usage, from the root
of a checkout:

    python3 perfbench/msweep.py
"""

import json
import statistics
import subprocess
import sys
import time

from common import OUT, child_env, require_checkout

SAMPLES = 3
CLI = "import sys; from couponcollector.cli import main; sys.exit(main(sys.argv[1:]))"


def main() -> int:
    require_checkout()
    OUT.mkdir(parents=True, exist_ok=True)
    csv_path = OUT / "msweep.csv"
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", CLI, "figure", "m-sweep", "--out", str(csv_path)],
            env=child_env(),
            check=True,
        )
        times.append(time.perf_counter() - start)
    print(json.dumps({
        "command": "couponcollector figure m-sweep",
        "median_s": statistics.median(times),
        "samples": len(times),
        "times_s": times,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
