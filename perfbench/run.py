"""The couponcollector benchmark: one workload, timed, checked and reported.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed (``inputs.py``) and
written as model files under ``perfbench/out/``. Set-up is timed over
several fresh interpreters that import the package and load the model
files. One more fresh process (``worker.py``) then runs passes of the
workload's ops against the CLI and the library for about S seconds.

Every op is checked: exit code 0; ``exact`` within its tolerance of its
reference (``references.py``): 1e-12 relative error, or unit roundoff
times the sum's condition number where that is larger; ``chain`` within
1e-12 of ``exact``; the ``simulate`` mean within 4 standard errors of the
reference; and each op's stdout byte-identical in every pass, traced or
not.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run (see ``tracing.py``) together with the
tracing overhead. Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import inputs
import references
from common import (
    BENCH_DIR,
    BENCHMARK,
    OUT,
    SRC,
    CheckoutError,
    child_env,
    require_checkout,
)

SETUP_PROBES_EACH_SIDE = 5  # set-up probes before and after the workload
WORKER_TIMEOUT_S = 150
REL_TOL = 1e-12
UNIT_ROUNDOFF = 2.0**-53
SIM_SIGMAS = 4.0


def _run_worker(spec_path, result_path, mode, seconds) -> float:
    """Run one worker to completion; return seconds from spawn to ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path),
         str(result_path), mode, str(seconds)],
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=WORKER_TIMEOUT_S)
        code = proc.returncode
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{mode} worker failed (exit {code})")
    return ready


def _value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        name, sep, rest = line.partition(" = ")
        if sep and name == key:
            return float(rest)
    raise ValueError(f"no {key!r} line in output")


class Checker:
    """Checks op outputs and counts attempted and failed ops."""

    def __init__(self, spec, refs):
        self.spec = spec
        self.refs = refs
        self.first_stdout = {}
        self.attempted = 0
        self.failed = 0
        self.rel_errors = []
        self.sim_trials = 0
        self.sim_seconds = 0.0
        self.problems = []

    def check_pass(self, ops):
        exact = {}
        for op, rec in zip(self.spec["ops"], ops):
            self.attempted += 1
            try:
                problem = self._problem(op, rec, exact)
            except ValueError as exc:
                problem = str(exc)
            if problem:
                self.failed += 1
                self.problems.append(f"{op['id']}: {problem}")

    def _problem(self, op, rec, exact) -> str | None:
        if rec["code"] != 0:
            return f"exit code {rec['code']}"
        out = rec["stdout"]
        if self.first_stdout.setdefault(op["id"], out) != out:
            return "stdout differs from the first pass"
        ref = self.refs[op["model"]].value
        if op["kind"] == "exact":
            value = _value(out, "value")
            exact[op["model"]] = value
            err = references.relative_error(value, ref)
            if isinstance(ref, Fraction):
                self.rel_errors.append(err)
            tol = exact_tolerance(self.refs[op["model"]])
            if not err <= tol:
                return f"relative error {err:.3g} against the reference (tolerance {tol:.3g})"
        elif op["kind"] == "chain":
            value = float(out)
            against = exact.get(op["model"], ref)
            err = references.relative_error(value, against)
            if not err <= REL_TOL:
                return f"chain differs from exact by {err:.3g}"
        else:
            mean, std_error = _value(out, "mean"), _value(out, "std_error")
            trials = int(_value(out, "trials"))
            self.sim_trials += trials
            self.sim_seconds += rec["seconds"]
            if not abs(mean - float(ref)) <= SIM_SIGMAS * std_error:
                return f"mean {mean!r} is over {SIM_SIGMAS} SE from {float(ref)!r}"
        return None


def exact_tolerance(ref: references.Reference) -> float:
    """Relative error an ``exact`` op may have against ``ref``.

    1e-12, unless the alternating sum is so ill-conditioned that a float64
    evaluation of it cannot promise that: its terms carry rounding errors of
    about unit roundoff, which the sum magnifies by its condition number
    (the cancellation ratio the engine reports).
    """
    return max(REL_TOL, UNIT_ROUNDOFF * ref.condition)


def _prepare(workload, seed) -> tuple[dict, Path]:
    spec = inputs.build(workload, seed)
    run_dir = OUT / f"{workload}-seed{seed}"
    (run_dir / "models").mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, law in spec["models"].items():
        path = run_dir / "models" / f"{name}.json"
        path.write_text(json.dumps(law) + "\n", encoding="utf-8")
        paths[name] = str(path)
    worker_spec = {
        "ops": spec["ops"],
        "paths": paths,
        "spans_path": str(run_dir / "spans.jsonl"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(worker_spec), encoding="utf-8")
    return spec, run_dir


def main() -> int:
    parser = argparse.ArgumentParser(description="couponcollector benchmark")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        require_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec, run_dir = _prepare(args.workload, args.seed)
    spec_path = run_dir / "spec.json"
    result_path = run_dir / "result.json"
    refs = {name: references.reference(desc) for name, desc in spec["refs"].items()}

    # Set-up probes run before and after the workload process, so their
    # median is not taken from one short stretch of machine load.
    probes = 0 if args.trace else SETUP_PROBES_EACH_SIDE
    setup = [_run_worker(spec_path, result_path, "setup", 0) for _ in range(probes)]
    _run_worker(spec_path, result_path, "trace" if args.trace else "run", args.seconds)
    setup += [_run_worker(spec_path, result_path, "setup", 0) for _ in range(probes)]
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {result['package']}, not the checkout's", file=sys.stderr)
        return 2

    checker = Checker(spec, refs)
    for p in result["passes"] + result.get("traced_passes", []):
        checker.check_pass(p["ops"])
    if args.trace and not result["workers_agree"]:
        checker.attempted += 1
        checker.failed += 1
        checker.problems.append("simulate estimates differ between 1 and 2 workers")
    for problem, times in Counter(checker.problems).items():
        print(f"check failed ({times}x): {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(spec['ops'])} ops per pass")
    pass_times = [p["seconds"] for p in result["passes"]]
    pass_s = statistics.median(pass_times)
    print(f"  pass_s        {pass_s:.4f} s  (median of {len(pass_times)}; "
          f"min {min(pass_times):.4f}, max {max(pass_times):.4f})")
    if args.trace:
        values = _trace_report(result, pass_s, run_dir)
    else:
        values = _run_report(result, pass_s, setup, checker)
    print(f"  error_rate    {checker.failed / checker.attempted:.4f}  "
          f"({checker.failed} of {checker.attempted} ops)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": _declared(values, "per_layer" if args.trace else "end_to_end"),
    }))
    return 0


def _run_report(result, pass_s, setup, checker) -> dict:
    setup_s = statistics.median(setup)
    rss = result["peak_rss_mb"]
    print(f"  setup_s       {setup_s:.4f} s  (median of {len(setup)} fresh processes)")
    print(f"  peak_rss_mb   {rss:.1f} MB")
    if checker.sim_seconds:
        rate = checker.sim_trials / checker.sim_seconds
        print(f"  trials_per_s  {rate:.1f} 1/s  ({checker.sim_trials} trials)")
    else:
        print("  trials_per_s  n/a (no simulate ops)")
    if checker.rel_errors:
        print(f"  rel_err_max   {max(checker.rel_errors):.3e}  "
              f"({len(checker.rel_errors)} exact ops against rational references)")
    else:
        print("  rel_err_max   n/a (no exact ops with a rational reference)")
    return {"pass_s": pass_s, "peak_rss_mb": rss, "setup_s": setup_s}


def _trace_report(result, pass_s, run_dir) -> dict:
    layers = dict(result["layers"])
    traced = [p["seconds"] for p in result["traced_passes"]]
    layers["trace.untraced_pass_s"] = pass_s
    layers["trace.traced_pass_s"] = statistics.median(traced)
    layers["trace.overhead_s"] = layers["trace.traced_pass_s"] - pass_s
    print(f"  traced pass_s {layers['trace.traced_pass_s']:.4f} s  (median of {len(traced)})")
    print(f"  spans written to {run_dir / 'spans.jsonl'}")
    for name, value in layers.items():
        print(f"  {name:36s} {value:.6g}")
    return layers


def _declared(values: dict, section: str) -> dict:
    """The metrics of one BENCHMARK.json section, in its order and units."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))[section]
    mismatch = set(values) ^ {m["name"] for m in declared}
    if mismatch:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(mismatch)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    sys.exit(main())
