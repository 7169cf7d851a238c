"""One workload process: import the package, load the models, run timed passes.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/worker.py SPEC RESULT MODE SECONDS

SPEC is the JSON written by ``run.py`` (model file paths and ops). The
worker prints ``ready`` once the package is imported and every model
file is loaded; ``run.py`` times set-up up to that line. MODE is

- ``setup``: stop there;
- ``run``: time untraced passes for about SECONDS;
- ``trace``: for about SECONDS, alternate an untraced and a traced pass,
  so that drift in machine speed falls on both alike; then run each
  ``simulate`` op once more through the library with 1 and with 2
  workers, traced, and write the spans.

Each pass runs every op once, in order, in this process: CLI ops call
``cli.main`` with stdout captured, ``chain`` ops call the library. The
result file holds each op's wall time, exit code and stdout, and the
process's peak RSS.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import couponcollector
from couponcollector import cli, models, oracle



def _run_op(op, path, tracer) -> dict:
    if tracer is not None:
        tracer.op = op["id"]
    out = io.StringIO()
    start = time.perf_counter()
    try:
        if op["kind"] == "chain":
            solution = oracle.chain_expectation(models.load_model(path))
            out.write(f"{solution.expected_from_empty!r}\n")
            code = 0
        else:
            argv = [op["kind"], "--model", path]
            if "trials" in op:
                argv += ["--trials", str(op["trials"])]
            if "seed" in op:
                argv += ["--seed", str(op["seed"])]
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
    except Exception:  # an op that crashes counts as failed; keep measuring
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    return {"id": op["id"], "seconds": seconds, "code": code, "stdout": out.getvalue()}


def _pass(spec, tracer=None) -> dict:
    start = time.perf_counter()
    ops = [_run_op(op, spec["paths"][op["model"]], tracer) for op in spec["ops"]]
    return {"seconds": time.perf_counter() - start, "ops": ops}


def _repeat(round_fn, budget: float, minimum: int) -> list:
    """Call ``round_fn`` at least ``minimum`` times, then until another
    call would overrun ``budget`` seconds."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(round_fn())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(results) >= minimum and elapsed + statistics.median(durations) > budget:
            return results


def _workers_speedup(spec, tracer) -> tuple[float, bool]:
    """Traced time of each simulate op at workers=1 over workers=2.

    Also reports whether both worker counts gave the same estimate.
    """
    one = two = 0.0
    same = True
    for op in spec["ops"]:
        if op["kind"] != "simulate":
            continue
        model = models.load_model(spec["paths"][op["model"]])
        estimates = []
        for workers in (1, 2):
            tracer.op = f"workers{workers}:{op['id']}"
            start = time.perf_counter()
            estimates.append(
                oracle.simulate_collection(
                    model,
                    trials=op.get("trials", oracle.DEFAULT_TRIALS),
                    seed=op["seed"],
                    workers=workers,
                )
            )
            elapsed = time.perf_counter() - start
            if workers == 1:
                one += elapsed
            else:
                two += elapsed
        same = same and estimates[0] == estimates[1]
    return (one / two if two else 0.0), same


def main() -> int:
    spec_path, result_path, mode, seconds = sys.argv[1:5]
    seconds = float(seconds)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for path in spec["paths"].values():
        models.load_model(path)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    result = {"package": couponcollector.__file__}
    if mode == "run":
        # two passes at least, so that their stdout can be compared
        result["passes"] = _repeat(lambda: _pass(spec), seconds, 2)
    else:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()

        def paired_round():
            plain = _pass(spec)
            tracer.install()
            try:
                return plain, _pass(spec, tracer)
            finally:
                tracer.restore()

        rounds = _repeat(paired_round, seconds, 1)
        tracer.install()
        try:
            speedup, same = _workers_speedup(spec, tracer)
        finally:
            tracer.restore()
        tracer.write(spec["spans_path"])
        op_ids = {op["id"] for op in spec["ops"]}
        result["passes"] = [plain for plain, _ in rounds]
        result["traced_passes"] = [traced for _, traced in rounds]
        result["layers"] = layer_metrics(tracer.spans, op_ids, len(rounds))
        result["layers"]["oracle.workers2_speedup"] = speedup
        result["workers_agree"] = same
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
