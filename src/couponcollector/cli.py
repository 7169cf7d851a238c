"""Command-line front end: exact values, simulations, and sweep CSVs.

Exit codes: 0 success, 2 input or validation error, 3 computational
error (capacity exceeded or impossible collection). All numbers are
printed with 17 significant digits so output is byte-reproducible and
round-trips through float parsing.
"""

import argparse
import csv
import dataclasses
import functools
import io
import json
import os
import sys

from .engine import (
    DEFAULT_EXACT_CAP,
    inclusion_exclusion_expectation,
    sampling_expectation,
)
from .errors import CapacityError, DivergenceError, InputError
from .models import (
    Population,
    WithoutReplacement,
    load_model,
    mandelbrot_weights,
    population_from_weights,
)
from ._spans import usable_cpus
from .oracle import DEFAULT_TRIALS, simulate_collection

WORKERS_ENV = "COUPONCOLLECTOR_WORKERS"

DEFAULT_G_SWEEP_COUNTS = (10, 100, 500, 1000)
MANDELBROT_C = 0.30
MANDELBROT_THETA = 1.75


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _workers() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return usable_cpus()
    try:
        return max(1, int(raw))
    except ValueError:
        raise InputError(f"{WORKERS_ENV} must be an integer (got {raw!r})") from None


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InputError(f"{flag} expects an inclusive range like 2..10")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise InputError(f"{flag} expects integer bounds (got {text!r})") from None
    if lo_i > hi_i:
        raise InputError(f"{flag} bounds out of order: {text!r}")
    return lo_i, hi_i


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_exact(args) -> int:
    model = load_model(args.model)
    result = inclusion_exclusion_expectation(
        model, exact_cap=args.exact_cap, workers=_workers()
    )
    if args.json:
        text = json.dumps(dataclasses.asdict(result), indent=2) + "\n"
    else:
        text = (
            f"value = {_fmt(result.value)}\n"
            f"terms_evaluated = {result.terms_evaluated}\n"
            f"cancellation_ratio = {_fmt(result.cancellation_ratio)}\n"
        )
    _emit(text, args.out)
    return 0


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    estimate = simulate_collection(
        model, trials=args.trials, seed=args.seed, workers=_workers()
    )
    if args.json:
        text = json.dumps(dataclasses.asdict(estimate), indent=2) + "\n"
    else:
        text = (
            f"mean = {_fmt(estimate.mean)}\n"
            f"std_error = {_fmt(estimate.std_error)}\n"
            f"ci95 = [{_fmt(estimate.ci_low)}, {_fmt(estimate.ci_high)}]\n"
            f"trials = {estimate.trials}\n"
            f"seed = {estimate.seed}\n"
        )
    _emit(text, args.out)
    return 0


def _write_csv(description: str, seed, header, rows, out_path):
    buf = io.StringIO()
    buf.write(f"# model: {description}\n")
    buf.write(f"# seed: {seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out_path)


def _g_sweep(args) -> int:
    if args.model:
        model = load_model(args.model)
        if not isinstance(model, WithoutReplacement):
            raise InputError(
                "g-sweep needs a without_replacement model (a population)"
            )
        population = model.population
    else:
        population = Population(DEFAULT_G_SWEEP_COUNTS)
    lo, hi = _parse_range(args.g_range, "--g-range")
    if lo < 1 or hi > population.total:
        raise InputError(
            f"--g-range must stay within 1..N={population.total} (got {lo}..{hi})"
        )
    # single arrivals are samples of size 1
    baseline = sampling_expectation(population, 1, exact_cap=args.exact_cap).value
    rows = []
    for g in range(lo, hi + 1):
        result = sampling_expectation(population, g, exact_cap=args.exact_cap)
        rows.append(
            [
                g,
                _fmt(result.value),
                _fmt(g * result.value),
                _fmt(baseline),
                _fmt(result.cancellation_ratio),
            ]
        )
    header = [
        "g",
        "exact_groups",
        "exact_individuals",
        "single_arrival_individuals",
        "cancellation_ratio",
    ]
    description = f"without_replacement(counts={population.counts}), g={lo}..{hi}"
    _write_csv(description, args.seed, header, rows, args.out)
    return 0


def _m_sweep(args) -> int:
    lo, hi = _parse_range(args.m_range, "--m-range")
    if lo < 1:
        raise InputError(f"--m-range must start at 1 or above (got {lo}..{hi})")
    total = args.population_size
    group_size = 2
    workers = _workers()
    rows = []
    for m in range(lo, hi + 1):
        weights = mandelbrot_weights(m, MANDELBROT_C, MANDELBROT_THETA)
        population = population_from_weights(weights, total)
        model = WithoutReplacement(population, group_size)
        # a row the engine cannot answer (above the cap, or past its class
        # bound) keeps its simulation and leaves the exact cell empty
        try:
            exact_cell = _fmt(
                inclusion_exclusion_expectation(model, exact_cap=args.exact_cap).value
            )
        except CapacityError:
            exact_cell = ""
        estimate = simulate_collection(
            model, trials=args.trials, seed=args.seed, workers=workers
        )
        rows.append(
            [
                m,
                exact_cell,
                _fmt(estimate.mean),
                _fmt(estimate.ci_low),
                _fmt(estimate.ci_high),
                estimate.trials,
                estimate.seed,
            ]
        )
    header = ["m", "exact_groups", "sim_mean", "sim_ci_low", "sim_ci_high", "trials", "seed"]
    description = (
        f"without_replacement(mandelbrot c={MANDELBROT_C} theta={MANDELBROT_THETA} "
        f"N={total}), g={group_size}, m={lo}..{hi}"
    )
    _write_csv(description, args.seed, header, rows, args.out)
    return 0


def cmd_figure(args) -> int:
    if args.name == "g-sweep":
        return _g_sweep(args)
    return _m_sweep(args)


# built on the first call and reused: a parse returns a fresh namespace, and
# help and usage errors find sys.stdout, sys.stderr and the terminal width
# only when they print, so repeated in-process calls stay independent
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couponcollector",
        description=(
            "Exact and simulated expected completion times for coupon "
            "collection with group arrivals"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exact = sub.add_parser("exact", help="exact expectation for a model file")
    exact.add_argument("--model", required=True, help="model JSON file")
    exact.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP)
    exact.add_argument("--json", action="store_true")
    exact.add_argument("--out", default=None)
    exact.set_defaults(func=cmd_exact)

    sim = sub.add_parser("simulate", help="Monte Carlo estimate for a model file")
    sim.add_argument("--model", required=True, help="model JSON file")
    sim.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--json", action="store_true")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=cmd_simulate)

    figure = sub.add_parser("figure", help="emit a parameter-sweep CSV")
    figure.add_argument("name", choices=["g-sweep", "m-sweep"])
    figure.add_argument("--model", default=None, help="model JSON file (g-sweep)")
    figure.add_argument("--g-range", default="1..15")
    figure.add_argument("--m-range", default="5..20")
    figure.add_argument("--population-size", type=int, default=1000)
    figure.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP)
    figure.add_argument("--out", default=None)
    figure.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():  # console-script wrapper
    sys.exit(main())
