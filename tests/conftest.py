"""Shared helpers: a seeded generator of valid, collectable random models,
and recorders of the span runner's spans and process pools."""

import concurrent.futures
import math

import numpy as np

from couponcollector import (
    DraftLottery,
    IidWithinGroup,
    Population,
    UniformDistinct,
    WeightedDistinct,
    WithoutReplacement,
)
import couponcollector.cli as cli
import couponcollector._spans as _spans
import couponcollector.oracle as oracle


def random_model(rng: np.random.Generator, max_m: int = 10, max_g: int = 4):
    """One random model drawn from all five variants.

    Probability entries are bounded away from zero so every type is
    collectable and expectations are finite.
    """
    kind = int(rng.integers(0, 5))
    if kind == 0:
        m = int(rng.integers(2, max_m + 1))
        g = int(rng.integers(1, min(max_g, m - 1) + 1))
        return UniformDistinct(m, g)
    if kind == 1:
        m = int(rng.integers(2, max_m + 1))
        g = int(rng.integers(1, min(max_g, m - 1) + 1))
        w = rng.uniform(0.1, 1.0, size=math.comb(m, g))
        return WeightedDistinct(m, g, tuple(w / w.sum()))
    if kind == 2:
        m = int(rng.integers(1, max_m + 1))
        g = int(rng.integers(1, max_g + 1))
        p = rng.uniform(0.1, 1.0, size=m)
        return IidWithinGroup(tuple(p / p.sum()), g)
    if kind == 3:
        m = int(rng.integers(1, max_m + 1))
        counts = tuple(int(c) for c in rng.integers(1, 7, size=m))
        g = int(rng.integers(1, min(max_g, sum(counts)) + 1))
        return WithoutReplacement(Population(counts), g)
    m = int(rng.integers(2, max_m + 1))
    g = int(rng.integers(1, min(max_g, m - 1) + 1))
    p = rng.uniform(0.1, 1.0, size=m)
    return DraftLottery(tuple(p / p.sum()), g)


def record_pools(monkeypatch, cpus: int) -> list:
    """Make the span runner and the CLI see ``cpus`` usable CPUs, and build
    stub process pools that run their initializer at once and each span at
    submit, and fork nothing; the returned list collects the max_workers of
    each pool made."""
    made = []

    class Inline:
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            made.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            # a failed span raises at its result, as in a real pool
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(_spans, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    return made


def fork_pools(monkeypatch, cpus: int) -> list:
    """Make the span runner and the CLI see ``cpus`` usable CPUs; the
    returned list collects the max_workers of each real, forking process
    pool made."""
    made = []
    make = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, **kwargs):
        made.append(max_workers)
        return make(max_workers, **kwargs)

    monkeypatch.setattr(_spans, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return made


def record_spans(monkeypatch, cpus: int) -> tuple[list, list]:
    """``record_pools``, with a ``_simulate_range`` that draws nothing;
    returns the lists that collect the length of each span and the
    max_workers of each pool made."""
    spans = []

    def fake_range(model, lo, hi, seed, max_draws):
        spans.append(hi - lo)
        return np.full(hi - lo, 7, dtype=np.int64)

    made = record_pools(monkeypatch, cpus)
    monkeypatch.setattr(oracle, "_simulate_range", fake_range)
    return spans, made
