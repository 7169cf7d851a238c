"""Shared helpers: a seeded generator of valid, collectable random models,
and a recorder of the simulator's worker pools."""

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
    """Make the simulator see ``cpus`` usable CPUs and build stub pools that
    run each span at submit and start no worker; the returned list collects
    ("threads" or "processes", max_workers) for each pool made."""
    made = []

    def inline(kind):
        class Inline:
            def __init__(self, max_workers, mp_context=None):
                made.append((kind, max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        return Inline

    monkeypatch.setattr(oracle, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(oracle, "ThreadPoolExecutor", inline("threads"))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline("processes"))
    return made
