"""Shared helpers: a seeded generator of valid, collectable random models,
and recorders of the span runner's spans and forked children."""

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


def stub_forks(monkeypatch, cpus: int) -> list:
    """Make the span runner and the CLI see ``cpus`` usable CPUs, and
    replace its forked children with stubs that run their span at once, in
    the caller, and fork nothing; the returned list collects the number of
    children of each call that forks."""
    made = []

    class Inline:
        def __init__(self, span, model, lo, hi, args):
            # a failed span raises at its result, as a forked child's does
            try:
                self.outcome = True, span(model, lo, hi, *args)
            except Exception as exc:
                self.outcome = False, exc

        def result(self):
            ok, value = self.outcome
            if not ok:
                raise value
            return value

        def end(self):
            pass

    def fork_spans(span, model, bounds, args):
        made.append(len(bounds) - 2)
        spans = zip(bounds[1:-1], bounds[2:])
        return [Inline(span, model, lo, hi, args) for lo, hi in spans]

    monkeypatch.setattr(_spans, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_spans, "_fork_spans", fork_spans)
    return made


def spy_forks(monkeypatch, cpus: int) -> list:
    """Make the span runner and the CLI see ``cpus`` usable CPUs; the
    returned list collects the number of children that each call which
    forks really forks."""
    made = []
    fork = _spans._fork_spans

    def spy(span, model, bounds, args):
        children = fork(span, model, bounds, args)
        made.append(len(children))
        return children

    monkeypatch.setattr(_spans, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(_spans, "_fork_spans", spy)
    return made


def record_spans(monkeypatch, cpus: int) -> tuple[list, list]:
    """``stub_forks``, with a ``_simulate_range`` that draws nothing;
    returns the lists that collect the length of each span and the number
    of children of each call that forks."""
    spans = []

    def fake_range(model, lo, hi, seed, max_draws):
        spans.append(hi - lo)
        return np.full(hi - lo, 7, dtype=np.int64)

    made = stub_forks(monkeypatch, cpus)
    monkeypatch.setattr(oracle, "_simulate_range", fake_range)
    return spans, made
