"""Two independent checks of the exact engine.

``simulate_collection`` plays the collection process with a seeded,
counter-based generator (see ``_philox``) so results are bit-identical
across runs and across worker counts: trial t always reads the Philox
stream keyed by (seed, trial index), regardless of scheduling.

``chain_expectation`` solves the absorbing chain over collected-type
subsets exactly. Its transition law is built by direct enumeration of
group contents (combinations, permutations, multiset patterns), sharing
no code with the avoidance-probability formulas it is used to check.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

from ._bits import mask_of, subset_sums, types_of
from ._philox import uniform_span
from ._spans import _run_spans
from .errors import CapacityError, DivergenceError, InputError
from .models import (
    DraftLottery,
    GroupModel,
    IidWithinGroup,
    UniformDistinct,
    WeightedDistinct,
    WithoutReplacement,
    _check_collectable,
    _integer,
    _type_bits,
)

DEFAULT_TRIALS = 100_000
DEFAULT_MAX_DRAWS = 10_000_000
CHAIN_STATE_CAP = 20

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate of the expected number of groups."""

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int


@dataclass(frozen=True)
class ChainSolution:
    """Exact expected remaining groups from every collected-type state.

    ``state_values`` is indexed by the bitmask of already-collected types;
    the full-set entry is 0 and the empty-set entry is the answer.
    """

    expected_from_empty: float
    state_values: np.ndarray


# Trials are simulated in tiles, and each trial reads its stream in fills of
# whole spans. A span's first tile starts its trials with fills of
# _FILL_MIN_DRAWS draws; each later tile starts them with the mean draw count
# of the tiles before it, rounded up to whole passes, and every later fill
# reads as many draws as the trial has done. Fills are clamped to
# [_FILL_MIN_DRAWS, _FILL_MAX_DRAWS] draws, so a tile's fills hold at most
# _BATCH_ELEMENTS uniforms. A fill costs about 1.2-2.5 us per trial (the
# state setter and the Generator.random call) on top of 7-10 ns per uniform,
# so most trials should finish within one fill, and a short trial should
# not read a long one. On without_replacement at m=20, g=2 (Mandelbrot,
# N=1000; 269 draws per trial on average, median 241), 1e5 trials in one
# span made 3.42 fills and 773 uniforms per trial in 3.4 s with fills that
# start at 64 draws and double, and make 1.39 fills and 805 uniforms in
# 2.1 s (medians of 8 alternating runs, 2-core machine). A first fill of
# a fixed 256 draws would waste uniforms on every short-trial model, such
# as the m=12 models of about 12 draws per trial. The fills are mapped to
# groups in lockstep passes of _PASS_DRAWS draws, so a finished trial stops
# costing group draws within _PASS_DRAWS of its end. Passes that widen as
# trials finish, to tile * _PASS_DRAWS // active draws, were no faster on
# that urn and slower on the m=12 models (paired runs of each).
_BATCH_ELEMENTS = 1 << 19
_FILL_MIN_DRAWS = 64
_FILL_MAX_DRAWS = 512
_PASS_DRAWS = 32

# Each span of a forked simulation gets at least this many trials (see
# ``_run_spans``). Measured with two workers on a 2-core machine (medians of
# 11 alternating calls, one span against two, the caller running one of
# them): a forked child costs about 2.7 ms against the caller's one span of
# trivial work. weighted_distinct at m=12, g=3, the cheapest trials (about
# 12 one-uniform draws, 5.5 us a trial), loses at 2000 trials per span
# (13.4 against 10.6 ms) and gains at 3000 (18.7 against 26.0 ms);
# without_replacement on counts (10, 100, 500, 1000), g=2, gains from 1000
# (16 against 23 ms). The traced two-worker simulation of 4000 trials in
# ``perfbench/tests`` expects one span, so this stays above 2000.
_PROCESS_MIN_TRIALS = 3000

# The chain solves a level's states in chunks of about this many (state,
# group content) pairs, so the chunk's temporaries stay small. Five m=12,
# g=3 chains (one per model, medians of 7 calls, 2-core machine) took
# 45-53 ms in chunks of 2**12, 26-35 ms in chunks of 2**14, 34-40 ms in
# chunks of 2**16 and 37-48 ms in chunks of 2**18; the process's peak RSS
# rose by 0.5, 0.5, 1.8 and 6.0 MB. Solving one state at a time took 293 ms.
_CHAIN_CHUNK_ELEMENTS = 1 << 14


def _simulate_range(
    model: GroupModel, lo: int, hi: int, seed: int, max_draws: int
) -> np.ndarray:
    """Group counts for trials lo .. hi-1, one tile of trials at a time,
    each tile's first fill sized from the tiles before it."""
    tile = max(1, _BATCH_ELEMENTS // (_FILL_MAX_DRAWS * model.uniforms_per_group))
    counts = []
    first_fill, total = _FILL_MIN_DRAWS, 0
    for start in range(lo, hi, tile):
        stop = min(start + tile, hi)
        counts.append(_simulate_tile(model, start, stop, seed, max_draws, first_fill))
        total += int(counts[-1].sum())
        # the mean draw count so far, rounded up to whole passes
        passes = -(-total // ((stop - lo) * _PASS_DRAWS))
        first_fill = min(max(passes * _PASS_DRAWS, _FILL_MIN_DRAWS), _FILL_MAX_DRAWS)
    return np.concatenate(counts)


def _simulate_tile(
    model: GroupModel, lo: int, hi: int, seed: int, max_draws: int, first_fill: int
) -> np.ndarray:
    """Group counts for trials lo .. hi-1, advanced in lockstep passes.

    Group draws are independent of the collected state, so a pass of
    future draws can be made at once; a cumulative OR then locates each
    trial's completion round. Tile, fill and pass boundaries never affect
    results because every draw reads a fixed position of its trial's stream.
    The first fill reads ``first_fill`` draws per trial, at least
    ``_FILL_MIN_DRAWS``.
    """
    n = hi - lo
    per_draw = model.uniforms_per_group
    full = np.uint64((1 << model.m) - 1)
    trial_ids = np.arange(lo, hi, dtype=np.uint64)
    collected = np.zeros(n, dtype=np.uint64)
    draws = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    rounds_done = 0
    filled_to = 0
    while active.size:
        if rounds_done >= max_draws:
            raise DivergenceError(
                f"a trial exceeded the per-trial draw limit of {max_draws}; "
                f"the collection is likely impossible to complete"
            )
        if rounds_done == filled_to:
            fill = rounds_done or first_fill  # later, as many as the draws done
            fill = min(fill, _FILL_MAX_DRAWS, max_draws - rounds_done)
            filled = uniform_span(
                seed, trial_ids[active], rounds_done * per_draw, fill * per_draw
            ).reshape(active.size, fill, per_draw)
            rows = np.arange(active.size)  # row of filled per active trial
            filled_from, filled_to = rounds_done, rounds_done + fill
        batch = min(_PASS_DRAWS, filled_to - rounds_done)
        at = rounds_done - filled_from
        masks = model.draw_groups(filled[rows, at : at + batch].reshape(-1, per_draw))
        masks = masks.reshape(-1, batch)
        np.bitwise_or.accumulate(masks, axis=1, out=masks)
        state = collected[active, np.newaxis] | masks
        complete = state == full
        finished = complete.any(axis=1)
        if finished.any():
            at_round = complete.argmax(axis=1)
            draws[active[finished]] = rounds_done + at_round[finished] + 1
        collected[active] = state[:, -1]
        active = active[~finished]
        rows = rows[~finished]
        rounds_done += batch
    return draws


def _simulate_spans(
    model: GroupModel, trials: int, seed: int, workers: int, max_draws: int
) -> np.ndarray:
    """Group counts for trials 0 .. trials-1, in spans of at least
    ``_PROCESS_MIN_TRIALS`` trials (see ``_run_spans``)."""
    spans = _run_spans(
        _simulate_range, model, trials, _PROCESS_MIN_TRIALS, workers, seed, max_draws
    )
    return np.concatenate(spans)


def simulate_collection(
    model: GroupModel,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    workers: int = 1,
    max_draws: int | None = None,
) -> SimEstimate:
    """Estimate the expected number of groups by repeated seeded trials.

    Identical (model, trials, seed) always yields an identical estimate,
    because each trial owns a fixed generator stream. ``workers`` caps the
    processes the trials may run in, the caller's and its forked children:
    at most one per usable CPU, each with at least ``_PROCESS_MIN_TRIALS``
    trials, and only where no other Python thread runs and not on macOS;
    otherwise they run as one span.
    ``max_draws``, an integer of at least 1, caps the groups one trial may
    draw (default ``DEFAULT_MAX_DRAWS``, read at call time). A model with
    more than 64 types (groups and collected sets are uint64 masks), or
    with a type that no group contains, fails at once, before any draw.
    """
    _type_bits(model.m)
    _check_collectable(model)
    trials = _integer(trials, "trials")
    if trials < 1:
        raise InputError("trials must be at least 1")
    seed = _integer(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise InputError("seed must fit in an unsigned 64-bit integer")
    workers = max(1, _integer(workers, "workers"))
    if max_draws is None:
        max_draws = DEFAULT_MAX_DRAWS
    max_draws = _integer(max_draws, "max_draws")
    if max_draws < 1:
        raise InputError("max_draws must be at least 1")
    draws = _simulate_spans(model, trials, seed, workers, max_draws)
    values = draws.astype(np.float64).tolist()
    mean = math.fsum(values) / trials
    if trials > 1:
        variance = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return SimEstimate(
        mean=mean,
        std_error=std_error,
        ci_low=mean - _Z95 * std_error,
        ci_high=mean + _Z95 * std_error,
        trials=trials,
        seed=seed,
    )


def _successive_sampling_weight(p, group) -> float:
    """Probability a draft lottery assembles exactly ``group``: the sum over
    orderings of the product of p[t] over the mass not yet drawn."""
    total = 0.0
    for order in permutations(group):
        prob = 1.0
        left = 1.0
        for t in order:
            prob *= p[t] / left
            left -= p[t]
            if prob == 0.0:
                break
        total += prob
    return total


def _content_distribution(model: GroupModel) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of the set of types one group contains, by enumeration."""
    m, g = model.m, model.g
    weights: dict[int, float] = {}

    def add(mask: int, w: float):
        if w != 0.0:
            weights[mask] = weights.get(mask, 0.0) + w

    if isinstance(model, UniformDistinct):
        w = 1.0 / math.comb(m, g)
        for combo in combinations(range(m), g):
            add(mask_of(combo), w)
    elif isinstance(model, WeightedDistinct):
        for combo, w in zip(combinations(range(m), g), model.weights):
            add(mask_of(combo), w)
    elif isinstance(model, DraftLottery):
        for combo in combinations(range(m), g):
            add(mask_of(combo), _successive_sampling_weight(model.p, combo))
    elif isinstance(model, IidWithinGroup):
        g_factorial = math.factorial(g)
        for pattern in combinations_with_replacement(range(m), g):
            counts = Counter(pattern)
            coeff = g_factorial
            prob = 1.0
            for t, c in counts.items():
                coeff //= math.factorial(c)
                prob *= model.p[t] ** c
            add(mask_of(counts), coeff * prob)
    elif isinstance(model, WithoutReplacement):
        pop = model.population.counts
        denom = math.comb(model.population.total, g)
        for pattern in combinations_with_replacement(range(m), g):
            counts = Counter(pattern)
            if any(c > pop[t] for t, c in counts.items()):
                continue
            ways = 1
            for t, c in counts.items():
                ways *= math.comb(pop[t], c)
            add(mask_of(counts), ways / denom)
    else:  # pragma: no cover - new variants must add an enumeration
        raise InputError(f"no content enumeration for {type(model).__name__}")

    masks = np.array(list(weights.keys()), dtype=np.int64)
    return masks, np.array(list(weights.values()), dtype=np.float64)


def chain_expectation(model: GroupModel) -> ChainSolution:
    """Expected groups to finish, solved exactly over collected-set states.

    Works backward from the full set: with P_stay the chance a group adds
    nothing new, E(C) = (1 + sum of P(C -> C') E(C')) / (1 - P_stay(C)).
    The states of one popcount level are solved together, levels from
    m - 1 down to 0: a group that adds a type lands on a higher level, so
    no state reads a value of its own level.
    """
    m = model.m
    if m > CHAIN_STATE_CAP:
        raise CapacityError(
            f"m={m} exceeds the chain-solver cap of {CHAIN_STATE_CAP} "
            f"(2**m states)"
        )
    _check_collectable(model)
    content_masks, content_weights = _content_distribution(model)
    full = (1 << m) - 1
    values = np.zeros(1 << m)
    popcounts = subset_sums(np.ones(m))
    chunk = max(1, _CHAIN_CHUNK_ELEMENTS // content_masks.size)
    for level in range(m - 1, -1, -1):
        states = np.flatnonzero(popcounts == level)
        for lo in range(0, states.size, chunk):
            state = states[lo : lo + chunk, np.newaxis]
            landed = state | content_masks
            p_stay = (landed == state) @ content_weights
            escape = 1.0 - p_stay
            stuck = escape <= 0.0
            if stuck.any():
                first = int(state[stuck.argmax(), 0])
                raise DivergenceError(
                    f"no group can add a type outside {types_of(first)}",
                    subset_mask=full ^ first,
                )
            # values[state] is still 0, so values[landed] reads 0 wherever
            # the group adds nothing
            values[state[:, 0]] = (1.0 + values[landed] @ content_weights) / escape
    return ChainSolution(expected_from_empty=float(values[0]), state_values=values)
