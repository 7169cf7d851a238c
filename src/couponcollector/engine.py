"""Exact expected completion times via inclusion-exclusion over type subsets.

The completion time is the maximum over types of the geometric waiting
time for that type's first appearance. By the maximum-minimums identity
the expectation expands over nonempty type subsets S as

    E = sum over S of (-1)**(|S|+1) / (1 - q(S))

where q(S) is the model's avoidance probability. Subsets a group can
never avoid (q(S) = 0) contribute a bare (-1)**(|S|+1); keeping them in
the sum reproduces the trailing binomial correction of the distinct-group
closed form without a special case.

The sum alternates and can cancel heavily, so terms are accumulated with
exact compensated summation in increasing-bitmask order and every result
carries a cancellation-ratio diagnostic.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._bits import popcounts, types_of
from .errors import CapacityError, DivergenceError, InputError
from .models import (
    GroupModel,
    Population,
    WithoutReplacement,
    _check_collectable,
    _validated_probabilities,
)

DEFAULT_EXACT_CAP = 24

_FSUM_CHUNK = 1 << 20


def _compensated_sum(terms: np.ndarray) -> float:
    """Exactly rounded sum over fixed-size chunks (deterministic reduction)."""
    if terms.size <= _FSUM_CHUNK:
        return math.fsum(terms.tolist())
    partials = [
        math.fsum(terms[i : i + _FSUM_CHUNK].tolist())
        for i in range(0, terms.size, _FSUM_CHUNK)
    ]
    return math.fsum(partials)


@dataclass(frozen=True)
class ExpectationResult:
    """An exact expectation plus numerical diagnostics.

    ``cancellation_ratio`` is sum(|term|) / |value|; values much larger
    than 1 signal precision loss in the alternating sum. ``truncated_at``
    is the largest subset size whose term is not the constant +/-1.
    """

    value: float
    terms_evaluated: int
    cancellation_ratio: float
    truncated_at: int


def _check_capacity(m: int, exact_cap: int):
    if m > exact_cap:
        raise CapacityError(
            f"m={m} exceeds the exact-computation cap of {exact_cap} "
            f"(2**m subsets); raise the cap or use the Monte Carlo oracle"
        )


def inclusion_exclusion_expectation(
    model: GroupModel, exact_cap: int = DEFAULT_EXACT_CAP
) -> ExpectationResult:
    """Expected number of groups to observe every type at least once."""
    m = model.m
    _check_capacity(m, exact_cap)
    _check_collectable(model)
    q = model.avoidance_table()
    denominators = 1.0 - q[1:]
    stuck = np.nonzero(denominators <= 0.0)[0]
    if stuck.size:
        mask = int(stuck[0]) + 1
        raise DivergenceError(
            f"types {types_of(mask)} are jointly avoided by every group "
            f"(q(S) = 1); the collection cannot be completed",
            subset_mask=mask,
        )
    sizes = popcounts(m)[1:]
    signs = np.where(sizes % 2 == 1, 1.0, -1.0)
    terms = signs / denominators
    value = _compensated_sum(terms)
    abs_sum = float(np.abs(terms).sum())
    contributing = sizes[q[1:] > 0.0]
    truncated_at = int(contributing.max()) if contributing.size else 0
    return ExpectationResult(
        value=value,
        terms_evaluated=(1 << m) - 1,
        cancellation_ratio=abs_sum / abs(value),
        truncated_at=truncated_at,
    )


def uniform_single_expectation(m: int) -> float:
    """m * H_m: expected single arrivals to complete m equally likely types."""
    m = int(m)
    if m < 1:
        raise InputError("m must be at least 1")
    return m * math.fsum(1.0 / i for i in range(1, m + 1))


def single_arrival_expectation(
    p, exact_cap: int = DEFAULT_EXACT_CAP
) -> float:
    """Expected single arrivals under unequal type probabilities.

    Direct term-by-term evaluation of the alternating sum of
    1 / (p_{i1} + .. + p_{ik}) over nonempty type subsets, used as the
    independent reference for the g=1 specialization of the group engine.
    """
    p = _validated_probabilities(p, "type probabilities")
    m = len(p)
    _check_capacity(m, exact_cap)
    zero = [i for i, pi in enumerate(p) if pi == 0.0]
    if zero:
        raise DivergenceError(
            f"type {zero[0]} has probability 0 and can never be collected",
            subset_mask=1 << zero[0],
        )
    terms = []
    for k in range(1, m + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for combo in combinations(range(m), k):
            terms.append(sign / math.fsum(p[i] for i in combo))
    return math.fsum(terms)


def uniform_group_expectation(m: int, g: int) -> float:
    """Closed-form expected group count when all C(m, g) groups are equally likely.

    Alternating sum of C(m, k) / (1 - C(m-k, g)/C(m, g)) for subset sizes
    k = 1 .. m-g, plus the trailing binomial terms for sizes above m-g.
    """
    m = int(m)
    g = int(g)
    if m < 1:
        raise InputError("m must be at least 1")
    if not 1 <= g < m:
        raise InputError(f"group size must satisfy 1 <= g < m (got g={g}, m={m})")
    total = math.comb(m, g)
    terms = []
    for k in range(1, m - g + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        terms.append(sign * math.comb(m, k) / (1.0 - math.comb(m - k, g) / total))
    for k in range(1, g + 1):
        sign = 1.0 if (m - g + k) % 2 == 1 else -1.0
        terms.append(sign * math.comb(m, m - g + k))
    return math.fsum(terms)


def sampling_expectation(
    population, g: int, exact_cap: int = DEFAULT_EXACT_CAP
) -> ExpectationResult:
    """Expected number of size-g samples (without replacement) to see every type."""
    if not isinstance(population, Population):
        population = Population(tuple(population))
    return inclusion_exclusion_expectation(
        WithoutReplacement(population, g), exact_cap=exact_cap
    )


def first_occurrence_expectation(model: GroupModel, type_index: int) -> float:
    """Expected number of groups until type ``type_index`` first appears.

    The waiting time is geometric with success probability 1 - q({i}).
    """
    type_index = int(type_index)
    if not 0 <= type_index < model.m:
        raise InputError(f"type index {type_index} out of range for m={model.m}")
    if type_index in model.uncollectable_types():
        raise DivergenceError(
            f"type {type_index} never appears in any group",
            subset_mask=1 << type_index,
        )
    q = model.avoidance_probability(1 << type_index)
    if q >= 1.0:
        raise DivergenceError(
            f"type {type_index} never appears in any group",
            subset_mask=1 << type_index,
        )
    return 1.0 / (1.0 - q)
