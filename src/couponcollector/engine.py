"""Exact expected completion times via inclusion-exclusion over type subsets.

The completion time is the maximum over types of the geometric waiting
time for that type's first appearance. By the maximum-minimums identity
the expectation expands over nonempty type subsets S as

    E = sum over S of (-1)**(|S|+1) / (1 - q(S))

where q(S) is the model's avoidance probability. Subsets a group can
never avoid (q(S) = 0) contribute a bare (-1)**(|S|+1); keeping them in
the sum reproduces the trailing binomial correction of the distinct-group
closed form without a special case.

Count-statistic laws (``UniformDistinct``, ``WithoutReplacement``) have
q(S) = q(c) for the excluded count c, the sum of the type counts over S,
so every subset with count c has the term (-1)**(|S|+1) * t_c with
t_c = 1 / (1 - q(c)). Their sum runs over the distinct excluded counts,
at most N + 1 of them for a population of N: E = -sum over c >= 1 of
a_c * t_c, with a_c the coefficient of x**c in prod(1 - x**n_i). Each
product a_c * t_c is split into floats that sum to it exactly, in
O(min(N + 1, 2**m)) memory. Every other model walks the 2**m entries of
its q(S) table in blocks. Both kinds feed their exact pieces, block by
block, into one ``math.fsum``, so for every model the value is the
correctly rounded sum of the 2**m subset terms. The sum alternates and
can cancel heavily, and every result carries a cancellation-ratio
diagnostic. The cap on m (``DEFAULT_EXACT_CAP``) holds for every model,
and ``terms_evaluated`` counts the 2**m - 1 subset terms either way.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._bits import popcounts, subset_sum_classes, types_of
from .errors import CapacityError, DivergenceError, InputError
from .models import (
    GroupModel,
    Population,
    WithoutReplacement,
    _check_collectable,
    _CountLaw,
    _validated_probabilities,
)

DEFAULT_EXACT_CAP = 24

# masks or count classes per block: the temporaries stay small, and fsum
# reads one block's floats at a time instead of one list of all. At
# m = 24, N = 10**8 (about 2**24 count classes) one pass peaked at 962 MB
# and took 4.5 s; in blocks, 399 MB and 2.3 s
_BLOCK_BITS = 16


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


def _raise_stuck(mask: int):
    raise DivergenceError(
        f"types {types_of(mask)} are jointly avoided by every group "
        f"(q(S) = 1); the collection cannot be completed",
        subset_mask=mask,
    )


def inclusion_exclusion_expectation(
    model: GroupModel, exact_cap: int = DEFAULT_EXACT_CAP
) -> ExpectationResult:
    """Expected number of groups to observe every type at least once."""
    _check_capacity(model.m, exact_cap)
    _check_collectable(model)
    source = _count_law_blocks if isinstance(model, _CountLaw) else _lattice_blocks
    truncated_at, blocks = source(model)
    abs_sums = []

    def pieces():
        for block_pieces, magnitudes in blocks:
            abs_sums.append(float(magnitudes.sum()))
            yield from block_pieces.tolist()

    value = math.fsum(pieces())
    return ExpectationResult(
        value=value,
        terms_evaluated=(1 << model.m) - 1,
        cancellation_ratio=math.fsum(abs_sums) / abs(value),
        truncated_at=truncated_at,
    )


def _lattice_blocks(model: GroupModel):
    """``truncated_at`` and the (terms, |terms|) blocks of the q(S) table."""
    q = model.avoidance_table()
    stuck = np.flatnonzero(q[1:] >= 1.0)
    if stuck.size:
        _raise_stuck(int(stuck[0]) + 1)
    low = popcounts(min(model.m, _BLOCK_BITS))
    signs = np.where(low % 2 == 1, 1.0, -1.0)
    truncated_at = 0
    for lo in range(0, q.size, low.size):
        contributing = low[q[lo : lo + low.size] > 0.0]
        if contributing.size:
            truncated_at = max(truncated_at, lo.bit_count() + int(contributing.max()))

    def blocks():
        for lo in range(0, q.size, low.size):
            first = 1 if lo == 0 else 0  # mask 0 (q = 1) is not a term
            t = 1.0 / (1.0 - q[lo + first : lo + low.size])
            # an aligned block's masks share their high bits, which flip signs
            sign = -signs[first:] if lo.bit_count() % 2 else signs[first:]
            yield sign * t, t

    return truncated_at, blocks()


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: x = hi + lo, each on at most 26 significant bits."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _exact_products(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Nonzero floats whose exact sum is the sum of the products a * t.

    Dekker's two-product: each product a*t is its rounded value p plus the
    rounding error, which the split halves give exactly because their
    pairwise products need at most 52 bits. ``a`` must be exact in float64.
    """
    p = a * t
    a_hi, a_lo = _split(a)
    t_hi, t_lo = _split(t)
    error = a_lo * t_lo - (((p - a_hi * t_hi) - a_lo * t_hi) - a_hi * t_lo)
    parts = np.concatenate([p, error])
    return parts[parts != 0.0]


def _count_law_blocks(model: _CountLaw):
    """``truncated_at`` and the blocks of the sum over excluded counts c.

    a_c and b_c are the signed and unsigned numbers of subsets with count
    c, so -sum a_c * t_c is the value and sum b_c * t_c the sum of |term|.
    The last count is not merged into the classes: each class c of the
    other counts stands for its subsets at c and, with the last type added,
    at c + n_last with the opposite sign. That skips the largest merge and
    leaves at most twice the distinct sums.
    """
    counts = model._counts
    if len(counts) > 53:  # subset_sum_classes takes all counts but the last
        raise CapacityError(
            f"m={len(counts)} exceeds the 53-type limit of count-statistic laws "
            f"(subset multiplicities pass 2**53); use the Monte Carlo oracle"
        )
    # q(c) < 1 for c >= 1 in exact arithmetic, but (N - c) / N rounds to 1
    # once N passes 2**53. q falls as c grows (each factor, and its
    # rounding, is monotone), so q(S) = 1 for some S exactly when it does
    # for a single type, and the first such type is the lattice's first mask
    singles = model._count_avoidance(np.asarray(counts, dtype=np.float64))
    stuck = np.flatnonzero(singles >= 1.0)
    if stuck.size:
        _raise_stuck(1 << int(stuck[0]))
    # for the same reason the largest k-subset with q > 0 holds the k
    # smallest counts
    smallest = np.cumsum(np.sort(np.asarray(counts, dtype=np.float64)))
    truncated_at = int(np.count_nonzero(model._count_avoidance(smallest) > 0.0))
    sums, signed, total = subset_sum_classes(counts[:-1])

    def blocks():
        # without the last type c = 0 is only the empty set, not a term
        for shift, sign, first in ((0, -1.0, 1), (counts[-1], 1.0, 0)):
            for lo in range(first, sums.size, 1 << _BLOCK_BITS):
                block = slice(lo, lo + (1 << _BLOCK_BITS))
                t = 1.0 / (1.0 - model._count_avoidance(sums[block] + shift))
                yield _exact_products(sign * signed[block], t), total[block] * t

    return truncated_at, blocks()


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
