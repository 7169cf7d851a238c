"""Exact expected completion times via inclusion-exclusion over type subsets.

The completion time is the maximum over types of the geometric waiting
time for that type's first appearance. By the maximum-minimums identity
the expectation expands over nonempty type subsets S as

    E = sum over S of (-1)**(|S|+1) / (1 - q(S))

where q(S) is the model's avoidance probability. Subsets a group can
never avoid (q(S) = 0) contribute a bare (-1)**(|S|+1); keeping them in
the sum reproduces the trailing binomial correction of the distinct-group
closed form without a special case.

Before any q(S) table or class is built, ``_exact_path`` checks every
limit that can fail there and picks the walk, in this order:

1. m above ``exact_cap`` (an integer, ``DEFAULT_EXACT_CAP`` by default)
   raises ``CapacityError``, for every model;
2. a type that no group contains raises ``DivergenceError``;
3. explicit laws (``WeightedDistinct``, ``DraftLottery``) walk the lattice;
4. a count law above 53 types raises ``CapacityError`` (only a cap of 54
   or more reaches it);
5. integer counts take the class path, and so do real weights when the
   subset sums of their first ``_PROBE_VALUES`` coincide; other real
   weights (a generic p) walk the lattice;
6. on the class path, a single type with q = 1 raises
   ``DivergenceError``, and more than ``_MAX_CLASSES`` classes raise
   ``CapacityError``.

The lattice walk raises ``DivergenceError`` at its first subset with
q = 1. Count-statistic laws (``UniformDistinct``, ``WithoutReplacement``,
``IidWithinGroup``) have q(S) = q(c) for the excluded weight c, the sum
of the type weights over S, so every subset with weight c has the term
(-1)**(|S|+1) * t_c with t_c = 1 / (1 - q(c)). The class path sums over
the distinct subset sums c, at most N + 1 of them for a population of N:
E = -sum over c > 0 of a_c * t_c, with a_c the signed number of subsets
with sum c (for counts, the coefficient of x**c in prod(1 - x**n_i)).
The sums are the very floats of the 2**m lattice, so a_c * t_c is the
exact total of that class's subset terms; each product is split into
floats that sum to it exactly, in O(classes) memory. The lattice walk
reads q(S) from the model's ``avoidance_blocks``, 2**16 masks at a time
(an explicit law's block is one ``_bits.subset_zeta``: two chunks of 8
bits, one transposing copy between them, passes under a ufunc buffer of
256 elements), and its blocks may run in spans in forked children
(``_spans._run_spans``); no path holds an array of 2**m entries. Both
paths feed their exact pieces, block by block, into exact integer totals
(``_exact_total``) that the caller adds and rounds once. Such a total
needs a bound on a block's |x| and the unit its x are multiples of; the
class path scans its pieces for them, and the lattice walk reads them off
q's order (``_lattice_blocks``), so besides building q(S) a lattice block
takes 9 numpy passes where one level of the total ends it (a block of
2**16 terms below 2**21). For every model, on either path and however
the blocks were split, the value is the correctly rounded sum of the 2**m
subset terms, ``math.fsum`` of them. The sum alternates and can cancel
heavily, and every result carries a cancellation-ratio diagnostic;
``terms_evaluated`` counts the 2**m - 1 subset terms either way.
"""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._bits import _BLOCK_BITS, subset_sum_classes, subset_sums, types_of
from .errors import CapacityError, DivergenceError, InputError
from .models import (
    GroupModel,
    WithoutReplacement,
    _check_collectable,
    _CountLaw,
    _integer,
    _validated_probabilities,
)
from ._spans import _run_spans

DEFAULT_EXACT_CAP = 24

# Real weights take the class path only when some subset sums of their
# first _PROBE_VALUES values coincide; otherwise they walk the lattice,
# which costs 0.26 s at m = 22 where 2**21 classes cost 0.46 s. Measured
# on IidWithinGroup(counts / N, 3) for a Mandelbrot population at m = 22
# (class path against lattice): N = 10**5 has 217,891 classes, 0.11 s
# against 0.26 s, and 12 values are the fewest whose sums coincide; at
# N = 10**6 (1.29M classes, 0.41 s against 0.29 s) 12 values are the most
# whose sums do not. The probe costs 0.3 ms. A generic p with one value
# repeated still collides and takes the class path, 1.3x the lattice.
_PROBE_VALUES = 12

# The most subset-sum classes a count law may build, as many as the
# default cap allows: at m = 24, N = 10**8 the 2**23 classes of the
# first 23 counts took 380 MB, about 45 B each
_MAX_CLASSES = 1 << (DEFAULT_EXACT_CAP - 1)

# Each span of a forked lattice walk gets at least this many blocks of 2**16
# masks (see ``_spans._run_spans``). Measured with two workers on a 2-core
# machine (medians of 15 alternating calls, one span against two, in three
# sittings): a forked child costs about 2.7 ms against the caller's one span
# of trivial work, and a block about 0.7-1.0 ms. WeightedDistinct(m, 2),
# DraftLottery(p, 3) and a generic-p IidWithinGroup(p, 3) take 0.89-1.59x
# the one-span time at 8 blocks per span (m = 20), 0.71-1.37x at 16
# (m = 21) and 0.65-0.66x at 32 (m = 22). The spread is the second vCPU's:
# at times two busy processes each ran at half speed.
_PROCESS_MIN_BLOCKS = 16


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
    exact_cap = _integer(exact_cap, "exact_cap")
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
    model: GroupModel, exact_cap: int = DEFAULT_EXACT_CAP, workers: int = 1
) -> ExpectationResult:
    """Expected number of groups to observe every type at least once.

    ``workers`` caps the processes a lattice walk may run in, as it does
    for ``simulate_collection``: the caller's and its forked children, at
    most one per usable CPU, each with at least ``_PROCESS_MIN_BLOCKS``
    blocks of 2**16 masks, and only where no other Python thread runs and
    not on macOS. The class path runs as one span. The result is the same
    for every worker count.
    """
    workers = max(1, _integer(workers, "workers"))
    path, blocks = _exact_path(model, exact_cap)
    if path == "classes":
        spans = [_walk(_count_law_blocks(model))]
    else:
        spans = _run_spans(_lattice_span, model, blocks, _PROCESS_MIN_BLOCKS, workers)
    # the spans' exact totals add up to the one-span total, so the value,
    # like the |term| sums in block order and the widest size, is the same
    # however the blocks were split
    value = sum(total for total, _, _ in spans) / (1 << _UNIT_SHIFT)
    abs_sums = [x for _, block_sums, _ in spans for x in block_sums]
    return ExpectationResult(
        value=value,
        terms_evaluated=(1 << model.m) - 1,
        cancellation_ratio=math.fsum(abs_sums) / abs(value),
        truncated_at=max(widest for _, _, widest in spans),
    )


def _exact_path(model: GroupModel, exact_cap: int) -> tuple[str, int | None]:
    """Check every limit of the exact sum, in the module docstring's
    order, and pick the walk: ("classes", None) for the sum over distinct
    subset sums, or ("lattice", its number of 2**16-mask blocks)."""
    _check_capacity(model.m, exact_cap)
    _check_collectable(model)
    blocks = 1 << max(0, model.m - _BLOCK_BITS)
    if not isinstance(model, _CountLaw):
        model._block_runs  # built in the caller, so that forked spans inherit it
        return "lattice", blocks
    if model.m > 53:
        # the class build takes all weights but the last
        raise CapacityError(
            f"m={model.m} exceeds the 53-type limit of count-statistic laws "
            f"(subset multiplicities pass 2**53); use the Monte Carlo oracle"
        )
    counts = model._counts
    integer = all(float(v).is_integer() for v in counts)
    probe = counts[:_PROBE_VALUES]
    if not integer and subset_sum_classes(probe)[0].size == 1 << len(probe):
        return "lattice", blocks
    # q falls as c grows (1 - c, each urn factor, and their rounding are
    # monotone, and so are the float subset sums in their subset), so
    # q(S) = 1 for some S exactly when it does for a single type, and the
    # first such type is the lattice's first mask. For an urn this
    # happens once N passes 2**53 and (N - c) / N rounds to 1
    singles = model._count_avoidance(np.asarray(counts, dtype=np.float64))
    if (stuck := np.flatnonzero(singles >= 1.0)).size:
        _raise_stuck(1 << int(stuck[0]))
    # bounded before the build, which would run out of memory instead:
    # integer counts whose sums stay exact make at most N + 1 distinct
    # sums, and no more than their sub-multisets
    head = counts[:-1]
    classes = 1 << len(head)
    if integer and sum(head) < 2**53:
        multisets = math.prod(k + 1 for k in Counter(head).values())
        classes = min(int(sum(head)) + 1, multisets)
    if classes > _MAX_CLASSES:
        raise CapacityError(
            f"the subset sums of {len(head)} weights make up to {classes} "
            f"classes, above the class path's {_MAX_CLASSES} "
            f"(2**{DEFAULT_EXACT_CAP - 1}); use the Monte Carlo oracle"
        )
    return "classes", None


def _walk(blocks) -> tuple[int, list[float], int]:
    """The exact total (``_exact_total``) of the pieces of (pieces, |term|
    sum, widest) blocks, the |term| sum of each block, and the widest size."""
    abs_sums = []
    truncated_at = 0

    def pieces():
        nonlocal truncated_at
        for block_pieces, abs_sum, widest in blocks:
            abs_sums.append(abs_sum)
            truncated_at = max(truncated_at, widest)
            yield block_pieces

    return _exact_total(pieces()), abs_sums, truncated_at


def _lattice_span(model: GroupModel, lo: int, hi: int) -> tuple[int, list[float], int]:
    """``_walk`` of the lattice blocks lo .. hi-1: one span of ``_run_spans``."""
    return _walk(_lattice_blocks(model, lo, hi))


def _widest(sizes: np.ndarray, q: np.ndarray, offset: int) -> int:
    """Largest offset + size among entries with q > 0, else 0."""
    contributing = q > 0.0
    # on 2**16 entries the masked max takes about 80 us and the plain one
    # 12, and on the explicit laws nearly every block has q > 0
    # throughout. The plain max, not the last size: the count classes'
    # largest sizes are not sorted
    if contributing.all():
        return offset + int(sizes.max())
    if not contributing.any():
        return 0
    return offset + int(sizes.max(where=contributing, initial=0))


def _block_widest(low_sizes: np.ndarray, q: np.ndarray, high: int) -> int:
    """``_widest`` of the lattice block ``high``, whose low masks have sizes
    ``low_sizes``. q does not increase as S grows, and every mask of the
    block is a subset of its last, so where q at the last mask is > 0 every
    q of the block is, and the widest is the last mask's size. On a 2**16
    block that takes under 1 us, and ``_widest`` about 26 us."""
    if q[-1] > 0.0:
        return high.bit_count() + int(low_sizes[-1])
    return _widest(low_sizes, q, high.bit_count())


def _lattice_blocks(model: GroupModel, lo: int = 0, hi: int | None = None):
    """((terms, top, -52), sum of |terms|, largest |S| with q > 0) blocks
    of q(S), streamed from ``avoidance_blocks``: blocks lo .. hi-1, all by
    default. The first element is an ``_exact_total`` block.

    Each block is computed in place in the array that ``avoidance_blocks``
    yields, so a block makes no float array of its size: on 2**16 masks
    each such temporary costs more in page faults than its arithmetic.
    The bounds that ``_exact_total`` needs come without a scan. Every q is
    in [0, 1), so every t = 1 / (1 - q) is at least 1, a multiple of
    2**-52. q does not increase as S grows, so t does not either, and the
    largest t of block h > 0 is that of its first mask, which every mask of
    the block holds; block 0 skips the empty set, and its largest t is that
    of a single type. A block then takes 4 passes here (1 - q, 1 / x, the
    |t| sum and the sign) and 5 in ``_exact_total`` where one level ends
    it.
    """
    bits = min(model.m, _BLOCK_BITS)
    low = subset_sums(np.ones(bits))  # |S| of each low mask
    signs = np.where(low % 2 == 1, 1.0, -1.0)
    # an aligned block's masks share their high bits, which flip signs
    flipped = -signs
    singles = 1 << np.arange(bits)
    for high, block in enumerate(model.avoidance_blocks(lo, hi), start=lo):
        first = 1 if high == 0 else 0  # mask 0 (q = 1) is not a term
        if high:
            # the block's first q is its largest
            if block[0] >= 1.0:
                _raise_stuck(high * low.size)
        elif (stuck := np.flatnonzero(block[1:] >= 1.0)).size:
            _raise_stuck(1 + int(stuck[0]))
        widest = _block_widest(low, block, high)
        t = block[first:]
        np.subtract(1.0, t, out=t)
        np.divide(1.0, t, out=t)
        top = float(block[singles].max() if first else block[0])
        abs_sum = float(t.sum())
        sign = flipped if high.bit_count() % 2 else signs
        np.multiply(sign[first:], t, out=t)
        yield (t, top, -52), abs_sum, widest


# the exact sum's fixed point, 2**-_UNIT_SHIFT: every level of
# ``_exact_total`` sums multiples of a power of two no smaller than the
# least subnormal, 2**-1074, so each is a whole number of units
_UNIT_SHIFT = 1200


def _bounds(x: np.ndarray) -> tuple[np.ndarray, float, int]:
    """x as an ``_exact_total`` block, (x, top, u_exp): its largest |x|,
    and the exponent of u, the ulp of its smallest nonzero |x|, from one
    scan of |x|."""
    magnitudes = np.abs(x)
    if not x.size or (top := magnitudes.max()) == 0.0:
        return x, 0.0, 0
    low = magnitudes.min()
    if low == 0.0:
        low = magnitudes.min(where=magnitudes > 0.0, initial=top)
    return x, top, max(math.frexp(low)[1] - 53, -1074)


def _exact_total(blocks) -> int:
    """The exact sum of the floats in ``blocks``, in units of
    2**-_UNIT_SHIFT. Totals of any split of the blocks add up to the total
    of them all.

    A block is a triple (x, top, u_exp) of an array x of fewer than 2**26
    finite float64, which is overwritten, with top >= max|x| and every x
    a multiple of 2**u_exp. A caller that knows these bounds saves the
    scan that ``_bounds`` makes of an array (abs, max and min passes).

    Each block of n floats is cut into levels by extraction (Rump, Ogita &
    Oishi, "Accurate floating-point summation, part I", SIAM J. Sci.
    Comput. 31, 2008). A level takes sigma = 2**k with 2**k >= 2n * top.
    Then q = fl(fl(sigma + x) - sigma) is x rounded to a multiple of
    2**(k-53), and all n of them add up to at most 2**52 + n such
    multiples, so their float64 sum is exact. The remainder x - q is
    exact too (the rounding error of sigma + x), at most 2**(k-53), and
    the next level, 53 - log2(2n) bits lower, takes it, in place of x.
    Every x, and so every remainder, is a multiple of u = 2**u_exp, so once
    the remainders add up to at most 2**53 * u in magnitude their plain
    float64 sum is exact, and it ends the block: top and u fix every
    level. Where 2**k would overflow (top above about 2**1023 / 2n), levels
    that truncate x to multiples of 2**s, each integer below 2**52 / n,
    first take the top bits. The level sums are gathered in one Python
    int; one correctly rounded int division by 2**_UNIT_SHIFT scales it
    back, to ``math.fsum`` of all the floats.
    """
    total = 0  # in units of 2**-_UNIT_SHIFT
    level = np.empty(0)
    for x, top, u_exp in blocks:
        n = x.size
        if not n or top == 0.0:
            continue
        if n > level.size:
            level = np.empty(n)
        y = level[:n]
        spread = (2 * n - 1).bit_length()  # 2n <= 2**spread
        e = math.frexp(top)[1]  # every |x| < 2**e
        while e + spread > 1023:
            s = e - (52 - n.bit_length())
            np.ldexp(x, -s, out=y)  # exact, or below 1 where it underflows
            np.trunc(y, out=y)
            total += int(y.sum()) << (s + _UNIT_SHIFT)
            np.ldexp(y, s, out=y)
            np.subtract(x, y, out=x)
            e = s
        k = e + spread  # every |x| <= 2**(k - spread)
        while k - 54 > u_exp:
            sigma = math.ldexp(1.0, k)
            q = np.subtract(np.add(x, sigma, out=y), sigma, out=y)
            total += int(math.ldexp(float(q.sum()), 53 - k)) << (k - 53 + _UNIT_SHIFT)
            np.subtract(x, q, out=x)
            k -= 53 - spread
        # the |x| add up to at most 2**(k-1) <= 2**53 * u: the sum is exact
        total += int(math.ldexp(float(x.sum()), -u_exp)) << (u_exp + _UNIT_SHIFT)
    return total


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
    """(pieces, sum of |terms|, largest |S| with q > 0) blocks of the sum
    over the distinct subset sums c; the pieces are ``_bounds`` blocks.

    a_c and b_c are the signed and unsigned numbers of subsets with sum c,
    so -sum a_c * t_c is the value and sum b_c * t_c the sum of |term|.
    The last weight is not merged into the classes: each class c of the
    other weights stands for its subsets at c and, with the last type
    added, at c + w_last with the opposite sign. That skips the largest
    merge and leaves at most twice the distinct sums.
    """
    counts = model._counts
    sums, signed, total, largest = subset_sum_classes(counts[:-1])
    # without the last type c = 0 is only the empty set, not a term
    for shift, sign, first, added in ((0, -1.0, 1, 0), (counts[-1], 1.0, 0, 1)):
        for lo in range(first, sums.size, 1 << _BLOCK_BITS):
            block = slice(lo, lo + (1 << _BLOCK_BITS))
            q = model._count_avoidance(sums[block] + shift)
            t = 1.0 / (1.0 - q)
            widest = _widest(largest[block], q, added)
            pieces = _exact_products(sign * signed[block], t)
            yield _bounds(pieces), float((total[block] * t).sum()), widest


def uniform_single_expectation(m: int) -> float:
    """m * H_m: expected single arrivals to complete m equally likely types."""
    m = _integer(m, "m")
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
    m = _integer(m, "m")
    g = _integer(g, "g")
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
    return inclusion_exclusion_expectation(
        WithoutReplacement(population, g), exact_cap=exact_cap
    )


def first_occurrence_expectation(model: GroupModel, type_index: int) -> float:
    """Expected number of groups until type ``type_index`` first appears.

    The waiting time is geometric with success probability 1 - q({i}).
    """
    type_index = _integer(type_index, "type index")
    if not 0 <= type_index < model.m:
        raise InputError(f"type index {type_index} out of range for m={model.m}")
    # an uncollectable type raises before its group law is built
    if (
        type_index in model.uncollectable_types()
        or (q := model.avoidance_probability(1 << type_index)) >= 1.0
    ):
        raise DivergenceError(
            f"type {type_index} never appears in any group",
            subset_mask=1 << type_index,
        )
    return 1.0 / (1.0 - q)
