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
limit that can fail there and names the walk, in this order:

1. m above ``exact_cap`` (an integer, ``DEFAULT_EXACT_CAP`` by default)
   raises ``CapacityError``, for every model;
2. a type that no group contains raises ``DivergenceError``;
3. explicit laws (``WeightedDistinct``, ``DraftLottery``) walk the lattice,
   "lattice"; a draft lottery of more than ``_MAX_CLASSES`` groups raises
   ``CapacityError`` before it enumerates them;
4. a count law above 53 types raises ``CapacityError`` (only a cap of 54
   or more reaches it);
5. integer counts take the class path, and so do real weights when the
   subset sums of their first ``_PROBE_VALUES`` coincide; other real
   weights (a generic p) walk the lattice;
6. on the class path, a single type with q = 1 raises
   ``DivergenceError``, and more than ``_MAX_CLASSES`` classes raise
   ``CapacityError``. The bound and the builder come from one rule,
   ``_bits.class_bound`` of the weights but the last: integers whose
   total W is below 2**53, with d their greatest common divisor, make at
   most min(W / d + 1, sub-multisets) classes, and where W / d + 1 is the
   smaller their classes are walked densely, "dense"; the others are
   merged, "merged", with at most 2**(m-1) classes for real weights.

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
in units of 2**-52 (``_exact_total``) that the caller adds and rounds
once: every lattice term, and every piece of a class term, is a multiple
of 2**-52 below 2**106. Such a total needs a bound on a block's |x|, and
both walks read it off q's order (``_lattice_blocks``,
``_count_law_blocks``), so besides building q(S) a lattice block takes 9
numpy passes where one level of the total ends it (a block of 2**16 terms
below 2**21). For every model, on either path and however the blocks
were split, the value is the correctly rounded sum of the 2**m subset
terms, ``math.fsum`` of them. The sum alternates and can cancel
heavily, and every result carries a cancellation-ratio diagnostic;
``terms_evaluated`` counts the 2**m - 1 subset terms either way.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._bits import _BLOCK_BITS, _MAX_CLASSES, class_bound, subset_sums, types_of
from ._bits import _dense_classes, _merged_classes
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
# first _PROBE_VALUES values coincide; otherwise they walk the lattice. On
# IidWithinGroup(counts / N, 3) for a Mandelbrot population at m = 22, 12
# values are the fewest whose sums coincide at N = 10**5 (217,891 classes)
# and the most whose sums do not at N = 10**6 (1.29M classes). The probe, a
# sort of its 4096 lattice sums, costs about 0.06 ms. It now picks the
# slower walk at N = 10**5: the class path takes 0.10-0.11 s in 54 MB where
# the lattice takes 0.041-0.042 s in 35 MB, with the same value (3 fresh
# processes each, workers=1, 2-core VM). ROADMAP item 1 replaces the probe
# with a rule that prices each walk. A generic p with one value repeated
# still collides and takes the class path.
_PROBE_VALUES = 12

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
    path, size = _exact_path(model, exact_cap)
    if path == "lattice":
        spans = _run_spans(_lattice_span, model, size, _PROCESS_MIN_BLOCKS, workers)
    else:
        build = _dense_classes if path == "dense" else _merged_classes
        spans = [_walk(_count_law_blocks(model, build))]
    # the spans' exact totals, in units of 2**-52, add up to the one-span
    # total, so the value, like the |term| sums in block order and the
    # widest size, is the same however the blocks were split
    value = sum(total for total, _, _ in spans) / (1 << 52)
    abs_sums = [x for _, block_sums, _ in spans for x in block_sums]
    return ExpectationResult(
        value=value,
        terms_evaluated=(1 << model.m) - 1,
        cancellation_ratio=math.fsum(abs_sums) / abs(value),
        truncated_at=max(widest for _, _, widest in spans),
    )


def _exact_path(model: GroupModel, exact_cap: int) -> tuple[str, int]:
    """Check every limit of the exact sum, in the module docstring's
    order, and name the walk with its size: ("dense", classes) or
    ("merged", classes) for the sum over distinct subset sums, the bound
    on the classes of ``class_bound`` and the builder it picks, or
    ("lattice", blocks) for the walk of 2**16-mask blocks."""
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
    head = counts[:-1]
    integer, dense, classes = class_bound(head)
    if not integer:
        # the probe's classes are its distinct subset sums (sorted here:
        # ``np.unique`` imports ``numpy.ma`` on first use, 9 ms)
        probe = np.sort(subset_sums(counts[:_PROBE_VALUES]))
        if (probe[1:] > probe[:-1]).all():
            return "lattice", blocks
    # q falls as c grows (1 - c, each urn factor, and their rounding are
    # monotone, and so are the float subset sums in their subset), so
    # q(S) = 1 for some S exactly when it does for a single type, and the
    # first such type is the lattice's first mask. For an urn this
    # happens once N passes 2**53 and (N - c) / N rounds to 1
    singles = model._count_avoidance(np.asarray(counts, dtype=np.float64))
    if (stuck := np.flatnonzero(singles >= 1.0)).size:
        _raise_stuck(1 << int(stuck[0]))
    # bounded before the build, which would run out of memory instead
    if classes > _MAX_CLASSES:
        raise CapacityError(
            f"the subset sums of {len(head)} weights make up to {classes} "
            f"classes, above the class path's {_MAX_CLASSES} "
            f"(2**{_MAX_CLASSES.bit_length() - 1}); use the Monte Carlo oracle"
        )
    return ("dense" if dense else "merged"), classes


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
    """Largest offset + size among entries with q > 0, else 0, for the q of
    a class or lattice block: q does not increase along a class block,
    whose sums increase, and every mask of a lattice block holds its first
    and is held by its last. So every q is > 0 when the last is, and none
    when the first is 0. The plain max, not the last size: the count
    classes' largest sizes are not sorted."""
    if q[-1] > 0.0:
        return offset + int(sizes.max())
    if q[0] == 0.0:
        return 0
    return offset + int(sizes.max(where=q > 0.0, initial=0))


def _block_widest(low_sizes: np.ndarray, q: np.ndarray, high: int) -> int:
    """``_widest`` of the lattice block ``high``, whose low masks have sizes
    ``low_sizes``. Where q at the last mask is > 0 every q of the block is,
    and the widest is the last mask's size, which holds every other mask.
    On a 2**16 block that takes under 1 us, and a max of its sizes about 12."""
    if q[-1] > 0.0:
        return high.bit_count() + int(low_sizes[-1])
    return _widest(low_sizes, q, high.bit_count())


def _lattice_blocks(model: GroupModel, lo: int = 0, hi: int | None = None):
    """((terms, top), sum of |terms|, largest |S| with q > 0) blocks of
    q(S), streamed from ``avoidance_blocks``: blocks lo .. hi-1, all by
    default. The first element is an ``_exact_total`` block.

    Each block is computed in place in the array that ``avoidance_blocks``
    yields, so a block makes no float array of its size: on 2**16 masks
    each such temporary costs more in page faults than its arithmetic.
    The top that ``_exact_total`` needs comes without a scan. Every q is
    in [0, 1), so every t = 1 / (1 - q) is in [1, 2**53], a multiple of
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
        yield (t, top), abs_sum, widest


def _exact_total(blocks) -> int:
    """The exact sum of the floats in ``blocks``, in units of 2**-52.
    Totals of any split of the blocks add up to the total of them all.

    A block is a pair (x, top) of an array x of fewer than 2**26 floats,
    which is overwritten, each a multiple of 2**-52, and a float top with
    max|x| <= top < 2**106. Every term of both walks is such a float: a
    lattice term is +/-t with t = 1 / (1 - q) in [1, 2**53], and a class
    piece is a part of a_c * t_c with a_c an integer below 2**53
    (``_exact_products``). Both walks read top off q's order.

    Each block of n floats is cut into levels by extraction (Rump, Ogita &
    Oishi, "Accurate floating-point summation, part I", SIAM J. Sci.
    Comput. 31, 2008). A level takes sigma = 2**k with 2**k >= 2n * top.
    Then q = fl(fl(sigma + x) - sigma) is x rounded to a multiple of
    2**(k-53), and all n of them add up to at most 2**52 + n such
    multiples, so their float64 sum is exact. The remainder x - q is
    exact too (the rounding error of sigma + x), at most 2**(k-53), and
    the next level, 53 - log2(2n) bits lower, takes it, in place of x.
    Every remainder is a multiple of 2**-52, so once the remainders add up
    to at most 2 in magnitude their plain float64 sum is exact, and it ends
    the block: top fixes every level. Below 2**106 no sigma comes near
    overflow. The level sums are gathered in one Python int, which one
    correctly rounded int division by 2**52 scales back to ``math.fsum``
    of all the floats.
    """
    total = 0  # in units of 2**-52
    level = np.empty(0)
    for x, top in blocks:
        n = x.size
        if n > level.size:
            level = np.empty(n)
        y = level[:n]
        spread = (2 * n - 1).bit_length()  # 2n <= 2**spread
        k = math.frexp(top)[1] + spread  # every |x| <= 2**(k - spread)
        while k > 2:
            sigma = math.ldexp(1.0, k)
            q = np.subtract(np.add(x, sigma, out=y), sigma, out=y)
            total += int(math.ldexp(float(q.sum()), 52))
            np.subtract(x, q, out=x)
            k -= 53 - spread
        # the |x| add up to at most 2**(k-1) <= 2: the sum is exact
        total += int(math.ldexp(float(x.sum()), 52))
    return total


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: x = hi + lo, each on at most 26 significant bits."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _exact_products(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Floats whose exact sum is the sum of the products a * t.

    Dekker's two-product: each product a*t is its rounded value p plus the
    rounding error, which the split halves give exactly because their
    pairwise products need at most 52 bits. ``a`` must be exact in float64.
    Each |error| is at most half an ulp of p, so no larger than |p|.
    """
    p = a * t
    a_hi, a_lo = _split(a)
    t_hi, t_lo = _split(t)
    error = a_lo * t_lo - (((p - a_hi * t_hi) - a_lo * t_hi) - a_hi * t_lo)
    return np.concatenate([p, error])


def _count_law_blocks(model: _CountLaw, build):
    """((pieces, top), sum of |terms|, largest |S| with q > 0) blocks of
    the sum over the distinct subset sums c, whose classes ``build``
    (``_dense_classes`` or ``_merged_classes``) makes. The first element
    is an ``_exact_total`` block.

    a_c and b_c are the signed and unsigned numbers of subsets with sum c,
    so -sum a_c * t_c is the value and sum b_c * t_c the sum of |term|.
    The last weight is not merged into the classes: each class c of the
    other weights stands for its subsets at c and, with the last type
    added, at c + w_last with the opposite sign. That skips the largest
    merge and leaves at most twice the distinct sums.

    The top that ``_exact_total`` needs comes from q's order and one scan
    of a_c per law. The sums increase along each pass, and q does not
    increase with c, so a block's first t is its largest, and max|a_c|
    times it, rounded as the products are, bounds every rounded product
    and so every Dekker error. Each a_c is an integer (below 2**53, see
    ``class_bound``) and each t at least 1, so each product and its
    rounded value are multiples of 2**-52, and so is their difference, the
    error.
    """
    counts = model._counts
    sums, signed, total, largest = build(counts[:-1])
    most = float(np.abs(signed).max())
    # without the last type c = 0 is only the empty set, not a term
    for shift, sign, first, added in ((0, -1.0, 1, 0), (counts[-1], 1.0, 0, 1)):
        for lo in range(first, sums.size, 1 << _BLOCK_BITS):
            block = slice(lo, lo + (1 << _BLOCK_BITS))
            q = model._count_avoidance(sums[block] + shift)
            t = 1.0 / (1.0 - q)
            widest = _widest(largest[block], q, added)
            pieces = _exact_products(sign * signed[block], t)
            yield (pieces, most * t[0]), float((total[block] * t).sum()), widest


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
