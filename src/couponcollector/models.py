"""Populations and group-arrival distributions.

A collection has m coupon types, indexed 0 .. m-1. Coupons arrive in
groups of constant size g, and five group distributions are supported:

- ``UniformDistinct``: every g-subset of types is equally likely.
- ``WeightedDistinct``: an explicit probability for each g-subset, indexed
  in lexicographic order of the sorted type tuples.
- ``IidWithinGroup``: each of the g slots is an independent draw from a
  probability vector p over types, so a group may repeat types.
- ``WithoutReplacement``: g individuals drawn without replacement from a
  finite population with per-type counts; the group is the multiset of
  their types (multivariate hypergeometric contents).
- ``DraftLottery``: types drawn sequentially in proportion to p with
  duplicates discarded until g distinct types are assembled (successive
  sampling of types).

Every model answers the same query: the avoidance probability q(S), the
chance that a single drawn group contains no type from the subset S,
for one subset (``avoidance_probability``) or for all 2**m of them,
streamed in aligned blocks of masks (``avoidance_blocks``) or gathered
in one table (``avoidance_table``). The models share one of two laws:

- count statistic (``UniformDistinct``, ``WithoutReplacement``,
  ``IidWithinGroup``): q(S) depends only on the excluded weight c, the sum
  of per-type weights over S. For the urns the weights are the integer
  counts and q(c) = P(N - c, g) / P(N, g); ``UniformDistinct`` is an urn
  of m singletons. For ``IidWithinGroup`` the weights are p and
  q(c) = (1 - c)**g. The blocks and single queries add the weights in
  the same order and evaluate q(c) the same way, so they agree bit for
  bit.
- explicit (mask, weight) table (``WeightedDistinct``, ``DraftLottery``):
  q(S) is the total weight of the listed groups disjoint from S. Each
  block sums the groups it counts into one row and zeta-transforms it
  at complements.

All model values are immutable after construction; sampling takes an
explicit caller-owned random generator.
"""

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from ._bits import (
    _BLOCK_BITS,
    _MAX_CLASSES,
    subset_sums,
    subset_zeta,
    types_of,
    zeta_layout,
)
from .errors import CapacityError, DivergenceError, InputError

PROB_SUM_TOLERANCE = 1e-9
DRAFT_MAX_GROUP_SIZE = 8


def _integer(value, name: str) -> int:
    """``value`` as an int; unlike int(), it rejects a boolean and a value
    it would change."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise InputError(f"{name} must be an integer (got {value!r})")
    return number


def _reals(values, name: str) -> tuple[float, ...]:
    """``values`` as floats, rejecting text, booleans, None and complex."""
    values = tuple(values)
    # float() would read "0.5" and True, raise TypeError on None and
    # complex, and drop the imaginary part of a numpy complex. Each
    # distinct type is checked once: an isinstance per entry took
    # WeightedDistinct(24, 12) from 0.8 to 1.9 s
    for kind in set(map(type, values)):
        if issubclass(
            kind, (str, bytes, bool, np.bool_, complex, np.complexfloating, type(None))
        ):
            raise InputError(f"{name} must be real numbers, not {kind.__name__}")
    return tuple(map(float, values))


def _validated_probabilities(values, name: str) -> tuple[float, ...]:
    """Check a probability vector and renormalize it to sum exactly ~1."""
    vec = _reals(values, name)
    if len(vec) == 0:
        raise InputError(f"{name} must not be empty")
    if any(v < 0.0 or not math.isfinite(v) for v in vec):
        raise InputError(f"{name} entries must be finite and nonnegative")
    total = math.fsum(vec)
    if abs(total - 1.0) > PROB_SUM_TOLERANCE:
        raise InputError(
            f"{name} must sum to 1 within {PROB_SUM_TOLERANCE} (got {total!r})"
        )
    return tuple(v / total for v in vec)


@dataclass(frozen=True)
class Population:
    """A finite population of ``m`` types with ``counts[i]`` individuals each."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(_integer(c, "a count") for c in self.counts)
        if len(counts) == 0:
            raise InputError("population needs at least one type")
        if any(c < 1 for c in counts):
            raise InputError("every type needs at least one individual")
        object.__setattr__(self, "counts", counts)

    @property
    def m(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def proportions(self) -> tuple[float, ...]:
        n = self.total
        return tuple(c / n for c in self.counts)


class GroupModel(ABC):
    """Common interface of the five group-arrival distributions."""

    m: int
    g: int

    def _check_mask(self, subset_mask: int) -> int:
        subset_mask = _integer(subset_mask, "subset mask")
        if not 0 <= subset_mask < (1 << self.m):
            raise InputError(
                f"subset mask {subset_mask:#x} out of range for m={self.m}"
            )
        return subset_mask

    @abstractmethod
    def avoidance_probability(self, subset_mask: int) -> float:
        """Probability that one drawn group contains no type in the subset."""

    @abstractmethod
    def avoidance_blocks(self, lo: int = 0, hi: int | None = None):
        """Yield q(S) for every subset S in increasing mask order, in aligned
        blocks of 2**b masks, b = min(_BLOCK_BITS, m): block h holds the
        masks h * 2**b .. (h + 1) * 2**b - 1. Only blocks lo .. hi-1 are
        yielded (all 2**(m-b) by default). Each block is a new array that
        the caller owns and may overwrite."""

    def avoidance_table(self) -> np.ndarray:
        """q(S) for every subset S, as an array of length 2**m indexed by mask."""
        table = np.empty(1 << self.m)
        lo = 0
        for block in self.avoidance_blocks():
            table[lo : lo + block.size] = block
            lo += block.size
        return table

    @abstractmethod
    def uncollectable_types(self) -> tuple[int, ...]:
        """Types that no group can ever contain (q({i}) = 1 exactly)."""

    @property
    @abstractmethod
    def uniforms_per_group(self) -> int:
        """How many uniform doubles one group draw consumes (a fixed constant)."""

    @abstractmethod
    def draw_groups(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniforms of shape (n, uniforms_per_group) to n group masks.

        This is the pinned sampling algorithm: the group is a pure function
        of the supplied uniforms, so any source producing the same uniforms
        reproduces the same groups.
        """

    @abstractmethod
    def describe(self) -> str:
        """One-line human-readable description."""


def _subset_types(m: int, k: int) -> np.ndarray:
    """The types of every k-subset of m types as uint8, one increasing row
    per subset, rows in lexicographic order."""
    if m > 64:
        # an explicit law's group masks are uint64
        raise CapacityError("an explicit group law holds at most 64 types")
    count = math.comb(m, k)
    flat = chain.from_iterable(combinations(range(m), k))
    return np.fromiter(flat, dtype=np.uint8, count=count * k).reshape(count, k)


def _type_bits(m: int) -> np.ndarray:
    """The uint64 bit of each of m types. A uint64 shift by 64 or more gives
    0, so past 64 types a group's mask would silently lose types."""
    if m > 64:
        raise CapacityError(f"m={m} exceeds the 64 types of a uint64 group mask")
    return np.left_shift(1, np.arange(m, dtype=np.uint64), dtype=np.uint64)


def _masks_of_rows(types: np.ndarray, m: int = 64) -> np.ndarray:
    """The uint64 bitmask of each row of indices of m types."""
    bits = _type_bits(m)
    masks = np.zeros(len(types), dtype=np.uint64)
    # 10,912 rows of 3 took 67 us, against 255 us by np.bitwise_or.reduce(axis=1)
    for t in types.T:
        masks |= bits[t]
    return masks


def _check_distinct_groups(m: int, g: int):
    if m < 1:
        raise InputError("m must be at least 1")
    if not 1 <= g < m:
        raise InputError(
            f"distinct-type groups need 1 <= g < m (got g={g}, m={m})"
        )


def _check_collectable(model: GroupModel):
    """Reject a model with a type that no group can ever contain."""
    bad = model.uncollectable_types()
    if bad:
        raise DivergenceError(
            f"type {bad[0]} never appears in any group, so the collection "
            f"cannot be completed",
            subset_mask=1 << bad[0],
        )


def _weighted_removal_masks(
    uniforms: np.ndarray, base_weights: np.ndarray, bits: np.ndarray
) -> np.ndarray:
    """Draw g distinct indices sequentially in proportion to a weight vector.

    Step j picks the first index whose cumulative remaining weight exceeds
    u_j times the total remaining weight, or index 0 where none does, then
    zeroes that index's weight. Returns the bitmask of drawn indices per
    row of uniforms, ``bits`` holding the bit of each index.
    """
    n, g = uniforms.shape
    m = base_weights.size
    # one column per row of uniforms. The cumulative sums run down the
    # columns in index order, as np.cumsum along a row adds, one row of
    # adds per index: at m=12 and 16,384 columns that took 0.17 ms, and
    # np.cumsum(axis=0) 1.2 ms. They are nondecreasing, so the first index
    # past the target is the number of sums at or below it
    weights = np.repeat(base_weights[:, np.newaxis], n, axis=1)
    cum = np.empty_like(weights)
    masks = np.zeros(n, dtype=np.uint64)
    columns = np.arange(n)
    for j in range(g):
        cum[0] = weights[0]
        for i in range(1, m):
            np.add(cum[i - 1], weights[i], out=cum[i])
        target = uniforms[:, j] * cum[-1]
        # masks are uint64, so m <= 64 and the count fits a uint8
        idx = (cum <= target).view(np.uint8).sum(axis=0, dtype=np.uint8)
        idx[idx == m] = 0
        masks |= bits[idx]
        weights[idx, columns] = 0.0
    return masks


# Every static inverse-CDF draw (urn positions, i.i.d. slots, weighted groups)
# finds its index through a guide table (Chen & Asau 1974) of at most
# 2**_GUIDE_BITS buckets; an urn of at most that many individuals has one each.
_GUIDE_BITS = 16


def _guide(cum: np.ndarray) -> tuple:
    """(total, stops, first, shift, steps) guiding a nondecreasing ``cum`` of
    integer counts or float weights, for targets from 0 to a position below
    the integer total or to the float total. ``stops`` is ``cum`` with its last
    entry raised past every target; bucket b starts exactly at b * 2**shift,
    ``first[b]`` counts the stops at or below it, and ``steps`` bounds the rest."""
    exact = cum.dtype.kind == "i"
    top = cum[-1] - 1 if exact else cum[-1]
    shift = math.frexp(top)[1] - _GUIDE_BITS  # top < 2**(shift + _GUIDE_BITS)
    shift = max(0, shift) if exact else shift
    stops = np.append(cum[:-1], np.iinfo(cum.dtype).max if exact else np.inf)
    # an integer top near 2**63 rounds up as a float, so its last bucket is
    # taken in integers: one bucket more would start past int64 and wrap
    last = int(top) >> shift if exact else int(top * 2.0**-shift)
    starts = np.arange(last + 1, dtype=cum.dtype) * 2**shift
    first = np.searchsorted(stops, starts, side="right")
    reach = np.append(np.searchsorted(stops, starts[1:], side="left"), len(cum) - 1)
    return cum[-1], stops, first, shift, int((reach - first).max())


def _guided_search(x: np.ndarray, guide) -> np.ndarray:
    """min(searchsorted(cum, x, "right"), len(cum) - 1) for targets x of
    ``_guide(cum)``: each steps from its bucket's first stop past those <= x."""
    _, stops, first, shift, steps = guide
    bucket = x >> shift if x.dtype.kind == "i" else (x * 2.0**-shift).astype(np.intp)
    idx = first[bucket]
    for _ in range(steps):
        idx += stops[idx] <= x
    return idx


def _ranked_urn_masks(uniforms: np.ndarray, guide, bits: np.ndarray) -> np.ndarray:
    """Draw g individuals without replacement from an urn of integer counts.

    Individuals carry absolute positions 0 .. N-1, ordered by type. Step j
    picks position rank floor(u_j * (N - j)) among the individuals still
    present; the rank is mapped to an absolute position by stepping over
    the positions already drawn (in increasing order), and the position is
    mapped to its type's bit: ``bits`` holds the bit of each position's type
    where every position has its own bucket of the urn's guide table
    (``_guide``), and else the bit of each type. Returns the bitmask of
    drawn types per row of uniforms.
    """
    n, g = uniforms.shape
    total = int(guide[0])
    per_position = guide[3] == 0
    masks = np.zeros(n, dtype=np.uint64)
    earlier = []  # the positions drawn so far, increasing along the list
    for j in range(g):
        position = (uniforms[:, j] * (total - j)).astype(np.int64)
        np.minimum(position, total - j - 1, out=position)
        for drawn in earlier:
            position += position >= drawn
        masks |= bits[position if per_position else _guided_search(position, guide)]
        if j < g - 1:
            # insert by a min and a max per earlier position: on 16,384
            # rows of two, np.sort(axis=1) took 478 us and these 17 us
            for k, drawn in enumerate(earlier):
                earlier[k] = np.minimum(drawn, position)
                position = np.maximum(drawn, position)
            earlier.append(position)
    return masks


class _CountLaw(GroupModel):
    """A law whose q(S) depends on S only through an additive statistic.

    Subclasses give the per-type weights as ``_counts``; the excluded
    weight c of S is their sum over S, added in increasing type order as
    ``subset_sums`` adds them. ``_count_avoidance`` evaluates q for an
    array of such sums, so a single query and the table agree bit for bit.
    By default the weights are the integer counts of an urn that g
    individuals are drawn from without replacement, q(c) =
    P(N - c, g) / P(N, g), and groups are drawn from that urn.
    """

    def _count_avoidance(self, excluded: np.ndarray) -> np.ndarray:
        """q at each excluded count, as the g-factor product of (N-c-j)/(N-j)."""
        total = sum(self._counts)
        remaining = total - excluded
        q = np.ones_like(remaining)
        for j in range(self.g):
            q *= np.maximum(remaining - j, 0.0) / (total - j)
        return q

    def avoidance_probability(self, subset_mask: int) -> float:
        excluded = 0.0
        for i in types_of(self._check_mask(subset_mask)):
            excluded += self._counts[i]
        return float(self._count_avoidance(np.array([excluded]))[0])

    def avoidance_blocks(self, lo: int = 0, hi: int | None = None):
        # each block adds its high weights to the low bits' sums in
        # increasing bit order, so its sums are those of subset_sums
        weights = np.asarray(self._counts, dtype=np.float64)
        bits = min(_BLOCK_BITS, self.m)
        low = subset_sums(weights[:bits])
        for high in range(lo, 1 << (self.m - bits) if hi is None else hi):
            excluded = low.copy() if high else low
            for i in types_of(high << bits):
                excluded += weights[i]
            yield self._count_avoidance(excluded)

    def uncollectable_types(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self._counts) if c == 0)

    @property
    def uniforms_per_group(self) -> int:
        return self.g

    @cached_property
    def _draw_table(self) -> tuple:
        """(guide, bits) of ``_ranked_urn_masks``. Its positions are int64,
        so an urn of 2**63 individuals or more raises ``CapacityError``."""
        if (total := sum(self._counts)) >= 1 << 63:
            raise CapacityError(
                f"an urn of {total} individuals is past the simulator's "
                f"2**63 - 1 (its positions are int64)"
            )
        guide = _guide(np.cumsum(np.asarray(self._counts, dtype=np.int64)))
        bits = _type_bits(self.m)
        return guide, bits[guide[2]] if guide[3] == 0 else bits

    def draw_groups(self, uniforms: np.ndarray) -> np.ndarray:
        return _ranked_urn_masks(uniforms, *self._draw_table)


class _ExplicitLaw(GroupModel):
    """A group law given as explicit (group mask, weight) pairs.

    Subclasses give the pairs as ``_group_law = (masks, weights)``; q(S) is
    the total weight of the groups disjoint from S.
    """

    def avoidance_probability(self, subset_mask: int) -> float:
        subset_mask = self._check_mask(subset_mask)
        if subset_mask == 0:
            return 1.0  # every group avoids nothing
        masks, weights = self._group_law
        inside = (masks & np.uint64(subset_mask)) == 0
        return min(1.0, math.fsum(weights[inside].tolist()))

    @cached_property
    def _block_runs(self) -> tuple[list, np.ndarray, np.ndarray]:
        """(runs, positions, weights): the groups sorted by high part, each
        run of one high part in the law's order, as (part, start, stop)
        triples, so that a block reads only the groups it counts; and each
        group's low mask as its position in ``zeta_layout``. Built once
        per model: the engine builds it before its lattice walk forks, so
        that the forked spans inherit it."""
        masks, weights = self._group_law
        bits = min(_BLOCK_BITS, self.m)
        order = np.argsort(masks >> bits, kind="stable")
        masks, weights = masks[order], weights[order]
        parts, starts = np.unique(masks >> bits, return_index=True)
        runs = list(zip(parts.tolist(), starts.tolist(), [*starts[1:].tolist(), None]))
        low_parts = (masks & ((1 << bits) - 1)).astype(np.intp)
        return runs, zeta_layout(low_parts, bits), weights

    def avoidance_blocks(self, lo: int = 0, hi: int | None = None):
        # q(S) is the total weight of the groups inside the complement of
        # S. The masks of block h share the high part h, so the groups it
        # counts are those whose high part misses h: block entry l is the
        # weight of those whose low mask misses l, the row of their low
        # masks zeta-summed at complements, summed straight into the
        # zeta's layout
        runs, positions, weights = self._block_runs
        bits = min(_BLOCK_BITS, self.m)
        for high in range(lo, 1 << (self.m - bits) if hi is None else hi):
            inside = [slice(a, b) for part, a, b in runs if not part & high]
            if inside:
                laid = np.bincount(
                    np.concatenate([positions[run] for run in inside]),
                    weights=np.concatenate([weights[run] for run in inside]),
                    minlength=1 << bits,
                )
            else:
                laid = np.zeros(1 << bits)
            block = subset_zeta(laid)
            # the weights are nonnegative and q does not increase as S
            # grows, so the row's total, block[0], is the block's largest q,
            # and only a total rounded above 1 needs clipping
            if block[0] > 1.0:
                np.minimum(block, 1.0, out=block)
            if high == 0:
                block[0] = 1.0  # every group avoids the empty set
            yield block

    def uncollectable_types(self) -> tuple[int, ...]:
        masks, weights = self._group_law
        covered = int(np.bitwise_or.reduce(masks[weights > 0.0]))
        return tuple(i for i in range(self.m) if not covered & (1 << i))


@dataclass(frozen=True)
class UniformDistinct(_CountLaw):
    """All C(m, g) distinct-type groups equally likely.

    The same law as drawing g individuals from an urn of m singletons, and
    evaluated and sampled as that urn.
    """

    m: int
    g: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m"))
        object.__setattr__(self, "g", _integer(self.g, "g"))
        _check_distinct_groups(self.m, self.g)

    @property
    def _counts(self) -> tuple[int, ...]:
        return (1,) * self.m

    def describe(self) -> str:
        return f"uniform_distinct(m={self.m}, g={self.g})"


@dataclass(frozen=True)
class WeightedDistinct(_ExplicitLaw):
    """Distinct-type groups with explicit per-group probabilities.

    ``weights[i]`` is the probability of the i-th g-subset of types in
    lexicographic order of the sorted type tuples, e.g. for m=4, g=2:
    (0,1), (0,2), (0,3), (1,2), (1,3), (2,3).
    """

    m: int
    g: int
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m"))
        object.__setattr__(self, "g", _integer(self.g, "g"))
        _check_distinct_groups(self.m, self.g)
        expected = math.comb(self.m, self.g)
        if len(self.weights) != expected:
            raise InputError(
                f"weighted_distinct needs C({self.m},{self.g}) = {expected} "
                f"group weights, got {len(self.weights)}"
            )
        object.__setattr__(
            self, "weights", _validated_probabilities(self.weights, "group weights")
        )

    @cached_property
    def _group_law(self) -> tuple[np.ndarray, np.ndarray]:
        masks = _masks_of_rows(_subset_types(self.m, self.g))
        return masks, np.asarray(self.weights, dtype=np.float64)

    @cached_property
    def _draw_table(self) -> tuple:
        return _guide(np.cumsum(self._group_law[1]))

    @property
    def uniforms_per_group(self) -> int:
        return 1

    def draw_groups(self, uniforms: np.ndarray) -> np.ndarray:
        guide = self._draw_table
        return self._group_law[0][_guided_search(uniforms[:, 0] * guide[0], guide)]

    def describe(self) -> str:
        return f"weighted_distinct(m={self.m}, g={self.g})"


@dataclass(frozen=True)
class IidWithinGroup(_CountLaw):
    """Each of the g slots independently equals type k with probability p[k].

    A count-statistic law on the weights p: a group avoids S when each slot
    misses it, so q(S) = (1 - p(S))**g.
    """

    p: tuple[float, ...]
    g: int

    def __post_init__(self):
        object.__setattr__(self, "g", _integer(self.g, "g"))
        object.__setattr__(
            self, "p", _validated_probabilities(self.p, "type probabilities")
        )
        if self.g < 1:
            raise InputError("group size g must be at least 1")

    @property
    def m(self) -> int:
        return len(self.p)

    @property
    def _counts(self) -> tuple[float, ...]:
        return self.p

    def _count_avoidance(self, excluded: np.ndarray) -> np.ndarray:
        # clipped and raised in place, so each block of sums makes one array
        q = 1.0 - excluded
        np.clip(q, 0.0, None, out=q)
        return np.power(q, self.g, out=q)

    @cached_property
    def _draw_table(self) -> tuple:
        return _guide(np.cumsum(self.p))

    def draw_groups(self, uniforms: np.ndarray) -> np.ndarray:
        guide = self._draw_table
        return _masks_of_rows(_guided_search(uniforms * guide[0], guide), self.m)

    def describe(self) -> str:
        return f"iid_within_group(m={self.m}, g={self.g})"


@dataclass(frozen=True)
class WithoutReplacement(_CountLaw):
    """g individuals drawn without replacement from a finite population."""

    population: Population
    g: int

    def __post_init__(self):
        if not isinstance(self.population, Population):
            object.__setattr__(self, "population", Population(tuple(self.population)))
        object.__setattr__(self, "g", _integer(self.g, "g"))
        if not 1 <= self.g <= self.population.total:
            raise InputError(
                f"sample size g must satisfy 1 <= g <= N={self.population.total} "
                f"(got g={self.g})"
            )

    @property
    def m(self) -> int:
        return self.population.m

    @property
    def _counts(self) -> tuple[int, ...]:
        return self.population.counts

    def describe(self) -> str:
        return f"without_replacement(counts={self.population.counts}, g={self.g})"


@dataclass(frozen=True)
class DraftLottery(_ExplicitLaw):
    """Sequential weighted type draws, duplicates discarded, until g distinct.

    The chance that the assembled group equals a set G is the sum over
    orderings (t_1, .., t_g) of G of prod_j p[t_j] / (1 - p[t_1] - .. -
    p[t_{j-1}]), the successive-sampling law.
    """

    p: tuple[float, ...]
    g: int

    def __post_init__(self):
        object.__setattr__(self, "g", _integer(self.g, "g"))
        object.__setattr__(
            self, "p", _validated_probabilities(self.p, "type probabilities")
        )
        _check_distinct_groups(self.m, self.g)
        if self.g > DRAFT_MAX_GROUP_SIZE:
            raise InputError(
                f"draft lottery supports g <= {DRAFT_MAX_GROUP_SIZE} "
                f"(exact group weights are enumerated)"
            )
        support = sum(1 for v in self.p if v > 0.0)
        if support < self.g:
            raise InputError(
                f"draft lottery needs at least g={self.g} types with positive "
                f"probability (got {support})"
            )

    @property
    def m(self) -> int:
        return len(self.p)

    @cached_property
    def _group_law(self) -> tuple[np.ndarray, np.ndarray]:
        """(masks, weights) of every g-subset under the successive-sampling law.

        Built level by level over the subsets of at most g types: the
        probability W(A) that the first |A| distinct types are exactly A
        satisfies W(A) = sum over t in A of W(A - {t}) * p[t] /
        (1 - mass(A - {t})). Each mass adds p in increasing type order, as
        ``subset_sums`` does, and each W adds its terms in that order.

        More than ``_MAX_CLASSES`` groups raise ``CapacityError`` before
        any is enumerated: at m = 40, g = 8 they would take about 8.5 GB.
        """
        m, g = self.m, self.g
        if (groups := math.comb(m, g)) > _MAX_CLASSES:
            raise CapacityError(
                f"a draft lottery of m={m}, g={g} has {groups} groups, above "
                f"the {_MAX_CLASSES} (2**{_MAX_CLASSES.bit_length() - 1}) "
                f"its exact group law may hold; use the Monte Carlo oracle"
            )
        p = np.asarray(self.p, dtype=np.float64)
        # each level below g is held in colex order, where the subset with
        # sorted types b_0 < b_1 < .. has rank sum_j C(b_j, j + 1)
        comb = np.array(
            [[math.comb(t, r) for t in range(m)] for r in range(g + 1)], dtype=np.int64
        )
        mass = np.zeros(1)  # level 0: the empty set
        prefix = np.ones(1)
        for k in range(1, g + 1):
            types = _subset_types(m, k)
            # A - {a_i} keeps the types a_j, j < i, at place j and moves
            # those after it down one place: its rank is the sum of
            # C(a_j, j + 1) over j < i (below) and C(a_j, j) over j > i (above)
            below = np.zeros(len(types), dtype=np.int64)
            above = np.zeros(len(types), dtype=np.int64)
            for i, t in enumerate(types.T):
                above += comb[i][t]
            acc = np.zeros(len(types))
            for i, t in enumerate(types.T):
                above -= comb[i][t]
                before = below + above
                left = 1.0 - mass[before]
                ratio = np.where(left > 0.0, p[t] / np.where(left > 0.0, left, 1.0), 0.0)
                acc += prefix[before] * ratio
                below += comb[i + 1][t]
            if k < g:
                # below is now the rank of A itself; the last before is
                # A - {a_(k-1)}, and adding p[a_(k-1)] to its mass adds p
                # over A in increasing type order
                mass_k = np.empty(len(types))
                mass_k[below] = mass[before] + p[types[:, -1]]
                prefix = np.empty(len(types))
                prefix[below] = acc
                mass = mass_k
        # acc now holds the g-subsets' weights in lexicographic order; the
        # recursion accumulates rounding of order ulp, so renormalize to
        # total mass 1
        return _masks_of_rows(types), acc / math.fsum(acc.tolist())

    def uncollectable_types(self) -> tuple[int, ...]:
        # at least g types have p > 0, so each of them is drawn first into
        # some group of positive weight; the group law is not needed
        return tuple(i for i, pi in enumerate(self.p) if pi == 0.0)

    @property
    def uniforms_per_group(self) -> int:
        return self.g

    @cached_property
    def _draw_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, the bit of each type)."""
        return np.asarray(self.p, dtype=np.float64), _type_bits(self.m)

    def draw_groups(self, uniforms: np.ndarray) -> np.ndarray:
        return _weighted_removal_masks(uniforms, *self._draw_table)

    def describe(self) -> str:
        return f"draft_lottery(m={self.m}, g={self.g})"


def avoidance_probability(model: GroupModel, subset_mask: int) -> float:
    """Probability that one group drawn from ``model`` avoids every type in S."""
    return model.avoidance_probability(subset_mask)


# rng's annotation is a string, so that importing this module does not load
# numpy.random, which only the simulator and this function use
def sample_group(model: GroupModel, rng: "np.random.Generator") -> int:
    """Draw one group and return the bitmask of types it contains.

    Consumes exactly ``model.uniforms_per_group`` doubles from ``rng``,
    so a caller holding a Philox stream reproduces the simulator's draws.
    """
    uniforms = rng.random(model.uniforms_per_group)[np.newaxis, :]
    return int(model.draw_groups(uniforms)[0])


def mandelbrot_weights(m: int, c: float, theta: float) -> tuple[float, ...]:
    """Zipf-Mandelbrot probabilities p_i proportional to (c + i)**(-theta).

    Ranks i run 1 .. m, so the entries are strictly decreasing.
    """
    m = _integer(m, "m")
    if m < 1:
        raise InputError("m must be at least 1")
    c, theta = _reals((c, theta), "offset c and exponent theta")
    if c < 0.0 or not math.isfinite(c):
        raise InputError("offset c must be a finite nonnegative real")
    if not 1.0 <= theta <= 2.0:
        raise InputError(f"exponent theta must lie in [1, 2] (got {theta})")
    raw = [(c + i) ** (-theta) for i in range(1, m + 1)]
    total = math.fsum(raw)
    return tuple(w / total for w in raw)


def population_from_weights(p, total: int) -> Population:
    """Integer population of size ``total`` approximating proportions ``p``.

    Each type gets max(1, round(total * p_i)) individuals, then a
    largest-remainder adjustment moves single individuals until the counts
    sum to ``total`` exactly, never dropping a type below 1.
    """
    p = _validated_probabilities(p, "proportions")
    total = _integer(total, "population size")
    m = len(p)
    if total < m:
        raise InputError(
            f"population size {total} cannot give each of {m} types an individual"
        )
    quota = [total * pi for pi in p]
    counts = [max(1, round(q)) for q in quota]
    shortfall = total - sum(counts)
    while shortfall > 0:
        i = max(range(m), key=lambda i: (quota[i] - counts[i], -i))
        counts[i] += 1
        shortfall -= 1
    while shortfall < 0:
        adjustable = [i for i in range(m) if counts[i] > 1]
        i = max(adjustable, key=lambda i: (counts[i] - quota[i], -i))
        counts[i] -= 1
        shortfall += 1
    return Population(tuple(counts))


_VARIANTS = (
    "uniform_distinct",
    "weighted_distinct",
    "iid_within_group",
    "without_replacement",
    "draft_lottery",
)


def _weighted_m_from_length(length: int, g: int) -> int:
    if g < 1:  # C(m, 0) = 1 for every m: the search would never end
        raise InputError(f"distinct-type groups need g >= 1 (got g={g})")
    m = g + 1
    while math.comb(m, g) < length:
        m += 1
    if math.comb(m, g) != length:
        raise InputError(
            f"a weight vector of length {length} does not match C(m, {g}) for any m"
        )
    return m


def model_from_dict(obj) -> GroupModel:
    """Build a model from the JSON input-file schema.

    Expected shape: ``{"model": <variant>, "g": int, ...payload...}`` where
    the payload is ``"counts"`` (without_replacement), ``"p"``
    (iid_within_group, draft_lottery), ``"q"`` (weighted_distinct), ``"m"``
    (uniform_distinct), or ``"mandelbrot": {"m", "c", "theta", "N"}`` which
    expands to a population (without_replacement) or a probability vector.
    """
    if not isinstance(obj, dict):
        raise InputError("model specification must be a JSON object")
    variant = obj.get("model")
    if variant not in _VARIANTS:
        raise InputError(
            f"unknown model {variant!r}; expected one of {', '.join(_VARIANTS)}"
        )
    if "g" not in obj:
        raise InputError("model specification requires integer field 'g'")
    g = _integer(obj["g"], "field 'g'")
    try:
        return _model_of_fields(obj, variant, g)
    except InputError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # a field of the wrong type, such as "q": 5 or "p": [0.5, null]
        raise InputError(f"invalid model field: {exc}") from exc


def _model_of_fields(obj: dict, variant: str, g: int) -> GroupModel:
    mandel = obj.get("mandelbrot")
    weights = None
    mandel_total = None
    if mandel is not None:
        if not isinstance(mandel, dict) or not {"m", "c", "theta"} <= set(mandel):
            raise InputError(
                "field 'mandelbrot' must be an object with keys m, c, theta"
                " (and N for population models)"
            )
        weights = mandelbrot_weights(mandel["m"], mandel["c"], mandel["theta"])
        if "N" in mandel:
            mandel_total = _integer(mandel["N"], "mandelbrot.N")

    if variant == "uniform_distinct":
        if "m" not in obj:
            raise InputError("uniform_distinct requires integer field 'm'")
        return UniformDistinct(obj["m"], g)
    if variant == "weighted_distinct":
        if "q" not in obj:
            raise InputError("weighted_distinct requires field 'q' (group weights)")
        q = obj["q"]
        m = _weighted_m_from_length(len(q), g)
        return WeightedDistinct(m, g, tuple(q))
    if variant == "without_replacement":
        if "counts" in obj:
            return WithoutReplacement(Population(tuple(obj["counts"])), g)
        if weights is not None:
            if mandel_total is None:
                raise InputError(
                    "without_replacement with 'mandelbrot' requires mandelbrot.N"
                )
            return WithoutReplacement(
                population_from_weights(weights, mandel_total), g
            )
        raise InputError("without_replacement requires 'counts' or 'mandelbrot'")
    # remaining variants take a probability vector over types
    if "p" in obj:
        p = tuple(obj["p"])
    elif weights is not None:
        p = weights
    else:
        raise InputError(f"{variant} requires 'p' or 'mandelbrot'")
    if variant == "iid_within_group":
        return IidWithinGroup(p, g)
    return DraftLottery(p, g)


def load_model(path) -> GroupModel:
    """Read a model from a JSON file (see :func:`model_from_dict`)."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(obj)
