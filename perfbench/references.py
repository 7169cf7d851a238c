"""Reference expectations that share no code with the package's engine.

Every value is E = sum over nonempty type sets S of
(-1)**(|S|+1) / (1 - q(S)), with q(S) the chance one group avoids S.

Exact rationals (``fractions.Fraction``):

- ``urn``: g draws from a population of integer counts, without or with
  replacement. q depends only on the excluded count c = sum of n_i over S,
  so with a_c the coefficient of x**c in prod_i (1 - x**n_i),
  E = -sum over c >= 1 of a_c / (1 - q(c)).
- ``uniform``: all C(m, g) distinct groups equally likely; q depends only
  on |S|, so the sum runs over the m size classes.
- ``weighted``: integer weights per g-subset. An int64 subset-zeta over
  the weights gives q(S) * W for every S exactly; terms are grouped by
  that integer before the exact sum.

Double precision (``draft``): the successive-sampling group law is built
exactly in rationals from the float probabilities, then q(S) and the sum
are evaluated in float64 with an exactly rounded final sum. No rational
form of the 2**m sum is affordable here, so it checks the engine to a
tolerance but does not feed the rational error metric.

Each reference also gives the sum's condition number, sum(|term|) /
|E|, computed here from the same classes of terms. A float64 evaluation
of the sum cannot be trusted below about unit roundoff times that
number, which is how ``run.py`` sets the tolerance of ``exact``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np


def group_masks(m: int, g: int) -> np.ndarray:
    """Bitmasks of the g-subsets of range(m) in lexicographic order."""
    masks = [sum(1 << t for t in combo) for combo in combinations(range(m), g)]
    return np.array(masks, dtype=np.int64)


def _odd_parity(m: int) -> np.ndarray:
    """Boolean array: True where the mask below 2**m has an odd bit count."""
    odd = np.zeros(1 << m, dtype=bool)
    for b in range(m):
        size = 1 << b
        odd[size : 2 * size] = ~odd[:size]
    return odd


def _avoided_weight(m: int, g: int, weights: np.ndarray) -> np.ndarray:
    """Total weight of the groups disjoint from S, for every nonempty S.

    ``weights`` is per g-subset in lexicographic order. A subset-zeta
    transform gives the weight inside every set T; the groups avoiding S
    are those inside its complement. Exact when ``weights`` are integers.
    """
    contained = np.zeros(1 << m, dtype=weights.dtype)
    contained[group_masks(m, g)] = weights
    for b in range(m):
        block = contained.reshape(-1, 2, 1 << b)
        block[:, 1, :] += block[:, 0, :]
    return contained[::-1][1:]


def _sum_classes(classes) -> tuple[Fraction, float]:
    """Exact E and float sum(|term|) over classes of equal terms.

    Each class is (signed, size, whole, gap): ``size`` subsets share the
    term 1 / (1 - q) = whole / gap, and their signs add up to ``signed``.
    """
    classes = [c for c in classes if c[1]]
    common = math.lcm(*(gap for _, _, _, gap in classes))
    value = Fraction(
        sum(signed * whole * (common // gap) for signed, _, whole, gap in classes),
        common,
    )
    abs_sum = math.fsum(size * whole / gap for _, size, whole, gap in classes)
    return value, abs_sum


def _urn_classes(counts, g: int, replace: bool):
    total = sum(counts)
    signed = [1] + [0] * total  # coefficients of prod (1 - x**n_i), by degree
    sizes = [1] + [0] * total  # coefficients of prod (1 + x**n_i)
    for n in counts:
        for c in range(total, n - 1, -1):
            signed[c] -= signed[c - n]
            sizes[c] += sizes[c - n]
    if replace:
        whole = total**g
        avoid = [(total - c) ** g for c in range(total + 1)]
    else:
        whole = math.perm(total, g)
        avoid = [math.perm(total - c, g) for c in range(total + 1)]
    # signed[c] adds (-1)**|S| over the sets S excluding c individuals; a
    # term's sign is (-1)**(|S|+1), hence the minus
    return [(-signed[c], sizes[c], whole, whole - avoid[c]) for c in range(1, total + 1)]


def _uniform_classes(m: int, g: int):
    whole = math.comb(m, g)
    return [
        ((-1) ** (k + 1) * math.comb(m, k), math.comb(m, k), whole,
         whole - math.comb(m - k, g))
        for k in range(1, m + 1)
    ]


def _weighted_classes(m: int, g: int, weights):
    weights = np.asarray(weights, dtype=np.int64)
    total = int(weights.sum())
    avoided = _avoided_weight(m, g, weights)  # W * q(S), exact in int64
    odd = _odd_parity(m)[1:]
    n_odd = np.bincount(avoided[odd], minlength=total + 1)
    n_even = np.bincount(avoided[~odd], minlength=total + 1)
    if n_odd[total] or n_even[total]:
        raise ValueError("a nonempty type set is avoided by every group")
    return [
        (int(n_odd[a] - n_even[a]), int(n_odd[a] + n_even[a]), total, total - a)
        for a in np.nonzero(n_odd + n_even)[0].tolist()
    ]


def urn_expectation(counts, g: int, replace: bool) -> Fraction:
    """Exact E for g draws from an urn with integer per-type ``counts``."""
    return _sum_classes(_urn_classes(counts, g, replace))[0]


def uniform_expectation(m: int, g: int) -> Fraction:
    """Exact E when all C(m, g) distinct-type groups are equally likely."""
    return _sum_classes(_uniform_classes(m, g))[0]


def weighted_expectation(m: int, g: int, weights) -> Fraction:
    """Exact E for integer weights on the g-subsets (lexicographic order)."""
    return _sum_classes(_weighted_classes(m, g, weights))[0]


def _draft(p, g: int) -> tuple[float, float]:
    """E and sum(|term|) for the draft lottery, in float64 from an exact
    rational group law."""
    m = len(p)
    exact_p = [Fraction(x) for x in p]
    mass = sum(exact_p)
    exact_p = [x / mass for x in exact_p]
    weights = []
    for combo in combinations(range(m), g):
        weight = Fraction(0)
        for order in permutations(combo):
            prob, left = Fraction(1), Fraction(1)
            for t in order:
                prob *= exact_p[t] / left
                left -= exact_p[t]
            weight += prob
        weights.append(float(weight))
    avoided = _avoided_weight(m, g, np.array(weights))
    signs = np.where(_odd_parity(m)[1:], 1.0, -1.0)
    terms = 1.0 / (1.0 - avoided)
    return math.fsum((signs * terms).tolist()), math.fsum(terms.tolist())


@dataclass(frozen=True)
class Reference:
    """A reference value and the condition number of its alternating sum.

    ``value`` is a ``Fraction`` when exact, a ``float`` for the draft
    lottery. ``condition`` is sum(|term|) / |value|.
    """

    value: Fraction | float
    condition: float


def reference(desc: dict) -> Reference:
    """Reference for a description made by ``inputs.build``."""
    kind = desc["kind"]
    if kind == "urn":
        value, abs_sum = _sum_classes(
            _urn_classes(desc["counts"], desc["g"], desc["replace"])
        )
    elif kind == "uniform":
        value, abs_sum = _sum_classes(_uniform_classes(desc["m"], desc["g"]))
    elif kind == "weighted":
        value, abs_sum = _sum_classes(
            _weighted_classes(desc["m"], desc["g"], desc["weights"])
        )
    elif kind == "draft":
        value, abs_sum = _draft(desc["p"], desc["g"])
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    return Reference(value, abs_sum / abs(float(value)))


def relative_error(value: float, ref: Fraction | float) -> float:
    """|value - ref| / |ref|, exact in rationals when ``ref`` is a Fraction."""
    if isinstance(ref, Fraction):
        return float(abs(Fraction(value) - ref) / abs(ref))
    return abs(value - ref) / abs(ref)
