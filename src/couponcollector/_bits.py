"""Subset-lattice helpers: bitmask utilities and vectorized lattice transforms.

Subsets of the type universe {0, .., m-1} are represented as integer
bitmasks (bit i set <=> type i in the set). Arrays indexed by mask have
length 2**m and run in increasing bitmask order; ``subset_sum_classes``
instead groups the subsets by the sum of their integer counts.
"""

from collections.abc import Iterable

import numpy as np


def mask_of(types: Iterable[int]) -> int:
    """Bitmask of a collection of type indices."""
    mask = 0
    for t in types:
        mask |= 1 << t
    return mask


def types_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of type indices present in a bitmask."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subset_sums(values) -> np.ndarray:
    """All 2**m subset sums of ``values``, indexed by bitmask.

    Built by doubling: each bit extends the table with the previous block
    shifted by that bit's value, so every entry costs one addition.
    """
    values = np.asarray(values, dtype=np.float64)
    m = values.shape[0]
    out = np.zeros(1 << m, dtype=np.float64)
    for b in range(m):
        size = 1 << b
        out[size : 2 * size] = out[:size] + values[b]
    return out


def subset_sum_classes(counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct subset sums c of integer ``counts`` with two multiplicities.

    Returns ``(sums, signed, total)`` in increasing order of c: for
    c = ``sums[j]``, ``signed[j]`` is the sum of (-1)**|S| and ``total[j]``
    the number of subsets S with sum c, the coefficients of x**c in
    prod(1 - x**n) and prod(1 + x**n). Each count merges the sorted run of
    sums with the same run shifted by that count and folds equal sums
    together, so the work grows with the number of distinct sums (at most
    sum(counts) + 1), not with 2**m. Sums are float64 (exact below 2**53);
    the multiplicities are int64 and, for up to 52 counts, below 2**53, so
    exact as floats.
    """
    if len(counts) > 52:
        raise ValueError("subset multiplicities pass 2**53 above 52 counts")
    sums = np.zeros(1, dtype=np.float64)
    signed = np.ones(1, dtype=np.int64)
    total = np.ones(1, dtype=np.int64)
    # each step drops its inputs as soon as it can: at N >> 2**m the
    # arrays hold up to 2**m entries
    for n in counts:
        merged = np.concatenate([sums, sums + n])
        del sums
        order = np.argsort(merged, kind="stable")  # merges the two sorted runs
        merged = merged[order]
        signed = np.concatenate([signed, -signed])
        signed = signed[order]
        total = np.concatenate([total, total])
        total = total[order]
        del order
        # each run holds distinct sums, so equal sums come in adjacent pairs
        pairs = np.flatnonzero(merged[1:] == merged[:-1])
        signed[pairs] += signed[pairs + 1]
        total[pairs] += total[pairs + 1]
        keep = np.ones(merged.size, dtype=bool)
        keep[pairs + 1] = False
        del pairs
        sums = merged[keep]
        del merged
        signed = signed[keep]
        total = total[keep]
    return sums, signed, total


def popcounts(m: int) -> np.ndarray:
    """Array of bit counts for every mask below 2**m."""
    out = np.zeros(1 << m, dtype=np.int64)
    for b in range(m):
        size = 1 << b
        out[size : 2 * size] = out[:size] + 1
    return out


def subset_zeta(values: np.ndarray) -> np.ndarray:
    """Sum-over-subsets transform: out[T] = sum of values[S] for S subseteq T.

    Standard in-place bitwise dynamic program, vectorized one bit at a time.
    """
    out = np.array(values, dtype=np.float64, copy=True)
    n = out.shape[0]
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError("length must be a power of two")
    for b in range(m):
        block = out.reshape(-1, 2, 1 << b)
        block[:, 1, :] += block[:, 0, :]
    return out
