"""Subset-lattice helpers: bitmask utilities and vectorized lattice transforms.

Subsets of the type universe {0, .., m-1} are represented as integer
bitmasks (bit i set <=> type i in the set). Arrays indexed by mask have
length 2**m and run in increasing bitmask order; ``subset_sum_classes``
instead groups the subsets by the sum of their values.
"""

from collections.abc import Iterable

import numpy as np

# masks or count classes per block: the temporaries stay small, and the
# sum reads one block's floats at a time instead of one array of all. At
# m = 24, N = 10**8 (about 2**24 count classes) one pass peaked at 962 MB
# and took 4.5 s; in blocks, 399 MB and 2.3 s
_BLOCK_BITS = 16


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


def subset_sum_classes(
    values,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct subset sums s of nonnegative ``values``, with multiplicities.

    Returns ``(sums, signed, total, largest)`` in increasing order of s: for
    s = ``sums[j]``, ``signed[j]`` is the sum of (-1)**|S| and ``total[j]``
    the number of subsets S with sum s, and ``largest[j]`` the largest |S|
    among them. For integer values these are the coefficients of x**s in
    prod(1 - x**n) and prod(1 + x**n). Each value merges the sorted run of
    sums with the same run shifted by that value and folds each run of
    equal sums into its first entry, so the work grows with the number of
    distinct sums (at most sum(values) + 1 for integers), not with 2**m.

    The sums are added in the bit order of ``subset_sums``, so each one is
    the float64 that ``subset_sums`` gives its subsets: shifting a class
    shifts each of its subsets by the same rounded addition. For integers
    they are exact below 2**53. The multiplicities are int64 and, for up
    to 52 values, below 2**53, so exact as floats.
    """
    if len(values) > 52:
        raise ValueError("subset multiplicities pass 2**53 above 52 values")
    sums = np.zeros(1, dtype=np.float64)
    signed = np.ones(1, dtype=np.int64)
    total = np.ones(1, dtype=np.int64)
    largest = np.zeros(1, dtype=np.uint8)
    # each step drops its inputs as soon as it can: at N >> 2**m the
    # arrays hold up to 2**m entries
    for v in values:
        merged = np.concatenate([sums, sums + v])
        del sums
        order = np.argsort(merged, kind="stable")  # merges the two sorted runs
        merged = merged[order]
        # one statement each, so the old run is freed before the gather
        signed = np.concatenate([signed, -signed])
        signed = signed[order]
        total = np.concatenate([total, total])
        total = total[order]
        largest = np.concatenate([largest, largest + np.uint8(1)])
        largest = largest[order]
        del order
        # float rounding can make a shifted run repeat a sum, and two equal
        # shifted sums can meet a third unshifted one: runs of equal sums
        # have any length. Each later entry of a run folds into its head
        joins = np.flatnonzero(merged[1:] == merged[:-1])
        starts = np.ones(joins.size, dtype=bool)
        starts[1:] = joins[1:] != joins[:-1] + 1
        head = joins[starts][np.cumsum(starts) - 1]
        later = joins + 1
        del joins, starts
        np.add.at(signed, head, signed[later])
        np.add.at(total, head, total[later])
        np.maximum.at(largest, head, largest[later])
        del head
        keep = np.ones(merged.size, dtype=bool)
        keep[later] = False
        del later
        sums = merged[keep]
        del merged
        signed = signed[keep]
        total = total[keep]
        largest = largest[keep]
    return sums, signed, total, largest


# ``subset_zeta`` takes the bits in chunks of this many, each at the top
# of its layout; see there
_ZETA_CHUNK_BITS = 8

# numpy's ufunc buffer, in elements, while ``subset_zeta`` runs its passes.
# numpy 2.4 buffers a 2-D pass whose inner runs are shorter than half its
# default buffer of 8192 elements: on runs of 2048 floats a pass took 43 us
# at the default and 12 us at 256
_ZETA_BUFSIZE = 256


def zeta_layout(masks: np.ndarray, m: int) -> np.ndarray:
    """The position in ``subset_zeta``'s input of each of the masks, of m
    bits: the mask order reversed, which complements each mask, with the
    low chunk of k = min(8, m) bits moved to the top. The complement c
    goes to (c mod 2**k) * 2**(m-k) + c // 2**k.
    """
    k = min(_ZETA_CHUNK_BITS, m)
    c = ((1 << m) - 1) - masks
    return ((c & ((1 << k) - 1)) << (m - k)) | (c >> k)


def subset_zeta(laid: np.ndarray) -> np.ndarray:
    """Sum-over-subsets transform read at complements: entry T of the
    result is the sum of the values of the S disjoint from T, for a row
    that holds the value of S at ``zeta_layout(S, m)``.

    That is the standard transform (out[T] = sum of values[S] for S
    subseteq T, one vectorized pass per bit, bits in increasing order)
    reversed, since reversing an array of 2**m entries complements each
    index; every entry gets the same additions in the same order, so the
    floats are the same. Read reversed, each pass is a superset sum. The
    bits go in chunks of up to 8 from the bottom, each at the top of the
    layout, where its passes add runs of at least 2**(m-8) floats: a
    transposing copy moves each later chunk there, and after the last
    chunk the layout is back in mask order. The first chunk is already
    there in the input's layout, which is what that copy would make of the
    reversed row, so a row built straight into it (by ``np.bincount`` at
    ``zeta_layout``) takes one copy at m = 16, where chunks of 4 took
    three. The passes run under a ufunc buffer of ``_ZETA_BUFSIZE``
    elements, so that numpy adds runs as short as 2**8 floats in place,
    unbuffered; the caller's buffer size is restored on return.

    ``laid`` must be a contiguous float64 array of length 2**m. The result
    is a new contiguous array or ``laid`` itself, which serves as one of
    the two buffers of the copies, so its contents are lost.
    """
    n = laid.shape[0]
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError("length must be a power of two")
    src, buffers = laid, (laid, np.empty(n))
    bufsize = np.setbufsize(_ZETA_BUFSIZE)
    try:
        for i, low in enumerate(range(0, m, _ZETA_CHUNK_BITS)):
            k = min(_ZETA_CHUNK_BITS, m - low)
            out = buffers[i % 2]
            if i:
                np.copyto(out.reshape(1 << k, -1), src.reshape(-1, 1 << k).T)
            for j in range(k):
                chunk = out.reshape(1 << (k - 1 - j), 2, -1)
                chunk[:, 0, :] += chunk[:, 1, :]
            src = out
    finally:
        np.setbufsize(bufsize)
    return src
