"""Subset-lattice helpers: bitmask utilities and vectorized lattice transforms.

Subsets of the type universe {0, .., m-1} are represented as integer
bitmasks (bit i set <=> type i in the set). Arrays indexed by mask have
length 2**m and run in increasing bitmask order; ``_dense_classes`` and
``_merged_classes`` instead group the subsets by the sum of their values,
and ``class_bound`` says which of the two does.
"""

import math
from collections import Counter
from collections.abc import Iterable

import numpy as np

# masks or count classes per block: the temporaries stay small, and the
# sum reads one block's floats at a time instead of one array of all. At
# m = 24, N = 10**8 (about 2**24 count classes) one pass peaked at 962 MB
# and took 4.5 s; in blocks, 399 MB and 2.3 s
_BLOCK_BITS = 16

# The most entries a table that grows with its law may hold, checked before
# it is built: the classes of a count law's "dense" or "merged" walk (the
# bound of ``class_bound``), as many as the default exact cap of 24 types
# allows, and the groups of a draft lottery's enumerated law, which the
# "lattice" walk reads. At m = 24, N = 10**8 the merge of the first 23
# counts' 7,980,880 classes (of at most 2**23) peaks at 322 MB, about 42 B
# each, and the whole sum at 380-435 MB RSS as the heap lies. The dense
# walk peaks at about 27 B for each of its W / d + 1 sums: 203 MB for the
# 7,977,826 of an urn of N = 8 * 10**6. A draft lottery's law took about
# 110 B a group (122-685 MB at m = 24-30, g = 8)
_MAX_CLASSES = 1 << 23


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


def class_bound(values) -> tuple[bool, bool, int]:
    """``(integer, dense, classes)`` of nonnegative ``values``: whether
    every value is an integer, whether their classes take the dense walk
    (``_dense_classes``) or the merge (``_merged_classes``), and a bound on
    the number of their distinct subset sums, the classes.

    Both builders return the same four arrays ``(sums, signed, total,
    largest)`` in increasing order of s: for s = ``sums[j]``, ``signed[j]``
    is the sum of (-1)**|S| and ``total[j]`` the number of subsets S with
    sum s, and ``largest[j]`` the largest |S| among them. For integer
    values these are the coefficients of x**s in prod(1 - x**n) and
    prod(1 + x**n). The sums are added in the bit order of
    ``subset_sums``, so each one is the float64 that ``subset_sums`` gives
    its subsets: shifting a class shifts each of its subsets by the same
    rounded addition. The multiplicities are int64 and, for up to 52
    values, below 2**53, so exact as floats.

    Integers whose total W is below 2**53 have exact subset sums, each a
    multiple of their greatest common divisor d in 0 .. W, and equal
    sub-multisets have equal sums: they make at most W / d + 1 classes and
    at most prod(k + 1) over the multiplicities k of equal values, the
    sub-multisets. Where W / d + 1 is no larger, the dense walk takes
    them, allocating no more entries than the sub-multisets that bound
    the classes. Everything else, real values and integers spread wider
    such as an urn of N = 10**8, is merged, with work that grows with the
    number of distinct sums, at most 2**len(values).
    """
    values = tuple(values)
    if not all(float(v).is_integer() for v in values):
        return False, False, 1 << len(values)
    counts = [int(v) for v in values]
    if (total := sum(counts)) >= 2**53:
        return True, False, 1 << len(values)
    width = total // (math.gcd(*counts) or 1) + 1
    multisets = math.prod(k + 1 for k in Counter(counts).values())
    return True, width <= multisets, min(width, multisets)


def _dense_classes(values):
    """The classes (``class_bound``) of integers, walked densely over the
    multiples of their greatest common divisor d from 0 to their total W:
    the coefficients of prod(1 - x**n) and prod(1 + x**n) and the largest
    size at each sum, by one shifted subtraction, addition and maximum per
    value over the sums reached so far. The walk takes W / d + 1 <= W + 1
    entries: a population counted in thousands walks a thousandth of its
    sums. A sum that no subset has reached holds a size of -128 plus at
    most 52, below every real size, so it never wins a maximum."""
    # the product does not depend on the order, and each step's work is
    # the sums reached before it: smallest first
    counts = sorted(int(v) for v in values)
    d = math.gcd(*counts) or 1
    width = sum(counts) // d + 1
    signed = np.zeros(width, dtype=np.int64)
    total = np.zeros(width, dtype=np.int64)
    largest = np.full(width, -128, dtype=np.int8)
    signed[0] = total[0] = 1
    largest[0] = 0
    reached = 1  # sums 0 .. reached - 1, in units of d
    for v in counts:
        old, new = slice(0, reached), slice(v // d, v // d + reached)
        # numpy reads an overlapping input as it was before the write
        np.subtract(signed[new], signed[old], out=signed[new])
        np.add(total[new], total[old], out=total[new])
        np.maximum(largest[new], largest[old] + 1, out=largest[new])
        reached += v // d
    # one statement each, so each full-width array is freed after its gather
    sums = np.flatnonzero(total)
    signed = signed[sums]
    total = total[sums]
    largest = largest[sums].astype(np.uint8)
    return (sums * d).astype(np.float64), signed, total, largest


def _merged_classes(values):
    """The classes (``class_bound``) of ``values`` by merging: each value
    merges the sorted run of sums with the same run shifted by that value
    (one stable argsort) and folds each run of equal sums into its first
    entry."""
    sums = np.zeros(1, dtype=np.float64)
    signed = np.ones(1, dtype=np.int64)
    total = np.ones(1, dtype=np.int64)
    largest = np.zeros(1, dtype=np.uint8)
    # each step drops its inputs as soon as it can: at W >> 2**m the
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
        head = np.empty(merged.size, dtype=bool)
        head[0] = True
        np.not_equal(merged[1:], merged[:-1], out=head[1:])
        sums = merged[head]
        del merged
        later = np.flatnonzero(~head)
        # later[i] has i later entries before it, so later[i] - i heads,
        # the last of them its run's: that head's class is later[i] - i - 1
        into = later - np.arange(1, later.size + 1)
        folded = signed[later]
        signed = signed[head]
        np.add.at(signed, into, folded)
        folded = total[later]
        total = total[head]
        np.add.at(total, into, folded)
        folded = largest[later]
        largest = largest[head]
        np.maximum.at(largest, into, folded)
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
