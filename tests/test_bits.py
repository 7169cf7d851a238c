from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from couponcollector._bits import (
    mask_of,
    subset_sum_classes,
    subset_sums,
    subset_zeta,
    types_of,
    zeta_layout,
)


@given(st.sets(st.integers(min_value=0, max_value=30)))
def test_mask_round_trip(types):
    assert set(types_of(mask_of(types))) == types


def test_subset_sums_matches_brute_force():
    values = [0.5, 1.25, -2.0, 3.5]
    table = subset_sums(values)
    for mask in range(16):
        expected = sum(values[i] for i in types_of(mask))
        assert table[mask] == pytest.approx(expected, abs=1e-15)


def _grouped(sums):
    """Signed count, count and largest size of the masks at each sum."""
    signed, total, largest = {}, {}, {}
    for mask, c in enumerate(sums):
        signed[c] = signed.get(c, 0) + (-1) ** mask.bit_count()
        total[c] = total.get(c, 0) + 1
        largest[c] = max(largest.get(c, 0), mask.bit_count())
    keys = sorted(signed)
    return keys, *([d[c] for c in keys] for d in (signed, total, largest))


def test_subset_sum_classes_match_brute_force():
    counts = (3, 1, 2, 3, 1, 4)
    sums = [sum(counts[i] for i in types_of(mask)) for mask in range(1 << 6)]
    got = subset_sum_classes(counts)
    assert [a.tolist() for a in got] == list(_grouped(sums))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float_subset_sum_classes_group_the_lattice_floats(seed):
    # p = counts / N: distinct sums plus one value can round to one float,
    # so a merge meets runs of three or more equal sums; each class must
    # be exactly the lattice masks with that float sum
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 300, size=12)
    values = (counts / counts.sum()).tolist()
    got = subset_sum_classes(values)
    assert [a.tolist() for a in got] == list(_grouped(subset_sums(values).tolist()))


def test_subset_sum_classes_reject_inexact_multiplicities():
    with pytest.raises(ValueError):
        subset_sum_classes((1,) * 53)


def _laid_out(values):
    """``values``, in mask order, at the positions of ``zeta_layout``."""
    m = values.size.bit_length() - 1
    laid = np.empty_like(values)
    laid[zeta_layout(np.arange(values.size), m)] = values
    return laid


def test_subset_zeta_matches_brute_force():
    # entry T sums the values of the masks disjoint from T
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, size=32)
    zeta = subset_zeta(_laid_out(values))
    for mask in range(32):
        expected = sum(values[s] for s in range(32) if s & mask == 0)
        assert zeta[mask] == pytest.approx(expected, rel=1e-12)


def _zeta_bit_by_bit(values):
    """The reference transform: one pass per bit over a 3-d view."""
    out = np.array(values, dtype=np.float64)
    m = out.size.bit_length() - 1
    for b in range(m):
        block = out.reshape(-1, 2, 1 << b)
        block[:, 1, :] += block[:, 0, :]
    return out


@pytest.mark.parametrize("m", range(18))
def test_subset_zeta_is_the_bit_by_bit_loop(m):
    # sparse rows of mixed magnitudes, like the explicit laws' rows: each
    # sum over a chunk's cube rounds differently if its passes change
    # order. m covers one chunk of up to 8 bits, chunk remainders of 1-7
    # bits (m = 9..15 and 17) and two whole chunks (m = 16)
    rng = np.random.default_rng(m)
    for _ in range(5):
        values = rng.uniform(0.0, 1.0, size=1 << m) * 2.0 ** rng.integers(-20, 1, 1 << m)
        values[rng.uniform(size=1 << m) < 0.5] = 0.0
        want = _zeta_bit_by_bit(values)[::-1].tobytes()
        zeta = subset_zeta(_laid_out(values))
        assert zeta.flags.c_contiguous
        assert zeta.tobytes() == want
        # the row summed straight into the layout, as the explicit laws
        # build it: one bincount entry per nonzero value
        masks = np.flatnonzero(values)
        laid = np.bincount(
            zeta_layout(masks, m), weights=values[masks], minlength=1 << m
        )
        assert subset_zeta(laid).tobytes() == want


def test_subset_zeta_rejects_bad_length():
    with pytest.raises(ValueError):
        subset_zeta(np.zeros(3))


@pytest.mark.parametrize("size", [None, 1024], ids=["default", "caller's"])
def test_subset_zeta_restores_the_ufunc_buffer_size(size):
    # the passes run under a small buffer of their own; the caller's size,
    # numpy's default or one it set, is back after a result, after the
    # bad-length error and after an error in the passes
    before = np.getbufsize() if size is None else np.setbufsize(size)
    try:
        want = np.getbufsize()
        subset_zeta(np.ones(1 << 12))
        assert np.getbufsize() == want
        with pytest.raises(ValueError, match="power of two"):
            subset_zeta(np.zeros(3))
        assert np.getbufsize() == want
        frozen = np.ones(1 << 12)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            subset_zeta(frozen)
        assert np.getbufsize() == want
    finally:
        np.setbufsize(before)


def test_mask_of_combinations_are_lexicographic():
    masks = [mask_of(c) for c in combinations(range(4), 2)]
    assert masks == [0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100]
