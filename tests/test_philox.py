"""The documented generator contract: uniform_span must emit exactly the
streams of numpy.random.Philox(key=seed, counter=[0,0,t,0]).

``philox_words`` below is an independent Philox4x64-10 written from the
published round function in numpy uint64 arithmetic. It serves as a
reference that shares no code with numpy's C generator.
"""

import numpy as np

from couponcollector._philox import uniform_span

_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """128-bit product of a constant and a uint64 array, as (high, low) words."""
    a = np.uint64(a)
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    b_lo = b & _MASK32
    b_hi = b >> _SHIFT32
    lo = a * b  # wraps mod 2**64
    t = a_lo * b_lo
    t1 = a_hi * b_lo + (t >> _SHIFT32)
    t2 = a_lo * b_hi + (t1 & _MASK32)
    hi = a_hi * b_hi + (t1 >> _SHIFT32) + (t2 >> _SHIFT32)
    return hi, lo


def philox_words(seed: int, c0, c2) -> np.ndarray:
    """Philox4x64-10 output for counters (c0, 0, c2, 0) under key (seed, 0).

    ``c0`` and ``c2`` broadcast against each other; the result gains a
    trailing axis of length 4 holding the block's output words in order.
    """
    with np.errstate(over="ignore"):
        c0 = np.asarray(c0, dtype=np.uint64)
        c2 = np.asarray(c2, dtype=np.uint64)
        shape = np.broadcast_shapes(c0.shape, c2.shape)
        x0 = np.broadcast_to(c0, shape).copy()
        x1 = np.zeros(shape, dtype=np.uint64)
        x2 = np.broadcast_to(c2, shape).copy()
        x3 = np.zeros(shape, dtype=np.uint64)
        k0 = np.uint64(seed)
        k1 = np.uint64(0)
        w0 = np.uint64(_W0)
        w1 = np.uint64(_W1)
        for r in range(10):
            hi0, lo0 = _mulhilo(_M0, x0)
            hi1, lo1 = _mulhilo(_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            if r < 9:
                k0 = k0 + w0
                k1 = k1 + w1
    return np.stack([x0, x1, x2, x3], axis=-1)


def _reference_span(seed, trials, first, count) -> np.ndarray:
    """Positions [first, first + count) of each trial's stream, from the
    reference: block b of a stream is the Philox function at counter b + 1."""
    blocks = np.arange(first // 4 + 1, (first + count - 1) // 4 + 2, dtype=np.uint64)
    trials = np.asarray(trials, dtype=np.uint64)
    words = philox_words(seed, blocks[np.newaxis, :], trials[:, np.newaxis])
    words = words.reshape(len(trials), -1)[:, first % 4 : first % 4 + count]
    return (words >> np.uint64(11)) * 2.0**-53


def _numpy_stream(seed, trial, count):
    bg = np.random.Philox(key=seed, counter=[0, 0, trial, 0])
    return np.random.Generator(bg).random(count)


def test_words_match_numpy_raw_output():
    gen = np.random.Generator(np.random.Philox(key=5, counter=0))
    reference = gen.integers(0, 2**64, size=12, dtype=np.uint64)
    ours = philox_words(5, np.array([1, 2, 3]), np.array([0])).reshape(-1)
    assert np.array_equal(ours, reference)


def test_uniforms_match_numpy_generator():
    for seed, trial in [(0, 0), (42, 3), (2**63 + 11, 12345)]:
        want = _numpy_stream(seed, trial, 23)
        got = uniform_span(seed, np.array([trial], dtype=np.uint64), 0, 23)[0]
        assert np.array_equal(got, want)


def test_uniform_span_is_positional():
    # reading [7, 12) must equal positions 7..11 of a sequential consumer
    want = _numpy_stream(9, 4, 12)[7:]
    got = uniform_span(9, np.array([4], dtype=np.uint64), 7, 5)[0]
    assert np.array_equal(got, want)


def test_streams_vectorize_across_trials():
    trials = np.array([0, 1, 5, 1000, 2**40], dtype=np.uint64)
    block = uniform_span(77, trials, 3, 9)
    for row, trial in enumerate(trials):
        assert np.array_equal(block[row], _numpy_stream(77, int(trial), 12)[3:])


def test_uniform_span_matches_the_reference_off_block_boundaries():
    # unsorted and repeated trial ids up to 2**40 and the largest seed; every
    # start offset within a block, and spans within, across and past blocks
    trials = np.array([2**40, 0, 7, 7, 2**40 - 1, 123456789], dtype=np.uint64)
    for seed in (3, 2**64 - 1):
        for first in (0, 1, 2, 3, 5, 130, 4093):
            for count in (1, 2, 3, 4, 9, 31):
                want = _reference_span(seed, trials, first, count)
                got = uniform_span(seed, trials, first, count)
                assert got.shape == (len(trials), count)
                assert np.array_equal(got, want), (seed, first, count)


def test_distinct_trials_give_distinct_streams():
    a = uniform_span(1, np.array([0], dtype=np.uint64), 0, 8)
    b = uniform_span(1, np.array([1], dtype=np.uint64), 0, 8)
    assert not np.array_equal(a, b)
