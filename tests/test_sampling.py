"""Sampling: drawn groups must follow each model's law, reproducibly."""

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from couponcollector import (
    CapacityError,
    DraftLottery,
    IidWithinGroup,
    Population,
    UniformDistinct,
    WeightedDistinct,
    WithoutReplacement,
    mandelbrot_weights,
    sample_group,
)
from couponcollector._philox import uniform_span
from couponcollector.models import (
    _guide,
    _guided_search,
    _type_bits,
    _weighted_removal_masks,
)
from conftest import random_model


def _draws(model, seed, n):
    uniforms = uniform_span(
        seed, np.arange(n, dtype=np.uint64), 0, model.uniforms_per_group
    )
    return model.draw_groups(uniforms)


def test_degenerate_iid_always_first_type():
    model = IidWithinGroup((1.0, 0.0, 0.0), 4)
    masks = _draws(model, seed=1, n=2000)
    assert np.all(masks == 1)


def test_uniform_distinct_pairs_equally_likely():
    model = UniformDistinct(3, 2)
    freq = Counter(_draws(model, seed=9, n=60_000).tolist())
    assert sorted(freq) == [0b011, 0b101, 0b110]
    sigma = math.sqrt((1 / 3) * (2 / 3) / 60_000)
    for count in freq.values():
        assert abs(count / 60_000 - 1 / 3) < 3 * sigma


def test_without_replacement_unit_counts_pairs_equally_likely():
    # brute force over ordered draws: each of the 6 ordered pairs from 3
    # individuals is equally likely, so each unordered pair has mass 1/3
    model = WithoutReplacement(Population((1, 1, 1)), 2)
    freq = Counter(_draws(model, seed=7, n=60_000).tolist())
    sigma = math.sqrt((1 / 3) * (2 / 3) / 60_000)
    for count in freq.values():
        assert abs(count / 60_000 - 1 / 3) < 3 * sigma


@pytest.mark.parametrize(
    "model",
    [
        WithoutReplacement(Population((1, 3, 10, 40)), 3),
        WithoutReplacement(Population((10, 100, 500, 1000)), 2),
        UniformDistinct(5, 3),
        IidWithinGroup((0.5, 0.3, 0.15, 0.05), 3),
        DraftLottery((0.5, 0.25, 0.15, 0.1), 2),
        WeightedDistinct(4, 2, (0.3, 0.05, 0.15, 0.2, 0.1, 0.2)),
    ],
    ids=lambda m: m.describe(),
)
def test_empirical_avoidance_matches_exact(model):
    n = 200_000
    masks = _draws(model, seed=13, n=n)
    for subset in range(1, 1 << model.m):
        q = model.avoidance_probability(subset)
        freq = float(np.mean((masks & np.uint64(subset)) == 0))
        se = math.sqrt(max(q * (1 - q), 1e-12) / n)
        assert abs(freq - q) <= 3 * se, (subset, freq, q)


@pytest.mark.parametrize(
    "cum",
    [
        np.cumsum((10, 100, 500, 1000)),
        np.cumsum((10**6, 1, 1, 3, 1, 10**6, 1, 2, 1)),
        np.cumsum(mandelbrot_weights(12, 0.3, 1.75)),
        np.cumsum((0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25)),  # sums on bucket starts
        np.cumsum((0.0, 0.3, 0.0, 0.0, 0.2, 0.5, 0.0, 0.0)),
        np.cumsum(np.random.default_rng(3).dirichlet(np.ones(200_000))),
        # N = 2**63 - 1, the largest urn the simulator takes; its top rounds
        # up to 2**63 as a float
        np.cumsum((2**63 - 2**20 - 3, 1, 1, 2**20)),
    ],
    ids=[
        "N<=2**16",
        "N>2**16",
        "p",
        "zero p",
        "zero p at the ends",
        "p past 2**16",
        "N=2**63-1",
    ],
)
def test_urn_guide_matches_searchsorted_at_every_type_boundary(cum):
    total, stops, first, shift, steps = guide = _guide(cum)
    assert len(first) <= 1 << 16
    if cum.dtype.kind == "i":
        assert (shift == 0) == (cum[-1] <= 1 << 16)
        # the positions 0 .. N-1
        targets = np.unique(np.concatenate([[0], cum - 1, cum[:-1]]))
    else:
        # every sum, its neighbouring floats, the bucket starts and the
        # floats below them, from 0 up to the total
        starts = np.ldexp(np.arange(len(first), dtype=float), shift)
        near = np.concatenate([cum, starts])
        targets = np.concatenate(
            [near, np.nextafter(near, 0.0), np.nextafter(near, np.inf), [0.0]]
        )
        targets = targets[targets <= total]
    want = np.minimum(np.searchsorted(cum, targets, side="right"), len(cum) - 1)
    assert np.array_equal(_guided_search(targets, guide), want)


def test_guide_of_a_large_weighted_law_matches_searchsorted():
    # 184,756 groups share the 2**16 buckets, so a target may pass several
    # stops beyond its bucket's first
    w = np.random.default_rng(20).integers(1, 101, size=math.comb(20, 10))
    model = WeightedDistinct(20, 10, tuple((w / w.sum()).tolist()))
    cum = np.cumsum(model._group_law[1])
    total, _, first, _, steps = guide = model._draw_table
    assert total == cum[-1]
    assert len(first) <= 1 << 16 and steps > 1
    targets = np.concatenate(
        [
            np.random.default_rng(1).random(50_000) * total,
            [0.0, np.nextafter(total, 0.0)],
        ]
    )
    want = np.minimum(np.searchsorted(cum, targets, side="right"), len(cum) - 1)
    assert np.array_equal(_guided_search(targets, guide), want)


def _searched_urn_masks(uniforms, counts):
    """The urn draw with each row's earlier positions sorted by np.sort and
    each position's type found by np.searchsorted, then shifted to its bit:
    the reference that the guided draw must equal bit for bit."""
    n, g = uniforms.shape
    ends = np.cumsum(counts)
    total = int(ends[-1])
    masks = np.zeros(n, dtype=np.uint64)
    taken = np.empty((n, g), dtype=np.int64)
    for j in range(g):
        rank = (uniforms[:, j] * (total - j)).astype(np.int64)
        np.minimum(rank, total - j - 1, out=rank)
        position = rank
        if j:
            earlier = np.sort(taken[:, :j], axis=1)
            for k in range(j):
                position = position + (position >= earlier[:, k])
        taken[:, j] = position
        types = np.searchsorted(ends, position, side="right")
        masks |= np.uint64(1) << types.astype(np.uint64)
    return masks


@pytest.mark.parametrize(
    "counts",
    [(1,) * 7, (10, 100, 500, 1000), (10**6, 1, 1, 3, 1, 10**6, 1, 2, 1)],
    ids=["singletons", "N<=2**16", "N>2**16"],
)
@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_mask_table_urn_draw_equals_the_searched_draw(counts, g):
    model = WithoutReplacement(Population(counts), g)
    guide = _guide(np.cumsum(counts))
    assert (guide[3] == 0) == (sum(counts) <= 1 << 16)
    uniforms = uniform_span(17, np.arange(5000, dtype=np.uint64), 0, g)
    # the smallest and largest uniforms, alone and mixed within a row
    uniforms[:20] = 0.0
    uniforms[20:40] = 1.0 - 2.0**-53
    picks = np.random.default_rng(g).random(uniforms.shape)
    uniforms[picks < 0.1] = 0.0
    uniforms[picks > 0.9] = 1.0 - 2.0**-53
    want = _searched_urn_masks(uniforms, counts)
    assert np.array_equal(model.draw_groups(uniforms), want)


def _row_wise_removal_masks(uniforms, base_weights):
    """The draft-lottery draw with one row of weights per row of uniforms:
    the reference that the column-wise draw must equal bit for bit."""
    n, g = uniforms.shape
    weights = np.tile(base_weights, (n, 1))
    masks = np.zeros(n, dtype=np.uint64)
    rows = np.arange(n)
    for j in range(g):
        cum = np.cumsum(weights, axis=1)
        target = uniforms[:, j] * cum[:, -1]
        idx = (target[:, None] < cum).argmax(axis=1)
        masks |= np.uint64(1) << idx.astype(np.uint64)
        weights[rows, idx] = 0.0
    return masks


def test_weighted_removal_equals_the_row_wise_draw():
    rng = np.random.default_rng(12)
    laws = [DraftLottery(tuple(rng.permutation(mandelbrot_weights(12, 0.3, 1.75))), 3)]
    for _ in range(20):
        m = int(rng.integers(2, 25))
        g = int(rng.integers(1, min(8, m - 1) + 1))
        p = rng.uniform(0.0, 1.0, size=m)
        p[rng.random(m) < 0.3] = 0.0
        p[: g + 1] += 0.01  # at least g types of positive probability
        laws.append(DraftLottery(tuple(p / p.sum()), g))
    for model in laws:
        uniforms = uniform_span(5, np.arange(2000, dtype=np.uint64), 0, model.g)
        # the largest and smallest uniforms; u = 1 puts the target at the
        # total, past every sum, where both draws take index 0
        uniforms[:50] = 1.0 - 2.0**-53
        uniforms[50:60] = 0.0
        uniforms[60:70] = 1.0
        weights = np.asarray(model.p)
        want = _row_wise_removal_masks(uniforms, weights)
        bits = _type_bits(model.m)
        assert np.array_equal(_weighted_removal_masks(uniforms, weights, bits), want)
        assert np.array_equal(model.draw_groups(uniforms), want)


def _searched_iid_masks(uniforms, p):
    """The i.i.d. draw by np.searchsorted over the cumulative p: the
    reference that the guided draw must equal bit for bit."""
    cum = np.cumsum(np.asarray(p))
    idx = np.searchsorted(cum, uniforms.reshape(-1) * cum[-1], side="right")
    idx = np.minimum(idx, len(p) - 1).reshape(uniforms.shape).astype(np.uint64)
    return np.bitwise_or.reduce(np.uint64(1) << idx, axis=1)


def test_iid_draw_equals_the_searched_draw():
    rng = np.random.default_rng(21)
    laws = [IidWithinGroup(mandelbrot_weights(12, 0.3, 1.75), 3)]
    for m in (1, 2, 7, 33, 64):
        p = rng.uniform(0.0, 1.0, size=m)
        p[rng.random(m) < 0.3] = 0.0  # repeated cumulative sums
        p[0] = 0.0  # so u = 0 ties with the first sums
        p[m // 2] += 0.01
        laws.append(IidWithinGroup(tuple(p / p.sum()), int(rng.integers(1, 6))))
    for model in laws:
        uniforms = uniform_span(8, np.arange(3000, dtype=np.uint64), 0, model.g)
        uniforms[:50] = 1.0 - 2.0**-53
        uniforms[50:60] = 0.0
        uniforms[60:70] = 1.0  # the target is then the total, past every sum
        want = _searched_iid_masks(uniforms, model.p)
        assert np.array_equal(model.draw_groups(uniforms), want)


def _searched_weighted_masks(uniforms, model):
    """The weighted draw by np.searchsorted over the cumulative group
    weights, the groups listed by itertools: the reference that the guided
    draw must equal bit for bit."""
    groups = combinations(range(model.m), model.g)
    masks = np.fromiter((sum(1 << t for t in c) for c in groups), dtype=np.uint64)
    cum = np.cumsum(model.weights)
    idx = np.searchsorted(cum, uniforms[:, 0] * cum[-1], side="right")
    return masks[np.minimum(idx, len(cum) - 1)]


def test_weighted_draw_equals_the_searched_draw():
    rng = np.random.default_rng(31)
    laws = [
        WeightedDistinct(4, 2, (0.3, 0.05, 0.15, 0.2, 0.1, 0.2)),
        # zero weights first, inside and last, so u = 0 and u = 1 tie with sums
        WeightedDistinct(4, 2, (0.0, 0.5, 0.0, 0.0, 0.5, 0.0)),
        # 184,756 groups, more than the guide has buckets
        WeightedDistinct(20, 10, tuple(rng.dirichlet(np.ones(184_756)))),
    ]
    for m, g in ((5, 2), (12, 3), (9, 4)):
        w = rng.integers(1, 101, size=math.comb(m, g)).astype(float)
        w[rng.random(w.size) < 0.3] = 0.0
        w[0] += 1.0
        laws.append(WeightedDistinct(m, g, tuple(w / w.sum())))
    for model in laws:
        uniforms = uniform_span(4, np.arange(20_000, dtype=np.uint64), 0, 1)
        uniforms[:50] = 1.0 - 2.0**-53
        uniforms[50:60] = 0.0
        uniforms[60:70] = 1.0  # the target is then the total, past every sum
        want = _searched_weighted_masks(uniforms, model)
        assert np.array_equal(model.draw_groups(uniforms), want)


def test_group_sizes_are_correct():
    rng = np.random.default_rng(2)
    for _ in range(20):
        model = random_model(rng, max_m=6)
        masks = _draws(model, seed=int(rng.integers(0, 2**32)), n=500)
        sizes = np.array([int(mm).bit_count() for mm in masks])
        if isinstance(model, IidWithinGroup):
            assert np.all((1 <= sizes) & (sizes <= model.g))
        elif isinstance(model, WithoutReplacement):
            assert np.all((1 <= sizes) & (sizes <= min(model.g, model.m)))
        else:
            assert np.all(sizes == model.g)


def test_sample_group_matches_vectorized_stream():
    # a sequential consumer of trial 5's stream reproduces the vectorized draws
    model = DraftLottery((0.5, 0.25, 0.15, 0.1), 2)
    rng = np.random.Generator(np.random.Philox(key=99, counter=[0, 0, 5, 0]))
    scalar = [sample_group(model, rng) for _ in range(50)]
    uniforms = uniform_span(99, np.array([5], dtype=np.uint64), 0, 100)
    vectorized = model.draw_groups(uniforms.reshape(50, 2))
    assert scalar == [int(v) for v in vectorized]


def test_sample_group_is_deterministic():
    model = WithoutReplacement(Population((2, 3, 4)), 2)
    a = [sample_group(model, np.random.Generator(np.random.Philox(key=3))) for _ in [0]]
    b = [sample_group(model, np.random.Generator(np.random.Philox(key=3))) for _ in [0]]
    assert a == b


@pytest.mark.parametrize(
    "model",
    [
        UniformDistinct(70, 2),
        WithoutReplacement(Population((3,) * 70), 3),
        DraftLottery((1 / 70,) * 70, 2),
        IidWithinGroup((1 / 70,) * 70, 2),
    ],
    ids=lambda m: m.describe().split("(")[0],
)
def test_draws_past_64_types_raise(model):
    # a uint64 shift by 64 or more gives 0, so such a mask would lose types
    with pytest.raises(CapacityError, match="m=70 exceeds the 64 types"):
        sample_group(model, np.random.default_rng(0))


@pytest.mark.parametrize(
    "model",
    [
        UniformDistinct(64, 1),
        IidWithinGroup((1 / 64,) * 64, 1),
        DraftLottery((1 / 64,) * 64, 1),
    ],
    ids=lambda m: m.describe().split("(")[0],
)
def test_64_type_draws_reach_type_63(model):
    # the largest uniform picks the last type
    assert model.draw_groups(np.array([[1.0 - 2.0**-53]])).tolist() == [1 << 63]
