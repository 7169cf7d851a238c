import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couponcollector import (
    CapacityError,
    DraftLottery,
    IidWithinGroup,
    InputError,
    Population,
    UniformDistinct,
    WeightedDistinct,
    WithoutReplacement,
    avoidance_probability,
    first_occurrence_expectation,
    inclusion_exclusion_expectation,
    mandelbrot_weights,
    model_from_dict,
    population_from_weights,
    sample_group,
    uniform_group_expectation,
    uniform_single_expectation,
)
import couponcollector.models as models
from couponcollector._bits import mask_of, subset_sums
from couponcollector.models import DRAFT_MAX_GROUP_SIZE, _masks_of_rows, _subset_types
from conftest import random_model

PAPER_COUNTS = (10, 100, 500, 1000)


class TestPopulation:
    def test_totals(self):
        pop = Population(PAPER_COUNTS)
        assert pop.m == 4
        assert pop.total == 1610
        assert pop.proportions()[0] == pytest.approx(10 / 1610)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(InputError):
            Population(())
        with pytest.raises(InputError):
            Population((3, 0, 2))

    def test_rejects_fractional_counts(self):
        with pytest.raises(InputError, match="integer"):
            Population((1.5, 2))
        for count in (True, np.bool_(True)):  # not a count of 1
            with pytest.raises(InputError, match="a count must be an integer"):
                Population((3, count))
        assert Population((3.0, np.int64(2))).counts == (3, 2)


class TestValidation:
    def test_distinct_variants_need_g_below_m(self):
        with pytest.raises(InputError):
            UniformDistinct(4, 4)
        with pytest.raises(InputError):
            UniformDistinct(4, 0)
        with pytest.raises(InputError):
            DraftLottery((0.5, 0.5), 2)

    def test_sizes_are_not_truncated(self):
        for build in (
            lambda: UniformDistinct(5, 2.7),
            lambda: UniformDistinct(5.5, 2),
            lambda: UniformDistinct("5", 2),
            lambda: WeightedDistinct(4, 2.5, (1 / 6,) * 6),
            lambda: IidWithinGroup((0.5, 0.5), 1.5),
            lambda: WithoutReplacement(Population((1, 2)), 1.5),
            lambda: DraftLottery((0.5, 0.25, 0.25), 1.5),
            lambda: mandelbrot_weights(4.5, 0.3, 1.75),
            lambda: population_from_weights((0.5, 0.5), 10.5),
            lambda: uniform_group_expectation(5, 2.7),
            lambda: uniform_single_expectation(2.5),
            # True is not g = 1 or m = 1
            lambda: UniformDistinct(3, True),
            lambda: UniformDistinct(np.int64(3), np.bool_(True)),
            lambda: UniformDistinct(True, 1),
            lambda: WeightedDistinct(3, True, (0.5, 0.25, 0.25)),
            lambda: IidWithinGroup((0.5, 0.5), np.bool_(True)),
            lambda: WithoutReplacement(Population((1, 2)), True),
            lambda: DraftLottery((0.5, 0.25, 0.25), True),
        ):
            with pytest.raises(InputError, match="integer"):
                build()
        assert UniformDistinct(5.0, np.int64(2)) == UniformDistinct(5, 2)

    def test_weighted_length_must_match(self):
        with pytest.raises(InputError):
            WeightedDistinct(4, 2, (0.5, 0.5))

    def test_probability_vector_checks(self):
        with pytest.raises(InputError):
            IidWithinGroup((0.5, 0.6), 1)  # sums to 1.1
        with pytest.raises(InputError):
            IidWithinGroup((1.5, -0.5), 1)
        # within tolerance: accepted and renormalized
        model = IidWithinGroup((0.5 + 4e-10, 0.5), 1)
        assert math.fsum(model.p) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "p", [(0.5, None, 0.5), (0.5, 0.5j), (np.complex128(0.5), 0.5)], ids=repr
    )
    def test_none_and_complex_entries_raise_input_error(self, p):
        with pytest.raises(InputError, match="must be real numbers"):
            IidWithinGroup(p, 2)

    def test_without_replacement_sample_size(self):
        with pytest.raises(InputError):
            WithoutReplacement(Population((1, 1)), 3)  # g > N
        WithoutReplacement(Population((1, 1)), 2)

    def test_draft_needs_enough_support(self):
        with pytest.raises(InputError):
            DraftLottery((1.0, 0.0, 0.0), 2)

    def test_draft_group_size_limit(self):
        with pytest.raises(InputError):
            DraftLottery((0.1,) * 10, 9)

    def test_bad_subset_mask(self):
        model = UniformDistinct(3, 2)
        with pytest.raises(InputError):
            model.avoidance_probability(1 << 3)
        with pytest.raises(InputError):
            model.avoidance_probability(-1)

    def test_subset_mask_is_not_truncated(self):
        # 2.7 is not mask 2 and "3" is not mask 3, for a count and an
        # explicit law alike
        laws = (UniformDistinct(4, 2), WeightedDistinct(3, 1, (0.5, 0.25, 0.25)))
        for model in laws:
            for mask in (2.7, "3", True, np.bool_(True)):
                with pytest.raises(InputError, match="integer"):
                    model.avoidance_probability(mask)
            assert model.avoidance_probability(np.int64(2)) == model.avoidance_probability(2)


class TestAvoidance:
    def test_without_replacement_paper_subset(self):
        # P(1600, 2) / P(1610, 2) for S = {first type}
        model = WithoutReplacement(Population(PAPER_COUNTS), 2)
        expected = (1600 * 1599) / (1610 * 1609)
        assert model.avoidance_probability(0b0001) == pytest.approx(
            expected, rel=1e-15
        )

    def test_empty_and_full_subsets(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            model = random_model(rng, max_m=6)
            assert avoidance_probability(model, 0) == 1.0
            assert avoidance_probability(model, (1 << model.m) - 1) == 0.0

    def test_uniform_single_exclusion(self):
        assert UniformDistinct(4, 2).avoidance_probability(0b0100) == pytest.approx(
            0.5
        )

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            model = random_model(rng, max_m=7)
            table = model.avoidance_table()
            for _ in range(30):
                s = int(rng.integers(0, 1 << model.m))
                t = s | int(rng.integers(0, 1 << model.m))
                assert table[s] >= table[t] - 1e-12

    def test_zero_exactly_above_m_minus_g(self):
        # for distinct-group variants with positive weights
        rng = np.random.default_rng(23)
        models = [UniformDistinct(6, 2), DraftLottery(tuple([1 / 6] * 6), 3)]
        w = rng.uniform(0.1, 1, size=math.comb(5, 2))
        models.append(WeightedDistinct(5, 2, tuple(w / w.sum())))
        for model in models:
            table = model.avoidance_table()
            for mask in range(1 << model.m):
                if mask.bit_count() > model.m - model.g:
                    assert table[mask] == 0.0
                else:
                    assert table[mask] > 0.0

    def test_weighted_uniform_vector_matches_uniform(self):
        for m, g in [(4, 2), (5, 3), (6, 1)]:
            k = math.comb(m, g)
            weighted = WeightedDistinct(m, g, (1.0 / k,) * k)
            uniform = UniformDistinct(m, g)
            for mask in range(1 << m):
                assert weighted.avoidance_probability(mask) == pytest.approx(
                    uniform.avoidance_probability(mask), abs=1e-12
                )

    def test_draft_uniform_matches_uniform(self):
        # brute-force agreement for every subset, m <= 6, g <= 3
        for m in range(2, 7):
            for g in range(1, min(3, m - 1) + 1):
                draft = DraftLottery((1.0 / m,) * m, g)
                uniform = UniformDistinct(m, g)
                for mask in range(1 << m):
                    assert draft.avoidance_probability(mask) == pytest.approx(
                        uniform.avoidance_probability(mask), abs=1e-12
                    )

    def test_g1_reductions(self):
        p = (0.5, 0.3, 0.2)
        iid = IidWithinGroup(p, 1)
        for i, pi in enumerate(p):
            assert iid.avoidance_probability(1 << i) == pytest.approx(1 - pi)
        pop = Population(PAPER_COUNTS)
        wor = WithoutReplacement(pop, 1)
        for i, ci in enumerate(pop.counts):
            assert wor.avoidance_probability(1 << i) == pytest.approx(
                1 - ci / pop.total
            )

    def test_table_agrees_with_single_queries(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_model(rng, max_m=6)
            table = model.avoidance_table()
            for mask in range(1 << model.m):
                assert table[mask] == pytest.approx(
                    model.avoidance_probability(mask), abs=1e-12
                )

    def test_draft_avoidance_matches_ordered_sequence_sum(self):
        # independent evaluation: sum over ordered g-tuples of distinct
        # allowed types of prod p / (1 - mass already drawn)
        from itertools import permutations

        p = (0.4, 0.3, 0.2, 0.1)
        model = DraftLottery(p, 2)
        for mask in range(1 << 4):
            allowed = [i for i in range(4) if not mask & (1 << i)]
            total = 0.0
            for seq in permutations(allowed, 2):
                prob, left = 1.0, 1.0
                for t in seq:
                    prob *= p[t] / left
                    left -= p[t]
                total += prob
            assert model.avoidance_probability(mask) == pytest.approx(
                total, abs=1e-12
            )

    def test_uncollectable_types(self):
        assert IidWithinGroup((0.5, 0.5, 0.0), 2).uncollectable_types() == (2,)
        assert UniformDistinct(5, 2).uncollectable_types() == ()
        assert WithoutReplacement(Population((1, 1)), 1).uncollectable_types() == ()
        # weighted: all mass on the group {0, 1} leaves type 2 uncovered
        weighted = WeightedDistinct(3, 2, (1.0, 0.0, 0.0))
        assert weighted.uncollectable_types() == (2,)
        # draft: a zero-probability type is in no group of positive weight
        assert DraftLottery((0.5, 0.0, 0.3, 0.2), 2).uncollectable_types() == (1,)


class TestCountLaws:
    def test_uniform_distinct_is_an_urn_of_singletons(self):
        for m, g in [(4, 2), (10, 9), (12, 3), (16, 5), (22, 4)]:
            uniform = UniformDistinct(m, g)
            urn = WithoutReplacement(Population((1,) * m), g)
            # one q(c), so the same floats and the same exact result
            assert np.array_equal(uniform.avoidance_table(), urn.avoidance_table())
            assert inclusion_exclusion_expectation(
                uniform
            ) == inclusion_exclusion_expectation(urn)
            uniforms = np.random.default_rng(m * 100 + g).random((4000, g))
            assert np.array_equal(
                uniform.draw_groups(uniforms), urn.draw_groups(uniforms)
            )

    def test_table_equals_single_queries_exactly(self):
        rng = np.random.default_rng(29)
        models = [
            WithoutReplacement(Population(PAPER_COUNTS), g) for g in (1, 2, 15)
        ]
        models += [UniformDistinct(6, 3), UniformDistinct(9, 1)]
        # a population far larger than its number of subsets
        models.append(WithoutReplacement(Population((3, 10**7, 5, 123456)), 3))
        for _ in range(10):
            m = int(rng.integers(1, 9))
            counts = tuple(int(c) for c in rng.integers(1, 40, size=m))
            g = int(rng.integers(1, min(6, sum(counts)) + 1))
            models.append(WithoutReplacement(Population(counts), g))
        for model in models:
            table = model.avoidance_table()
            for mask in range(1 << model.m):
                assert table[mask] == model.avoidance_probability(mask)

    @pytest.mark.parametrize("m", [1, 5, 9, 12])
    def test_iid_table_equals_single_queries_exactly(self, m):
        # the query adds p in bit order and evaluates (1 - c)**g as the
        # table does; an fsum of p(S) differs in the last bit on many masks
        rng = np.random.default_rng(m)
        raw = rng.uniform(0.05, 1.0, size=m)
        counts = rng.integers(1, 40, size=m)
        for p in (raw / raw.sum(), counts / counts.sum()):
            for g in (1, 3, 7):
                model = IidWithinGroup(tuple(p.tolist()), g)
                table = model.avoidance_table()
                for mask in range(1 << m):
                    assert table[mask] == model.avoidance_probability(mask)


def _add_at_table(model):
    """An explicit law's q(S) table built whole: np.add.at of the group
    weights into a 2**m lattice, one zeta over it, bit by bit, reversed
    and clipped."""
    masks, weights = model._group_law
    lattice = np.zeros(1 << model.m)
    np.add.at(lattice, masks, weights)
    for b in range(model.m):
        pairs = lattice.reshape(-1, 2, 1 << b)
        pairs[:, 1, :] += pairs[:, 0, :]
    table = lattice[::-1].copy()
    np.clip(table, 0.0, 1.0, out=table)
    table[0] = 1.0
    return table


def _explicit_models(rng, m, group_sizes):
    """A WeightedDistinct (about a fifth of its weights 0) for each group
    size, and a DraftLottery for each one it supports."""
    for g in group_sizes:
        w = rng.uniform(0.0, 1.0, size=math.comb(m, g))
        w[rng.random(w.size) < 0.2] = 0.0
        w[0] = 1.0
        yield WeightedDistinct(m, g, tuple(w / w.sum()))
        if g <= DRAFT_MAX_GROUP_SIZE:
            p = rng.uniform(0.05, 1.0, size=m)
            yield DraftLottery(tuple(p / p.sum()), g)


class TestLatticeBlocks:
    """``avoidance_blocks`` yields q(S) in aligned blocks of masks, and
    ``avoidance_table`` gathers its blocks of 2**16."""

    @pytest.mark.parametrize("m", [2, 7, 12, 16])
    def test_explicit_table_is_the_whole_lattice_table_up_to_16_types(self, m):
        # one block: the same additions in the same order
        rng = np.random.default_rng(m)
        for model in _explicit_models(rng, m, sorted({1, m // 2, m - 1})):
            assert np.array_equal(model.avoidance_table(), _add_at_table(model))

    @pytest.mark.parametrize("m", [17, 18, 20])
    def test_explicit_table_is_within_1e15_above_16_types(self, m):
        # each block adds the groups in another order; with g = m - 1 no
        # group misses all the high types, so the last block counts none
        rng = np.random.default_rng(m)
        for model in _explicit_models(rng, m, (1, 3, m - 1)):
            np.testing.assert_allclose(
                model.avoidance_table(), _add_at_table(model), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("m", [5, 12, 17, 18])
    def test_count_blocks_are_the_subset_sums_table(self, m):
        rng = np.random.default_rng(m)
        p = rng.uniform(0.1, 1.0, size=m)
        counts = rng.integers(1, 50, size=m)
        models = [
            IidWithinGroup(tuple(p / p.sum()), 3),
            IidWithinGroup(tuple(counts / counts.sum()), 2),
            WithoutReplacement(Population(tuple(counts.tolist())), 4),
            UniformDistinct(m, 2),
        ]
        for model in models:
            whole = model._count_avoidance(subset_sums(model._counts))
            blocks = list(model.avoidance_blocks())
            assert [b.size for b in blocks] == [1 << min(m, 16)] * (1 << max(m - 16, 0))
            assert np.array_equal(np.concatenate(blocks), whole)
            assert np.array_equal(model.avoidance_table(), whole)

    @pytest.mark.parametrize("m", [5, 17])
    def test_callers_may_overwrite_each_block(self, m):
        # the engine computes its terms in the yielded blocks: no block
        # may share memory with the model or with a later block
        rng = np.random.default_rng(m)
        p = rng.uniform(0.1, 1.0, size=m)
        counts = rng.integers(1, 50, size=m)
        models = [
            *_explicit_models(rng, m, (1, 2)),
            IidWithinGroup(tuple(p / p.sum()), 3),
            WithoutReplacement(Population(tuple(counts.tolist())), 4),
            UniformDistinct(m, 2),
        ]
        for model in models:
            table = model.avoidance_table()
            blocks, seen = [], []
            for block in model.avoidance_blocks():
                assert block.flags.c_contiguous
                assert not any(np.shares_memory(block, b) for b in blocks)
                blocks.append(block)
                seen.append(block.copy())
                block[:] = np.nan
            assert np.array_equal(np.concatenate(seen), table)
            assert np.array_equal(model.avoidance_table(), table)


def _prefix_lattice_group_law(p, g):
    """DraftLottery's group law built over the whole 2**m lattice of prefix
    sets, with ``subset_sums`` for the masses: the reference construction."""
    m = len(p)
    p = np.asarray(p, dtype=np.float64)
    mass = subset_sums(p)
    prefix = np.zeros(1 << m)
    prefix[0] = 1.0
    for k in range(1, g + 1):
        masks_k = np.array(
            [mask_of(c) for c in combinations(range(m), k)], dtype=np.int64
        )
        acc = np.zeros(len(masks_k))
        for b in range(m):
            if p[b] == 0.0:
                continue
            bit = 1 << b
            sel = (masks_k & bit) != 0
            if not sel.any():
                continue
            before = masks_k[sel] ^ bit
            left = 1.0 - mass[before]
            ratio = np.where(left > 0.0, p[b] / np.where(left > 0.0, left, 1.0), 0.0)
            acc[sel] += prefix[before] * ratio
        prefix[masks_k] = acc
    group_weights = prefix[masks_k]
    return masks_k, group_weights / math.fsum(group_weights.tolist())


@pytest.mark.parametrize("m", [65, 300])
@pytest.mark.parametrize("law", [WeightedDistinct, DraftLottery])
def test_explicit_laws_above_64_types_raise_capacity_error(law, m):
    # a uint64 group mask cannot hold type 64
    if law is WeightedDistinct:
        model = WeightedDistinct(m, 1, (1 / m,) * m)
    else:
        model = DraftLottery((1 / m,) * m, 2)
    with pytest.raises(CapacityError, match="at most 64 types"):
        model.avoidance_probability(1)


@pytest.mark.parametrize(
    "model, q, wait",
    [
        (WeightedDistinct(64, 1, (1 / 64,) * 64), 63 / 64, 64.0),
        (DraftLottery((1 / 64,) * 64, 2), 62 / 64, 32.0),
    ],
    ids=["weighted", "draft"],
)
def test_explicit_laws_answer_queries_on_type_63(model, q, wait):
    # type 63 is the top bit of a uint64 group mask
    assert model.avoidance_probability(1 << 63) == pytest.approx(q)
    assert first_occurrence_expectation(model, 63) == pytest.approx(wait)
    assert model.uncollectable_types() == ()


def test_weighted_distinct_masks_hold_64_types():
    model = WeightedDistinct(64, 1, (1 / 64,) * 64)
    assert model._group_law[0].tolist() == [1 << i for i in range(64)]
    assert model.draw_groups(np.array([[1 - 1e-9]])).tolist() == [1 << 63]


def _searchsorted_group_law(p, g):
    """DraftLottery's group law with each level's A - {t} found by a binary
    search of the level below in mask order: the colex-rank lookup must
    give the same masks and weights bit for bit."""
    m = len(p)
    p = np.asarray(p, dtype=np.float64)
    masks = np.zeros(1, dtype=np.uint64)
    mass = np.zeros(1)
    prefix = np.ones(1)
    for k in range(1, g + 1):
        types = _subset_types(m, k)
        masks_k = _masks_of_rows(types)
        order = np.argsort(masks)
        ordered = masks[order]
        acc = np.zeros(len(masks_k))
        for t in types.T:
            bit = np.left_shift(1, t, dtype=np.uint64)
            before = order[np.searchsorted(ordered, masks_k ^ bit)]
            left = 1.0 - mass[before]
            ratio = np.where(left > 0.0, p[t] / np.where(left > 0.0, left, 1.0), 0.0)
            acc += prefix[before] * ratio
        mass = np.zeros(len(masks_k))
        for t in types.T:
            mass += p[t]
        masks, prefix = masks_k, acc
    return masks, prefix / math.fsum(prefix.tolist())


class TestDraftGroupLaw:
    @pytest.mark.parametrize("m, g", [(6, 3), (12, 3), (22, 3), (16, 6), (10, 8), (9, 1)])
    def test_equals_the_searchsorted_construction(self, m, g):
        rng = np.random.default_rng(m * 10 + g)
        p = rng.uniform(0.0, 1.0, size=m)
        p[rng.random(m) < 0.2] = 0.0
        p[: g + 1] += 0.01  # at least g types of positive probability
        model = DraftLottery(tuple(p / p.sum()), g)
        masks, weights = model._group_law
        ref_masks, ref_weights = _searchsorted_group_law(model.p, g)
        assert masks.dtype == np.uint64
        assert np.array_equal(masks, ref_masks)
        assert np.array_equal(weights, ref_weights)

    def test_equals_the_prefix_lattice_construction(self):
        rng = np.random.default_rng(31)
        cases = [((0.6, 0.4, 1e-18, 1e-18), 3)]  # a prefix mass rounds to 1
        for _ in range(40):
            m = int(rng.integers(2, 13))
            g = int(rng.integers(1, min(8, m - 1) + 1))
            p = rng.uniform(0.0, 1.0, size=m)
            p[rng.random(m) < 0.2] = 0.0
            p[: g + 1] += 0.01  # at least g types of positive probability
            cases.append((tuple(p / p.sum()), g))
        for p, g in cases:
            masks, weights = DraftLottery(p, g)._group_law
            ref_masks, ref_weights = _prefix_lattice_group_law(DraftLottery(p, g).p, g)
            assert masks.dtype == np.uint64
            assert np.array_equal(masks, ref_masks)
            assert np.array_equal(weights, ref_weights)


class _Enumerated(Exception):
    """Raised by the spy on ``_subset_types``: the group law was begun."""


class TestDraftLawBound:
    """A draft lottery's group law is enumerated only up to 2**23 groups:
    at m = 40, g = 8 its 76.9M groups would take about 8.5 GB."""

    @staticmethod
    def _spy(monkeypatch) -> list:
        calls = []

        def enumerate_types(m, k):
            calls.append((m, k))
            raise _Enumerated

        monkeypatch.setattr(models, "_subset_types", enumerate_types)
        return calls

    def test_an_over_bound_law_is_never_enumerated(self, monkeypatch):
        calls = self._spy(monkeypatch)
        model = DraftLottery(mandelbrot_weights(40, 0.30, 1.75), 8)
        for query in (
            lambda: model.avoidance_probability(0b1),
            lambda: next(model.avoidance_blocks()),
            lambda: first_occurrence_expectation(model, 0),
            lambda: inclusion_exclusion_expectation(model, exact_cap=40),
        ):
            with pytest.raises(CapacityError, match="76904685 groups"):
                query()
        assert calls == []
        # its draws never build the law
        assert sample_group(model, np.random.default_rng(0)).bit_count() == 8

    @pytest.mark.parametrize("m, over", [(31, False), (32, True)])
    def test_the_bound_is_2_23_groups(self, monkeypatch, m, over):
        # C(31, 8) = 7,888,725 groups are enumerated, C(32, 8) = 10,518,300
        # are not
        calls = self._spy(monkeypatch)
        model = DraftLottery(mandelbrot_weights(m, 0.30, 1.75), 8)
        with pytest.raises(CapacityError if over else _Enumerated):
            model.avoidance_probability(0b1)
        assert calls == ([] if over else [(m, 1)])


class TestMandelbrotWeights:
    def test_single_type(self):
        assert mandelbrot_weights(1, 0.7, 1.5) == (1.0,)

    def test_two_types_harmonic(self):
        p = mandelbrot_weights(2, 0.0, 1.0)
        assert p[0] == pytest.approx(2 / 3, abs=1e-15)
        assert p[1] == pytest.approx(1 / 3, abs=1e-15)

    def test_paper_figure_parameters(self):
        # derived by direct normalized evaluation of (0.3 + i)**-1.75
        p = mandelbrot_weights(5, 0.30, 1.75)
        assert p[0] == pytest.approx(0.5639881141982616, abs=1e-12)

    def test_theta_range_enforced(self):
        with pytest.raises(InputError):
            mandelbrot_weights(5, 0.3, 0.99)
        with pytest.raises(InputError):
            mandelbrot_weights(5, 0.3, 2.01)
        with pytest.raises(InputError):
            mandelbrot_weights(5, -0.1, 1.5)

    @given(
        m=st.integers(min_value=1, max_value=60),
        c=st.floats(min_value=0.0, max_value=50.0),
        theta=st.floats(min_value=1.0, max_value=2.0),
    )
    @settings(max_examples=60)
    def test_normalized_and_decreasing(self, m, c, theta):
        p = mandelbrot_weights(m, c, theta)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)
        assert all(a > b for a, b in zip(p, p[1:]))


class TestPopulationFromWeights:
    def test_even_split(self):
        assert population_from_weights((0.5, 0.5), 10).counts == (5, 5)

    def test_exact_rounding(self):
        assert population_from_weights((2 / 3, 1 / 3), 3).counts == (2, 1)

    def test_minimum_one_then_adjust(self):
        assert population_from_weights((0.9, 0.05, 0.05), 10).counts == (8, 1, 1)

    def test_too_small_population(self):
        with pytest.raises(InputError):
            population_from_weights((0.4, 0.3, 0.3), 2)

    @given(
        m=st.integers(min_value=1, max_value=12),
        extra=st.integers(min_value=0, max_value=500),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_sums_exactly_with_positive_counts(self, m, extra, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.01, 1.0, size=m)
        p = tuple(raw / raw.sum())
        total = m + extra
        pop = population_from_weights(p, total)
        assert pop.total == total
        assert min(pop.counts) >= 1


class TestModelFromDict:
    def test_without_replacement_counts(self):
        model = model_from_dict(
            {"model": "without_replacement", "g": 2, "counts": [10, 100, 500, 1000]}
        )
        assert isinstance(model, WithoutReplacement)
        assert model.population.counts == PAPER_COUNTS

    def test_uniform_distinct_m(self):
        model = model_from_dict({"model": "uniform_distinct", "g": 2, "m": 4})
        assert isinstance(model, UniformDistinct)
        assert (model.m, model.g) == (4, 2)

    def test_weighted_infers_m_from_length(self):
        model = model_from_dict(
            {"model": "weighted_distinct", "g": 2, "q": [1 / 6] * 6}
        )
        assert isinstance(model, WeightedDistinct)
        assert model.m == 4

    def test_iid_and_draft_take_p(self):
        iid = model_from_dict({"model": "iid_within_group", "g": 3, "p": [0.6, 0.4]})
        assert isinstance(iid, IidWithinGroup)
        draft = model_from_dict(
            {"model": "draft_lottery", "g": 1, "p": [0.6, 0.4]}
        )
        assert isinstance(draft, DraftLottery)

    def test_mandelbrot_expansion(self):
        model = model_from_dict(
            {
                "model": "without_replacement",
                "g": 2,
                "mandelbrot": {"m": 5, "c": 0.30, "theta": 1.75, "N": 1000},
            }
        )
        assert isinstance(model, WithoutReplacement)
        assert model.population.total == 1000
        iid = model_from_dict(
            {
                "model": "iid_within_group",
                "g": 2,
                "mandelbrot": {"m": 5, "c": 0.30, "theta": 1.75},
            }
        )
        assert iid.p == mandelbrot_weights(5, 0.30, 1.75)

    def test_errors(self):
        with pytest.raises(InputError):
            model_from_dict({"model": "nope", "g": 2})
        with pytest.raises(InputError):
            model_from_dict({"model": "uniform_distinct", "g": 2})
        with pytest.raises(InputError):
            model_from_dict({"model": "without_replacement", "g": 2})
        with pytest.raises(InputError):
            model_from_dict(
                {"model": "weighted_distinct", "g": 2, "q": [0.5, 0.5, 0.0, 0.0, 0.0]}
            )
        with pytest.raises(InputError):
            model_from_dict(
                {
                    "model": "without_replacement",
                    "g": 2,
                    "mandelbrot": {"m": 5, "c": 0.3, "theta": 1.75},
                }
            )
        with pytest.raises(InputError):
            model_from_dict({"model": "iid_within_group", "g": "x", "p": [1.0]})


def test_lexicographic_weight_indexing():
    # the third weight belongs to the third 2-subset in lexicographic
    # order, (0, 3); giving it all the mass pins q accordingly
    weights = [0.0] * 6
    weights[2] = 1.0
    model = WeightedDistinct(4, 2, tuple(weights))
    assert model.avoidance_probability(0b0110) == pytest.approx(1.0)  # S = {1, 2}
    assert model.avoidance_probability(0b0001) == pytest.approx(0.0)  # S = {0}
    for combo, w in zip(combinations(range(4), 2), model.weights):
        if w:
            assert combo == (0, 3)
