import math
from fractions import Fraction

import numpy as np
import pytest

from couponcollector import (
    CapacityError,
    DivergenceError,
    DraftLottery,
    IidWithinGroup,
    InputError,
    Population,
    UniformDistinct,
    WeightedDistinct,
    WithoutReplacement,
    first_occurrence_expectation,
    inclusion_exclusion_expectation,
    mandelbrot_weights,
    population_from_weights,
    sampling_expectation,
    single_arrival_expectation,
    uniform_group_expectation,
    uniform_single_expectation,
)
from couponcollector._bits import mask_of, popcounts
from conftest import random_model

PAPER_COUNTS = (10, 100, 500, 1000)


class TestUniformSingle:
    def test_values(self):
        assert uniform_single_expectation(1) == pytest.approx(1.0, abs=1e-15)
        assert uniform_single_expectation(2) == pytest.approx(3.0, abs=1e-15)
        assert uniform_single_expectation(4) == pytest.approx(25 / 3, rel=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            uniform_single_expectation(0)


class TestUniformGroup:
    def test_hand_values(self):
        # absorbing-chain derivations: 1 + 14/5 and 1 + 5/4
        assert uniform_group_expectation(4, 2) == pytest.approx(3.8, abs=1e-12)
        assert uniform_group_expectation(5, 4) == pytest.approx(2.25, abs=1e-12)
        assert uniform_group_expectation(2, 1) == pytest.approx(3.0, abs=1e-12)

    def test_bad_group_sizes(self):
        with pytest.raises(InputError):
            uniform_group_expectation(4, 4)
        with pytest.raises(InputError):
            uniform_group_expectation(4, 0)

    def test_matches_master_sum_up_to_14(self):
        for m in range(2, 15):
            for g in range(1, m):
                closed = uniform_group_expectation(m, g)
                master = inclusion_exclusion_expectation(UniformDistinct(m, g)).value
                assert master == pytest.approx(closed, rel=1e-9)


class TestMasterSum:
    def test_single_type_needs_one_group(self):
        result = inclusion_exclusion_expectation(IidWithinGroup((1.0,), 3))
        assert result.value == pytest.approx(1.0, abs=1e-15)
        assert result.terms_evaluated == 1

    def test_uniform_4_2(self):
        result = inclusion_exclusion_expectation(UniformDistinct(4, 2))
        assert result.value == pytest.approx(3.8, abs=1e-12)
        assert result.terms_evaluated == 15
        assert result.truncated_at == 2  # q(S) vanishes above |S| = m - g

    def test_unit_population_pairs(self):
        # after any first pair, each draw contains the missing type w.p. 2/3
        result = sampling_expectation((1, 1, 1), 2)
        assert result.value == pytest.approx(2.5, abs=1e-12)

    def test_exhaustive_sample(self):
        # one draw takes the whole population
        assert sampling_expectation((1, 1), 2).value == pytest.approx(1.0, abs=1e-15)

    def test_two_by_two_population(self):
        # 6 equally likely pairs; q({i}) = P(2,2)/P(4,2) = 1/6
        result = sampling_expectation((2, 2), 2)
        assert result.value == pytest.approx(1.4, abs=1e-12)

    def test_paper_headline_value(self):
        result = sampling_expectation(PAPER_COUNTS, 2)
        assert round(result.value, 1) == 81.5

    def test_wrapper_equals_master(self):
        direct = inclusion_exclusion_expectation(
            WithoutReplacement(Population(PAPER_COUNTS), 2)
        )
        wrapped = sampling_expectation(PAPER_COUNTS, 2)
        assert wrapped == direct

    def test_diagnostics(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            model = random_model(rng, max_m=8)
            result = inclusion_exclusion_expectation(model)
            assert result.value >= 1.0
            assert result.cancellation_ratio >= 1.0
            assert result.terms_evaluated == (1 << model.m) - 1
            assert 0 <= result.truncated_at <= model.m

    def test_capacity_error_names_cap(self):
        model = IidWithinGroup((1 / 11,) * 11, 2)
        with pytest.raises(CapacityError, match="10"):
            inclusion_exclusion_expectation(model, exact_cap=10)
        inclusion_exclusion_expectation(model, exact_cap=11)

    def test_count_laws_stop_at_53_types(self):
        # checked before the class build, which could not hold the
        # multiplicities exactly
        for model in (
            UniformDistinct(54, 2),
            WithoutReplacement(Population((1,) * 54), 2),
        ):
            with pytest.raises(CapacityError, match="53-type limit"):
                inclusion_exclusion_expectation(model, exact_cap=60)
        result = inclusion_exclusion_expectation(UniformDistinct(53, 2), exact_cap=53)
        assert result.terms_evaluated == (1 << 53) - 1

    def test_divergence_reports_offending_type(self):
        model = IidWithinGroup((0.5, 0.5, 0.0), 2)
        with pytest.raises(DivergenceError) as err:
            inclusion_exclusion_expectation(model)
        assert err.value.subset_mask == 0b100

    def test_divergence_for_uncovered_weighted_type(self):
        model = WeightedDistinct(3, 2, (1.0, 0.0, 0.0))
        with pytest.raises(DivergenceError):
            inclusion_exclusion_expectation(model)


def _lattice(model):
    """The 2**m - 1 subset terms built from ``avoidance_table()`` and the
    largest subset size with q > 0."""
    q = model.avoidance_table()[1:]
    sizes = popcounts(model.m)[1:]
    terms = np.where(sizes % 2 == 1, 1.0, -1.0) / (1.0 - q)
    contributing = sizes[q > 0.0]
    truncated_at = int(contributing.max()) if contributing.size else 0
    return terms, truncated_at


def _check_against_lattice(model):
    terms, truncated_at = _lattice(model)
    value = math.fsum(terms.tolist())
    ratio = float(np.abs(terms).sum()) / abs(value)
    result = inclusion_exclusion_expectation(model)
    assert result.value == value
    assert abs(result.cancellation_ratio - ratio) <= 4 * math.ulp(ratio)
    assert result.truncated_at == truncated_at
    assert result.terms_evaluated == terms.size
    return result


class TestCountPath:
    """Count laws sum over distinct excluded counts; the reference is the
    2**m subset terms built from ``avoidance_table()``."""

    def test_random_populations_match_lattice_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            m = int(rng.integers(1, 21))
            top = int(rng.choice([2, 30, 1000, 10**6]))
            counts = tuple(int(c) for c in rng.integers(1, top + 1, size=m))
            g = int(rng.integers(1, min(12, sum(counts)) + 1))
            _check_against_lattice(WithoutReplacement(Population(counts), g))

    def test_uniform_distinct_matches_lattice_sum(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            m = int(rng.integers(2, 21))
            _check_against_lattice(UniformDistinct(m, int(rng.integers(1, m))))

    def test_m22_is_the_unchunked_fsum(self):
        # past 2**20 terms the sum is still rounded once, not per chunk
        weights = mandelbrot_weights(22, 0.30, 1.75)
        model = WithoutReplacement(population_from_weights(weights, 1000), 2)
        terms, _ = _lattice(model)
        value = inclusion_exclusion_expectation(model).value
        assert value == math.fsum(terms.tolist())

    @pytest.mark.parametrize(
        "counts, mask", [((10**17, 1), 0b10), ((2, 1, 10**17), 0b001)]
    )
    def test_population_above_2_53_diverges(self, counts, mask):
        # (N - c) / N rounds to 1 for small c, so q(S) = 1 in floats; the
        # reported subset is the lattice's first mask with q = 1
        model = WithoutReplacement(Population(counts), 2)
        with pytest.raises(DivergenceError, match="jointly avoided") as err:
            inclusion_exclusion_expectation(model)
        assert err.value.subset_mask == mask
        assert np.flatnonzero(model.avoidance_table()[1:] >= 1.0)[0] + 1 == mask

    @pytest.mark.parametrize("g", [2, 4])
    def test_large_multiplicities_sum_exactly(self, g):
        # |a_c| = C(30, k) reaches 1.55e8 > 2**26, so a_c * t_c needs
        # both factors split; g = 4 also catches a split of t_c alone
        m = 30
        model = UniformDistinct(m, g)
        exact = Fraction(0)
        for k in range(1, m + 1):
            t = 1.0 / (1.0 - model.avoidance_probability(mask_of(range(k))))
            exact += (-1) ** (k + 1) * math.comb(m, k) * Fraction(t)
        value = inclusion_exclusion_expectation(model, exact_cap=m).value
        assert value == float(exact)


class TestLatticePath:
    """Explicit and i.i.d. laws walk their q(S) table in blocks of 2**16
    masks; m = 17..18 puts the terms in more than one block."""

    def test_random_models_match_lattice_sum(self):
        rng = np.random.default_rng(25)
        for _ in range(3):
            m = int(rng.integers(17, 19))
            g = int(rng.integers(1, 4))
            w = rng.uniform(0.1, 1.0, size=math.comb(m, g))
            p = rng.uniform(0.1, 1.0, size=m)
            weighted = WeightedDistinct(m, g, tuple(w / w.sum()))
            # every group has positive weight, so q(S) > 0 up to |S| = m - g
            assert _check_against_lattice(weighted).truncated_at == m - g
            _check_against_lattice(IidWithinGroup(tuple(p / p.sum()), g))
            _check_against_lattice(DraftLottery(tuple(p / p.sum()), g))

    def test_m22_iid_is_the_correctly_rounded_fsum(self):
        # a sum rounded per chunk of 2**20 terms gives ...976
        weights = mandelbrot_weights(22, 0.30, 1.75)
        counts = population_from_weights(weights, 1000).counts
        model = IidWithinGroup(tuple(c / 1000 for c in counts), 3)
        terms, _ = _lattice(model)
        value = inclusion_exclusion_expectation(model).value
        assert value == math.fsum(terms.tolist()) == 229.83707876017974


class TestSpecializations:
    def test_g1_master_equals_direct_single_arrival(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = int(rng.integers(1, 13))
            raw = rng.uniform(0.05, 1.0, size=m)
            p = tuple(raw / raw.sum())
            master = inclusion_exclusion_expectation(IidWithinGroup(p, 1)).value
            direct = single_arrival_expectation(p)
            assert master == pytest.approx(direct, rel=1e-9)

    def test_uniform_p_matches_harmonic_formula(self):
        for m in (1, 2, 5, 9):
            p = (1.0 / m,) * m
            master = inclusion_exclusion_expectation(IidWithinGroup(p, 1)).value
            assert master == pytest.approx(uniform_single_expectation(m), rel=1e-9)

    def test_single_arrival_divergence_and_cap(self):
        with pytest.raises(DivergenceError):
            single_arrival_expectation((1.0, 0.0))
        with pytest.raises(CapacityError):
            single_arrival_expectation((1 / 30,) * 30)


class TestFirstOccurrence:
    def test_paper_companion_value(self):
        model = WithoutReplacement(Population(PAPER_COUNTS), 2)
        assert round(first_occurrence_expectation(model, 0), 1) == 80.7

    def test_always_present_type(self):
        assert first_occurrence_expectation(
            IidWithinGroup((1.0,), 2), 0
        ) == pytest.approx(1.0)

    def test_fair_coin(self):
        model = IidWithinGroup((0.5, 0.5), 1)
        assert first_occurrence_expectation(model, 0) == pytest.approx(2.0)

    def test_bad_index(self):
        with pytest.raises(InputError):
            first_occurrence_expectation(UniformDistinct(3, 2), 3)

    def test_divergent_type(self):
        with pytest.raises(DivergenceError):
            first_occurrence_expectation(IidWithinGroup((1.0, 0.0), 1), 1)

    def test_dominance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            model = random_model(rng, max_m=7)
            total = inclusion_exclusion_expectation(model).value
            worst = max(
                first_occurrence_expectation(model, i) for i in range(model.m)
            )
            assert total >= worst - 1e-9

    def test_rare_type_dominates_paper_model(self):
        model = WithoutReplacement(Population(PAPER_COUNTS), 2)
        total = inclusion_exclusion_expectation(model).value
        rare = first_occurrence_expectation(model, 0)
        assert total - rare < 1.0  # 81.5 vs 80.7: near-equality


class TestMonotonicityInG:
    def test_paper_population_g_sweep(self):
        groups = [sampling_expectation(PAPER_COUNTS, g).value for g in range(1, 16)]
        individuals = [g * e for g, e in enumerate(groups, start=1)]
        assert all(a >= b - 1e-9 for a, b in zip(groups, groups[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(individuals, individuals[1:]))

    def test_random_small_populations_group_counts_decrease(self):
        # the group count always weakly decreases in g (a (g+1)-sample
        # contains a g-sample); the per-individual cost g*E does NOT
        # increase in general — it can fall once g is comparable to N,
        # e.g. counts (1, 1, 5, 4) — so only the figure's regime (above)
        # asserts that direction
        rng = np.random.default_rng(8)
        for _ in range(10):
            counts = tuple(int(c) for c in rng.integers(1, 9, size=4))
            values = [
                sampling_expectation(counts, g).value
                for g in range(1, min(8, sum(counts)) + 1)
            ]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
