import math
import os
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import couponcollector.engine as engine
import couponcollector.models as models
from couponcollector._bits import mask_of, subset_sums
from conftest import random_model, spy_forks, stub_forks

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

    def test_master_sum_within_its_rounding_bound_up_to_14(self):
        # each q(c) is a product of g rounded ratios, so the value may miss
        # the rational E by the unit roundoff times the condition number
        # kappa, and by no more than the 1e-12 that the benchmark allows
        for m in range(2, 15):
            for g in range(1, m):
                whole = math.comb(m, g)
                terms = [
                    (-1) ** (k + 1)
                    * math.comb(m, k)
                    / (1 - Fraction(math.comb(m - k, g), whole))
                    for k in range(1, m + 1)
                ]
                exact = sum(terms)
                kappa = sum(abs(t) for t in terms) / exact
                value = inclusion_exclusion_expectation(UniformDistinct(m, g)).value
                error = abs(Fraction(value) - exact) / exact
                assert error <= max(Fraction(1, 10**12), kappa / 2**53), (m, g)


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

    def test_count_classes_are_bounded_before_the_build(self):
        # about 2**29 classes at N = 10**12 would take some 24 GB
        weights = mandelbrot_weights(30, 0.30, 1.75)
        model = WithoutReplacement(population_from_weights(weights, 10**12), 2)
        with pytest.raises(CapacityError, match="classes"):
            inclusion_exclusion_expectation(model, exact_cap=30)
        # N + 1 bounds the classes of integer counts, whatever m is
        weights = mandelbrot_weights(40, 0.30, 1.75)
        model = WithoutReplacement(population_from_weights(weights, 1000), 3)
        value = inclusion_exclusion_expectation(model, exact_cap=40).value
        assert value == 897.9452715050693
        # and so do the sub-multisets of repeated counts: 30 classes here
        m = 30
        model = WithoutReplacement(Population((10**10,) * m), 2)
        exact = Fraction(0)
        for k in range(1, m + 1):
            t = 1.0 / (1.0 - model.avoidance_probability(mask_of(range(k))))
            exact += (-1) ** (k + 1) * math.comb(m, k) * Fraction(t)
        value = inclusion_exclusion_expectation(model, exact_cap=m).value
        assert value == float(exact)

    def test_divergence_reports_offending_type(self):
        model = IidWithinGroup((0.5, 0.5, 0.0), 2)
        with pytest.raises(DivergenceError) as err:
            inclusion_exclusion_expectation(model)
        assert err.value.subset_mask == 0b100

    def test_divergence_for_uncovered_weighted_type(self):
        model = WeightedDistinct(3, 2, (1.0, 0.0, 0.0))
        with pytest.raises(DivergenceError):
            inclusion_exclusion_expectation(model)


def _fail(*args):
    raise AssertionError("built a table")


class TestExactPath:
    """``engine._exact_path`` checks every exact limit, in one order,
    before any table is built; a model that fails two checks raises the
    first."""

    def test_exact_cap_must_be_an_integer(self):
        model = UniformDistinct(5, 2)
        for cap in (24.5, 4.5, "24", None, True, np.bool_(True)):
            with pytest.raises(InputError, match="exact_cap must be an integer"):
                inclusion_exclusion_expectation(model, exact_cap=cap)
            with pytest.raises(InputError, match="exact_cap must be an integer"):
                sampling_expectation((3, 4, 5), 2, exact_cap=cap)
            with pytest.raises(InputError, match="exact_cap must be an integer"):
                single_arrival_expectation((0.5, 0.5), exact_cap=cap)
        # an integral value of another type is its integer
        assert inclusion_exclusion_expectation(model, exact_cap=5.0) == (
            inclusion_exclusion_expectation(model, exact_cap=5)
        )

    def test_the_cap_comes_before_an_uncollectable_type(self):
        model = IidWithinGroup((0.0,) + (0.1,) * 10, 2)
        with pytest.raises(CapacityError, match="m=11 exceeds .* cap of 10 "):
            inclusion_exclusion_expectation(model, exact_cap=10)

    def test_an_uncollectable_type_comes_before_the_53_type_limit(self):
        model = IidWithinGroup((1 / 53,) * 3 + (0.0,) + (1 / 53,) * 50, 2)
        with pytest.raises(DivergenceError, match="type 3 never appears") as err:
            inclusion_exclusion_expectation(model, exact_cap=60)
        assert err.value.subset_mask == 1 << 3

    def test_the_53_type_limit_comes_before_the_probe(self, monkeypatch):
        p = np.random.default_rng(54).uniform(0.1, 1.0, size=54)
        model = IidWithinGroup(tuple(p / p.sum()), 3)
        monkeypatch.setattr(engine, "subset_sum_classes", _fail)
        with pytest.raises(CapacityError, match="m=54 exceeds the 53-type limit"):
            inclusion_exclusion_expectation(model, exact_cap=60)

    def test_a_stuck_single_type_comes_before_the_class_bound(self, monkeypatch):
        # 2**29 classes would pass the bound, but (N - 1) / N rounds to 1
        counts = (10**17,) + tuple(2**k for k in range(29))
        model = WithoutReplacement(Population(counts), 2)
        monkeypatch.setattr(engine, "subset_sum_classes", _fail)
        with pytest.raises(DivergenceError, match="jointly avoided") as err:
            inclusion_exclusion_expectation(model, exact_cap=30)
        assert err.value.subset_mask == 0b10

    def test_bad_workers_come_before_the_group_law(self, monkeypatch):
        model = DraftLottery((0.4, 0.3, 0.2, 0.1), 2)
        monkeypatch.setattr(DraftLottery._group_law, "func", _fail)
        with pytest.raises(InputError, match="workers"):
            inclusion_exclusion_expectation(model, workers="3")

    def test_the_class_bound_comes_before_a_wide_class_build(self, monkeypatch):
        # counts / N share subset sums, so the probe picks the class path,
        # and 24 real weights may make 2**24 classes
        model = IidWithinGroup(_counts_over_total(np.random.default_rng(3), 25), 2)
        widths = []
        classes = engine.subset_sum_classes
        monkeypatch.setattr(
            engine,
            "subset_sum_classes",
            lambda values: widths.append(len(values)) or classes(values),
        )
        with pytest.raises(CapacityError, match="2\\*\\*23"):
            inclusion_exclusion_expectation(model, exact_cap=25)
        assert widths == [engine._PROBE_VALUES]


def _lattice(model):
    """The 2**m - 1 subset terms built from ``avoidance_table()`` and the
    largest subset size with q > 0."""
    q = model.avoidance_table()[1:]
    masks = np.arange(1, 1 << model.m)
    sizes = sum((masks >> b) & 1 for b in range(model.m))  # |S| of each mask
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


def _record(calls, name, source, *args):
    calls.append(name)
    return source(*args)


def _engine_path(monkeypatch, model):
    """Check ``model`` against the lattice; return the block sources the
    engine used, the number of ``avoidance_table`` calls it made, and the
    result."""
    sources, tables = [], []
    for name in ("_lattice_blocks", "_count_law_blocks"):
        source = getattr(engine, name)
        monkeypatch.setattr(engine, name, partial(_record, sources, name, source))
    table = type(model).avoidance_table
    monkeypatch.setattr(
        type(model), "avoidance_table", lambda self: tables.append(1) or table(self)
    )
    result = _check_against_lattice(model)
    return sources, len(tables) - 1, result  # _lattice made one call


def _counts_over_total(rng, m, top=60):
    counts = rng.integers(1, top, size=m)
    return tuple((counts / counts.sum()).tolist())


class TestIidPath:
    """IidWithinGroup is a count law on the float weights p: it sums over
    the distinct float subset sums when they coincide, and walks its q(S)
    table when they do not."""

    @pytest.mark.parametrize("seed", range(4))
    def test_counts_over_total_take_the_class_path(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        model = IidWithinGroup(_counts_over_total(rng, 18), int(rng.integers(1, 5)))
        sources, tables, _ = _engine_path(monkeypatch, model)
        assert sources == ["_count_law_blocks"]
        assert tables == 0

    @pytest.mark.parametrize("m", [17, 18])
    def test_generic_p_falls_back_to_the_lattice(self, monkeypatch, m):
        p = np.random.default_rng(m).uniform(0.1, 1.0, size=m)
        model = IidWithinGroup(tuple(p / p.sum()), 3)
        sources, tables, _ = _engine_path(monkeypatch, model)
        assert sources == ["_lattice_blocks"]
        assert tables == 0  # the engine streams avoidance_blocks

    @pytest.mark.parametrize(
        "seed, reaches_1", [(0, True), (5, False), (16, False), (18, True)]
    )
    def test_truncation_follows_the_bit_order_full_sum(
        self, monkeypatch, seed, reaches_1
    ):
        # normalized p put the full set's sum at 1 up to rounding, and the
        # bit order decides which side: seeds 5 and 18 round the other way
        # when the same p are added in increasing order
        m = 14
        model = IidWithinGroup(_counts_over_total(np.random.default_rng(seed), m), 2)
        assert (subset_sums(model.p)[-1] >= 1.0) == reaches_1
        assert (np.cumsum(np.sort(model.p))[-1] >= 1.0) == (seed in (0, 5))
        sources, _, result = _engine_path(monkeypatch, model)
        assert sources == ["_count_law_blocks"]
        assert result.truncated_at == (m - 1 if reaches_1 else m)

    def test_truncation_where_q_underflows(self, monkeypatch):
        # (1 - p(S))**400 underflows to 0 once p(S) passes about 0.84, so
        # the widest contributing subsets lie well inside the lattice
        model = IidWithinGroup(_counts_over_total(np.random.default_rng(7), 14), 400)
        sources, _, result = _engine_path(monkeypatch, model)
        assert sources == ["_count_law_blocks"]
        assert 1 < result.truncated_at < model.m - 1


class TestLatticePath:
    """Explicit laws, and i.i.d. laws whose subset sums do not coincide,
    walk their q(S) table in blocks of 2**16 masks; m = 17..18 puts the
    terms in more than one block."""

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


# every finite double, subnormals included; magnitudes stay below 2**1000
# so that no partial sum of math.fsum overflows
_anywhere = st.one_of(
    st.floats(-(2.0**1000), 2.0**1000),
    st.builds(
        math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1126, 947)
    ),
)
_arrays = st.lists(_anywhere, max_size=40).map(np.array)
# every finite float, with the binades next to the largest one weighted up
_topmost = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1126, 971)
    ),
    st.builds(
        math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(940, 971)
    ),
)


def _fsum_of(blocks) -> float:
    return math.fsum(x for block in blocks for x in block.tolist())


def _bounded(blocks):
    """``engine._exact_total`` blocks of the arrays ``blocks``: a copy of
    each, with the bounds that ``engine._bounds`` scans it for."""
    return (engine._bounds(x.copy()) for x in blocks)


def _exact_sum(blocks) -> float:
    """The correctly rounded sum of the floats in the arrays ``blocks``,
    from their exact total."""
    return engine._exact_total(_bounded(blocks)) / (1 << engine._UNIT_SHIFT)


_LATTICE_KINDS = ["weighted", "draft", "iid"]


def _lattice_model(kind: str, seed: int):
    """A random law of one of the kinds that walk the lattice, at m = 17-18:
    a ``WeightedDistinct``, a ``DraftLottery`` or a generic-p
    ``IidWithinGroup``."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(17, 19))
    g = int(rng.integers(1, 4))
    p = rng.uniform(0.1, 1.0, size=m)
    if kind == "weighted":
        w = rng.uniform(0.1, 1.0, size=math.comb(m, g))
        return WeightedDistinct(m, g, tuple(w / w.sum()))
    if kind == "draft":
        return DraftLottery(tuple(p / p.sum()), g)
    model = IidWithinGroup(tuple(p / p.sum()), g)
    assert engine._exact_path(model, m) == ("lattice", 1 << (m - 16))
    return model


class TestExactSum:
    """The exact total of ``_bounds`` blocks (``engine._exact_total``),
    rounded once, is ``math.fsum`` bit for bit."""

    @given(st.lists(_arrays, max_size=8))
    @settings(max_examples=300)
    def test_mixed_signs_and_exponents(self, blocks):
        assert _exact_sum(blocks).hex() == _fsum_of(blocks).hex()

    @given(st.lists(_anywhere, max_size=60), st.randoms(use_true_random=False))
    def test_exact_cancellation(self, values, random):
        values = values + [-v for v in values]
        random.shuffle(values)
        blocks = [np.array(values[:7]), np.array(values[7:])]
        assert _exact_sum(blocks).hex() == _fsum_of(blocks).hex() == "0x0.0p+0"

    @given(st.lists(st.one_of(st.just([]), _anywhere.map(lambda x: [x])), max_size=30))
    def test_empty_and_one_element_blocks(self, lists):
        blocks = [np.array(x, dtype=np.float64) for x in lists]
        assert _exact_sum(blocks).hex() == _fsum_of(blocks).hex()

    @given(
        st.integers(-1074, 1000),
        st.lists(st.integers(1 << 52, (1 << 53) - 1), min_size=1, max_size=4),
        st.sampled_from([1.0, -1.0]),
    )
    @settings(max_examples=40)
    def test_a_full_block_of_one_exponent(self, exponent, mantissas, sign):
        # 2**17 floats (the engine's largest block) of one exponent and
        # near-full mantissas: each level's integers add to about 2**51
        values = [sign * math.ldexp(m, exponent - 52) for m in mantissas]
        block = np.resize(np.array(values), 1 << 17)
        assert _exact_sum([block]).hex() == _fsum_of([block]).hex()

    @pytest.mark.parametrize("seed", range(10))
    def test_a_full_block_of_random_mantissas(self, seed):
        # 2**17 floats of one exponent and sign whose 53-bit mantissas
        # are random: a level's 2**17 integers, each below 2**34, sum to
        # about 2**51, exactly; levels a few bits wider would round
        rng = np.random.default_rng(seed)
        mantissas = rng.integers(1 << 52, 1 << 53, size=1 << 17)
        exponent = int(rng.integers(-1022, 971)) - 52
        block = np.ldexp(mantissas.astype(np.float64), exponent)
        block *= rng.choice([1.0, -1.0])
        assert _exact_sum([block]).hex() == _fsum_of([block]).hex()

    @pytest.mark.parametrize("seed", range(10))
    def test_a_full_block_across_every_exponent(self, seed):
        # 2**17 floats with random mantissas and signs, from subnormals to
        # 2**999: the block runs through every level
        rng = np.random.default_rng(seed)
        mantissas = rng.integers(-(1 << 53) + 1, 1 << 53, size=1 << 17)
        exponents = rng.integers(-1126, 947, size=1 << 17)
        block = np.ldexp(mantissas.astype(np.float64), exponents)
        assert _exact_sum([block]).hex() == _fsum_of([block]).hex()

    @pytest.mark.parametrize("top", [19, 20])
    @pytest.mark.parametrize("seed", range(3))
    def test_remainders_of_one_sign_near_their_bound(self, seed, top):
        # 2**17 floats in [1, 2), each 1 to 2**20 ulps below an odd
        # multiple of Q = 2**(top-34), and one float in [2**top, 2**(top+1))
        # that puts the first level's sigma at 2**(top+19). That level
        # rounds the small floats to multiples of 2 * Q, so every
        # remainder is just below +Q, and the remainders add up to
        # 2**(top+3) ulps of 1: past 2**53, where a float64 sum of them
        # rounds. The rounded total would hide so small an error, so the
        # exact total itself is compared
        rng = np.random.default_rng(seed)
        q = 2.0 ** (top - 34)
        multiples = rng.integers(0, 2 ** (33 - top) - 1, size=(1 << 17) - 1)
        below = (2 * rng.integers(0, 1 << 19, size=multiples.size) + 1) * 2.0**-52
        small = 1.0 + multiples * (2 * q) + q - below
        block = np.append(small, 1.5 * 2.0**top)
        rng.shuffle(block)
        units = 0
        for x in block.tolist():
            numerator, denominator = x.as_integer_ratio()
            units += (numerator << engine._UNIT_SHIFT) // denominator
        assert engine._exact_total(_bounded([block])) == units

    @given(st.lists(st.lists(_topmost, max_size=40).map(np.array), max_size=4))
    @settings(max_examples=200)
    def test_the_top_of_the_range(self, blocks):
        # floats up to the largest finite one, where sigma = 2**k with
        # 2**k >= 2n * max|x| would pass 2**1023: the top bits go first.
        # Where fsum's partials overflow, the exact rational sum rounded
        # once is the reference, and both overflow together
        exact = sum(Fraction(x) for block in blocks for x in block.tolist())
        try:
            want = _fsum_of(blocks)
        except OverflowError:
            try:
                want = float(exact)
            except OverflowError:
                with pytest.raises(OverflowError):
                    _exact_sum(blocks)
                return
        assert _exact_sum(blocks).hex() == want.hex() == float(exact).hex()

    @pytest.mark.parametrize("seed", range(10))
    def test_a_full_block_from_subnormals_to_the_largest_float(self, seed):
        # 2**17 floats from subnormals to 2**953 with random signs, and the
        # largest finite float, in and out, at random places: the running
        # sum stays finite, so fsum does not overflow
        rng = np.random.default_rng(seed)
        mantissas = rng.integers(-(1 << 53) + 1, 1 << 53, size=1 << 17)
        exponents = rng.integers(-1126, 901, size=1 << 17)
        block = np.ldexp(mantissas.astype(np.float64), exponents)
        top = np.finfo(np.float64).max
        places = np.sort(rng.choice(block.size, size=5, replace=False))
        block[places] = [top, -top, top, -top, top]
        block[rng.integers(block.size)] = 2.0**-1074
        assert _exact_sum([block]).hex() == _fsum_of([block]).hex()


class TestLatticeStreaming:
    """The engine walks the lattice laws' q(S) block by block and holds
    no 2**m array."""

    @pytest.mark.parametrize("m, mask", [(12, 1 << 11), (18, 1 << 17)])
    def test_stuck_mask_in_a_later_block(self, m, mask):
        # the last type's only group has weight 2**-60, so q({last}) rounds
        # to 1; every other q(S) stays below 1. At m = 18 that mask is in
        # the third block of 2**16
        w = [1 / 16] * (m - 3) + [1 / 32] * 2 + [2.0**-60]
        w[0] += 1 - math.fsum(w[:-1])
        model = WeightedDistinct(m, 1, tuple(w))
        with pytest.raises(DivergenceError, match="jointly avoided") as err:
            inclusion_exclusion_expectation(model)
        assert err.value.subset_mask == mask
        assert np.flatnonzero(model.avoidance_table()[1:] >= 1.0)[0] + 1 == mask

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", _LATTICE_KINDS)
    def test_a_later_block_peaks_at_its_first_mask(self, kind, seed):
        # every mask of block h > 0 holds its first, h * 2**16, and q does
        # not increase as S grows, so the first q is the block's largest:
        # the stuck check of a later block reads that one entry
        model = _lattice_model(kind, 10 * seed + _LATTICE_KINDS.index(kind))
        blocks = list(model.avoidance_blocks())
        assert len(blocks) == 1 << (model.m - 16)
        for block in blocks[1:]:
            assert block[0] == block.max()

    @pytest.mark.parametrize("kind", _LATTICE_KINDS)
    def test_memory_stays_below_a_quarter_of_the_table(self, kind):
        m, g = 22, 3
        rng = np.random.default_rng(m)
        p = rng.uniform(0.1, 1.0, size=m)
        p = tuple(p / p.sum())  # a generic p, so i.i.d. takes the lattice
        if kind == "weighted":
            w = rng.uniform(0.1, 1.0, size=math.comb(m, 2))
            model = WeightedDistinct(m, 2, tuple(w / w.sum()))
        elif kind == "draft":
            model = DraftLottery(p, g)
        else:
            model = IidWithinGroup(p, g)
        tracemalloc.start()
        try:
            inclusion_exclusion_expectation(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (8 << m) // 4


def _pinned_model(kind: str, m: int):
    """A ``WeightedDistinct`` (g = 2), ``DraftLottery`` (g = 3) or
    generic-p ``IidWithinGroup`` (g = 3) of m types, drawn at seed m."""
    rng = np.random.default_rng(m)
    p = rng.uniform(0.1, 1.0, size=m)
    p = tuple(p / p.sum())
    if kind == "weighted":
        w = rng.uniform(0.1, 1.0, size=math.comb(m, 2))
        return WeightedDistinct(m, 2, tuple(w / w.sum()))
    if kind == "draft":
        return DraftLottery(p, 3)
    return IidWithinGroup(p, 3)


class TestLatticeBits:
    """The lattice walk's output, pinned as ``float.hex`` so that a change
    of its arithmetic shows: m = 12 is block 0 alone, m = 18 four blocks."""

    @pytest.mark.parametrize(
        "kind, m, value, ratio, widest",
        [
            ("weighted", 12, "0x1.26c75ad646bd5p+4", "0x1.3980d9fcc21a1p+8", 10),
            ("weighted", 18, "0x1.fcf1f69668283p+4", "0x1.62b95d277c9cep+13", 16),
            ("draft", 12, "0x1.733758ccf7630p+4", "0x1.a60e412531c49p+7", 9),
            ("draft", 18, "0x1.4e2929e38d06bp+5", "0x1.c8afd304455f2p+12", 15),
            ("iid", 12, "0x1.a6f0de551f943p+4", "0x1.897e4434f5fe9p+7", 11),
            ("iid", 18, "0x1.670e18032b937p+5", "0x1.b6c0e3a0d159ap+12", 17),
        ],
    )
    def test_pinned_results(self, kind, m, value, ratio, widest):
        model = _pinned_model(kind, m)
        assert engine._exact_path(model, m)[0] == "lattice"
        result = inclusion_exclusion_expectation(model, exact_cap=m)
        assert result.value.hex() == value
        assert result.cancellation_ratio.hex() == ratio
        assert result.truncated_at == widest


class TestFreeBounds:
    """``_lattice_blocks`` hands ``_exact_total`` bounds it reads off q's
    order instead of scanning each block."""

    @staticmethod
    def _check_bounds(model):
        for (terms, top, u_exp), abs_sum, _ in engine._lattice_blocks(model):
            magnitudes = np.abs(terms)
            assert top == magnitudes.max()
            assert magnitudes.min() >= 1.0
            assert u_exp == -52
            units = np.ldexp(terms, -u_exp)
            assert (units == np.trunc(units)).all()
            assert abs_sum == float(magnitudes.sum())

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", _LATTICE_KINDS)
    def test_top_is_the_largest_term(self, kind, seed):
        self._check_bounds(_lattice_model(kind, 10 * seed + _LATTICE_KINDS.index(kind)))

    @pytest.mark.parametrize("kind", _LATTICE_KINDS)
    def test_top_is_the_largest_term_of_block_0(self, kind):
        self._check_bounds(_pinned_model(kind, 12))

    def test_a_total_rounded_above_1_is_clipped(self, monkeypatch):
        # the last type's only group has weight 2**-60, so q({11}) is the
        # total of the others; at this seed the normalized weights add up
        # to 1 + 2**-52 in the zeta's order, at mask 0 and at mask 2**11
        w = np.random.default_rng(1).uniform(0.1, 1.0, size=12)
        w[-1] = 2.0**-60
        model = WeightedDistinct(12, 1, tuple(w / w.sum()))
        got = list(model.avoidance_blocks())
        rows, zeta = [], models.subset_zeta

        def clipped(laid):
            block = zeta(laid)
            rows.append(block.copy())
            return np.clip(block, 0.0, 1.0, out=block)

        monkeypatch.setattr(models, "subset_zeta", clipped)
        want = list(model.avoidance_blocks())
        assert rows[0][0] > 1.0 and rows[0][1 << 11] > 1.0
        assert [block.tobytes() for block in got] == [block.tobytes() for block in want]
        with pytest.raises(DivergenceError) as err:
            inclusion_exclusion_expectation(model)
        assert err.value.subset_mask == 1 << 11


class TestWidest:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_positive_blocks_give_the_masked_max(self, seed):
        # the lattice's low popcounts peak at the end; the count classes'
        # largest sizes, ordered by sum, need not
        rng = np.random.default_rng(seed)
        lattice = subset_sums(np.ones(10))
        classes = rng.integers(0, 23, size=lattice.size).astype(np.uint8)
        for sizes in (lattice, classes):
            q = rng.uniform(0.1, 1.0, size=sizes.size)
            for zeros in (0.0, 0.5, 1.0):
                q[rng.uniform(size=q.size) < zeros] = 0.0
                positive = q > 0.0
                expected = 3 + int(sizes[positive].max()) if positive.any() else 0
                assert engine._widest(sizes, q, 3) == expected


    @staticmethod
    def _kinds(blocks) -> set:
        return {
            "none" if q.min() > 0.0 else "all" if q.max() == 0.0 else "some"
            for q in blocks
        }

    def test_block_widest_equals_widest(self):
        # q(S) = 1 - c(S) clipped at 0, c a sum of weights over S: like every
        # law's q it does not increase as S grows. Blocks 0-2 hold no zeros,
        # block 3 some, and blocks 4-7, whose S hold the weight-1 type, only
        # zeros
        low = subset_sums(np.ones(8))
        low_weights = subset_sums(np.full(8, 0.05))
        blocks = []
        for high in range(8):
            excluded = low_weights + sum(
                w for i, w in enumerate((0.3, 0.5, 1.0)) if high >> i & 1
            )
            q = np.clip(1.0 - excluded, 0.0, None)
            blocks.append(q)
            want = engine._widest(low, q, high.bit_count())
            assert engine._block_widest(low, q, high) == want
        assert self._kinds(blocks) == {"none", "some", "all"}

    def test_lattice_blocks_keep_the_widest_of_every_block(self):
        # m = 18 in four blocks of 2**16; the groups of positive weight all
        # hold type 16 or 17, so block 0 has no zeros, blocks 1 and 2 some
        # and block 3 only zeros
        groups = list(combinations(range(18), 2))
        weights = np.array([float(16 in pair or 17 in pair) for pair in groups])
        model = WeightedDistinct(18, 2, tuple(weights / weights.sum()))
        blocks = list(model.avoidance_blocks())
        assert self._kinds(blocks) == {"none", "some", "all"}
        low = subset_sums(np.ones(16))
        got = [widest for _, _, widest in engine._lattice_blocks(model)]
        assert got == [engine._widest(low, q, h.bit_count()) for h, q in enumerate(blocks)]


def _split_lattice(monkeypatch, mode: str) -> list:
    """Make lattice walks take a span per block on three usable CPUs, in
    stub children that fork nothing ("stub pools") or in forked processes;
    returns the list of the children forked per call."""
    monkeypatch.setattr(engine, "_PROCESS_MIN_BLOCKS", 1)
    return (stub_forks if mode == "stub pools" else spy_forks)(monkeypatch, 3)


def _logged(log, name, build, model):
    """``build(model)``, after appending ``name`` and the process id to
    the file ``log``."""
    with open(log, "a") as fh:
        fh.write(f"{name} {os.getpid()}\n")
    return build(model)


class TestForkedLattice:
    """A lattice walk split into spans (``_spans._run_spans``) gives the
    one-span result bit for bit, and the one-span error."""

    @pytest.mark.parametrize("mode", ["stub pools", "forked"])
    @pytest.mark.parametrize("kind", _LATTICE_KINDS)
    def test_split_walks_equal_the_one_span_walk(self, monkeypatch, mode, kind):
        model = _lattice_model(kind, _LATTICE_KINDS.index(kind))
        m = model.m
        one = inclusion_exclusion_expectation(model)
        made = _split_lattice(monkeypatch, mode)
        split = inclusion_exclusion_expectation(model, workers=3)
        # 2 or 4 blocks on 3 CPUs: 2 or 3 spans, the caller's one of them
        assert made == [min(3, 1 << (m - 16)) - 1]
        assert split.value.hex() == one.value.hex()
        assert split.cancellation_ratio.hex() == one.cancellation_ratio.hex()
        assert split.truncated_at == one.truncated_at
        assert split == one

    @pytest.mark.parametrize("kind", ["weighted", "draft"])
    def test_the_block_runs_are_built_once_in_the_caller(
        self, monkeypatch, tmp_path, kind
    ):
        # the caller builds an explicit law's sorted runs, and with them a
        # draft lottery's group law, before the walk forks, so the forked
        # spans inherit both. Each build writes its name and process id
        model = _lattice_model(kind, _LATTICE_KINDS.index(kind))
        log = tmp_path / "builds"
        laws = ((models._ExplicitLaw, "_block_runs"), (type(model), "_group_law"))
        for owner, name in laws:
            prop = getattr(owner, name)
            monkeypatch.setattr(prop, "func", partial(_logged, log, name, prop.func))
        made = _split_lattice(monkeypatch, "forked")
        inclusion_exclusion_expectation(model, workers=3)
        assert made == [min(3, 1 << (model.m - 16)) - 1]
        caller = os.getpid()
        assert sorted(log.read_text().splitlines()) == [
            f"_block_runs {caller}",
            f"_group_law {caller}",
        ]

    def test_workers_are_validated(self):
        model = DraftLottery((0.4, 0.3, 0.2, 0.1), 2)
        for workers in (2.7, "3", True):  # not 2, 3 or 1 workers
            with pytest.raises(InputError, match="workers"):
                inclusion_exclusion_expectation(model, workers=workers)
        # fewer than one worker means one
        one = inclusion_exclusion_expectation(model)
        assert inclusion_exclusion_expectation(model, workers=-3) == one

    @pytest.mark.parametrize("mode", ["one span", "stub pools", "forked"])
    @pytest.mark.parametrize(
        "tiny, mask",
        [((16,), 1 << 16), ((15, 16), 1 << 15)],
        ids=["in the second span", "in both spans"],
    )
    def test_the_first_stuck_mask_is_the_one_span_mask(
        self, monkeypatch, mode, tiny, mask
    ):
        # m = 17 makes two blocks of 2**16, a span each. Each type in tiny
        # has one group, of weight 2**-60, so q({t}) rounds to 1: type 16's
        # mask starts the second span, type 15's lies in the first
        m = 17
        w = [2.0**-60 if t in tiny else 1 / 16 for t in range(m)]
        w[0] += 1 - math.fsum(w)
        model = WeightedDistinct(m, 1, tuple(w))
        assert np.flatnonzero(model.avoidance_table()[1:] >= 1.0)[0] + 1 == mask
        made = [] if mode == "one span" else _split_lattice(monkeypatch, mode)
        with pytest.raises(DivergenceError, match="jointly avoided") as err:
            inclusion_exclusion_expectation(model, workers=3)
        assert err.value.subset_mask == mask
        assert made == ([] if mode == "one span" else [1])


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
        with pytest.raises(InputError, match="type index"):
            first_occurrence_expectation(UniformDistinct(3, 2), 1.5)  # not type 1
        for index in (True, np.bool_(False)):  # not type 1 or 0
            with pytest.raises(InputError, match="type index"):
                first_occurrence_expectation(UniformDistinct(3, 2), index)

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
