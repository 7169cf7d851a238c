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
    WithoutReplacement,
    chain_expectation,
    inclusion_exclusion_expectation,
    simulate_collection,
)
from conftest import random_model


class TestChain:
    def test_single_type(self):
        solution = chain_expectation(IidWithinGroup((1.0,), 2))
        assert solution.expected_from_empty == pytest.approx(1.0, abs=1e-15)

    def test_uniform_4_2_states(self):
        # two-unknown recursion by hand: E(|C|=3) = 2, E(|C|=2) = 14/5
        solution = chain_expectation(UniformDistinct(4, 2))
        assert solution.expected_from_empty == pytest.approx(3.8, abs=1e-12)
        assert solution.state_values[0b0011] == pytest.approx(2.8, abs=1e-12)
        assert solution.state_values[0b0111] == pytest.approx(2.0, abs=1e-12)
        assert solution.state_values[0b1111] == 0.0

    def test_unit_population(self):
        # one geometric step with success probability 2/3 after the first draw
        solution = chain_expectation(WithoutReplacement(Population((1, 1, 1)), 2))
        assert solution.expected_from_empty == pytest.approx(2.5, abs=1e-12)

    def test_uniform_5_4(self):
        solution = chain_expectation(UniformDistinct(5, 4))
        assert solution.expected_from_empty == pytest.approx(2.25, abs=1e-12)

    def test_state_values_decrease_as_collection_grows(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            model = random_model(rng, max_m=6)
            values = chain_expectation(model).state_values
            for state in range(1 << model.m):
                for bit in range(model.m):
                    if not state & (1 << bit):
                        assert values[state] >= values[state | (1 << bit)] - 1e-9

    def test_matches_master_sum(self):
        rng = np.random.default_rng(40)
        for _ in range(40):
            model = random_model(rng, max_m=8)
            exact = inclusion_exclusion_expectation(model).value
            chain = chain_expectation(model).expected_from_empty
            assert abs(exact - chain) / chain <= 1e-8

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            chain_expectation(IidWithinGroup((1 / 21,) * 21, 2))

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            chain_expectation(IidWithinGroup((1.0, 0.0), 1))


class TestSimulation:
    def test_single_type_exact(self):
        estimate = simulate_collection(IidWithinGroup((1.0,), 3), trials=500, seed=9)
        assert estimate.mean == 1.0
        assert estimate.std_error == 0.0
        assert estimate.ci_low == estimate.ci_high == 1.0

    def test_reproducible_across_runs_and_workers(self):
        model = UniformDistinct(4, 2)
        a = simulate_collection(model, trials=5000, seed=123)
        b = simulate_collection(model, trials=5000, seed=123)
        c = simulate_collection(model, trials=5000, seed=123, workers=4)
        d = simulate_collection(model, trials=5000, seed=123, workers=7)
        assert a == b == c == d

    def test_different_seeds_differ(self):
        model = UniformDistinct(4, 2)
        a = simulate_collection(model, trials=2000, seed=0)
        b = simulate_collection(model, trials=2000, seed=1)
        assert a.mean != b.mean

    @pytest.mark.parametrize(
        "model",
        [
            UniformDistinct(4, 2),
            WithoutReplacement(Population((10, 100, 500, 1000)), 2),
            IidWithinGroup((0.4, 0.3, 0.2, 0.1), 2),
        ],
        ids=lambda m: m.describe(),
    )
    def test_within_sampling_error_of_chain(self, model):
        exact = chain_expectation(model).expected_from_empty
        estimate = simulate_collection(model, trials=100_000, seed=0)
        assert abs(estimate.mean - exact) <= 3.29 * estimate.std_error
        assert estimate.ci_low <= estimate.mean <= estimate.ci_high

    def test_mean_interval_consistency(self):
        estimate = simulate_collection(UniformDistinct(5, 2), trials=4000, seed=5)
        half = estimate.ci_high - estimate.mean
        assert half == pytest.approx(1.959963984540054 * estimate.std_error)

    # collectable, but type 1 shows up once in about 1e15 draws
    RARE_TYPE = IidWithinGroup((1 - 1e-15, 1e-15), 1)

    def test_draw_limit_divergence(self):
        with pytest.raises(DivergenceError, match="limit"):
            simulate_collection(self.RARE_TYPE, trials=3, seed=0, max_draws=500)

    def test_default_draw_limit_is_read_at_call_time(self, monkeypatch):
        import couponcollector.oracle as oracle

        monkeypatch.setattr(oracle, "DEFAULT_MAX_DRAWS", 300)
        with pytest.raises(DivergenceError, match="limit of 300;"):
            simulate_collection(self.RARE_TYPE, trials=3, seed=0)

    def test_uncollectable_type_fails_before_drawing(self):
        # with the default limit of 10M draws per trial this would spin
        model = IidWithinGroup((1.0, 0.0), 1)
        with pytest.raises(DivergenceError, match="type 1 never appears") as err:
            simulate_collection(model, trials=3, seed=0)
        assert err.value.subset_mask == 0b10

    def test_draft_lottery_beyond_exact_cap_skips_group_law(self, monkeypatch):
        # the draws use p alone; at m=40 the group law needs 2**40 entries
        def unbuilt(model):
            raise AssertionError("the group law was built")

        monkeypatch.setattr(DraftLottery, "_group_law", property(unbuilt))
        estimate = simulate_collection(DraftLottery((1 / 40,) * 40, 2), trials=5, seed=0)
        assert estimate.mean > 40 / 2

    def test_draft_lottery_zero_probability_type_is_uncollectable(self):
        model = DraftLottery((0.5, 0.5, 0.0), 2)
        with pytest.raises(DivergenceError, match="type 2 never appears"):
            simulate_collection(model, trials=3, seed=0)

    def test_input_validation(self):
        model = UniformDistinct(3, 2)
        with pytest.raises(InputError):
            simulate_collection(model, trials=0)
        with pytest.raises(InputError):
            simulate_collection(model, trials=10, seed=-1)
        with pytest.raises(InputError):
            simulate_collection(model, trials=10, seed=1 << 64)
