import math
import pickle
import re
import threading

import numpy as np
import pytest

import couponcollector._spans as _spans
import couponcollector.cli as cli
import couponcollector.engine as engine
import couponcollector.oracle as oracle
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
    chain_expectation,
    inclusion_exclusion_expectation,
    simulate_collection,
)
from couponcollector._bits import types_of
from conftest import random_model, record_spans, spy_forks, stub_forks


def _state_loop_chain(model) -> np.ndarray:
    """The chain's state values solved one state at a time, levels high to
    low and masks increasing within a level: the reference for the solve
    by levels."""
    content_masks, content_weights = oracle._content_distribution(model)
    full = (1 << model.m) - 1
    values = np.zeros(1 << model.m)
    for state in sorted(range(full), key=lambda s: s.bit_count(), reverse=True):
        landed = np.bitwise_or(content_masks, state)
        stays = landed == state
        escape = 1.0 - float(content_weights[stays].sum())
        if escape <= 0.0:
            raise DivergenceError(
                f"no group can add a type outside {types_of(state)}",
                subset_mask=full ^ state,
            )
        moved = ~stays
        acc = 1.0 + float((content_weights[moved] * values[landed[moved]]).sum())
        values[state] = acc / escape
    return values


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

    def test_levels_equal_the_state_loop(self):
        rng = np.random.default_rng(12)
        models = [random_model(rng, max_m=10) for _ in range(30)]
        counts = tuple(int(c) for c in rng.integers(1, 50, size=12))
        wide = WithoutReplacement(Population(counts), 3)
        contents = oracle._content_distribution(wide)[0].size
        # the widest level, C(12, 6) states, spans several chunks
        assert math.comb(12, 6) > 5 * (oracle._CHAIN_CHUNK_ELEMENTS // contents)
        for model in [*models, wide]:
            got = chain_expectation(model).state_values
            want = _state_loop_chain(model)
            assert got.shape == want.shape == (1 << model.m,)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("chunk_elements", [None, 1])
    def test_divergence_names_the_first_stuck_state(self, monkeypatch, chunk_elements):
        # type 11 takes all the mass to rounding, so every state that holds
        # it is stuck, on every level from 1 up. The first stuck state in
        # the order levels high to low, masks increasing within a level, is
        # the top level's second, all types but 10
        if chunk_elements is not None:  # one state per chunk
            monkeypatch.setattr(oracle, "_CHAIN_CHUNK_ELEMENTS", chunk_elements)
        model = IidWithinGroup((1e-17,) * 11 + (1.0,), 1)
        assert model.p[-1] == 1.0
        for solve in (chain_expectation, _state_loop_chain):
            with pytest.raises(DivergenceError) as err:
                solve(model)
            assert err.value.subset_mask == 1 << 10
            assert str(err.value) == (
                "no group can add a type outside (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11)"
            )


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
        # one trial has no spread: the interval is its draw count
        one = simulate_collection(UniformDistinct(5, 2), trials=1, seed=5)
        assert one.mean == float(_reference_draws(UniformDistinct(5, 2), 5, 1)[0])
        assert (one.std_error, one.ci_low, one.ci_high) == (0.0, one.mean, one.mean)

    # collectable, but type 1 shows up once in about 1e15 draws
    RARE_TYPE = IidWithinGroup((1 - 1e-15, 1e-15), 1)

    def test_draw_limit_divergence(self):
        with pytest.raises(DivergenceError, match="limit"):
            simulate_collection(self.RARE_TYPE, trials=3, seed=0, max_draws=500)

    def test_default_draw_limit_is_read_at_call_time(self, monkeypatch):
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

    def test_more_than_64_types_fail_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew a group or forked a span")

        monkeypatch.setattr(oracle, "_simulate_spans", no_draws)
        with pytest.raises(CapacityError, match="m=70 exceeds the 64 types"):
            simulate_collection(UniformDistinct(70, 2), trials=3, seed=0, workers=2)

    @pytest.mark.parametrize(
        "counts", [(2**62,) * 3, (2**63, 1)], ids=["total-past", "count-past"]
    )
    def test_urn_past_int64_fails_before_any_draw(self, monkeypatch, counts):
        def no_draws(*args):
            raise AssertionError("drew a group or forked a span")

        monkeypatch.setattr(oracle, "_simulate_spans", no_draws)
        model = WithoutReplacement(Population(counts), 2)
        with pytest.raises(CapacityError, match=rf"urn of {sum(counts)} .* 2\*\*63 - 1"):
            simulate_collection(model, trials=3, seed=0, workers=2)

    def test_urn_just_below_int64_simulates(self):
        model = WithoutReplacement(Population((2**62, 2**61, 2**61 - 1)), 2)
        exact = chain_expectation(model).expected_from_empty
        estimate = simulate_collection(model, trials=20_000, seed=4)
        assert abs(estimate.mean - exact) <= 3.29 * estimate.std_error

    def test_64_types_simulate(self):
        estimate = simulate_collection(UniformDistinct(64, 60), trials=20, seed=0)
        assert estimate.mean > 1

    def test_input_validation(self):
        model = UniformDistinct(3, 2)
        with pytest.raises(InputError):
            simulate_collection(model, trials=0)
        with pytest.raises(InputError, match="trials"):
            simulate_collection(model, trials=2.7, seed=1)  # not 2 trials
        for trials in (True, np.bool_(True)):  # not 1 trial
            with pytest.raises(InputError, match="trials"):
                simulate_collection(model, trials=trials, seed=1)
        with pytest.raises(InputError):
            simulate_collection(model, trials=10, seed=-1)
        with pytest.raises(InputError):
            simulate_collection(model, trials=10, seed=1 << 64)
        for seed in (2.7, "3", False, np.bool_(True)):  # not seed 2, 3, 0 or 1
            with pytest.raises(InputError, match="seed"):
                simulate_collection(model, trials=10, seed=seed)
        # not 2 or 10 draws, nor 1, and no limit below 1 draw is a divergence
        for max_draws in (2.5, "10", True, 0, -3):
            with pytest.raises(InputError, match="max_draws"):
                simulate_collection(model, trials=10, seed=1, max_draws=max_draws)
        for workers in (2.7, "3", True):  # not 2, 3 or 1 workers
            with pytest.raises(InputError, match="workers"):
                simulate_collection(model, trials=10, seed=1, workers=workers)
        # fewer than one worker means one
        one = simulate_collection(model, trials=10, seed=1)
        assert simulate_collection(model, trials=10, seed=1, workers=-3) == one


def _reference_draws(model, seed, trials):
    """Groups to completion per trial, one draw at a time, each trial reading
    its own numpy Philox stream from the start."""
    full = (1 << model.m) - 1
    out = []
    for trial in range(trials):
        bit_gen = np.random.Philox(key=seed, counter=[0, 0, trial, 0])
        uniforms = np.random.Generator(bit_gen)
        seen = draws = 0
        while seen != full:
            seen |= int(model.draw_groups(uniforms.random((1, model.uniforms_per_group)))[0])
            draws += 1
        out.append(draws)
    return np.array(out)


def _tiny_tiles(monkeypatch):
    # fills of 2..5 draws read in passes of 2 draws, tiles of 1 to 12 trials
    monkeypatch.setattr(oracle, "_BATCH_ELEMENTS", 24)
    monkeypatch.setattr(oracle, "_FILL_MIN_DRAWS", 2)
    monkeypatch.setattr(oracle, "_FILL_MAX_DRAWS", 5)
    monkeypatch.setattr(oracle, "_PASS_DRAWS", 2)


class TestTiledLoop:
    TRIALS = 37  # a multiple of no tile size below

    @pytest.mark.parametrize(
        "model",
        [
            UniformDistinct(5, 3),
            DraftLottery((0.4, 0.3, 0.2, 0.07, 0.03), 3),
            WithoutReplacement(Population((1, 3, 10, 40)), 2),
            WeightedDistinct(4, 2, (0.05, 0.1, 0.15, 0.2, 0.2, 0.3)),
        ],
        ids=lambda m: m.describe(),
    )
    def test_draws_match_the_reference_at_any_tiling(self, monkeypatch, model):
        # with d = 3 uniforms per group, fills start off a 4-word block
        want = _reference_draws(model, 11, self.TRIALS)
        default = oracle._simulate_range(model, 0, self.TRIALS, 11, 10**6)
        assert np.array_equal(default, want)
        _tiny_tiles(monkeypatch)
        tiled = oracle._simulate_range(model, 0, self.TRIALS, 11, 10**6)
        assert np.array_equal(tiled, want)
        assert np.array_equal(oracle._simulate_range(model, 5, 30, 11, 10**6), want[5:30])

    @pytest.mark.parametrize("workers", [1, 3])
    def test_workers_and_tiling_leave_the_estimate_unchanged(self, monkeypatch, workers):
        model = UniformDistinct(5, 3)
        want = simulate_collection(model, trials=self.TRIALS, seed=4)
        _tiny_tiles(monkeypatch)
        got = simulate_collection(model, trials=self.TRIALS, seed=4, workers=workers)
        assert got == want

    @pytest.mark.parametrize("tiny", [False, True])
    def test_draw_limit_ending_mid_fill(self, monkeypatch, tiny):
        model = WithoutReplacement(Population((1, 3, 10, 40)), 2)
        longest = int(_reference_draws(model, 11, self.TRIALS).max())
        assert (longest - 1) % 2 and (longest - 1) % 32  # the limit cuts a pass
        if tiny:
            _tiny_tiles(monkeypatch)
        done = simulate_collection(model, trials=self.TRIALS, seed=11, max_draws=longest)
        assert done == simulate_collection(model, trials=self.TRIALS, seed=11)
        message = (
            f"a trial exceeded the per-trial draw limit of {longest - 1}; "
            f"the collection is likely impossible to complete"
        )
        with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
            simulate_collection(model, trials=self.TRIALS, seed=11, max_draws=longest - 1)


class TestAdaptedFills:
    """Each tile after a span's first starts its trials with fills of the
    mean draw count of the tiles before it."""

    TRIALS = 37

    @staticmethod
    def _first_fills(monkeypatch) -> list:
        fills = []
        tile = oracle._simulate_tile

        def spy(*args):
            fills.append(args[-1])
            return tile(*args)

        monkeypatch.setattr(oracle, "_simulate_tile", spy)
        return fills

    @pytest.mark.parametrize(
        "model, seed",
        [
            (IidWithinGroup((0.7, 0.3), 1), 1),  # tiles of 4 trials
            (WithoutReplacement(Population((1, 2, 3)), 2), 16),  # tiles of 2
        ],
        ids=lambda v: v.describe() if hasattr(v, "describe") else str(v),
    )
    def test_varying_first_fills_match_the_reference(self, monkeypatch, model, seed):
        want = _reference_draws(model, seed, self.TRIALS)
        _tiny_tiles(monkeypatch)
        fills = self._first_fills(monkeypatch)
        got = oracle._simulate_range(model, 0, self.TRIALS, seed, 10**6)
        assert np.array_equal(got, want)
        # the first tile starts at _FILL_MIN_DRAWS, later ones at means
        # rounded up to whole passes of 2, or at _FILL_MAX_DRAWS
        assert fills[0] == 2 and set(fills) == {2, 4, 5}

    @pytest.mark.parametrize("workers", [1, 3])
    def test_draw_limit_ending_mid_fill(self, monkeypatch, workers):
        model = WithoutReplacement(Population((1, 2, 3)), 2)
        longest = int(_reference_draws(model, 16, self.TRIALS).max())
        # whatever a tile's first fill (2, 4 or 5 draws), its fills end at
        # 2, 4, 8, 13; 4, 8, 13; or 5, 10, 15 draws, so a limit of 11 cuts one
        assert longest == 12
        _tiny_tiles(monkeypatch)
        done = simulate_collection(
            model, trials=self.TRIALS, seed=16, workers=workers, max_draws=longest
        )
        assert done == simulate_collection(model, trials=self.TRIALS, seed=16)
        with pytest.raises(DivergenceError, match="draw limit of 11;"):
            simulate_collection(
                model, trials=self.TRIALS, seed=16, workers=workers, max_draws=11
            )

    def test_first_fill_is_the_mean_rounded_up_to_whole_passes(self, monkeypatch):
        # UniformDistinct(40, 1) trials take 74 to 514 draws (mean 171), so
        # a second tile starts at a mean of about 171, rounded up to 192
        model = UniformDistinct(40, 1)
        fills = self._first_fills(monkeypatch)
        draws = oracle._simulate_range(model, 0, 1500, 7, 10**6)
        tile = oracle._BATCH_ELEMENTS // oracle._FILL_MAX_DRAWS
        mean = -(-int(draws[:tile].sum()) // tile)
        assert fills == [64, -(-mean // 32) * 32]
        assert 64 < fills[1] < 512


# Mandelbrot (c = 0.3, theta = 1.75) proportions rounded to 1000 individuals
MANDELBROT_1000 = {
    10: (504, 186, 99, 62, 43, 32, 25, 20, 16, 13),
    12: (494, 182, 97, 61, 42, 31, 24, 19, 16, 13, 11, 10),
    20: (472, 174, 92, 58, 40, 30, 23, 18, 15, 13, 11, 9, 8, 7, 6, 6, 5, 5, 4, 4),
}


class TestPinnedEstimates:
    """Estimates recorded from an earlier version of the simulator, as
    float.hex of (mean, std_error). The trials span several tiles, and
    their lengths span several fills, so a change to the tiling, the fills,
    the passes or a draw kernel that moves any draw shows here."""

    @pytest.mark.parametrize(
        "model, trials, seed, mean, std_error",
        [
            (UniformDistinct(40, 1), 2500, 7, "0x1.55fa43fe5c91dp+7", "0x1.ff68e56db93acp-1"),
            (
                WeightedDistinct(
                    5, 2, (0.16, 0.16, 0.17, 0.005, 0.16, 0.16, 0.005, 0.17, 0.005, 0.005)
                ),
                2500,
                8,
                "0x1.966e978d4fdf4p+5",
                "0x1.05336745878dfp+0",
            ),
            (
                IidWithinGroup(tuple(c / 1000 for c in MANDELBROT_1000[12]), 2),
                2500,
                9,
                "0x1.7085f06f69446p+6",
                "0x1.f9deb03addc0bp-1",
            ),
            (
                WithoutReplacement(Population(MANDELBROT_1000[20]), 2),
                1500,
                10,
                "0x1.0abd194237fa9p+8",
                "0x1.920e42991de1ep+1",
            ),
            (  # N > 2**16: the urn draw reads its guide table
                WithoutReplacement(Population((60000, 5000, 500, 40, 30)), 3),
                700,
                12,
                "0x1.f6c4c118de5abp+9",
                "0x1.b88d0afcfb054p+4",
            ),
            (
                DraftLottery(tuple(c / 1000 for c in MANDELBROT_1000[10]), 2),
                2500,
                11,
                "0x1.860ebedfa43fep+5",
                "0x1.12bcb62f9ce49p-1",
            ),
        ],
        ids=["ud", "wd", "iid", "wor20", "wor-large", "dl"],
    )
    def test_estimate_is_unchanged(self, model, trials, seed, mean, std_error):
        estimate = simulate_collection(model, trials=trials, seed=seed)
        assert (estimate.mean.hex(), estimate.std_error.hex()) == (mean, std_error)


def _fsum_summary(draws) -> tuple[float, float]:
    """The mean and standard error as one float per trial and ``math.fsum``
    give them: the reference that ``oracle._summary`` must equal bit for bit."""
    values = np.asarray(draws).astype(np.float64).tolist()
    trials = len(values)
    mean = math.fsum(values) / trials
    if trials == 1:
        return mean, 0.0
    variance = math.fsum((v - mean) ** 2 for v in values) / (trials - 1)
    return mean, math.sqrt(variance / trials)


class TestSummary:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_fsum_reference(self, seed):
        # geometric draw counts of a random trial count and spread, like
        # the waits of a collection
        rng = np.random.default_rng(seed)
        trials = int(rng.integers(1, 3001))
        spread = float(rng.uniform(1, 5000))
        draws = rng.geometric(1 / spread, size=trials).astype(np.int64)
        want = _fsum_summary(draws)
        assert oracle._summary(draws) == want
        assert np.all(np.diff(draws) >= 0)  # sorted in place

    @pytest.mark.parametrize(
        "draws",
        [[7], [1], [5] * 1000, [3] * 2999 + [4], [10**7, 1], [2, 1, 2, 1, 2]],
        ids=["one-trial", "one-draw", "all-equal", "one-apart", "wide", "two-values"],
    )
    def test_edge_arrays_equal_the_fsum_reference(self, draws):
        draws = np.array(draws, dtype=np.int64)
        assert oracle._summary(draws.copy()) == _fsum_summary(draws)


FIVE_MODELS = [
    UniformDistinct(5, 3),
    WeightedDistinct(4, 2, (0.05, 0.1, 0.15, 0.2, 0.2, 0.3)),
    IidWithinGroup((0.4, 0.3, 0.2, 0.1), 2),
    WithoutReplacement(Population((1, 3, 10, 40)), 2),
    DraftLottery((0.4, 0.3, 0.2, 0.07, 0.03), 3),
]


def _forked_spans(monkeypatch) -> list:
    """Fork processes for spans of two or more trials on two usable CPUs; the
    returned list collects the children forked per call."""
    monkeypatch.setattr(oracle, "_PROCESS_MIN_TRIALS", 2)
    return spy_forks(monkeypatch, 2)


class _Unpicklable(WeightedDistinct):
    """A weighted law that refuses to be pickled."""

    def __reduce__(self):
        raise TypeError("this model must not be pickled")


class TestWorkerForks:
    TRIALS = 37

    def test_models_reach_forked_spans_unpickled(self, monkeypatch):
        w = np.arange(math.comb(17, 2)) % 5 + 1.0
        model = _Unpicklable(17, 2, tuple((w / w.sum()).tolist()))
        with pytest.raises(TypeError, match="must not be pickled"):
            pickle.dumps(model)
        estimate = simulate_collection(model, trials=self.TRIALS, seed=3)
        exact = inclusion_exclusion_expectation(model)
        made = _forked_spans(monkeypatch)
        assert simulate_collection(model, trials=self.TRIALS, seed=3, workers=2) == estimate
        monkeypatch.setattr(engine, "_PROCESS_MIN_BLOCKS", 1)  # a span per block
        assert inclusion_exclusion_expectation(model, workers=2) == exact
        assert made == [1, 1]

    @pytest.mark.parametrize("model", FIVE_MODELS, ids=lambda m: m.describe())
    def test_forked_draws_equal_the_reference(self, monkeypatch, model):
        want = _reference_draws(model, 11, self.TRIALS)
        made = _forked_spans(monkeypatch)
        got = oracle._simulate_spans(model, self.TRIALS, 11, 3, 10**6)
        assert made == [1]
        assert np.array_equal(got, want)

    def test_draw_limit_in_a_child_keeps_its_type_and_message(self, monkeypatch):
        model = WithoutReplacement(Population((1, 3, 10, 40)), 2)
        longest = int(_reference_draws(model, 11, self.TRIALS).max())
        made = _forked_spans(monkeypatch)
        message = (
            f"a trial exceeded the per-trial draw limit of {longest - 1}; "
            f"the collection is likely impossible to complete"
        )
        with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$") as err:
            simulate_collection(
                model, trials=self.TRIALS, seed=11, workers=3, max_draws=longest - 1
            )
        assert type(err.value) is DivergenceError
        assert made == [1]

    @pytest.mark.parametrize("forked", [False, True], ids=["threads", "processes"])
    def test_pool_size_is_capped_at_the_usable_cpus(self, monkeypatch, forked):
        # 10,000 workers on 3 usable CPUs: no fork below the break-even
        # span ("threads": every span runs in the caller), and 2 children
        # besides the caller above it
        model = UniformDistinct(5, 3)
        want = _reference_draws(model, 4, self.TRIALS)
        made = stub_forks(monkeypatch, 3)
        if forked:
            monkeypatch.setattr(oracle, "_PROCESS_MIN_TRIALS", 1)
        got = oracle._simulate_spans(model, self.TRIALS, 4, 10_000, 10**6)
        assert made == ([2] if forked else [])
        assert np.array_equal(got, want)

    def test_a_running_thread_keeps_spans_out_of_forked_processes(self, monkeypatch):
        model = UniformDistinct(5, 3)
        want = _reference_draws(model, 11, self.TRIALS)
        made = _forked_spans(monkeypatch)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            got = oracle._simulate_spans(model, self.TRIALS, 11, 3, 10**6)
        finally:
            stop.set()
            other.join()
        assert made == []
        assert np.array_equal(got, want)

    def test_macos_never_forks(self, monkeypatch):
        model = UniformDistinct(5, 3)
        want = _reference_draws(model, 11, self.TRIALS)
        made = _forked_spans(monkeypatch)
        monkeypatch.setattr(_spans.sys, "platform", "darwin")
        got = oracle._simulate_spans(model, self.TRIALS, 11, 3, 10**6)
        assert made == []
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "cpus, trials, want",
        [(1, 10**5, 1), (2, 10**5, 2), (3, 30, 1), (8, 20_000, 6), (40, 10**5, 33)],
    )
    def test_default_workers_give_no_span_below_the_break_even(
        self, monkeypatch, cpus, trials, want
    ):
        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        spans, made = record_spans(monkeypatch, cpus)
        oracle._simulate_spans(UniformDistinct(5, 3), trials, 0, cli._workers(), 10**6)
        assert len(spans) == want and sum(spans) == trials
        assert want == 1 or min(spans) >= oracle._PROCESS_MIN_TRIALS
        assert made == ([want - 1] if want > 1 else [])

    @pytest.mark.parametrize(
        "cpus, trials, workers, want",
        [(2, 10**5, "8", 2), (2, 2000, "5", 1)],
    )
    def test_spans_never_outnumber_the_processes(
        self, monkeypatch, cpus, trials, workers, want
    ):
        monkeypatch.setenv(cli.WORKERS_ENV, workers)
        spans, made = record_spans(monkeypatch, cpus)
        oracle._simulate_spans(UniformDistinct(5, 3), trials, 0, cli._workers(), 10**6)
        assert len(spans) == want and sum(spans) == trials
        assert made == ([want - 1] if want > 1 else [])
