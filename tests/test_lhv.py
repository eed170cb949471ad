import itertools
import re
import subprocess
import sys

import numpy as np
import pytest

from bell_lab import lhv
from bell_lab.errors import NumericalCheckError
from bell_lab.lhv import (
    RNG_ALGORITHM,
    HiddenVariableModel,
    chsh_deterministic_max,
    make_rng,
    mermin_deterministic_max,
    sawtooth_correlation,
    sign_model,
    simulate_chsh_stats,
)

DEG = np.pi / 180.0

CORRECTED_SPIN = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
SUPPLEMENTARY = (0.0, 45 * DEG, 22.5 * DEG, 67.5 * DEG)


def mermin_brute_force(n):
    """Oracle: enumerate all 4^n deterministic strategies directly."""
    best = 0
    for assignment in itertools.product([1, -1], repeat=2 * n):
        # assignment holds (a_j, a'_j) outcome pairs per particle
        prod = 1 + 0j
        for j in range(n):
            prod *= assignment[2 * j] + 1j * assignment[2 * j + 1]
        best = max(best, abs(int(prod.imag)))
    return best


def mermin_enumerated(n):
    """Oracle: all 4^n strategies at once, in exact integer arithmetic.

    The running product prod_j (a_j + i a_j') is a Gaussian integer
    (re, im) updated per particle; bits 2j and 2j+1 of the strategy index
    encode (a_j, a_j') in {-1, +1}.
    """
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    re = np.ones_like(idx)
    im = np.zeros_like(idx)
    for j in range(n):
        a = 2 * ((idx >> (2 * j)) & 1) - 1
        ap = 2 * ((idx >> (2 * j + 1)) & 1) - 1
        re, im = re * a - im * ap, re * ap + im * a
    return int(im.max())


def exact_sign_model_chsh(settings):
    """Oracle: the sign model's S = 2(2 P(+2) - 1), P(+2) measured on lambda arcs.

    Each response sign(cos(setting - lambda)) flips only at setting +- pi/2,
    so the per-lambda combination is constant on each arc between those 8
    breakpoints; it is read at the arc's midpoint.
    """
    angles = np.array(settings, dtype=float)
    cuts = np.sort(np.concatenate([angles + np.pi / 2, angles - np.pi / 2]) % (2.0 * np.pi))
    edges = np.append(cuts, cuts[0] + 2.0 * np.pi)
    mid = 0.5 * (edges[:-1] + edges[1:])
    a, ap, b, bp = (np.sign(np.cos(x - mid)) for x in angles)
    b, bp = -b, -bp  # Bob's responses carry the model's extra minus sign
    plus = a * b + ap * b + a * bp - ap * bp == 2
    p_plus = np.sum(np.diff(edges)[plus]) / (2.0 * np.pi)
    return 2.0 * (2.0 * p_plus - 1.0)


def sawtooth_chsh(settings):
    alpha, alpha_prime, beta, beta_prime = settings
    return (
        sawtooth_correlation(alpha, beta)
        + sawtooth_correlation(alpha_prime, beta)
        + sawtooth_correlation(alpha, beta_prime)
        - sawtooth_correlation(alpha_prime, beta_prime)
    )


RANDOM_SETTINGS = list(np.random.default_rng(404).uniform(-7.0, 7.0, size=(6, 4)))


def reference_sign_response(angle, lam):
    """Oracle: the sign model's response straight from its cosine formula."""
    return np.where(np.cos(angle - lam) >= 0, 1, -1)


ORACLE_ANGLES = [
    *np.random.default_rng(808).uniform(-900.0, 900.0, size=100),
    *np.deg2rad(np.arange(-360.0, 360.5, 0.5)),
]


class TestDeterministicBounds:
    def test_chsh_max_is_exactly_two(self):
        assert chsh_deterministic_max() == 2
        assert isinstance(chsh_deterministic_max(), int)

    def test_chsh_all_strategies_hit_pm_two(self):
        # every one of the 16 deterministic strategies gives |S| == 2;
        # reproduce the enumeration here as a sanity oracle
        values = set()
        for a, ap, b, bp in itertools.product([1, -1], repeat=4):
            values.add(a * b + ap * b + a * bp - ap * bp)
        assert values == {-2, 2}

    def test_mermin_small_n(self):
        assert [mermin_deterministic_max(n) for n in range(1, 7)] == [1, 2, 2, 4, 4, 8]

    def test_mermin_matches_brute_force(self):
        for n in (1, 2, 3, 4):
            assert mermin_deterministic_max(n) == mermin_brute_force(n)

    def test_mermin_matches_enumeration(self):
        for n in range(1, 11):
            assert mermin_deterministic_max(n) == mermin_enumerated(n)

    def test_mermin_growth_pattern(self):
        # 2^(n-1) quantum vs 2^floor(n/2) classical: verify the classical side
        for n in range(1, 13):
            assert mermin_deterministic_max(n) == 2 ** (n // 2)

    def test_mermin_range_validation(self):
        with pytest.raises(ValueError):
            mermin_deterministic_max(0)
        with pytest.raises(ValueError):
            mermin_deterministic_max(13)

    def test_mermin_accepts_the_same_integers(self):
        # an int (bool among them) is taken without numpy, an np.integer through it; anything else refused
        assert [mermin_deterministic_max(n) for n in (True, np.int64(5), np.uint8(12))] == [1, 4, 64]
        for n in (3.0, "3", np.float64(3.0), None, np.int64(13)):
            with pytest.raises(ValueError, match=re.escape(f"n must be an integer in [1, 12], got {n!r}")):
                mermin_deterministic_max(n)

    def test_mermin_of_an_int_leaves_numpy_unloaded(self):
        code = ("import sys; from bell_lab.lhv import mermin_deterministic_max, chsh_deterministic_max; "
                "print(mermin_deterministic_max(3), chsh_deterministic_max(), 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout == "2 2 False\n"


class TestSawtooth:
    def test_aligned(self):
        assert sawtooth_correlation(0.3, 0.3) == -1.0

    def test_orthogonal(self):
        assert abs(sawtooth_correlation(0.0, np.pi / 2)) < 1e-12

    def test_anti_aligned(self):
        assert abs(sawtooth_correlation(0.0, np.pi) - 1.0) < 1e-12

    def test_wraps(self):
        assert abs(sawtooth_correlation(0.1, 0.1 + 2 * np.pi) + 1.0) < 1e-12

    def test_supplementary_tuple_combination(self):
        # S for the sign model at (0, 45, 22.5, 67.5) degrees
        s = (
            sawtooth_correlation(0.0, 22.5 * DEG)
            + sawtooth_correlation(45 * DEG, 22.5 * DEG)
            + sawtooth_correlation(0.0, 67.5 * DEG)
            - sawtooth_correlation(45 * DEG, 67.5 * DEG)
        )
        assert abs(s - (-1.0)) < 1e-12


class TestRng:
    def test_algorithm_name(self):
        assert RNG_ALGORITHM == "pcg64"

    def test_reproducible(self):
        a = make_rng(12345).random(8)
        b = make_rng(12345).random(8)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        assert not np.array_equal(make_rng(1).random(8), make_rng(2).random(8))

    @pytest.mark.parametrize("seed", [1.5, -1, np.int64(-1), "1"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # numpy raised its own TypeError for 1.5 and "expected non-negative integer" for -1
        match = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=match):
            make_rng(seed)
        with pytest.raises(ValueError, match=match):
            simulate_chsh_stats(sign_model(), SUPPLEMENTARY, samples=10, seed=seed)


class TestSignModelSimulation:
    def test_reproducible_bit_identical(self):
        model = sign_model()
        est1, err1 = simulate_chsh_stats(model, SUPPLEMENTARY, samples=5000, seed=99)
        est2, err2 = simulate_chsh_stats(model, SUPPLEMENTARY, samples=5000, seed=99)
        assert est1 == est2
        assert err1 == err2

    def test_different_seeds_differ(self):
        model = sign_model()
        est1, _ = simulate_chsh_stats(model, SUPPLEMENTARY, samples=5000, seed=1)
        est2, _ = simulate_chsh_stats(model, SUPPLEMENTARY, samples=5000, seed=2)
        assert est1 != est2

    def test_corrected_tuple_is_exactly_minus_two(self):
        # at (0, 90, 45, -45) degrees every lambda combination equals -2,
        # so the Monte Carlo average is exact with zero spread
        model = sign_model()
        est, err = simulate_chsh_stats(model, CORRECTED_SPIN, samples=20_000, seed=7)
        assert est == -2.0
        assert err == 0.0

    def test_supplementary_tuple_near_minus_one(self):
        model = sign_model()
        est, err = simulate_chsh_stats(model, SUPPLEMENTARY, samples=200_000, seed=11)
        assert err > 0.0
        assert abs(est - (-1.0)) < 5.0 * err

    def test_stays_inside_deterministic_bound(self):
        model = sign_model()
        rng = np.random.default_rng(101)
        for _ in range(20):
            settings = rng.uniform(0, 2 * np.pi, size=4)
            est, _ = simulate_chsh_stats(model, settings, samples=2000, seed=3)
            assert abs(est) <= 2.0

    def test_empirical_pair_correlation_matches_sawtooth(self):
        # route A: Monte Carlo over the model's responses
        # route B: the closed-form sawtooth
        model = sign_model()
        rng = make_rng(55)
        lam = model.sample(rng, 100_000)
        for a, b in [(0.0, 0.7), (1.0, 2.5), (3.0, 3.1)]:
            emp = np.mean(model.alice_response(a, lam) * model.bob_response(b, lam))
            assert abs(emp - sawtooth_correlation(a, b)) < 0.02

    def test_single_sample_is_deterministic_pm_two(self):
        model = sign_model()
        est, err = simulate_chsh_stats(model, SUPPLEMENTARY, samples=1, seed=0)
        assert abs(est) == 2.0
        assert err == 0.0

    def test_estimate_repeats_per_seed(self):
        model = sign_model()
        a, _ = simulate_chsh_stats(model, SUPPLEMENTARY, samples=100, seed=5)
        b, _ = simulate_chsh_stats(model, SUPPLEMENTARY, samples=100, seed=5)
        assert a == b

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            simulate_chsh_stats(sign_model(), SUPPLEMENTARY, samples=0, seed=1)

    def test_sample_cap_refused_before_any_draw(self):
        # the cap bounds a run's time; refused before the model draws a hidden value
        def no_draw(rng, n):
            raise AssertionError("drew hidden values")

        sign = sign_model()
        model = lhv.HiddenVariableModel(no_draw, sign.alice_response, sign.bob_response)
        for samples in (lhv._MAX_SAMPLES + 1, 10**12, np.int64(2**62)):
            with pytest.raises(ValueError, match=rf"^samples must be an integer in \[1, {lhv._MAX_SAMPLES}\], got "):
                simulate_chsh_stats(model, SUPPLEMENTARY, samples=samples, seed=1)

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 2)])
    def test_batched_settings_refused(self, shape):
        # a batch once ended in _arc_sign's float(angle) TypeError
        batch = np.zeros(shape + (4,))
        with pytest.raises(ValueError, match=f"^need one settings tuple, got a batch of shape {re.escape(str(shape))}$"):
            simulate_chsh_stats(sign_model(), batch, samples=10, seed=1)

    @pytest.mark.parametrize("settings, message", [
        ((0.0, 1.0, 2.0), r"settings must have shape \(\.\.\., 4\), got \(3,\)"),
        (np.zeros((2, 3)), r"settings must have shape \(\.\.\., 4\), got \(2, 3\)"),
        ((0.0, np.nan, 0.0, 0.0), r"settings angles must be finite, got array\(\[ 0., nan,  0.,  0.\]\)"),
    ], ids=["three-angles", "three-angle-rows", "nan"])
    def test_bad_settings_refused_before_any_draw(self, settings, message):
        def no_draw(rng, n):
            raise AssertionError("drew hidden values")

        sign = sign_model()
        model = lhv.HiddenVariableModel(no_draw, sign.alice_response, sign.bob_response)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_chsh_stats(model, settings, samples=10, seed=1)

    def test_alice_bob_anticorrelated_at_same_angle(self):
        model = sign_model()
        lam = model.sample(make_rng(8), 1000)
        a = model.alice_response(1.1, lam)
        b = model.bob_response(1.1, lam)
        assert np.array_equal(a, -b)
        assert set(np.unique(a)) <= {-1.0, 1.0}


class TestStreamedCounts:
    @pytest.mark.parametrize("settings", [SUPPLEMENTARY, *RANDOM_SETTINGS])
    def test_exact_arc_route_matches_sawtooth(self, settings):
        assert abs(exact_sign_model_chsh(settings) - sawtooth_chsh(settings)) < 1e-14

    @pytest.mark.parametrize("settings", [SUPPLEMENTARY, *RANDOM_SETTINGS])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_estimate_within_five_se_of_exact(self, settings, seed):
        est, err = simulate_chsh_stats(sign_model(), settings, samples=20_000, seed=seed)
        assert err > 0.0
        assert abs(est - exact_sign_model_chsh(settings)) <= 5.0 * err

    @pytest.mark.parametrize("samples", [2, 1000, 65537, 200_001])
    def test_matches_materialized_array(self, samples):
        # route B: all samples at once, mean and np.std of the +-2 array
        model = sign_model()
        for settings, seed in [(SUPPLEMENTARY, 4), (RANDOM_SETTINGS[0], 9)]:
            lam = model.sample(make_rng(seed), samples)
            alpha, alpha_prime, beta, beta_prime = settings
            a = model.alice_response(alpha, lam)
            ap = model.alice_response(alpha_prime, lam)
            b = model.bob_response(beta, lam)
            bp = model.bob_response(beta_prime, lam)
            per_lambda = a * b + ap * b + a * bp - ap * bp
            est, err = simulate_chsh_stats(model, settings, samples, seed)
            assert est == np.mean(per_lambda)
            want = np.std(per_lambda, ddof=1) / np.sqrt(samples)
            assert abs(err - want) <= 1e-15 * want

    def test_draws_one_chunk_at_a_time(self, monkeypatch):
        sizes = []

        def spy(rng, n):
            sizes.append(n)
            return sign_model().sample(rng, n)

        sign = sign_model()
        model = HiddenVariableModel(spy, sign.alice_response, sign.bob_response)
        whole = simulate_chsh_stats(model, SUPPLEMENTARY, samples=8, seed=21)
        assert sizes == [8]
        sizes.clear()
        monkeypatch.setattr(lhv, "_CHUNK", 3)
        assert simulate_chsh_stats(model, SUPPLEMENTARY, samples=8, seed=21) == whole
        assert sizes == [3, 3, 2]

    def test_nan_in_one_chunk_is_refused(self, monkeypatch):
        monkeypatch.setattr(lhv, "_CHUNK", 3)
        draws = iter([np.zeros(3), np.array([0.0, np.nan, 0.0]), np.zeros(2)])

        def ones(angle, lam):
            return 1.0 + 0.0 * lam  # NaN where lambda is NaN

        model = HiddenVariableModel(lambda rng, n: next(draws), ones, ones)
        with pytest.raises(NumericalCheckError):
            simulate_chsh_stats(model, SUPPLEMENTARY, samples=8, seed=0)
        assert next(draws).size == 2  # refused in the second chunk, before the third


class TestArcScoring:
    """alice_response and -bob_response against the cosine oracle, bitwise."""

    @staticmethod
    def assert_matches_oracle(angle, lam):
        model = sign_model()
        want = reference_sign_response(angle, lam)
        for got in (model.alice_response(angle, lam), -model.bob_response(angle, lam)):
            assert got.dtype == np.int8
            assert np.array_equal(got, want), angle

    def test_uniform_draws(self):
        lam = sign_model().sample(make_rng(31), 2048)
        for angle in ORACLE_ANGLES:
            self.assert_matches_oracle(angle, lam)

    @staticmethod
    def planted(ends):
        """ends, +-1 and +-4 ulp of them, and ends +- 1e-13."""
        near = [ends + k * np.spacing(ends) for k in (-4, -1, 0, 1, 4)]
        return np.concatenate([*near, ends - 1e-13, ends + 1e-13])

    def test_lambda_planted_on_arc_ends(self):
        for angle in ORACLE_ANGLES:
            raw = angle + np.array([-0.5, 0.5]) * np.pi
            # wrapped into the sampler's [0, 2 pi), and as raw angle -+ pi/2
            for ends in (raw % (2.0 * np.pi), raw):
                self.assert_matches_oracle(angle, self.planted(ends))
            self.assert_matches_oracle(angle, np.array([0.0, np.nextafter(2.0 * np.pi, 0.0)]))

    def test_nan_lambda(self):
        lam = sign_model().sample(make_rng(32), 64)
        lam[[3, 40]] = np.nan
        for angle in (0.0, 1.0, -2.5, 700.0):
            self.assert_matches_oracle(angle, lam)
            self.assert_matches_oracle(angle, np.full(5, np.nan))
            self.assert_matches_oracle(angle, np.array([np.nan, angle + 10.0, angle + 0.5 * np.pi]))
        assert np.array_equal(sign_model().alice_response(0.0, np.array([np.nan])), [-1])

    @pytest.mark.parametrize("angle", [1e9, -1e9, 1e300, -1e300])
    def test_huge_angles(self, angle):
        lam = sign_model().sample(make_rng(33), 2048)
        self.assert_matches_oracle(angle, lam)
        ends = (angle + np.array([-0.5, 0.5]) * np.pi) % (2.0 * np.pi)
        self.assert_matches_oracle(angle, self.planted(ends))

    def test_few_elements_reach_the_cosine(self, monkeypatch):
        seen = []
        cos = np.cos

        def spy(x, *args, **kwargs):
            seen.append(np.size(x))
            return cos(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", spy)
        # the spy is live: an element on an arc end reaches the cosine alone
        sign_model().alice_response(0.3, np.array([0.1, 0.3 + 0.5 * np.pi, 2.0]))
        assert seen == [1]
        seen.clear()
        est, err = simulate_chsh_stats(sign_model(), SUPPLEMENTARY, samples=1_000_000, seed=12)
        assert abs(est - exact_sign_model_chsh(SUPPLEMENTARY)) <= 5.0 * err
        assert sum(seen) <= 100
