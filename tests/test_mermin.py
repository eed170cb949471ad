from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bell_lab.mermin import (
    GhzState,
    MerminSettings,
    ghz,
    ghz_expectation_shared,
    mermin_operator,
    mermin_shared_scan,
    mermin_square_residual,
    mermin_value,
    transverse_spin_op,
)
from bell_lab.operators import expectation, hermitian_extremal_eigenvalue, ket, pauli


def kron_chain(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def reference_transverse(a):
    """The per-angle formula transverse_spin_op carried before the operator
    kinds shared one builder; a bitwise oracle."""
    return np.cos(a) * SIGMA_X + np.sin(a) * SIGMA_Y


def reference_mermin_operator(pairs):
    """(P - P^dagger) / 2i with P = kron_j (A(a_j) + i A(a_j')), one op at a time."""
    m_plus = reduce(np.kron, [reference_transverse(a) + 1.0j * reference_transverse(ap) for a, ap in pairs])
    return (m_plus - m_plus.conj().T) / 2.0j


class TestGhz:
    def test_n3_amplitudes(self):
        st = ghz(3)
        amps = st.ket
        assert len(amps) == 8
        assert abs(amps[0] - 1.0 / np.sqrt(2.0)) < 1e-15
        assert abs(amps[-1] - 1j / np.sqrt(2.0)) < 1e-15
        assert np.max(np.abs(amps[1:-1])) == 0.0

    def test_n2_exact(self):
        st = ghz(2)
        want = np.array([1.0, 0.0, 0.0, 1j]) / np.sqrt(2.0)
        assert np.max(np.abs(st.ket - want)) < 1e-15

    def test_sigma_z_chain_expectation_vanishes(self):
        # the two branches have opposite total-z parity for odd n
        st = ghz(3)
        zzz = kron_chain([pauli("z").matrix] * 3)
        assert abs(np.vdot(st.ket, zzz @ st.ket)) < 1e-15

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ghz(1)
        with pytest.raises(ValueError):
            ghz(11)


class TestTransverseSpinOp:
    def test_bitwise_equal_to_per_op_reference(self):
        for a in np.random.default_rng(37).uniform(-10.0, 10.0, size=200):
            assert np.array_equal(transverse_spin_op(a).matrix, reference_transverse(a))

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                transverse_spin_op(bad)

    def test_a_zero_is_sigma_x(self):
        assert np.array_equal(transverse_spin_op(0.0).matrix, pauli("x").matrix)

    def test_a_half_pi_is_sigma_y(self):
        m = transverse_spin_op(np.pi / 2).matrix
        assert np.max(np.abs(m - pauli("y").matrix)) < 1e-15

    def test_involutory(self):
        for a in np.linspace(0, 2 * np.pi, 17):
            m = transverse_spin_op(a).matrix
            assert np.max(np.abs(m @ m - np.eye(2))) < 1e-12


class TestMerminOperator:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_bitwise_equal_to_per_op_reference(self, n):
        rng = np.random.default_rng(100 + n)
        pairs = rng.uniform(-10.0, 10.0, size=(n, 2))
        f = mermin_operator(MerminSettings(pairs=pairs))
        ref = reference_mermin_operator(pairs)
        assert np.array_equal(f, ref)
        # the same C layout as the plain formula, so M @ psi keeps its bits
        assert f.flags.c_contiguous and ref.flags.c_contiguous
        psi = rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)
        assert np.array_equal(f @ psi, ref @ psi)

    def test_n1_is_sigma_y(self):
        # with one particle the ladder construction reduces to sin of the
        # single setting difference; at (0, pi/2) that is sigma_y exactly
        s = MerminSettings.from_shared(1, 0.0, np.pi / 2)
        f = mermin_operator(s)
        assert np.max(np.abs(f - pauli("y").matrix)) < 1e-12

    def test_hermitian_random(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pairs = tuple(
                (float(a), float(ap))
                for a, ap in rng.uniform(0, 2 * np.pi, size=(n, 2))
            )
            f = mermin_operator(MerminSettings(pairs))
            assert np.max(np.abs(f - f.conj().T)) < 1e-12

    def test_extremal_eigenvalue_n3_canonical(self):
        s = MerminSettings.from_shared(3, 0.0, np.pi / 2)
        f = mermin_operator(s)
        assert abs(hermitian_extremal_eigenvalue(f) - 4.0) < 1e-12

    def test_square_of_canonical_n3_operator(self):
        s = MerminSettings.from_shared(3, 0.0, np.pi / 2)
        f = mermin_operator(s)
        assert abs(hermitian_extremal_eigenvalue(f @ f) - 16.0) < 1e-10


class TestMerminSquareResidual:
    def test_small_for_random_settings(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            pairs = tuple(
                (float(a), float(ap))
                for a, ap in rng.uniform(0, 2 * np.pi, size=(3, 2))
            )
            assert mermin_square_residual(MerminSettings(pairs)) < 1e-12

    def test_degenerate_settings(self):
        s = MerminSettings.from_shared(3, 0.5, 0.5)
        assert mermin_square_residual(s) < 1e-12

    def test_requires_three_particles(self):
        with pytest.raises(ValueError):
            mermin_square_residual(MerminSettings.from_shared(2, 0.0, np.pi / 2))


class TestMerminValue:
    def test_canonical_n3(self):
        s = MerminSettings.from_shared(3, 0.0, np.pi / 2)
        assert abs(mermin_value(ghz(3), s) - 4.0) < 1e-12

    def test_bound_random(self):
        rng = np.random.default_rng(73)
        for n in (2, 3, 4):
            st = ghz(n)
            cap = 2.0 ** (n - 1)
            for _ in range(1000):
                pairs = tuple(
                    (float(a), float(ap))
                    for a, ap in rng.uniform(0, 2 * np.pi, size=(n, 2))
                )
                v = mermin_value(st, MerminSettings(pairs))
                assert abs(v) <= cap + 1e-9

    def test_degenerate_settings_classical_cap(self):
        # when a == a' every term collapses and |<F>| can't exceed 2
        # (checked for n up to 4; larger n admit genuinely bigger values)
        rng = np.random.default_rng(79)
        for n in (2, 3, 4):
            st = ghz(n)
            for _ in range(200):
                a = float(rng.uniform(0, 2 * np.pi))
                s = MerminSettings.from_shared(n, a, a)
                assert abs(mermin_value(st, s)) <= 2.0 + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mermin_value(ghz(3), MerminSettings.from_shared(2, 0.0, np.pi / 2))


def random_state(n, rng):
    """A normalized random ket on n qubits, passed where a GHZ state goes."""
    return GhzState(n=n, ket=ket(rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)))


class TestMatrixFreeValue:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_operator_route(self, n):
        # route B: <psi|F|psi> with the full 2^n x 2^n operator
        rng = np.random.default_rng(600 + n)
        for state in (ghz(n), random_state(n, rng)):
            for _ in range(3):
                s = MerminSettings(tuple(map(tuple, rng.uniform(-7.0, 7.0, size=(n, 2)))))
                via_operator = expectation(state.ket, mermin_operator(s)).real
                assert abs(mermin_value(state, s) - via_operator) <= 1e-12 * 2.0 ** (n - 1)

    @hyp_settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_quantum_bound_holds_for_any_state(self, n, seed, data):
        angle = st.floats(-10.0, 10.0, allow_nan=False)
        pairs = data.draw(st.lists(st.tuples(angle, angle), min_size=n, max_size=n))
        states = (random_state(n, np.random.default_rng(seed)), ghz(n))
        for s in (MerminSettings(tuple(pairs)), MerminSettings.from_shared(n, 0.0, np.pi / 2)):
            for state in states:
                assert abs(mermin_value(state, s)) <= 2.0 ** (n - 1) * (1.0 + 1e-12)


class TestSharedFormula:
    def test_matches_matrix_route(self):
        # dual route: closed-form corner expression vs full matrix expectation
        rng = np.random.default_rng(83)
        for n in (2, 3, 4, 5):
            st = ghz(n)
            for _ in range(50):
                a, ap = rng.uniform(0, 2 * np.pi, size=2)
                via_formula = ghz_expectation_shared(n, a, ap)
                via_matrix = mermin_value(st, MerminSettings.from_shared(n, a, ap))
                assert abs(via_formula - via_matrix) < 1e-10

    def test_broadcasting(self):
        a = np.linspace(0, np.pi, 7)
        out = ghz_expectation_shared(3, a, a + np.pi / 2)
        assert out.shape == (7,)
        for i, (x, xp) in enumerate(zip(a, a + np.pi / 2)):
            assert abs(out[i] - ghz_expectation_shared(3, float(x), float(xp))) < 1e-12


def reference_shared_scan(n, grid_step):
    """mermin_shared_scan with its former tie-break: min over the tied
    (a, a') index pairs; a bitwise oracle."""
    angles = np.arange(0.0, 2.0 * np.pi, grid_step)
    vals = ghz_expectation_shared(n, angles[:, None], angles[None, :])
    best = float(np.abs(vals).max())
    tol = 1e-12 * max(1.0, best)
    ia, iap = min((int(i), int(j)) for i, j in np.argwhere(np.abs(vals) >= best - tol))
    settings = MerminSettings.from_shared(n, float(angles[ia]), float(angles[iap]))
    return float(vals[ia, iap]), settings


class TestSharedScan:
    def test_n3_attains_four(self):
        v, s = mermin_shared_scan(3, grid_step=np.pi / 180)
        assert abs(abs(v) - 4.0) < 1e-6
        assert s.n == 3

    def test_n4_attains_eight(self):
        v, _ = mermin_shared_scan(4, grid_step=np.pi / 180)
        assert abs(abs(v) - 8.0) < 1e-6

    def test_shared_value_at_canonical_pair_is_power_of_two(self):
        # at (0, 90 degrees) the corner formula collapses to the sum of
        # odd binomials, i.e. 2^(n-1), for every particle count
        for n in range(2, 8):
            v = ghz_expectation_shared(n, 0.0, np.pi / 2)
            assert abs(v - 2.0 ** (n - 1)) < 1e-9

    def test_maximizer_is_canonical_pair(self):
        v, s = mermin_shared_scan(3, grid_step=np.pi / 4)
        a, ap = s.pairs[0]
        assert abs(v) >= 4.0 - 1e-12
        assert (a, ap) == (0.0, np.pi / 2)

    def test_scan_agrees_with_formula_grid(self):
        # independent route: evaluate the closed form on the same grid
        step = np.pi / 12
        grid = np.arange(0.0, 2.0 * np.pi, step)
        aa, pp = np.meshgrid(grid, grid, indexing="ij")
        vals = ghz_expectation_shared(4, aa, pp)
        v, _ = mermin_shared_scan(4, grid_step=step)
        assert abs(abs(v) - np.abs(vals).max()) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_bitwise_equal_to_min_tie_break(self, n):
        for step in (45.0, 15.0, 1.0):
            grid_step = np.deg2rad(step)
            v, s = mermin_shared_scan(n, grid_step)
            want_v, want_s = reference_shared_scan(n, grid_step)
            assert v == want_v
            assert s.pairs == want_s.pairs

    def test_validation(self):
        with pytest.raises(ValueError):
            mermin_shared_scan(1, grid_step=np.pi / 180)
        with pytest.raises(ValueError):
            mermin_shared_scan(3, grid_step=0.0)
        with pytest.raises(ValueError):
            mermin_shared_scan(3, grid_step=1.0)  # > pi/4
        with pytest.raises(ValueError, match="grid_step must be finite"):
            mermin_shared_scan(3, grid_step=np.nan)


class TestSettings:
    def test_from_shared(self):
        s = MerminSettings.from_shared(3, 0.1, 0.2)
        assert s.pairs == ((0.1, 0.2),) * 3
        assert s.n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MerminSettings(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MerminSettings(((0.0, np.nan),))


class TestGapAgainstDeterministicBound:
    def test_quantum_exceeds_lhv_at_n3(self):
        from bell_lab.lhv import mermin_deterministic_max

        v, _ = mermin_shared_scan(3, grid_step=np.pi / 4)
        assert abs(v) > mermin_deterministic_max(3) + 1.9
