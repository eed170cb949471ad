from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bell_lab.chsh import party_op
from bell_lab.mermin import transverse_spin_op
from bell_lab.operators import (
    KINDS,
    MeasurementOp,
    _party_ops,
    commutator,
    dagger,
    expectation,
    hermitian_extremal_eigenvalue,
    ket,
    pauli,
    photon_op,
    photon_projector,
    spin_op,
    tensor,
)

angles = st.floats(min_value=0.0, max_value=2.0 * np.pi)

I2 = np.eye(2)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def charpoly_extremal(m):
    """Characteristic-polynomial oracle, independent of the Hermitian
    eigensolver: Faddeev-LeVerrier coefficients from matrix products and
    traces, then the roots of that polynomial."""
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ mk + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(m @ mk) / k)
    return float(np.max(np.abs(np.roots(coeffs).real)))


class TestPauli:
    def test_product_cycle(self):
        assert np.allclose(pauli("x").matrix @ pauli("y").matrix, 1j * pauli("z").matrix)
        assert np.allclose(pauli("y").matrix @ pauli("z").matrix, 1j * pauli("x").matrix)
        assert np.allclose(pauli("z").matrix @ pauli("x").matrix, 1j * pauli("y").matrix)

    def test_square_is_identity(self):
        for axis in "xyz":
            assert np.allclose(pauli(axis).matrix @ pauli(axis).matrix, I2)

    def test_traceless(self):
        for axis in "xyz":
            assert abs(np.trace(pauli(axis).matrix)) == 0.0

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestSpinOp:
    def test_alpha_zero_is_sigma_z(self):
        assert np.array_equal(spin_op(0.0).matrix, pauli("z").matrix)

    def test_alpha_half_pi_is_sigma_y(self):
        assert np.max(np.abs(spin_op(np.pi / 2).matrix - pauli("y").matrix)) < 1e-15

    @hyp_settings(max_examples=200)
    @given(a=angles, ap=angles)
    def test_commutator_closed_form(self, a, ap):
        lhs = commutator(spin_op(a), spin_op(ap))
        rhs = 2j * np.sin(a - ap) * pauli("x").matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(a=angles)
    def test_constructor_invariants(self, a):
        m = spin_op(a).matrix  # construction already checks both
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert np.max(np.abs(m @ m - I2)) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            spin_op(np.nan)


class TestPhotonOps:
    def test_projector_theta_zero(self):
        assert np.allclose(photon_projector(0.0), np.diag([1.0, 0.0]))

    def test_projector_quarter_pi(self):
        assert np.allclose(photon_projector(np.pi / 4), np.full((2, 2), 0.5))

    @given(t=angles)
    def test_projector_fixes_own_direction(self, t):
        e = np.array([np.cos(t), np.sin(t)])
        assert np.max(np.abs(photon_projector(t) @ e - e)) < 1e-12

    @given(t=angles)
    def test_projector_idempotent_rank1(self, t):
        p = photon_projector(t)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p) - 1.0) < 1e-12

    def test_op_theta_zero(self):
        assert np.allclose(photon_op(0.0).matrix, np.diag([1.0, -1.0]))

    @given(t=angles)
    def test_op_closed_form(self, t):
        rhs = np.cos(2 * t) * pauli("z").matrix + np.sin(2 * t) * pauli("x").matrix
        assert np.max(np.abs(photon_op(t).matrix - rhs)) < 1e-12

    @given(t=angles, tp=angles)
    def test_op_commutator_norm(self, t, tp):
        c = commutator(photon_op(t), photon_op(tp))
        # [A(t), A(t')] is anti-Hermitian; its singular values are |2 sin 2(t-t')|
        norm = hermitian_extremal_eigenvalue(1j * c)
        assert abs(norm - 2.0 * abs(np.sin(2.0 * (t - tp)))) < 1e-12

    @given(t=angles)
    def test_spin_correspondence_at_doubled_angle(self, t):
        # conjugation by diag(1, i) maps the photon convention onto the spin one
        r = np.diag([1.0, 1j])
        assert np.max(np.abs(r @ photon_op(t).matrix @ r.conj().T - spin_op(2 * t).matrix)) < 1e-12


def reference_party_op(angle, kind):
    """The per-angle formulas of spin_op, photon_op and transverse_spin_op
    before they shared _party_ops; a bitwise oracle."""
    if kind == "photon":
        return 2.0 * photon_projector(angle) - np.eye(2)
    axis = "z" if kind == "spin_half" else "x"
    return np.cos(angle) * pauli(axis).matrix + np.sin(angle) * pauli("y").matrix


class TestPartyOps:
    @pytest.mark.parametrize("kind", KINDS + ("transverse",))
    def test_stack_bitwise_equal_to_single_ops(self, kind):
        angles = np.random.default_rng(29).uniform(-10.0, 10.0, size=(50, 2))
        stack = _party_ops(angles, kind)
        assert stack.shape == (50, 2, 2, 2)
        single = transverse_spin_op if kind == "transverse" else lambda a: party_op(a, kind)
        for i in np.ndindex(angles.shape):
            assert np.array_equal(stack[i], reference_party_op(angles[i], kind))
            assert np.array_equal(stack[i], single(angles[i]).matrix)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_angles(self, bad):
        for kind in KINDS:
            with pytest.raises(ValueError, match="finite"):
                _party_ops(np.array([0.1, bad, 0.3]), kind)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            _party_ops(np.zeros(3), "qutrit")


class TestMeasurementOpValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            MeasurementOp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_involutory(self):
        with pytest.raises(ValueError, match="involutory"):
            MeasurementOp(np.diag([1.0, 2.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MeasurementOp(np.ones((2, 3)))

    def test_matrix_is_read_only(self):
        op = pauli("z")
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_eigenbasis_action(self):
        plus_minus = np.zeros(4)
        plus_minus[1] = 1.0  # |+-> is composite index 0*2 + 1
        assert np.allclose(tensor(pauli("z"), pauli("z")) @ plus_minus, -plus_minus)

    def test_associative_on_integer_matrices(self):
        rng = np.random.default_rng(5)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_bitwise_equal_to_kron_on_2d(self):
        rng = np.random.default_rng(7)
        for shape_a, shape_b in [((2, 2), (2, 2)), ((2, 3), (4, 1)), ((1, 5), (3, 2)), ((4, 4), (2, 2))]:
            a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
            b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
            assert np.array_equal(tensor(a, b), np.kron(a, b))

    def test_bitwise_equal_to_kron_on_ten_particle_mermin_chain(self):
        rng = np.random.default_rng(13)
        factors = [
            transverse_spin_op(a).matrix + 1.0j * transverse_spin_op(ap).matrix
            for a, ap in rng.uniform(0.0, 2.0 * np.pi, size=(10, 2))
        ]
        chain = reduce(tensor, factors)
        assert chain.shape == (1024, 1024)
        assert np.array_equal(chain, reduce(np.kron, factors))

    def test_broadcasts_over_stacks(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(3, 1, 2, 2)) + 1j * rng.normal(size=(3, 1, 2, 2))
        b = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
        out = tensor(a, b)
        assert out.shape == (3, 4, 4, 6)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(out[i, j], np.kron(a[i, 0], b[j]))

    def test_singlet_correlation_oracle(self):
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        for a, b in [(0.0, 0.0), (0.3, 1.1), (2.0, 5.5), (np.pi, np.pi / 3)]:
            e = expectation(singlet, tensor(spin_op(a), spin_op(b)))
            assert abs(e.real + np.cos(a - b)) < 1e-12


class TestCommutatorDaggerExpectation:
    def test_self_commutator_zero(self):
        a = spin_op(0.7).matrix
        assert np.max(np.abs(commutator(a, a))) == 0.0

    def test_pauli_commutator(self):
        assert np.allclose(commutator(pauli("x"), pauli("y")), 2j * pauli("z").matrix)

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.max(np.abs(commutator(a, b) + commutator(b, a))) < 1e-12

    def test_commutator_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(4))

    def test_dagger(self):
        assert np.array_equal(dagger(np.eye(2)), np.eye(2))
        assert np.allclose(dagger(1j * np.eye(2)), -1j * np.eye(2))
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(dagger(dagger(m)), m)

    def test_expectation_eigenstate(self):
        plus = np.array([1.0, 0.0])
        assert expectation(plus, pauli("z")) == 1.0 + 0.0j

    def test_expectation_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            psi = ket(rng.normal(size=6) + 1j * rng.normal(size=6))
            assert abs(expectation(psi, np.eye(6)) - 1.0) < 1e-12

    def test_expectation_hermitian_is_real(self):
        # 1000 random normalized kets against a fixed Hermitian matrix
        rng = np.random.default_rng(23)
        m = random_hermitian(rng, 4)
        for _ in range(1000):
            psi = ket(rng.normal(size=4) + 1j * rng.normal(size=4))
            assert abs(expectation(psi, m).imag) < 1e-12

    def test_expectation_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.array([1.0, 0.0]), np.eye(3))

    def test_ket_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            ket([0.0, 0.0])

    def test_ket_rejects_nan(self):
        with pytest.raises(ValueError):
            ket([np.nan, 1.0])


class TestEigensolver:
    def test_sigma_z(self):
        assert hermitian_extremal_eigenvalue(pauli("z")) == 1.0

    def test_diagonal(self):
        assert hermitian_extremal_eigenvalue(np.diag([3.0, -5.0])) == 5.0

    def test_against_charpoly_2x2_4x4(self):
        rng = np.random.default_rng(31)
        for n in (2, 4):
            for _ in range(50):
                m = random_hermitian(rng, n)
                assert abs(hermitian_extremal_eigenvalue(m) - charpoly_extremal(m)) < 1e-8

    def test_against_spectral_norm_up_to_64(self):
        # max |eigenvalue| of a Hermitian matrix is its largest singular value
        rng = np.random.default_rng(37)
        for n in (2, 3, 5, 8, 16, 33, 64):
            m = random_hermitian(rng, n)
            want = np.linalg.norm(m, 2)
            assert abs(hermitian_extremal_eigenvalue(m) - want) < 1e-10 * max(1.0, want)

    def test_commutator_identity_value_at_90_degree_spin(self):
        # 4I - [A,A'](x)[B,B'] has extremal eigenvalue 8 when both
        # commutators are maximal: 90 degrees apart for spin ops
        a, ap = spin_op(0.0), spin_op(np.pi / 2)
        b, bp = spin_op(np.pi / 4), spin_op(3 * np.pi / 4)
        m = 4 * np.eye(4) - tensor(commutator(a, ap), commutator(b, bp))
        assert abs(hermitian_extremal_eigenvalue(m) - 8.0) < 1e-12

    def test_commutator_identity_value_at_45_degree_photon(self):
        # the photon convention doubles angles, so 45-degree analyzer
        # separations are maximal there
        a, ap = photon_op(0.0), photon_op(np.pi / 4)
        b, bp = photon_op(np.pi / 8), photon_op(3 * np.pi / 8)
        m = 4 * np.eye(4) - tensor(commutator(a, ap), commutator(b, bp))
        assert abs(hermitian_extremal_eigenvalue(m) - 8.0) < 1e-12

    def test_commutator_identity_value_at_45_degree_spin(self):
        # at 45-degree spin separations sin^2 = 1/2 and the value is 6, not 8
        a, ap = spin_op(0.0), spin_op(np.pi / 4)
        b, bp = spin_op(np.pi / 4), spin_op(np.pi / 2)
        m = 4 * np.eye(4) - tensor(commutator(a, ap), commutator(b, bp))
        assert abs(hermitian_extremal_eigenvalue(m) - 6.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_extremal_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
    ])
    def test_rejects_nonfinite(self, bad):
        # NaN fails every comparison, so the Hermitian check alone lets it through
        with pytest.raises(ValueError, match="finite"):
            hermitian_extremal_eigenvalue(np.array(bad))

    def test_one_by_one(self):
        assert hermitian_extremal_eigenvalue(np.array([[-4.0]])) == 4.0
