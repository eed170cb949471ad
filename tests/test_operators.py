import re
import sys
import warnings
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from bell_lab.operators import (
    _SIGMA,
    ATOL,
    KINDS,
    MeasurementOp,
    _party_ops,
    commutator,
    expectation,
    hermitian_extremal_eigenvalue,
    ket,
    tensor,
)

angles = st.floats(min_value=0.0, max_value=2.0 * np.pi)
angle_lists = st.lists(angles, min_size=1, max_size=16)
angle_pairs = st.lists(st.tuples(angles, angles), min_size=1, max_size=16)

# the whole float range: signed zeros, the least subnormal, +-max, and random
# mantissas at every decimal exponent from 1e-320 to 1e308 (capped at max)
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]
finite_angles = st.one_of(
    st.sampled_from(FLOAT_EDGES),
    st.builds(lambda sign, mantissa, exponent: sign * min(mantissa * 10.0**exponent, sys.float_info.max),
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0, exclude_max=True), st.integers(-320, 308)),
    st.floats(allow_nan=False, allow_infinity=False),
)

I2 = np.eye(2)

# the Pauli matrices written out, independent of the builder's _SIGMA
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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


def analyzer_projectors(t):
    """(A(t) + I)/2 for each photon analyzer A(t) of the stack: the projector onto (cos t, sin t)."""
    return (_party_ops(t, "photon") + I2) / 2.0


def residuals(m):
    """Max Hermitian and involution residuals over a (..., 2, 2) stack."""
    return np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(), np.abs(m @ m - I2).max()


class TestPauli:
    def test_written_out(self):
        for axis, want in zip("xyz", (SIGMA_X, SIGMA_Y, SIGMA_Z)):
            assert np.array_equal(_SIGMA[axis], want)

    def test_product_cycle(self):
        assert np.allclose(_SIGMA["x"] @ _SIGMA["y"], 1j * _SIGMA["z"])
        assert np.allclose(_SIGMA["y"] @ _SIGMA["z"], 1j * _SIGMA["x"])
        assert np.allclose(_SIGMA["z"] @ _SIGMA["x"], 1j * _SIGMA["y"])

    def test_square_is_identity(self):
        for axis in "xyz":
            assert np.allclose(_SIGMA[axis] @ _SIGMA[axis], I2)

    def test_traceless(self):
        for axis in "xyz":
            assert abs(np.trace(_SIGMA[axis])) == 0.0


class TestSpinOp:
    def test_alpha_zero_is_sigma_z(self):
        assert np.array_equal(_party_ops(0.0, "spin_half"), SIGMA_Z)

    def test_alpha_half_pi_is_sigma_y(self):
        assert np.max(np.abs(_party_ops(np.pi / 2, "spin_half") - SIGMA_Y)) < 1e-15

    @hyp_settings(max_examples=200)
    @given(pairs=angle_pairs)
    def test_commutator_closed_form(self, pairs):
        a, ap = np.array(pairs).T
        lhs = commutator(_party_ops(a, "spin_half"), _party_ops(ap, "spin_half"))
        rhs = 2j * np.sin(a - ap)[:, None, None] * SIGMA_X
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @given(ts=angle_lists)
    def test_constructor_invariants(self, ts):
        hermitian, involution = residuals(_party_ops(ts, "spin_half"))
        assert hermitian < 1e-12
        assert involution < 1e-12

    def test_nonfinite_rejected(self):
        # _party_ops trusts its angles: correlation, which takes one angle per party, refuses either
        from bell_lab.chsh import correlation, singlet

        for a, b in ((np.nan, 0.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="angles must be finite"):
                correlation(singlet(), a, b)


class TestPhotonOps:
    def test_projector_theta_zero(self):
        assert np.allclose(analyzer_projectors(0.0), np.diag([1.0, 0.0]))

    def test_projector_quarter_pi(self):
        assert np.allclose(analyzer_projectors(np.pi / 4), np.full((2, 2), 0.5))

    @given(ts=angle_lists)
    def test_projector_fixes_own_direction(self, ts):
        e = np.stack([np.cos(ts), np.sin(ts)], axis=-1)[..., None]
        assert np.max(np.abs(analyzer_projectors(ts) @ e - e)) < 1e-12

    @given(ts=angle_lists)
    def test_projector_idempotent_rank1(self, ts):
        p = analyzer_projectors(ts)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(np.trace(p, axis1=-2, axis2=-1) - 1.0)) < 1e-12

    def test_op_theta_zero(self):
        assert np.allclose(_party_ops(0.0, "photon"), np.diag([1.0, -1.0]))

    @given(ts=angle_lists)
    def test_op_closed_form(self, ts):
        t = np.array(ts)[:, None, None]
        rhs = np.cos(2 * t) * SIGMA_Z + np.sin(2 * t) * SIGMA_X
        assert np.max(np.abs(_party_ops(ts, "photon") - rhs)) < 1e-12

    @given(pairs=angle_pairs)
    def test_op_commutator_norm(self, pairs):
        t, tp = np.array(pairs).T
        c = commutator(_party_ops(t, "photon"), _party_ops(tp, "photon"))
        # [A(t), A(t')] is anti-Hermitian; its singular values are |2 sin 2(t-t')|
        norms = [hermitian_extremal_eigenvalue(1j * ci) for ci in c]
        assert np.max(np.abs(norms - 2.0 * np.abs(np.sin(2.0 * (t - tp))))) < 1e-12

    @given(ts=angle_lists)
    def test_spin_correspondence_at_doubled_angle(self, ts):
        # conjugation by diag(1, i) maps the photon convention onto the spin one
        r = np.diag([1.0, 1j])
        rotated = r @ _party_ops(ts, "photon") @ r.conj().T
        assert np.max(np.abs(rotated - _party_ops(2 * np.array(ts), "spin_half"))) < 1e-12


def reference_party_op(angle, kind):
    """One measurement matrix from its closed form, with the Pauli matrices
    and the photon analyzer 2*e e^T - I written out; a bitwise oracle for
    _party_ops."""
    if kind == "photon":
        e = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
        return 2.0 * np.outer(e, e) - np.eye(2)
    axis = SIGMA_Z if kind == "spin_half" else SIGMA_X
    return np.cos(angle) * axis + np.sin(angle) * SIGMA_Y


class TestPartyOps:
    @pytest.mark.parametrize("kind", KINDS + ("transverse",))
    def test_stack_bitwise_equal_to_single_ops(self, kind):
        angles = np.random.default_rng(29).uniform(-10.0, 10.0, size=(50, 2))
        stack = _party_ops(angles, kind)
        assert stack.shape == (50, 2, 2, 2)
        for i in np.ndindex(angles.shape):
            assert np.array_equal(stack[i], reference_party_op(angles[i], kind))
            assert np.array_equal(stack[i], _party_ops(angles[i], kind))

    @hyp_settings(max_examples=300)
    @given(ts=st.lists(finite_angles, min_size=1, max_size=32))
    @example(ts=FLOAT_EDGES)
    def test_every_finite_angle_gives_a_measurement(self, ts):
        # the invariants MeasurementOp checks on a caller's matrix hold for every
        # stack the builder makes from finite angles, at the same ATOL
        for kind in KINDS + ("transverse",):
            m = _party_ops(ts, kind)
            assert np.isfinite(m).all()
            hermitian, involution = residuals(m)
            assert hermitian < ATOL
            assert involution < ATOL

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_angles(self, bad):
        # _party_ops trusts its angles: every public entry that builds a stack refuses them first
        from bell_lab.chsh import bell_operator, chsh_value, correlation, identity_residual, singlet
        from bell_lab.mermin import ghz, mermin_operator, mermin_value

        settings = np.array([0.1, bad, 0.3, 0.4])
        calls = [partial(mermin_operator, [(0.1, bad)]), partial(mermin_value, ghz(2), [(0.1, 0.2), (bad, 0.3)])]
        for kind in KINDS:
            calls += [partial(bell_operator, settings, kind), partial(identity_residual, settings, kind),
                      partial(chsh_value, singlet(), settings, kind), partial(correlation, singlet(), 0.1, settings, kind)]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_rejects_unknown_kind(self):
        # _party_ops trusts its kind: every chsh entry refuses an unknown one before building a stack
        from bell_lab.chsh import bell_operator, chsh_value, correlation, identity_residual, singlet, tsirelson_scan

        for call in (partial(bell_operator, np.zeros(4)), partial(identity_residual, np.zeros(4)),
                     partial(chsh_value, singlet(), np.zeros(4)), partial(correlation, singlet(), 0.0, 0.0),
                     tsirelson_scan):
            with pytest.raises(ValueError, match="kind must be one of"):
                call(kind="qutrit")


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
        op = MeasurementOp(SIGMA_Z, label="sigma_z")
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_eigenbasis_action(self):
        plus_minus = np.zeros(4)
        plus_minus[1] = 1.0  # |+-> is composite index 0*2 + 1
        z = MeasurementOp(SIGMA_Z)
        assert np.allclose(tensor(z, z) @ plus_minus, -plus_minus)

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
        ops = _party_ops(rng.uniform(0.0, 2.0 * np.pi, size=(10, 2)), "transverse")
        factors = list(ops[:, 0] + 1.0j * ops[:, 1])
        chain = reduce(tensor, factors)
        assert chain.shape == (1024, 1024)
        assert np.array_equal(chain, reduce(np.kron, factors))

    @pytest.mark.parametrize("a, b", [(np.eye(2), np.zeros(3)), (np.zeros(3), np.eye(2)), (1.0, np.eye(2))])
    def test_refuses_an_operand_that_is_not_a_matrix(self, a, b):
        # a 1-D operand ended in numpy's "too many indices for array" IndexError
        with pytest.raises(ValueError, match="^tensor needs matrices or stacks of them, got shapes"):
            tensor(a, b)

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
            e = expectation(singlet, tensor(_party_ops(a, "spin_half"), _party_ops(b, "spin_half")))
            assert abs(e.real + np.cos(a - b)) < 1e-12


class TestCommutatorDaggerExpectation:
    def test_self_commutator_zero(self):
        a = _party_ops(0.7, "spin_half")
        assert np.max(np.abs(commutator(a, a))) == 0.0

    def test_pauli_commutator(self):
        assert np.allclose(commutator(MeasurementOp(SIGMA_X), MeasurementOp(SIGMA_Y)), 2j * SIGMA_Z)

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.max(np.abs(commutator(a, b) + commutator(b, a))) < 1e-12

    def test_commutator_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(4))

    def test_expectation_eigenstate(self):
        plus = np.array([1.0, 0.0])
        assert expectation(plus, MeasurementOp(SIGMA_Z)) == 1.0 + 0.0j

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

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, complex(0.0, -np.inf)])
    def test_expectation_rejects_nonfinite_ket(self, bad):
        # a NaN ket once gave (nan+nanj)
        for m in (np.eye(4), np.stack([np.eye(4)] * 3)):
            with pytest.raises(ValueError, match=r"^ket amplitudes must be finite, got array\(\["):
                expectation(np.array([bad, 0.0, 0.0, 0.0]), m)

    def test_ket_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            ket([0.0, 0.0])

    def test_ket_rejects_nan(self):
        with pytest.raises(ValueError):
            ket([np.nan, 1.0])

    @pytest.mark.parametrize("amplitudes, want", [([1e200, 0.0], [1.0, 0.0]), ([1e-170, 0.0], [1.0, 0.0]),
                                                  ([3e-162, 0.0], [1.0, 0.0]), ([0.0, -1e308j], [0.0, -1j]),
                                                  ([5e-324, 0.0], [1.0, 0.0])])
    def test_ket_of_one_extreme_amplitude_is_a_basis_vector(self, amplitudes, want):
        # once [0, 0] with an overflow warning, "cannot normalize the zero vector", and norm 0.954
        assert np.array_equal(ket(amplitudes), want)

    def test_ket_keeps_the_bits_of_a_normal_norm(self):
        rng = np.random.default_rng(31)
        ghz = np.zeros(8, dtype=complex)
        ghz[[0, -1]] = 1.0
        for v in ([0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0], ghz, rng.normal(size=6) + 1j * rng.normal(size=6),
                  [2.0**-490, 0.0], [1e150, 1e150j]):
            v = np.asarray(v, dtype=complex)
            assert ket(v).tobytes() == (v / np.linalg.norm(v)).tobytes()

    @hyp_settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(
        st.just(0.0),
        st.tuples(st.floats(1e-300, 1e300) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e), st.booleans())
        .map(lambda m: -m[0] if m[1] else m[0]))] * 2), min_size=1, max_size=8)
        .map(lambda parts: np.array([complex(*p) for p in parts])).filter(lambda v: v.any()))
    def test_ket_normalizes_across_the_float_range(self, v):
        # finite nonzero amplitudes from 1e-300 to 1e300 give a unit ket along v, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = ket(v)
        assert abs(np.linalg.norm(k) - 1.0) <= 1e-15
        parts = v.view(np.float64)
        w = parts * 2.0 ** -np.frexp(np.abs(parts).max())[1]  # a power of two: exact but for the far tail
        assert np.abs(k.view(np.float64) - w / np.linalg.norm(w)).max() <= 1e-15


class TestEigensolver:
    def test_sigma_z(self):
        assert hermitian_extremal_eigenvalue(MeasurementOp(SIGMA_Z)) == 1.0

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
        a, ap, b, bp = _party_ops([0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4], "spin_half")
        m = 4 * np.eye(4) - tensor(commutator(a, ap), commutator(b, bp))
        assert abs(hermitian_extremal_eigenvalue(m) - 8.0) < 1e-12

    def test_commutator_identity_value_at_45_degree_photon(self):
        # the photon convention doubles angles, so 45-degree analyzer
        # separations are maximal there
        a, ap, b, bp = _party_ops([0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8], "photon")
        m = 4 * np.eye(4) - tensor(commutator(a, ap), commutator(b, bp))
        assert abs(hermitian_extremal_eigenvalue(m) - 8.0) < 1e-12

    def test_commutator_identity_value_at_45_degree_spin(self):
        # at 45-degree spin separations sin^2 = 1/2 and the value is 6, not 8
        a, ap, b, bp = _party_ops([0.0, np.pi / 4, np.pi / 4, np.pi / 2], "spin_half")
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

    def test_rejects_an_empty_matrix(self):
        # 0x0 passed the square check and ended in numpy's "zero-size array to reduction operation"
        with pytest.raises(ValueError, match=re.escape("need a non-empty square matrix, got shape (0, 0)")):
            hermitian_extremal_eigenvalue(np.eye(0))
