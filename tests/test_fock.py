import re

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from bell_lab import fock
from bell_lab.chsh import TSIRELSON
from bell_lab.errors import UndefinedCorrelationError
from bell_lab.fock import (
    STATES,
    coincidence_closed_form,
    coincidence_correlation,
    coincidence_probability,
    detector_amplitude_op,
    ou_mandel_state,
    product_state,
)

DEG = np.pi / 180.0
# the (detector, polarization) modes in the order of fock's ladder table
MODES = ((1, "x"), (1, "y"), (2, "x"), (2, "y"))
VACUUM = np.eye(15, dtype=complex)[0]


# transmissions in [0, 1], with the ends and subnormals drawn often
TRANSMISSIONS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1e-310, 1e-300, 1e-160, 1e-20]),
    st.floats(0.0, 1.0),
)


def random_split(rng):
    """Two transmissions (t_x, t_y) drawn away from the ends, as Python floats."""
    return rng.uniform(0.05, 0.95, size=2).tolist()


def bad_detector(detector):
    return pytest.raises(ValueError, match="^" + re.escape(f"detector must be 1 or 2, got {detector!r}") + "$")


class TestBasis:
    def test_mode_order(self):
        assert fock._MODE_ORDER == MODES
        # a detector's slot is its x mode; its y mode is the next
        assert fock._slot(1) == 0
        assert fock._slot(2) == 2

    def test_mode_validation(self):
        with bad_detector(3):
            detector_amplitude_op(3, 0.0)
        for detector in (0, "1", 1.5):
            with bad_detector(detector):
                fock._slot(detector)

    def test_fifteen_states_lexicographic_no_dups(self):
        assert type(STATES) is tuple and len(STATES) == 15
        assert len(set(STATES)) == 15
        assert list(STATES) == sorted(STATES)
        assert all(type(occ) is tuple and len(occ) == 4 and sum(occ) <= 2 for occ in STATES)
        assert STATES[0] == (0, 0, 0, 0)
        # every occupation of four modes by at most two photons, written out
        assert set(STATES) == {(a, b, c, d) for a in range(3) for b in range(3) for c in range(3)
                               for d in range(3) if a + b + c + d <= 2}

    def test_index_roundtrip(self):
        # a state with all its weight on STATES[i] reads amplitude 1 there, 0 elsewhere
        for i, occ in enumerate(STATES):
            state = fock._check_state(np.eye(15)[i])
            assert STATES.index(occ) == i
            assert [state[STATES.index(other)] for other in STATES] == [complex(j == i) for j in range(15)]

    def test_index_rejects_unknown(self):
        with pytest.raises(ValueError):
            STATES.index((3, 0, 0, 0))


class TestLadderOperators:
    """fock's ladder table, slot by slot against ref_ladder, and the algebra it must obey."""

    def test_annihilation_kills_vacuum(self):
        for a in fock._LADDERS:
            assert np.max(np.abs(a @ VACUUM)) == 0.0

    def test_sqrt2_matrix_element(self):
        a = fock._LADDERS[0]
        assert np.array_equal(a, ref_ladder(1, "x"))
        two = STATES.index((2, 0, 0, 0))
        one = STATES.index((1, 0, 0, 0))
        assert a[one, two] == np.sqrt(2.0)

    def test_canonical_commutator(self):
        # [a, a+] = 1 on the subspace the truncated basis can represent.
        # Off-diagonal entries vanish exactly; the diagonal picks up a
        # one-ulp residual from (sqrt(2))^2, so compare at 1e-15.
        for a, mode in zip(fock._LADDERS, MODES, strict=True):
            assert np.array_equal(a, ref_ladder(*mode))
            ad = a.conj().T
            c = a @ ad - ad @ a
            # rows whose occupation is already maximal are clipped by the
            # truncation and must be excluded from the identity check
            keep = [i for i, occ in enumerate(STATES) if sum(occ) < 2]
            block = c[np.ix_(keep, keep)]
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off)) == 0.0
            assert np.max(np.abs(np.diag(block) - 1.0)) < 1e-15

    def test_cross_mode_commutator_vanishes(self):
        a1, ad2 = fock._LADDERS[0], fock._LADDERS[3].conj().T
        assert np.array_equal(a1, ref_ladder(1, "x")) and np.array_equal(ad2, ref_ladder(2, "y").conj().T)
        c = a1 @ ad2 - ad2 @ a1
        # columns at maximal occupation are clipped by the truncation
        keep = [j for j, occ in enumerate(STATES) if sum(occ) < 2]
        assert np.max(np.abs(c[:, keep])) == 0.0


class TestSplitter:
    def test_rejects_unphysical(self):
        # each of the three functions that take a splitter refuses it with the same message
        for t_x, t_y, message in [
            (1.3, 0.5, "t_x must be in [0, 1], got 1.3"),
            (-0.1, 0.5, "t_x must be in [0, 1], got -0.1"),
            (0.5, 1.0000000000000002, "t_y must be in [0, 1], got 1.0000000000000002"),
            (0.5, -5e-324, "t_y must be in [0, 1], got -5e-324"),
            (np.nan, 0.5, "t_x must be finite, got nan"),
        ]:
            for call in (ou_mandel_state, product_state, lambda *t: coincidence_closed_form(*t, 0.1, 0.2)):
                with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                    call(t_x, t_y)

    @hyp_settings(max_examples=200, deadline=None)
    @given(tx=TRANSMISSIONS, ty=TRANSMISSIONS)
    def test_reflections_are_one_minus_the_transmissions(self, tx, ty):
        # the amplitudes are those of T and R = 1 - T, bit for bit
        st = ou_mandel_state(tx, ty)
        rx, ry = 1.0 - tx, 1.0 - ty
        assert st[STATES.index((1, 0, 0, 1))] == np.sqrt(tx * ty)
        assert st[STATES.index((0, 1, 1, 0))] == np.sqrt(rx * ry)
        assert st[STATES.index((1, 1, 0, 0))] == -1.0j * np.sqrt(ry * tx)
        assert st[STATES.index((0, 0, 1, 1))] == 1.0j * np.sqrt(rx * ty)


class TestOuMandelState:
    def test_equal_split_amplitudes(self):
        st = ou_mandel_state(0.5, 0.5)
        assert abs(st[STATES.index((1, 0, 0, 1))] - 0.5) < 1e-15
        assert abs(st[STATES.index((0, 1, 1, 0))] - 0.5) < 1e-15
        assert abs(st[STATES.index((1, 1, 0, 0))] - (-0.5j)) < 1e-15
        assert abs(st[STATES.index((0, 0, 1, 1))] - 0.5j) < 1e-15

    def test_full_transmission_routes_x1_y2(self):
        st = ou_mandel_state(1.0, 1.0)
        assert abs(st[STATES.index((1, 0, 0, 1))] - 1.0) < 1e-15
        assert abs(np.linalg.norm(st) - 1.0) < 1e-12

    def test_full_reflection_routes_x2_y1(self):
        st = ou_mandel_state(0.0, 0.0)
        assert abs(st[STATES.index((0, 1, 1, 0))] - 1.0) < 1e-15

    def test_normalized_random_splitters(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            st = ou_mandel_state(*random_split(rng))
            assert abs(np.linalg.norm(st) - 1.0) < 1e-12

    @hyp_settings(max_examples=300, deadline=None)
    @given(tx=TRANSMISSIONS, ty=TRANSMISSIONS)
    def test_unit_norm_property(self, tx, ty):
        # (T_x + R_x)(T_y + R_y) = 1, whatever the split
        st = ou_mandel_state(tx, ty)
        assert abs(np.linalg.norm(st) - 1.0) <= 1e-15

    def test_amplitudes_read_only(self):
        for make in (ou_mandel_state, product_state):
            st = make(0.5, 0.5)
            assert st.dtype == np.complex128 and st.shape == (15,)
            with pytest.raises(ValueError):
                st[0] = 1.0


class TestFactorization:
    def test_product_state_equals_pair_state(self):
        # the central identity: the second-quantized output wavefunction
        # factorizes into independent single-photon transformations
        rng = np.random.default_rng(109)
        for _ in range(100):
            tx, ty = random_split(rng)
            direct = ou_mandel_state(tx, ty)
            factored = product_state(tx, ty)
            assert np.max(np.abs(direct - factored)) < 1e-12

    @hyp_settings(max_examples=300, deadline=None)
    @given(tx=TRANSMISSIONS, ty=TRANSMISSIONS)
    def test_product_state_equals_pair_state_property(self, tx, ty):
        assert np.max(np.abs(ou_mandel_state(tx, ty) - product_state(tx, ty))) <= 1e-15

    @hyp_settings(max_examples=200, deadline=None)
    @given(tx=TRANSMISSIONS, ty=TRANSMISSIONS)
    @example(tx=0.0, ty=1.0)
    @example(tx=5e-324, ty=1e-310)
    @example(tx=1.0, ty=1e-300)
    def test_product_state_is_bitwise_the_reference_construction(self, tx, ty):
        # the factors of the docstring, built from ref_ladder's creation matrices, applied to the vacuum
        x1, y1, x2, y2 = (ref_ladder(*mode).conj().T for mode in MODES)
        op_x = np.sqrt(tx) * x1 + 1.0j * np.sqrt(1.0 - tx) * x2
        op_y = np.sqrt(ty) * y2 - 1.0j * np.sqrt(1.0 - ty) * y1
        assert product_state(tx, ty).tobytes() == (op_x @ (op_y @ VACUUM)).tobytes()

    def test_equal_split_cross_term(self):
        st = product_state(0.5, 0.5)
        assert abs(st[STATES.index((1, 1, 0, 0))] - (-0.5j)) < 1e-15


class TestDetectors:
    def test_theta_zero_selects_x(self):
        d = detector_amplitude_op(1, 0.0)
        x = STATES.index((1, 0, 0, 0))
        y = STATES.index((0, 1, 0, 0))
        vac = STATES.index((0, 0, 0, 0))
        assert d[vac, x] == 1.0
        assert d[vac, y] == 0.0

    def test_detectors_commute(self):
        d1 = detector_amplitude_op(1, 0.4)
        d2 = detector_amplitude_op(2, 1.9)
        assert np.max(np.abs(d1 @ d2 - d2 @ d1)) < 1e-15

    def test_detector_order_does_not_change_probability(self):
        st = ou_mandel_state(0.6, 0.4)
        p12 = coincidence_probability(st, 0.5, 1.2)
        d1 = detector_amplitude_op(1, 0.5)
        d2 = detector_amplitude_op(2, 1.2)
        p21 = float(np.linalg.norm(d1 @ (d2 @ st)) ** 2)
        assert abs(p12 - p21) < 1e-15

    def test_detector_validation(self):
        with bad_detector(3):
            detector_amplitude_op(3, 0.0)


class TestCoincidence:
    def test_numeric_matches_closed_form_dense_grid(self):
        rng = np.random.default_rng(113)
        thetas = np.linspace(0.0, np.pi, 37)
        for _ in range(10):
            tx, ty = random_split(rng)
            st = ou_mandel_state(tx, ty)
            for t1 in thetas:
                for t2 in thetas:
                    p = coincidence_probability(st, float(t1), float(t2))
                    q = coincidence_closed_form(tx, ty, float(t1), float(t2))
                    assert abs(p - q) < 1e-12

    def test_equal_split_quarter_sine(self):
        st = ou_mandel_state(0.5, 0.5)
        for t1 in np.linspace(0, np.pi, 19):
            for t2 in np.linspace(0, np.pi, 19):
                p = coincidence_probability(st, float(t1), float(t2))
                assert abs(p - 0.25 * np.sin(t1 + t2) ** 2) < 1e-12

    def test_parallel_axes_never_coincide(self):
        st = ou_mandel_state(0.5, 0.5)
        assert coincidence_probability(st, 0.0, 0.0) == 0.0

    def test_correlation_equals_cos_double_sum(self):
        st = ou_mandel_state(0.5, 0.5)
        for t1 in np.linspace(0, np.pi, 13):
            for t2 in np.linspace(0, np.pi, 13):
                e = coincidence_correlation(st, float(t1), float(t2))
                assert abs(e - np.cos(2.0 * (t1 + t2))) < 1e-12

    def test_zero_at_eighth_turn(self):
        st = ou_mandel_state(0.5, 0.5)
        assert abs(coincidence_correlation(st, np.pi / 8, np.pi / 8)) < 1e-12

    def test_chsh_from_coincidence_correlations(self):
        # assembling S from the four counting-rate correlations at the
        # (0, 45, -22.5, 22.5) degree tuple reaches the quantum bound
        st = ou_mandel_state(0.5, 0.5)
        a, ap, b, bp = 0.0, 45 * DEG, -22.5 * DEG, 22.5 * DEG
        s = (
            coincidence_correlation(st, a, b)
            + coincidence_correlation(st, ap, b)
            + coincidence_correlation(st, a, bp)
            - coincidence_correlation(st, ap, bp)
        )
        assert abs(abs(s) - TSIRELSON) < 1e-12

    @pytest.mark.parametrize("state, message", [
        (np.array([0.6, 0.8]), "amplitude count 2 != basis size 15"),
        (0.5 * np.eye(15)[0], "Fock state must be normalized to 1e-12"),
        (np.where(np.arange(15) == 3, np.nan, 0.5), "amplitudes must be finite, got array(["),
        (np.where(np.arange(15) == 3, complex(0.0, np.inf), 0.5), "amplitudes must be finite, got array(["),
    ])
    def test_state_is_checked_where_it_is_taken(self, state, message):
        # a NaN amplitude fails the finiteness check, not the norm check, which NaN passes
        for call in (coincidence_probability, coincidence_correlation):
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                call(state, 0.3, 1.1)

    def test_undefined_when_no_counts(self):
        # a fully transmitting x / fully reflecting y splitter sends both
        # photons to detector 1, so all four coincidence rates vanish
        st = ou_mandel_state(1.0, 0.0)
        with pytest.raises(UndefinedCorrelationError):
            coincidence_correlation(st, 0.0, 0.0)

    @hyp_settings(max_examples=300, deadline=None)
    @given(tx=TRANSMISSIONS, ty=TRANSMISSIONS, t1=st.floats(0.0, np.pi), t2=st.floats(0.0, np.pi))
    def test_refuses_or_matches_the_scaled_closed_form(self, tx, ty, t1, t2):
        # a subnormal total must be refused, not turned into a ratio of rounding noise
        try:
            e = coincidence_correlation(ou_mandel_state(tx, ty), t1, t2)
        except UndefinedCorrelationError:
            return
        a, b = np.sqrt(tx * ty), np.sqrt((1.0 - tx) * (1.0 - ty))
        a, b = a / max(a, b), b / max(a, b)  # the ratio is scale-free

        def p(u, v):
            return (a * np.cos(u) * np.sin(v) + b * np.sin(u) * np.cos(v)) ** 2

        t1p, t2p = t1 + np.pi / 2.0, t2 + np.pi / 2.0
        ps = p(t1, t2), p(t1, t2p), p(t1p, t2), p(t1p, t2p)
        assert abs(e - (ps[1] + ps[2] - ps[0] - ps[3]) / sum(ps)) <= 1e-12


def ref_ladder(detector, polarization):
    """The lowering matrix of one mode, built from STATES entry by entry."""
    slot = MODES.index((detector, polarization))
    a = np.zeros((len(STATES), len(STATES)), dtype=complex)
    for j, occ in enumerate(STATES):
        for i, lowered in enumerate(STATES):
            if occ[slot] and lowered == occ[:slot] + (occ[slot] - 1,) + occ[slot + 1:]:
                a[i, j] = np.sqrt(occ[slot])
    return a


def ref_detector_op(detector, theta):
    """The per-call route: ladders rebuilt from STATES for one angle."""
    return np.cos(theta) * ref_ladder(detector, "x") + np.sin(theta) * ref_ladder(detector, "y")


def ref_probability(state, theta1, theta2):
    out = ref_detector_op(2, theta2) @ (ref_detector_op(1, theta1) @ state)
    return float(np.real(np.vdot(out, out)))


SHAPES = st.one_of(
    st.just(()),
    st.integers(1, 6).map(lambda n: (n,)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
)


class TestArrayRoute:
    """Array angles against one call per point, compared bit for bit."""

    @hyp_settings(max_examples=40, deadline=None)
    @given(shape=SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_shapes_match_one_point_per_call(self, shape, seed):
        rng = np.random.default_rng(seed)
        tx, ty = random_split(rng)
        st_ = ou_mandel_state(tx, ty)
        t1 = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=shape)
        t2 = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=shape)
        if shape == ():
            t1, t2 = float(t1), float(t2)
        ops = detector_amplitude_op(2, t2)
        p = coincidence_probability(st_, t1, t2)
        e = coincidence_correlation(st_, t1, t2)
        q = coincidence_closed_form(tx, ty, t1, t2)
        if shape == ():
            assert type(p) is float and type(e) is float and type(q) is float
        assert np.shape(p) == np.shape(e) == np.shape(q) == shape
        assert ops.shape == shape + (15, 15)
        for i in np.ndindex(shape):
            a, b = np.float64(np.asarray(t1)[i]), np.float64(np.asarray(t2)[i])
            assert np.array_equal(ops[i], detector_amplitude_op(2, b))
            assert np.array_equal(ops[i], ref_detector_op(2, b))
            assert np.asarray(p)[i] == coincidence_probability(st_, a, b) == ref_probability(st_, a, b)
            assert np.asarray(e)[i] == coincidence_correlation(st_, a, b)
            assert np.asarray(q)[i] == coincidence_closed_form(tx, ty, a, b)

    def test_row_against_column_matches_grid(self):
        st_ = ou_mandel_state(0.7, 0.4)
        thetas = np.linspace(0.0, np.pi, 23)
        p = coincidence_probability(st_, thetas[:, None], thetas[None, :])
        e = coincidence_correlation(st_, thetas[:, None], thetas[None, :])
        assert p.shape == e.shape == (23, 23)
        for i, a in enumerate(thetas):
            assert np.array_equal(p[i], coincidence_probability(st_, a, thetas))
            for j, b in enumerate(thetas):
                assert p[i, j] == ref_probability(st_, a, b)
                assert e[i, j] == coincidence_correlation(st_, a, b)

    def test_ladders_are_the_four_annihilation_matrices(self):
        assert fock._LADDERS.shape == (4, 15, 15) and fock._LADDERS.dtype == complex
        for ladder, mode in zip(fock._LADDERS, MODES, strict=True):
            assert np.array_equal(ladder, ref_ladder(*mode))

    def test_cached_ladders_are_read_only(self):
        with pytest.raises(ValueError):
            fock._LADDERS[0, 0, 1] = 2.0
        assert not fock._LADDERS.flags.writeable

    def test_rejects_bad_detector_and_nan_angles(self):
        st_ = ou_mandel_state(0.5, 0.5)
        with pytest.raises(ValueError):
            detector_amplitude_op(3, np.zeros(4))
        with pytest.raises(ValueError):
            detector_amplitude_op(1, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            coincidence_probability(st_, np.array([0.1, 0.2]), np.array([0.3, np.nan]))
        with pytest.raises(ValueError):
            coincidence_correlation(st_, np.nan, np.array([0.3, 0.4]))

    def test_one_undefined_point_rejects_the_array(self):
        st_ = ou_mandel_state(1.0, 0.0)
        with pytest.raises(UndefinedCorrelationError):
            coincidence_correlation(st_, np.array([0.0, 0.5]), 0.2)

