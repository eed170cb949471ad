import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bell_lab import fock
from bell_lab.chsh import TSIRELSON
from bell_lab.errors import UndefinedCorrelationError
from bell_lab.fock import (
    MODE_ORDER,
    BeamSplitterSpec,
    ModeIndex,
    annihilation,
    coincidence_closed_form,
    coincidence_correlation,
    coincidence_probability,
    creation,
    detector_amplitude_op,
    ou_mandel_state,
    product_state,
    standard_basis,
    vacuum,
)

DEG = np.pi / 180.0


def random_bs(rng):
    tx, ty = rng.uniform(0.05, 0.95, size=2)
    return BeamSplitterSpec.from_transmissions(float(tx), float(ty))


class TestBasis:
    def test_mode_order(self):
        assert MODE_ORDER == ((1, "x"), (1, "y"), (2, "x"), (2, "y"))
        assert ModeIndex(1, "y").slot == 1
        assert ModeIndex(2, "y").slot == 3

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ModeIndex(3, "x")
        with pytest.raises(ValueError):
            ModeIndex(1, "z")

    def test_fifteen_states_lexicographic_no_dups(self):
        basis = standard_basis(2)
        assert len(basis.states) == 15
        assert len(set(basis.states)) == 15
        assert list(basis.states) == sorted(basis.states)
        assert all(sum(occ) <= 2 for occ in basis.states)
        assert basis.states[0] == (0, 0, 0, 0)

    def test_index_roundtrip(self):
        basis = standard_basis(2)
        for i, occ in enumerate(basis.states):
            assert basis.index(occ) == i

    def test_index_rejects_unknown(self):
        with pytest.raises(ValueError):
            standard_basis(2).index((3, 0, 0, 0))


class TestLadderOperators:
    def test_annihilation_kills_vacuum(self):
        basis = standard_basis(2)
        v = vacuum(basis)
        for det, pol in MODE_ORDER:
            assert np.max(np.abs(annihilation(ModeIndex(det, pol), basis) @ v)) == 0.0

    def test_sqrt2_matrix_element(self):
        basis = standard_basis(2)
        a = annihilation(ModeIndex(1, "x"), basis)
        two = basis.index((2, 0, 0, 0))
        one = basis.index((1, 0, 0, 0))
        assert a[one, two] == np.sqrt(2.0)

    def test_creation_is_dagger_of_annihilation(self):
        basis = standard_basis(2)
        for det, pol in MODE_ORDER:
            mode = ModeIndex(det, pol)
            assert np.array_equal(
                creation(mode, basis), annihilation(mode, basis).conj().T
            )

    def test_canonical_commutator(self):
        # [a, a+] = 1 on the subspace the truncated basis can represent.
        # Off-diagonal entries vanish exactly; the diagonal picks up a
        # one-ulp residual from (sqrt(2))^2, so compare at 1e-15.
        basis = standard_basis(2)
        for det, pol in MODE_ORDER:
            mode = ModeIndex(det, pol)
            a = annihilation(mode, basis)
            ad = creation(mode, basis)
            c = a @ ad - ad @ a
            # rows whose occupation is already maximal are clipped by the
            # truncation and must be excluded from the identity check
            keep = [i for i, occ in enumerate(basis.states) if sum(occ) < 2]
            block = c[np.ix_(keep, keep)]
            off = block - np.diag(np.diag(block))
            assert np.max(np.abs(off)) == 0.0
            assert np.max(np.abs(np.diag(block) - 1.0)) < 1e-15

    def test_cross_mode_commutator_vanishes(self):
        basis = standard_basis(2)
        a1 = annihilation(ModeIndex(1, "x"), basis)
        ad2 = creation(ModeIndex(2, "y"), basis)
        c = a1 @ ad2 - ad2 @ a1
        # columns at maximal occupation are clipped by the truncation
        keep = [j for j, occ in enumerate(basis.states) if sum(occ) < 2]
        assert np.max(np.abs(c[:, keep])) == 0.0


class TestBeamSplitterSpec:
    def test_equal_split(self):
        bs = BeamSplitterSpec.equal_split()
        assert bs.t_x == bs.r_x == bs.t_y == bs.r_y == 0.5

    def test_from_transmissions(self):
        bs = BeamSplitterSpec.from_transmissions(0.3, 0.8)
        assert bs.t_x == 0.3 and abs(bs.r_x - 0.7) < 1e-15
        assert bs.t_y == 0.8 and abs(bs.r_y - 0.2) < 1e-15

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            BeamSplitterSpec(0.5, 0.6, 0.5, 0.5)
        with pytest.raises(ValueError):
            BeamSplitterSpec.from_transmissions(1.3, 0.5)
        with pytest.raises(ValueError):
            BeamSplitterSpec.from_transmissions(-0.1, 0.5)


class TestOuMandelState:
    def test_equal_split_amplitudes(self):
        st = ou_mandel_state(BeamSplitterSpec.equal_split())
        assert abs(st.amplitude((1, 0, 0, 1)) - 0.5) < 1e-15
        assert abs(st.amplitude((0, 1, 1, 0)) - 0.5) < 1e-15
        assert abs(st.amplitude((1, 1, 0, 0)) - (-0.5j)) < 1e-15
        assert abs(st.amplitude((0, 0, 1, 1)) - 0.5j) < 1e-15

    def test_full_transmission_routes_x1_y2(self):
        st = ou_mandel_state(BeamSplitterSpec.from_transmissions(1.0, 1.0))
        assert abs(st.amplitude((1, 0, 0, 1)) - 1.0) < 1e-15
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    def test_full_reflection_routes_x2_y1(self):
        st = ou_mandel_state(BeamSplitterSpec.from_transmissions(0.0, 0.0))
        assert abs(st.amplitude((0, 1, 1, 0)) - 1.0) < 1e-15

    def test_normalized_random_splitters(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            st = ou_mandel_state(random_bs(rng))
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12

    def test_amplitudes_read_only(self):
        st = ou_mandel_state(BeamSplitterSpec.equal_split())
        with pytest.raises(ValueError):
            st.amplitudes[0] = 1.0


class TestFactorization:
    def test_product_state_equals_pair_state(self):
        # the central identity: the second-quantized output wavefunction
        # factorizes into independent single-photon transformations
        rng = np.random.default_rng(109)
        for _ in range(100):
            bs = random_bs(rng)
            direct = ou_mandel_state(bs).amplitudes
            factored = product_state(bs).amplitudes
            assert np.max(np.abs(direct - factored)) < 1e-12

    def test_equal_split_cross_term(self):
        st = product_state(BeamSplitterSpec.equal_split())
        assert abs(st.amplitude((1, 1, 0, 0)) - (-0.5j)) < 1e-15


class TestDetectors:
    def test_theta_zero_selects_x(self):
        basis = standard_basis(2)
        d = detector_amplitude_op(1, 0.0, basis)
        x = basis.index((1, 0, 0, 0))
        y = basis.index((0, 1, 0, 0))
        vac = basis.index((0, 0, 0, 0))
        assert d[vac, x] == 1.0
        assert d[vac, y] == 0.0

    def test_detectors_commute(self):
        basis = standard_basis(2)
        d1 = detector_amplitude_op(1, 0.4, basis)
        d2 = detector_amplitude_op(2, 1.9, basis)
        assert np.max(np.abs(d1 @ d2 - d2 @ d1)) < 1e-15

    def test_detector_order_does_not_change_probability(self):
        bs = BeamSplitterSpec.from_transmissions(0.6, 0.4)
        basis = standard_basis(2)
        st = ou_mandel_state(bs, basis)
        p12 = coincidence_probability(st, 0.5, 1.2)
        d1 = detector_amplitude_op(1, 0.5, basis)
        d2 = detector_amplitude_op(2, 1.2, basis)
        p21 = float(np.linalg.norm(d1 @ (d2 @ st.amplitudes)) ** 2)
        assert abs(p12 - p21) < 1e-15

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            detector_amplitude_op(3, 0.0)


class TestCoincidence:
    def test_numeric_matches_closed_form_dense_grid(self):
        rng = np.random.default_rng(113)
        thetas = np.linspace(0.0, np.pi, 37)
        for _ in range(10):
            bs = random_bs(rng)
            st = ou_mandel_state(bs)
            for t1 in thetas:
                for t2 in thetas:
                    p = coincidence_probability(st, float(t1), float(t2))
                    q = coincidence_closed_form(bs, float(t1), float(t2))
                    assert abs(p - q) < 1e-12

    def test_equal_split_quarter_sine(self):
        st = ou_mandel_state(BeamSplitterSpec.equal_split())
        for t1 in np.linspace(0, np.pi, 19):
            for t2 in np.linspace(0, np.pi, 19):
                p = coincidence_probability(st, float(t1), float(t2))
                assert abs(p - 0.25 * np.sin(t1 + t2) ** 2) < 1e-12

    def test_parallel_axes_never_coincide(self):
        st = ou_mandel_state(BeamSplitterSpec.equal_split())
        assert coincidence_probability(st, 0.0, 0.0) == 0.0

    def test_correlation_equals_cos_double_sum(self):
        st = ou_mandel_state(BeamSplitterSpec.equal_split())
        for t1 in np.linspace(0, np.pi, 13):
            for t2 in np.linspace(0, np.pi, 13):
                e = coincidence_correlation(st, float(t1), float(t2))
                assert abs(e - np.cos(2.0 * (t1 + t2))) < 1e-12

    def test_zero_at_eighth_turn(self):
        st = ou_mandel_state(BeamSplitterSpec.equal_split())
        assert abs(coincidence_correlation(st, np.pi / 8, np.pi / 8)) < 1e-12

    def test_chsh_from_coincidence_correlations(self):
        # assembling S from the four counting-rate correlations at the
        # (0, 45, -22.5, 22.5) degree tuple reaches the quantum bound
        st = ou_mandel_state(BeamSplitterSpec.equal_split())
        a, ap, b, bp = 0.0, 45 * DEG, -22.5 * DEG, 22.5 * DEG
        s = (
            coincidence_correlation(st, a, b)
            + coincidence_correlation(st, ap, b)
            + coincidence_correlation(st, a, bp)
            - coincidence_correlation(st, ap, bp)
        )
        assert abs(abs(s) - TSIRELSON) < 1e-12

    def test_undefined_when_no_counts(self):
        # a fully transmitting x / fully reflecting y splitter sends both
        # photons to detector 1, so all four coincidence rates vanish
        st = ou_mandel_state(BeamSplitterSpec.from_transmissions(1.0, 0.0))
        with pytest.raises(UndefinedCorrelationError):
            coincidence_correlation(st, 0.0, 0.0)


def ref_detector_op(detector, theta, basis):
    """The per-call route: ladders rebuilt by annihilation for one angle."""
    return np.cos(theta) * annihilation(ModeIndex(detector, "x"), basis) + np.sin(
        theta
    ) * annihilation(ModeIndex(detector, "y"), basis)


def ref_probability(state, theta1, theta2):
    out = ref_detector_op(2, theta2, state.basis) @ (
        ref_detector_op(1, theta1, state.basis) @ state.amplitudes
    )
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
        bs = random_bs(rng)
        st_ = ou_mandel_state(bs)
        t1 = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=shape)
        t2 = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=shape)
        if shape == ():
            t1, t2 = float(t1), float(t2)
        ops = detector_amplitude_op(2, t2)
        p = coincidence_probability(st_, t1, t2)
        e = coincidence_correlation(st_, t1, t2)
        q = coincidence_closed_form(bs, t1, t2)
        if shape == ():
            assert type(p) is float and type(e) is float and type(q) is float
        assert np.shape(p) == np.shape(e) == np.shape(q) == shape
        assert ops.shape == shape + (15, 15)
        for i in np.ndindex(shape):
            a, b = np.float64(np.asarray(t1)[i]), np.float64(np.asarray(t2)[i])
            assert np.array_equal(ops[i], detector_amplitude_op(2, b))
            assert np.array_equal(ops[i], ref_detector_op(2, b, st_.basis))
            assert np.asarray(p)[i] == coincidence_probability(st_, a, b) == ref_probability(st_, a, b)
            assert np.asarray(e)[i] == coincidence_correlation(st_, a, b)
            assert np.asarray(q)[i] == coincidence_closed_form(bs, a, b)

    def test_row_against_column_matches_grid(self):
        bs = BeamSplitterSpec.from_transmissions(0.7, 0.4)
        st_ = ou_mandel_state(bs)
        thetas = np.linspace(0.0, np.pi, 23)
        p = coincidence_probability(st_, thetas[:, None], thetas[None, :])
        e = coincidence_correlation(st_, thetas[:, None], thetas[None, :])
        assert p.shape == e.shape == (23, 23)
        for i, a in enumerate(thetas):
            assert np.array_equal(p[i], coincidence_probability(st_, a, thetas))
            for j, b in enumerate(thetas):
                assert p[i, j] == ref_probability(st_, a, b)
                assert e[i, j] == coincidence_correlation(st_, a, b)

    def test_ladders_built_four_times_per_basis(self, monkeypatch):
        calls = []
        build = fock.annihilation

        def counting(mode, basis):
            calls.append(basis)
            return build(mode, basis)

        monkeypatch.setattr(fock, "annihilation", counting)
        fock._ladders.cache_clear()
        thetas = np.linspace(0.0, np.pi, 9)
        for basis in (standard_basis(2), standard_basis(3)):
            st_ = ou_mandel_state(BeamSplitterSpec.equal_split(), basis)
            for t1 in thetas:
                coincidence_probability(st_, t1, thetas)
                coincidence_correlation(st_, float(t1), 0.3)
                detector_amplitude_op(1, t1, basis)
        assert len(calls) == 8
        assert calls[:4] == [standard_basis(2)] * 4
        assert calls[4:] == [standard_basis(3)] * 4

    def test_cached_ladders_are_read_only(self):
        ladders = fock._ladders(standard_basis(2))
        with pytest.raises(ValueError):
            ladders[0, 0, 1] = 2.0

    def test_rejects_bad_detector_and_nan_angles(self):
        st_ = ou_mandel_state(BeamSplitterSpec.equal_split())
        with pytest.raises(ValueError):
            detector_amplitude_op(3, np.zeros(4))
        with pytest.raises(ValueError):
            detector_amplitude_op(1, np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            coincidence_probability(st_, np.array([0.1, 0.2]), np.array([0.3, np.nan]))
        with pytest.raises(ValueError):
            coincidence_correlation(st_, np.nan, np.array([0.3, 0.4]))

    def test_one_undefined_point_rejects_the_array(self):
        st_ = ou_mandel_state(BeamSplitterSpec.from_transmissions(1.0, 0.0))
        with pytest.raises(UndefinedCorrelationError):
            coincidence_correlation(st_, np.array([0.0, 0.5]), 0.2)

