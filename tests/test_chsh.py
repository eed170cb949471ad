import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bell_lab.chsh import (
    KINDS,
    TSIRELSON,
    ChshSettings,
    _correlation_matrix,
    bell_operator,
    chsh_value,
    correlation,
    identity_residual,
    party_op,
    photon_pair_state,
    singlet,
    tsirelson_scan,
)
from bell_lab.operators import commutator, expectation, hermitian_extremal_eigenvalue, ket

DEG = np.pi / 180.0

CORRECTED_SPIN = ChshSettings(0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
LITERAL_SPIN = ChshSettings(0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4)
CORRECTED_PHOTON = ChshSettings(
    0.0, np.pi / 4, -np.pi / 8, np.pi / 8, kind="photon"
)
LITERAL_PHOTON = ChshSettings(
    0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8, kind="photon"
)


# Per-call reference route, as the library computed one settings tuple
# before batching: validated MeasurementOps, one np.kron per term and one
# np.vdot per correlation.  The batched functions must match it bit for bit.


def ref_correlation(psi, a, b, kind):
    m = np.kron(party_op(a, kind).matrix, party_op(b, kind).matrix)
    return complex(np.vdot(psi, m @ psi)).real


def reference(psi, settings):
    """(identity residual, Bell operator, S) for one settings tuple."""
    a, ap, b, bp = (party_op(x, settings.kind).matrix for x in settings.angles)
    terms = [np.kron(a, b), np.kron(ap, b), np.kron(a, bp), np.kron(ap, bp)]
    bell = terms[0] + terms[1] + terms[2] - terms[3]
    rhs = 4.0 * np.eye(4) - np.kron(commutator(a, ap), commutator(b, bp))
    residual = float(np.max(np.abs(bell @ bell - rhs)))
    e = [complex(np.vdot(psi, t @ psi)).real for t in terms]
    return residual, bell, e[0] + e[1] + e[2] - e[3]


def random_ket(rng):
    return ket(rng.normal(size=4) + 1j * rng.normal(size=4))


def grid_max_abs_s(e):
    """max |S| over a grid from E[i, j] = E(alpha_i, beta_j).

    The separable maximization of tsirelson_scan: for fixed (alpha,
    alpha'), S = f(beta) + g(beta') with f = E(alpha, .) + E(alpha', .)
    and g = E(alpha, .) - E(alpha', .).  Swapping alpha and alpha' flips
    the sign of g, so over both orders max |S| = max|f| + max|g|, and
    only the pairs with alpha' >= alpha need visiting.
    """
    best = 0.0
    for i, row in enumerate(e):
        rest = e[i:]
        pair = np.abs(row + rest).max(axis=1) + np.abs(row - rest).max(axis=1)
        best = max(best, float(pair.max()))
    return best


def brute_scan(kind, step):
    """Independent route: enumerate chsh_value over the full grid."""
    psi = singlet() if kind == "spin_half" else photon_pair_state()
    grid = np.arange(0.0, 2.0 * np.pi, step)
    best = None
    for a in grid:
        for ap in grid:
            for b in grid:
                for bp in grid:
                    s = chsh_value(psi, ChshSettings(a, ap, b, bp, kind=kind)).s
                    if best is None or abs(s) > abs(best):
                        best = s
    return best


def reference_scan(kind, grid_step):
    """tsirelson_scan as it was with eight (n, n) arrays: the extrema and
    their argmax/argmin indices for every (alpha, alpha'); a bitwise oracle."""
    psi = singlet() if kind == "spin_half" else photon_pair_state()
    c, freq = _correlation_matrix(psi, kind)
    angles = np.arange(0.0, 2.0 * np.pi, grid_step)
    n = angles.size
    u = np.vstack([np.cos(freq * angles), np.sin(freq * angles)])
    e = u.T @ c @ u
    fmax, fmin, gmax, gmin = (np.empty((n, n)) for _ in range(4))
    afmax, afmin, agmax, agmin = (np.empty((n, n), dtype=np.intp) for _ in range(4))
    for ia in range(n):
        f = e[ia][None, :] + e
        g = e[ia][None, :] - e
        fmax[ia], fmin[ia] = f.max(axis=1), f.min(axis=1)
        gmax[ia], gmin[ia] = g.max(axis=1), g.min(axis=1)
        afmax[ia], afmin[ia] = f.argmax(axis=1), f.argmin(axis=1)
        agmax[ia], agmin[ia] = g.argmax(axis=1), g.argmin(axis=1)
    s_hi = fmax + gmax
    s_lo = fmin + gmin
    best = max(float(s_hi.max()), float(-s_lo.min()))
    tol = 1e-12 * max(1.0, best)
    candidates = []
    for ia, iap in np.argwhere(s_hi >= best - tol):
        candidates.append((ia, iap, afmax[ia, iap], agmax[ia, iap]))
    for ia, iap in np.argwhere(-s_lo >= best - tol):
        candidates.append((ia, iap, afmin[ia, iap], agmin[ia, iap]))
    ia, iap, ib, ibp = min(candidates)
    s = e[ia, ib] + e[iap, ib] + e[ia, ibp] - e[iap, ibp]
    return float(s), tuple(float(angles[i]) for i in (ia, iap, ib, ibp))


class TestCorrelation:
    def test_singlet_closed_form(self):
        psi = singlet()
        for a in np.linspace(0.0, 2.0 * np.pi, 13):
            for b in np.linspace(0.0, 2.0 * np.pi, 11):
                e = correlation(psi, a, b, kind="spin_half")
                assert abs(e + np.cos(a - b)) < 1e-12

    def test_photon_closed_form(self):
        psi = photon_pair_state()
        for t1 in np.linspace(0.0, np.pi, 9):
            for t2 in np.linspace(0.0, np.pi, 9):
                e = correlation(psi, t1, t2, kind="photon")
                assert abs(e - np.cos(2.0 * (t1 + t2))) < 1e-12

    def test_perfect_anticorrelation_same_axis(self):
        assert abs(correlation(singlet(), 0.9, 0.9, kind="spin_half") + 1.0) < 1e-12

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            correlation(np.array([1.0, 0.0, 0.0, 1.0]), 0.0, 0.0, kind="spin_half")

    def test_bad_kind(self):
        # "transverse" is the Mermin operators' kind, not a CHSH convention
        for kind in ("qutrit", "transverse"):
            with pytest.raises(ValueError, match="kind"):
                correlation(singlet(), 0.0, 0.0, kind=kind)
            with pytest.raises(ValueError, match="kind"):
                ChshSettings(0.0, 0.0, 0.0, 0.0, kind=kind)


class TestBellOperator:
    def test_hermitian_random_settings(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            kind = "spin_half" if rng.integers(2) else "photon"
            s = ChshSettings(*rng.uniform(0, 2 * np.pi, size=4), kind=kind)
            m = bell_operator(s)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_degenerate_settings_extremal_two(self):
        s = ChshSettings(0.3, 0.3, 1.2, 1.2)
        assert abs(hermitian_extremal_eigenvalue(bell_operator(s)) - 2.0) < 1e-12

    def test_literal_spin_tuple_extremal_tsirelson(self):
        m = bell_operator(LITERAL_SPIN)
        assert abs(hermitian_extremal_eigenvalue(m) - TSIRELSON) < 1e-12

    def test_literal_photon_tuple_extremal_tsirelson(self):
        m = bell_operator(LITERAL_PHOTON)
        assert abs(hermitian_extremal_eigenvalue(m) - TSIRELSON) < 1e-12

    def test_chsh_value_matches_expectation_route(self):
        rng = np.random.default_rng(43)
        psi = singlet()
        for _ in range(100):
            s = ChshSettings(*rng.uniform(0, 2 * np.pi, size=4))
            direct = chsh_value(psi, s).s
            via_op = expectation(psi, bell_operator(s)).real
            assert abs(direct - via_op) < 1e-12


class TestIdentityResidual:
    def test_thousand_random_settings_each_kind(self):
        rng = np.random.default_rng(47)
        for kind in ("spin_half", "photon"):
            worst = 0.0
            for _ in range(1000):
                s = ChshSettings(*rng.uniform(0, 2 * np.pi, size=4), kind=kind)
                worst = max(worst, identity_residual(s))
            assert worst < 1e-12

    def test_degenerate_settings(self):
        assert identity_residual(ChshSettings(0.0, 0.0, 0.0, 0.0)) < 1e-12


class TestChshValue:
    def test_corrected_spin_tuple_attains_tsirelson(self):
        v = chsh_value(singlet(), CORRECTED_SPIN)
        assert abs(abs(v.s) - TSIRELSON) < 1e-12

    def test_literal_spin_tuple_vanishes(self):
        # the same four angles combined with the standard S signs cancel
        assert abs(chsh_value(singlet(), LITERAL_SPIN).s) < 1e-12

    def test_corrected_photon_tuple_attains_tsirelson(self):
        v = chsh_value(photon_pair_state(), CORRECTED_PHOTON)
        assert abs(abs(v.s) - TSIRELSON) < 1e-12

    def test_all_equal_settings(self):
        v = chsh_value(singlet(), ChshSettings(0.7, 0.7, 0.7, 0.7))
        assert abs(abs(v.s) - 2.0) < 1e-12

    def test_quantum_bound_random(self):
        rng = np.random.default_rng(53)
        psi_by_kind = {"spin_half": singlet(), "photon": photon_pair_state()}
        for _ in range(10_000):
            kind = "spin_half" if rng.integers(2) else "photon"
            s = ChshSettings(*rng.uniform(0, 2 * np.pi, size=4), kind=kind)
            assert abs(chsh_value(psi_by_kind[kind], s).s) <= TSIRELSON + 1e-12

    def test_degenerate_settings_capped_at_two(self):
        rng = np.random.default_rng(59)
        psi = singlet()
        for _ in range(200):
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            assert abs(chsh_value(psi, ChshSettings(a, a, b, b)).s) <= 2.0 + 1e-12

    def test_photon_tracks_spin_at_doubled_angles(self):
        # photon ops at theta are unitarily the spin ops at 2*theta
        # (conjugation by diag(1, i) per party), so S must agree for any
        # state once the state is rotated the same way.
        rr = np.kron(np.diag([1.0, 1.0j]), np.diag([1.0, 1.0j]))
        rng = np.random.default_rng(61)
        for _ in range(200):
            t = rng.uniform(0, np.pi, size=4)
            psi = ket(rng.normal(size=4) + 1j * rng.normal(size=4))
            sp = chsh_value(ket(rr @ psi), ChshSettings(*(2 * t)))
            ph = chsh_value(psi, ChshSettings(*t, kind="photon"))
            assert abs(sp.s - ph.s) < 1e-12


class TestTsirelsonScan:
    def test_pi_over_4_step_attains_bound_spin(self):
        v = tsirelson_scan("spin_half", grid_step=np.pi / 4)
        assert abs(abs(v.s) - TSIRELSON) < 1e-12

    def test_never_exceeds_bound(self):
        for kind in ("spin_half", "photon"):
            v = tsirelson_scan(kind, grid_step=np.pi / 16)
            assert abs(v.s) <= TSIRELSON + 1e-9

    def test_monotone_refinement(self):
        prev = 0.0
        for step in (np.pi / 4, np.pi / 8, np.pi / 16):
            cur = abs(tsirelson_scan("photon", grid_step=step).s)
            assert cur >= prev - 1e-12
            prev = cur
        assert prev > 2.8

    def test_matches_brute_force_at_coarse_step(self):
        # dual route: the vectorized scan against 4 nested python loops
        for kind in ("spin_half", "photon"):
            fast = tsirelson_scan(kind, grid_step=np.pi / 4)
            slow = brute_scan(kind, np.pi / 4)
            assert abs(abs(fast.s) - abs(slow)) < 1e-12

    def test_scan_result_is_reproducible_by_chsh_value(self):
        psi = singlet()
        v = tsirelson_scan("spin_half", grid_step=np.pi / 8)
        assert abs(chsh_value(psi, v.settings).s - v.s) < 1e-12

    def test_one_degree_scan_spin(self):
        v = tsirelson_scan("spin_half", grid_step=DEG)
        assert 2.826 <= abs(v.s) <= TSIRELSON + 1e-9
        got = tuple(round(np.rad2deg(x)) for x in v.settings.angles)
        assert got == (0, 90, 45, 315)
        assert abs(v.s + TSIRELSON) < 1e-12  # signed value is -2*sqrt(2) here

    @pytest.mark.parametrize("kind", KINDS)
    def test_bitwise_equal_to_eight_array_reference(self, kind):
        for step in (45.0, 22.5, 15.0, 10.0, 7.5, 5.0, 3.0, 2.0, 1.5):
            grid_step = np.deg2rad(step)
            v = tsirelson_scan(kind, grid_step)
            want_s, want_angles = reference_scan(kind, grid_step)
            assert v.s == want_s
            assert v.settings.angles == want_angles
            assert v.settings.kind == kind

    def test_step_validation(self):
        for bad in (0.0, np.pi / 2, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="grid_step"):
                tsirelson_scan("spin_half", grid_step=bad)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            tsirelson_scan("qutrit", grid_step=np.pi / 4)


class TestSettingsAndParties:
    def test_angles_property(self):
        s = ChshSettings(0.1, 0.2, 0.3, 0.4)
        assert s.angles == (0.1, 0.2, 0.3, 0.4)

    def test_party_op_dispatch(self):
        assert np.array_equal(
            party_op(0.0, "spin_half").matrix, np.diag([1.0, -1.0])
        )
        assert np.array_equal(
            party_op(0.0, "photon").matrix, np.diag([1.0, -1.0])
        )
        a = party_op(np.pi / 4, "photon").matrix
        assert abs(a[0, 1] - 1.0) < 1e-12  # sin(2*pi/4) = 1 off-diagonal

    def test_settings_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ChshSettings(np.inf, 0.0, 0.0, 0.0)
        batch = np.zeros(4)
        batch[2] = np.nan
        with pytest.raises(ValueError):
            ChshSettings(np.zeros(4), np.zeros(4), batch, np.zeros(4))

    def test_settings_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ChshSettings(0.0, 0.0, 0.0, 0.0, kind="other")

    def test_states_are_normalized(self):
        assert abs(np.linalg.norm(singlet()) - 1.0) < 1e-15
        assert abs(np.linalg.norm(photon_pair_state()) - 1.0) < 1e-15


class TestBatchedSettings:
    """The batched settings path against the per-call references, bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_thousand_random_settings_match_reference(self, kind):
        rng = np.random.default_rng(67 if kind == "spin_half" else 71)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(2000, 4))
        psi = random_ket(rng)
        batch = ChshSettings(*angles.T, kind=kind)
        residuals = identity_residual(batch)
        operators = bell_operator(batch)
        values = chsh_value(psi, batch).s
        assert residuals.shape == values.shape == (2000,)
        assert operators.shape == (2000, 4, 4)
        for i, row in enumerate(angles):
            residual, bell, s = reference(psi, ChshSettings(*row, kind=kind))
            assert residuals[i] == residual and values[i] == s
            assert np.array_equal(operators[i], bell)
        assert residuals.max() < 1e-12

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        shape=st.one_of(st.just(()), st.just((1,)), st.integers(2, 8).map(lambda n: (n,))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shapes_match_reference(self, kind, shape, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, size=(4,) + shape)
        psi = random_ket(rng)
        fields = [float(x) for x in angles] if shape == () else list(angles)
        settings = ChshSettings(*fields, kind=kind)
        residual = identity_residual(settings)
        operator = bell_operator(settings)
        value = chsh_value(psi, settings).s
        if shape == ():
            assert type(residual) is float and type(value) is float
        assert np.shape(residual) == np.shape(value) == shape
        assert operator.shape == shape + (4, 4)
        for i in np.ndindex(shape):
            one = ChshSettings(*(float(x) for x in angles[(slice(None),) + i]), kind=kind)
            want_residual, want_bell, want_s = reference(psi, one)
            assert np.asarray(residual)[i] == want_residual
            assert np.asarray(value)[i] == want_s
            assert np.array_equal(operator[i], want_bell)

    def test_correlation_broadcasts_over_a_grid(self):
        rng = np.random.default_rng(73)
        psi = random_ket(rng)
        a = rng.uniform(0.0, 2.0 * np.pi, size=7)
        b = rng.uniform(0.0, 2.0 * np.pi, size=5)
        for kind in KINDS:
            e = correlation(psi, a[:, None], b[None, :], kind)
            assert e.shape == (7, 5)
            for i in range(7):
                for j in range(5):
                    assert e[i, j] == ref_correlation(psi, a[i], b[j], kind)

    def test_fields_must_share_one_shape(self):
        with pytest.raises(ValueError, match="share one shape"):
            ChshSettings(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))


class TestPlanarClosedForm:
    """Third route to the quantum bound: for settings in one plane,
    max |S| = 2 ||C||_F with C the 2x2 planar correlation block
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995))."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_degree_grid_max_matches_frobenius_bound(self, kind):
        rng = np.random.default_rng(79 if kind == "spin_half" else 83)
        for _ in range(10):
            psi = random_ket(rng)
            c, freq = _correlation_matrix(psi, kind)
            bound = 2.0 * np.linalg.norm(c)
            # beta covers every distinct setting (a period of 2*pi/freq); alpha
            # and alpha' need half of it: Op(t + pi/freq) = -Op(t) swaps f
            # and g up to sign, leaving max|f| + max|g| unchanged
            beta = np.arange(0.0, 2.0 * np.pi / freq, DEG)
            alpha = beta[beta < np.pi / freq]
            e = correlation(psi, alpha[:, None], beta[None, :], kind)
            scanned = grid_max_abs_s(e)
            assert scanned <= bound + 1e-12
            assert abs(scanned - bound) <= 1e-3 * bound
