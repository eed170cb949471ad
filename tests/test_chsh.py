import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from bell_lab import chsh
from bell_lab.chsh import (
    KINDS,
    TSIRELSON,
    _correlation_matrix,
    _select,
    bell_operator,
    chsh_value,
    correlation,
    identity_residual,
    photon_pair_state,
    singlet,
    tsirelson_scan,
)
from bell_lab.operators import commutator, expectation, hermitian_extremal_eigenvalue, ket

DEG = np.pi / 180.0

CORRECTED_SPIN = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
LITERAL_SPIN = (0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4)
CORRECTED_PHOTON = (0.0, np.pi / 4, -np.pi / 8, np.pi / 8)
LITERAL_PHOTON = (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)


# every function that takes CHSH settings, as f(settings, kind)
TAKES_SETTINGS = {
    "bell_operator": bell_operator,
    "identity_residual": identity_residual,
    "chsh_value": lambda settings, kind="spin_half": chsh_value(singlet(), settings, kind),
}


# Per-call reference route, as the library computed one settings tuple
# before batching: one closed-form matrix per party, one np.kron per term and
# one np.vdot per correlation.  The batched functions must match it bit for bit.

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def ref_party_op(angle, kind):
    """cos(a)*sigma_z + sin(a)*sigma_y for spin, the analyzer 2*e e^T - I for photons."""
    if kind == "photon":
        e = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
        return 2.0 * np.outer(e, e) - np.eye(2)
    return np.cos(angle) * SIGMA_Z + np.sin(angle) * SIGMA_Y


def ref_correlation(psi, a, b, kind):
    m = np.kron(ref_party_op(a, kind), ref_party_op(b, kind))
    return complex(np.vdot(psi, m @ psi)).real


def reference(psi, settings, kind):
    """(identity residual, Bell operator, S) for one settings tuple."""
    a, ap, b, bp = (ref_party_op(float(x), kind) for x in settings)
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
                    s = chsh_value(psi, (a, ap, b, bp), kind)
                    if best is None or abs(s) > abs(best):
                        best = s
    return best


def half_loop_extremes(e):
    """The largest and smallest S per (alpha, alpha'), only alpha <= alpha' reduced.

    The scan's exhaustive route before it pruned pairs: for fixed (alpha,
    alpha'), S(beta, beta') = f(beta) + g(beta') with f = E(alpha, .) +
    E(alpha', .) and g = E(alpha, .) - E(alpha', .).  Swapping alpha and
    alpha' keeps f and negates g exactly, so the mirror entries are max f -
    min g and min f - max g, bitwise equal to reducing them.
    """
    n = e.shape[0]
    s_hi = np.empty((n, n))
    s_lo = np.empty((n, n))
    for ia in range(n):
        f = e[ia][None, :] + e[ia:]  # rows: alpha' index from ia, cols: beta
        g = e[ia][None, :] - e[ia:]
        fmax, fmin, gmax, gmin = f.max(axis=1), f.min(axis=1), g.max(axis=1), g.min(axis=1)
        s_hi[ia, ia:] = fmax + gmax
        s_lo[ia, ia:] = fmin + gmin
        # the diagonal (g == +0.0) keeps the row's sum: fmax - gmin could be -0.0
        s_hi[ia + 1:, ia] = (fmax - gmin)[1:]
        s_lo[ia + 1:, ia] = (fmin - gmax)[1:]
    return s_hi, s_lo


def full_loop_extremes(e):
    """The largest and smallest S per (alpha, alpha'), every row reduced in full."""
    n = e.shape[0]
    s_hi, s_lo = np.empty((n, n)), np.empty((n, n))
    for ia in range(n):
        f = e[ia][None, :] + e
        g = e[ia][None, :] - e
        s_hi[ia] = f.max(axis=1) + g.max(axis=1)
        s_lo[ia] = f.min(axis=1) + g.min(axis=1)
    return s_hi, s_lo


def correlation_table(kind, grid_step):
    """The scan's angle grid and its table e[i, j] = E(angles[i], angles[j])."""
    psi = singlet() if kind == "spin_half" else photon_pair_state()
    c, freq = _correlation_matrix(psi, kind)
    u = grid_directions(grid_step, freq)
    return np.arange(0.0, 2.0 * np.pi, grid_step), u.T @ c @ u


def grid_directions(step, freq):
    """The scan's angle grid as the unit vectors u of e = u.T @ c @ u."""
    angles = np.arange(0.0, 2.0 * np.pi, step)
    return np.vstack([np.cos(freq * angles), np.sin(freq * angles)])


def reference_select(e):
    """tsirelson_scan's pick (s, (ia, iap, ib, ibp)) as it was made with eight
    (n, n) arrays: the extrema and their argmax/argmin indices for every
    (alpha, alpha'), every pair reduced in full; a bitwise oracle."""
    n = e.shape[0]
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
    return float(e[ia, ib] + e[iap, ib] + e[ia, ibp] - e[iap, ibp]), (ia, iap, ib, ibp)


def reference_scan(kind, grid_step):
    """reference_select on the scan's table: (s, the four angles)."""
    angles, e = correlation_table(kind, grid_step)
    s, picked = reference_select(e)
    return s, tuple(float(angles[i]) for i in picked)


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

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_state_rejected(self, bad):
        # the norm check lets NaN through (abs(nan - 1) >= tol is False): s and E were nan
        for psi in (np.array([bad, 0, 0, 0]), np.where(np.arange(4) == 2, bad, singlet())):
            with pytest.raises(ValueError, match=r"^ket amplitudes must be finite, got array\(\["):
                correlation(psi, 0.0, 1.0)
            with pytest.raises(ValueError, match=r"^ket amplitudes must be finite, got array\(\["):
                chsh_value(psi, (0.0, 1.0, 0.5, -0.5))

    def test_bad_kind(self):
        # "transverse" is the Mermin operators' kind, not a CHSH convention
        for kind in ("qutrit", "transverse"):
            with pytest.raises(ValueError, match="kind"):
                correlation(singlet(), 0.0, 0.0, kind=kind)
            with pytest.raises(ValueError, match="kind"):
                chsh_value(singlet(), (0.0, 0.0, 0.0, 0.0), kind=kind)


class TestBellOperator:
    def test_hermitian_random_settings(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            kind = "spin_half" if rng.integers(2) else "photon"
            s = rng.uniform(0, 2 * np.pi, size=4)
            m = bell_operator(s, kind)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_degenerate_settings_extremal_two(self):
        s = (0.3, 0.3, 1.2, 1.2)
        assert abs(hermitian_extremal_eigenvalue(bell_operator(s)) - 2.0) < 1e-12

    def test_literal_spin_tuple_extremal_tsirelson(self):
        m = bell_operator(LITERAL_SPIN)
        assert abs(hermitian_extremal_eigenvalue(m) - TSIRELSON) < 1e-12

    def test_literal_photon_tuple_extremal_tsirelson(self):
        m = bell_operator(LITERAL_PHOTON, "photon")
        assert abs(hermitian_extremal_eigenvalue(m) - TSIRELSON) < 1e-12

    def test_chsh_value_matches_expectation_route(self):
        rng = np.random.default_rng(43)
        psi = singlet()
        for _ in range(100):
            s = rng.uniform(0, 2 * np.pi, size=4)
            direct = chsh_value(psi, s)
            via_op = expectation(psi, bell_operator(s)).real
            assert abs(direct - via_op) < 1e-12


class TestIdentityResidual:
    def test_thousand_random_settings_each_kind(self):
        rng = np.random.default_rng(47)
        for kind in ("spin_half", "photon"):
            worst = 0.0
            for _ in range(1000):
                s = rng.uniform(0, 2 * np.pi, size=4)
                worst = max(worst, identity_residual(s, kind))
            assert worst < 1e-12

    def test_degenerate_settings(self):
        assert identity_residual((0.0, 0.0, 0.0, 0.0)) < 1e-12


class TestChshValue:
    def test_corrected_spin_tuple_attains_tsirelson(self):
        v = chsh_value(singlet(), CORRECTED_SPIN)
        assert abs(abs(v) - TSIRELSON) < 1e-12

    def test_literal_spin_tuple_vanishes(self):
        # the same four angles combined with the standard S signs cancel
        assert abs(chsh_value(singlet(), LITERAL_SPIN)) < 1e-12

    def test_corrected_photon_tuple_attains_tsirelson(self):
        v = chsh_value(photon_pair_state(), CORRECTED_PHOTON, "photon")
        assert abs(abs(v) - TSIRELSON) < 1e-12

    def test_all_equal_settings(self):
        v = chsh_value(singlet(), (0.7, 0.7, 0.7, 0.7))
        assert abs(abs(v) - 2.0) < 1e-12

    def test_quantum_bound_random(self):
        rng = np.random.default_rng(53)
        psi_by_kind = {"spin_half": singlet(), "photon": photon_pair_state()}
        for _ in range(10_000):
            kind = "spin_half" if rng.integers(2) else "photon"
            s = rng.uniform(0, 2 * np.pi, size=4)
            assert abs(chsh_value(psi_by_kind[kind], s, kind)) <= TSIRELSON + 1e-12

    def test_degenerate_settings_capped_at_two(self):
        rng = np.random.default_rng(59)
        psi = singlet()
        for _ in range(200):
            a, b = rng.uniform(0, 2 * np.pi, size=2)
            assert abs(chsh_value(psi, (a, a, b, b))) <= 2.0 + 1e-12

    def test_photon_tracks_spin_at_doubled_angles(self):
        # photon ops at theta are unitarily the spin ops at 2*theta
        # (conjugation by diag(1, i) per party), so S must agree for any
        # state once the state is rotated the same way.
        rr = np.kron(np.diag([1.0, 1.0j]), np.diag([1.0, 1.0j]))
        rng = np.random.default_rng(61)
        for _ in range(200):
            t = rng.uniform(0, np.pi, size=4)
            psi = ket(rng.normal(size=4) + 1j * rng.normal(size=4))
            sp = chsh_value(ket(rr @ psi), 2 * t)
            ph = chsh_value(psi, t, "photon")
            assert abs(sp - ph) < 1e-12


class TestTsirelsonScan:
    def test_pi_over_4_step_attains_bound_spin(self):
        v, _ = tsirelson_scan("spin_half", grid_step=np.pi / 4)
        assert abs(abs(v) - TSIRELSON) < 1e-12

    def test_never_exceeds_bound(self):
        for kind in ("spin_half", "photon"):
            v, _ = tsirelson_scan(kind, grid_step=np.pi / 16)
            assert abs(v) <= TSIRELSON + 1e-9

    def test_monotone_refinement(self):
        prev = 0.0
        for step in (np.pi / 4, np.pi / 8, np.pi / 16):
            cur = abs(tsirelson_scan("photon", grid_step=step)[0])
            assert cur >= prev - 1e-12
            prev = cur
        assert prev > 2.8

    def test_matches_brute_force_at_coarse_step(self):
        # dual route: the vectorized scan against 4 nested python loops
        for kind in ("spin_half", "photon"):
            fast, _ = tsirelson_scan(kind, grid_step=np.pi / 4)
            slow = brute_scan(kind, np.pi / 4)
            assert abs(abs(fast) - abs(slow)) < 1e-12

    def test_scan_result_is_reproducible_by_chsh_value(self):
        psi = singlet()
        v, settings = tsirelson_scan("spin_half", grid_step=np.pi / 8)
        assert abs(chsh_value(psi, settings) - v) < 1e-12

    def test_one_degree_scan_spin(self):
        v, settings = tsirelson_scan("spin_half", grid_step=DEG)
        assert 2.826 <= abs(v) <= TSIRELSON + 1e-9
        got = tuple(round(np.rad2deg(x)) for x in settings)
        assert got == (0, 90, 45, 315)
        assert abs(v + TSIRELSON) < 1e-12  # signed value is -2*sqrt(2) here

    @pytest.mark.parametrize("kind", KINDS)
    def test_bitwise_equal_to_eight_array_reference(self, kind):
        for step in (45.0, 22.5, 15.0, 13.0, 10.0, 7.5, 5.0, 4.7, 3.0, 2.0, 1.5, 1.0, 0.75, 0.71):
            grid_step = np.deg2rad(step)
            v, settings = tsirelson_scan(kind, grid_step)
            want_s, want_angles = reference_scan(kind, grid_step)
            assert v == want_s
            assert settings.shape == (4,) and settings.dtype == np.float64
            assert settings.tolist() == list(want_angles)

    @pytest.mark.parametrize("kind", KINDS)
    def test_half_reduction_bitwise_equal_to_full_loop(self, kind):
        # the scan reduces alpha <= alpha' only and mirrors the rest
        for step in (45.0, 22.5, 7.5, 5.0, 2.0, 1.5, 1.0):
            _, e = correlation_table(kind, np.deg2rad(step))
            for got, want in zip(half_loop_extremes(e), full_loop_extremes(e)):
                assert got.tobytes() == want.tobytes()

    def test_half_reduction_needs_no_symmetry_in_e(self):
        rng = np.random.default_rng(15)
        for n in (1, 2, 3, 17, 64):
            e = rng.normal(size=(n, n))
            for got, want in zip(half_loop_extremes(e), full_loop_extremes(e)):
                assert got.tobytes() == want.tobytes()

    @hyp_settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(["zero", "rank one", "diagonal", "random"]),
        signs=st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0])),
        scale=st.sampled_from([1.0, 0.3, 0.1, 1e-2, 1e-3]),
        freq=st.sampled_from([1.0, 2.0]),
        step=st.sampled_from([45.0, 15.0, 7.5, 5.0, 4.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_pick_bitwise_equal_to_full_reduction(self, shape, signs, scale, freq, step, seed):
        # the pruned selection on a given correlation matrix against every pair reduced in full
        rng = np.random.default_rng(seed)
        if shape == "zero":
            c = np.zeros((2, 2))
        elif shape == "rank one":
            c = np.outer(rng.normal(size=2), rng.normal(size=2))
        elif shape == "diagonal":
            c = np.diag(signs)
        else:
            c = rng.uniform(-1.0, 1.0, size=(2, 2))
        u = grid_directions(np.deg2rad(step), freq)
        c = scale * c
        (s, picked), (want_s, want_picked) = _select(c, u), reference_select(u.T @ c @ u)
        assert np.float64(s).tobytes() == np.float64(want_s).tobytes() and picked == want_picked

    @pytest.mark.parametrize("kind", KINDS)
    def test_reduces_few_pairs_on_the_pair_states(self, kind, monkeypatch):
        # the bound leaves under 2% of the 240**2 (alpha, alpha') pairs of a 1.5 degree scan
        reduced = []
        real = chsh._pair_extremes
        monkeypatch.setattr(chsh, "_pair_extremes", lambda e, i, j: reduced.append(i.size) or real(e, i, j))
        tsirelson_scan(kind, np.deg2rad(1.5))
        assert sum(reduced) < 0.02 * 240**2

    def test_correlation_free_table_keeps_memory_quadratic(self):
        # c = 0 leaves every pair; they are reduced a block at a time, so the peak stays
        # a few (n, n) tables, where gathering all pairs at once would take n**3 / 2 floats
        u = grid_directions(np.deg2rad(1.5), 1.0)
        n = u.shape[1]
        tracemalloc.start()
        try:
            got = _select(np.zeros((2, 2)), u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == reference_select(np.zeros((n, n)))
        assert peak < 16 * n * n * 8

    def test_step_validation(self):
        for bad in (0.0, np.pi / 2, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="grid_step"):
                tsirelson_scan("spin_half", grid_step=bad)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            tsirelson_scan("qutrit", grid_step=np.pi / 4)


class TestSettingsAndParties:
    @pytest.mark.parametrize("name", TAKES_SETTINGS)
    def test_any_array_like_of_four_angles_is_one_setting(self, name):
        # a tuple, a list, an array and a strided view of one give the same bits
        f = TAKES_SETTINGS[name]
        row = np.array([[0.1, 9.0], [0.2, 9.0], [0.3, 9.0], [0.4, 9.0]])[:, 0]
        want = f(np.array([0.1, 0.2, 0.3, 0.4]))
        for settings in ((0.1, 0.2, 0.3, 0.4), [0.1, 0.2, 0.3, 0.4], row):
            assert np.asarray(f(settings)).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("name", TAKES_SETTINGS)
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_settings_rejects_a_last_axis_other_than_four(self, name, shape):
        with pytest.raises(ValueError, match=rf"^settings must have shape \(\.\.\., 4\), got {re.escape(str(shape))}$"):
            TAKES_SETTINGS[name](np.zeros(shape))

    def test_settings_rejects_nonfinite(self):
        batch = np.zeros((3, 4))
        batch[1, 2] = np.nan
        for f in TAKES_SETTINGS.values():
            for settings in ((np.inf, 0.0, 0.0, 0.0), (0.0, 0.0, np.nan, 0.0), batch):
                with pytest.raises(ValueError, match=r"^settings angles must be finite, got array\(\["):
                    f(settings)

    def test_settings_rejects_bad_kind(self):
        for f in TAKES_SETTINGS.values():
            for kind in ("other", "spin", "transverse"):
                with pytest.raises(ValueError, match=rf"^kind must be one of \('spin_half', 'photon'\), got '{kind}'$"):
                    f((0.0, 0.0, 0.0, 0.0), kind)

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
        residuals = identity_residual(angles, kind)
        operators = bell_operator(angles, kind)
        values = chsh_value(psi, angles, kind)
        assert residuals.shape == values.shape == (2000,)
        assert operators.shape == (2000, 4, 4)
        for i, row in enumerate(angles):
            residual, bell, s = reference(psi, row, kind)
            assert residuals[i] == residual and values[i] == s
            assert np.array_equal(operators[i], bell)
            # the row alone, one setting, gives the batch's bits
            assert identity_residual(row, kind) == residual and chsh_value(psi, row, kind) == s
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
        settings = [float(x) for x in angles] if shape == () else np.moveaxis(angles, 0, -1)  # a strided view
        residual = identity_residual(settings, kind)
        operator = bell_operator(settings, kind)
        value = chsh_value(psi, settings, kind)
        if shape == ():
            assert type(residual) is float and type(value) is float
        assert np.shape(residual) == np.shape(value) == shape
        assert operator.shape == shape + (4, 4)
        for i in np.ndindex(shape):
            one = [float(x) for x in angles[(slice(None),) + i]]
            want_residual, want_bell, want_s = reference(psi, one, kind)
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

    def test_last_axis_must_hold_four_angles(self):
        # a batch of three settings laid out along the first axis, not the last
        for f in TAKES_SETTINGS.values():
            with pytest.raises(ValueError, match=r"^settings must have shape \(\.\.\., 4\), got \(4, 3\)$"):
                f(np.zeros((4, 3)))


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
