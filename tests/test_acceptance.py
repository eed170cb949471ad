"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np

from bell_lab.chsh import (
    TSIRELSON,
    bell_operator,
    chsh_value,
    correlation,
    identity_residual,
    singlet,
    tsirelson_scan,
)
from bell_lab.dbb import TwoParticleWF, WavePacket, cross_coupling, integrate_spin
from bell_lab.fock import (
    coincidence_closed_form,
    coincidence_correlation,
    coincidence_probability,
    ou_mandel_state,
    product_state,
)
from bell_lab.lhv import chsh_deterministic_max, mermin_deterministic_max, sign_model, simulate_chsh_stats
from bell_lab.mermin import mermin_shared_scan, mermin_square_residual
from bell_lab.operators import hermitian_extremal_eigenvalue, ket
from clirun import invoke

DEG = np.pi / 180.0


def _line(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, text


def test_criterion_01_chsh_operator_identity():
    rng = np.random.default_rng(2026)
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ("spin_half", "photon"):
        for _ in range(1000):
            s = rng.uniform(0.0, 2.0 * np.pi, size=4)
            worst = max(worst, identity_residual(s, kind))
    elapsed = time.perf_counter() - t0
    _line(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"S^2 = 4I - [A,A'](x)[B,B'] residual {worst:.2e} over 1000 spin + 1000 "
        f"photon random settings in {elapsed:.2f} s (need < 1e-12 in < 1 s)",
    )


def test_criterion_02_tsirelson_value():
    # The four stated axes: 0/90 for one side, 45/135 for the other.  The
    # operator built on them has extremal eigenvalue 2*sqrt(2); the CHSH
    # combination that attains it on the singlet puts the minus sign on
    # the (alpha, beta') term — equivalently, the standard combination at
    # beta' = -45 degrees.  Both routes are checked, plus the 1-degree scan.
    literal = (0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4)
    eig = hermitian_extremal_eigenvalue(bell_operator(literal))
    psi = singlet()
    e = {
        (a, b): correlation(psi, a * DEG, b * DEG, kind="spin_half")
        for a in (0.0, 90.0)
        for b in (45.0, 135.0)
    }
    s_literal = e[(0.0, 45.0)] + e[(90.0, 45.0)] - e[(0.0, 135.0)] + e[(90.0, 135.0)]
    corrected = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
    s_corrected = chsh_value(psi, corrected)
    scan = abs(tsirelson_scan("spin_half", grid_step=DEG)[0])
    ok = (
        abs(eig - TSIRELSON) < 1e-12
        and abs(abs(s_literal) - TSIRELSON) < 1e-12
        and abs(abs(s_corrected) - TSIRELSON) < 1e-12
        and 2.826 <= scan <= TSIRELSON + 1e-9
    )
    _line(
        2,
        ok,
        f"Tsirelson value at (0,90,45,135): operator eigenvalue {eig:.15f}, "
        f"attaining CHSH combination |S| = {abs(s_literal):.15f} "
        f"(= standard signs at beta' = -45: {abs(s_corrected):.15f}), "
        f"1-degree scan max {scan:.6f} in [2.826, 2*sqrt(2)+1e-9]",
    )


def test_criterion_03_quantum_bound():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(10_000):
        kind = "spin_half" if rng.integers(2) else "photon"
        psi = ket(rng.normal(size=4) + 1j * rng.normal(size=4))
        s = rng.uniform(0.0, 2.0 * np.pi, size=4)
        worst = max(worst, abs(chsh_value(psi, s, kind)))
    worst_deg = 0.0
    for _ in range(1000):
        psi = ket(rng.normal(size=4) + 1j * rng.normal(size=4))
        a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
        worst_deg = max(worst_deg, abs(chsh_value(psi, (a, a, b, b))))
    ok = worst <= TSIRELSON + 1e-9 and worst_deg <= 2.0 + 1e-12
    _line(
        3,
        ok,
        f"|S| <= 2*sqrt(2) over 10^4 random states+settings (worst {worst:.12f}); "
        f"degenerate settings |S| <= 2 (worst {worst_deg:.12f})",
    )


def test_criterion_04_lhv_bounds():
    det_chsh = chsh_deterministic_max()
    det_mermin = mermin_deterministic_max(3)
    canonical = (0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
    estimate, stderr = simulate_chsh_stats(sign_model(), canonical, samples=1_000_000, seed=20260819)
    within = abs(abs(estimate) - 2.0) <= 5.0 * stderr
    ok = det_chsh == 2 and det_mermin == 2 and within
    _line(
        4,
        ok,
        f"deterministic CHSH max {det_chsh} (exact), Mermin n=3 max {det_mermin} "
        f"(exact); sign-model MC at the canonical axes: |S| = {abs(estimate)} "
        f"+- {stderr} over 10^6 samples (within 5 stderr of 2.0)",
    )


def test_criterion_05_mermin_quantum_values():
    v3, _ = mermin_shared_scan(3, grid_step=DEG)
    v4, _ = mermin_shared_scan(4, grid_step=DEG)
    rng = np.random.default_rng(2028)
    worst = 0.0
    for _ in range(1000):
        pairs = tuple(
            (float(a), float(ap)) for a, ap in rng.uniform(0.0, 2.0 * np.pi, size=(3, 2))
        )
        worst = max(worst, mermin_square_residual(pairs))
    ok = abs(abs(v3) - 4.0) < 1e-6 and abs(abs(v4) - 8.0) < 1e-6 and worst < 1e-12
    _line(
        5,
        ok,
        f"scanned |<F_3>| = {abs(v3):.9f} (need 4 +- 1e-6), |<F_4>| = {abs(v4):.9f} "
        f"(need 8 +- 1e-6); F_3^2 identity residual {worst:.2e} on 10^3 settings",
    )


def test_criterion_06_ou_mandel():
    rng = np.random.default_rng(2029)
    thetas = np.linspace(0.0, np.pi, 37)
    worst_p = 0.0
    for _ in range(10):
        tx, ty = rng.uniform(0.05, 0.95, size=2).tolist()
        st = ou_mandel_state(tx, ty)
        for t1 in thetas:
            for t2 in thetas:
                p = coincidence_probability(st, float(t1), float(t2))
                q = coincidence_closed_form(tx, ty, float(t1), float(t2))
                worst_p = max(worst_p, abs(p - q))
    eq = ou_mandel_state(0.5, 0.5)
    worst_e = 0.0
    for t1 in np.linspace(0.0, np.pi, 19):
        for t2 in np.linspace(0.0, np.pi, 19):
            e = coincidence_correlation(eq, float(t1), float(t2))
            worst_e = max(worst_e, abs(e - np.cos(2.0 * (t1 + t2))))
    # S from counting-rate correlations at the stated 0/45/22.5/67.5 axes,
    # using the CHSH combination that is extremal there (minus sign on the
    # (0, 22.5) term); with standard signs the equivalent tuple replaces
    # 22.5 by -22.5.
    ec = {
        (a, b): coincidence_correlation(eq, a * DEG, b * DEG)
        for a in (0.0, 45.0)
        for b in (22.5, 67.5)
    }
    s_literal = -ec[(0.0, 22.5)] + ec[(45.0, 22.5)] + ec[(0.0, 67.5)] + ec[(45.0, 67.5)]
    s_std = (
        coincidence_correlation(eq, 0.0, -22.5 * DEG)
        + coincidence_correlation(eq, 45.0 * DEG, -22.5 * DEG)
        + coincidence_correlation(eq, 0.0, 22.5 * DEG)
        - coincidence_correlation(eq, 45.0 * DEG, 22.5 * DEG)
    )
    ok = (
        worst_p < 1e-12
        and worst_e < 1e-12
        and abs(abs(s_literal) - TSIRELSON) < 1e-12
        and abs(abs(s_std) - TSIRELSON) < 1e-12
    )
    _line(
        6,
        ok,
        f"coincidence closed form residual {worst_p:.2e} on 37x37 x 10 splitters; "
        f"equal-split E vs cos 2(t1+t2) residual {worst_e:.2e}; CHSH from "
        f"correlations at (0,45,22.5,67.5) |S| = {abs(s_literal):.15f} "
        f"(standard-sign equivalent {abs(s_std):.15f})",
    )


def test_criterion_07_factorization():
    rng = np.random.default_rng(2030)
    worst = 0.0
    for _ in range(100):
        tx, ty = rng.uniform(0.0, 1.0, size=2).tolist()
        delta = np.max(np.abs(ou_mandel_state(tx, ty) - product_state(tx, ty)))
        worst = max(worst, float(delta))
    _line(
        7,
        worst < 1e-12,
        f"ou_mandel_state == product_state entrywise, worst residual {worst:.2e} "
        f"over 100 random beam splitters (need < 1e-12)",
    )


def test_criterion_08_dbb_locality_dichotomy():
    rng = np.random.default_rng(2031)
    worst_product = 0.0
    for _ in range(5):
        wp1 = WavePacket(
            center=float(rng.uniform(-2.0, 0.0)),
            width=float(rng.uniform(0.5, 1.5)),
            wavenumber=float(rng.uniform(-1.0, 1.0)),
        )
        wp2 = WavePacket(
            center=float(rng.uniform(0.0, 2.0)),
            width=float(rng.uniform(0.5, 1.5)),
            wavenumber=float(rng.uniform(-1.0, 1.0)),
        )
        wf = TwoParticleWF(wp1, wp2, form="product")
        t = float(rng.uniform(0.1, 1.5))
        for x1 in np.linspace(-2.5, 2.5, 21):
            for x2 in np.linspace(-2.5, 2.5, 21):
                g = abs(cross_coupling(wf, float(x1), float(x2), t))
                worst_product = max(worst_product, g)
    packet_a = WavePacket(center=-1.5, width=0.8, wavenumber=0.6)
    packet_b = WavePacket(center=1.5, width=1.1, wavenumber=-0.4)
    golden_anti = 0.274334872102655
    golden_sym = 0.852541359356584
    g_anti = abs(cross_coupling(
        TwoParticleWF(packet_a, packet_b, form="antisymmetric"), 0.1, 0.35, 0.8
    ))
    g_sym = abs(cross_coupling(
        TwoParticleWF(packet_a, packet_b, form="symmetric"), 0.1, 0.35, 0.8
    ))
    ok = (
        worst_product < 1e-8
        and g_anti >= 0.99 * golden_anti
        and g_sym >= 0.99 * golden_sym
    )
    _line(
        8,
        ok,
        f"product |dv1/dx2| worst {worst_product:.2e} over 5 x 21x21 grids "
        f"(need < 1e-8); pinned-point coupling antisymmetric {g_anti:.12f} "
        f"(golden {golden_anti}), symmetric {g_sym:.12f} (golden {golden_sym}), "
        f"both >= 0.99 x golden",
    )


def test_criterion_09_spin_precession():
    b = (0.0, 0.0, 1.0)
    s0 = (0.6, 0.0, 0.8)
    tr = integrate_spin(s0, b, t1=20.0, dt=0.002)  # 10^4 steps
    norms = np.linalg.norm(tr.spins, axis=1)
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    along_b = tr.spins[:, 2]
    b_drift = float(np.max(np.abs(along_b - 0.8)))
    phase = np.unwrap(np.arctan2(-tr.spins[:, 1], tr.spins[:, 0]))
    omega = (phase[-1] - phase[0]) / (tr.times[-1] - tr.times[0])
    rel = abs(omega - 1.0)
    ok = norm_drift < 1e-9 and b_drift < 1e-9 and rel < 1e-6
    _line(
        9,
        ok,
        f"|s| drift {norm_drift:.2e}, s.B-hat drift {b_drift:.2e} over 10^4 RK4 "
        f"steps (need < 1e-9); precession frequency {omega:.9f} vs gyro*|B| = 1 "
        f"(relative error {rel:.2e}, need < 1e-6)",
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    commands = [
        ["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"],
        ["chsh", "scan", "--step", "45"],
        ["identity", "--kind", "photon", "--trials", "200", "--seed", "7"],
        ["lhv", "--model", "sign", "--samples", "2000", "--seed", "5",
         "--angles", "0,45,22.5,67.5"],
        ["mermin", "--n", "3"],
        ["oumandel", "--tx", "0.7", "--ty", "0.4", "--theta1", "30", "--theta2", "60"],
        ["dbb", "--form", "antisymmetric", "--trajectory", "--t1", "0.5", "--dt", "0.05"],
        ["spin", "--steps", "100"],
    ]
    identical = 0
    for i, args in enumerate(commands):
        paths = [tmp_path / f"c{i}_{run}.csv" for run in (1, 2)]
        for p in paths:
            result = invoke(args + ["--out", str(p)])
            assert result.exit_code == 0, (args, result.stderr or result.output)
        if paths[0].read_bytes() == paths[1].read_bytes():
            identical += 1
    ok = identical == len(commands)
    _line(
        10,
        ok,
        f"{identical}/{len(commands)} CLI command families byte-identical on "
        f"re-run with the same flags and seed",
    )
