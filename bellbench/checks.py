"""Output checks for bell-lab CSV, each by a route that avoids the program.

Every checker takes the exact stdout bytes of one command and raises
``CheckFailed`` when the output is malformed or a number disagrees with a
closed form or with an implementation written here from the formulas in
the package docstrings.  None of them imports ``bell_lab``: a check that
called the code it checks would pass whenever that code is consistently
wrong.
"""

import math

import numpy as np


class CheckFailed(Exception):
    """The command's output failed its correctness check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def parse_csv(stdout, header, text=None):
    """Split bell-lab CSV into (metadata line, float rows).

    The layout is fixed by the CLI: header row, one '#' metadata line, data
    rows, LF line ends.  ``text`` maps non-numeric columns to the value every
    row must hold there; those columns are dropped from the returned rows.
    """
    text_cells = {header.index(name): value for name, value in (text or {}).items()}
    try:
        decoded = stdout.decode("ascii")
    except UnicodeDecodeError as err:
        raise CheckFailed(f"output is not ASCII: {err}") from None
    _require(decoded.endswith("\n"), "output does not end in a line feed")
    lines = decoded[:-1].split("\n")
    _require(len(lines) >= 3, f"expected header, metadata and rows, got {len(lines)} lines")
    _require(lines[0] == ",".join(header), f"header {lines[0]!r} is not {','.join(header)!r}")
    _require(lines[1].startswith("# tool=bell-lab "), f"bad metadata line {lines[1]!r}")
    cells = [line.split(",") for line in lines[2:]]
    _require(all(len(row) == len(header) for row in cells), "ragged data rows")
    for j, value in text_cells.items():
        _require(all(row[j] == value for row in cells), f"column {header[j]} is not {value!r}")
    try:
        rows = np.array([[float(c) for j, c in enumerate(row) if j not in text_cells] for row in cells])
    except ValueError as err:
        raise CheckFailed(f"non-numeric cell: {err}") from None
    _require(bool(np.all(np.isfinite(rows))), "non-finite value in output")
    return lines[1], rows


def _close(name, got, want, atol, rtol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = np.abs(got - want) - rtol * np.abs(want)
    worst = float(err.max()) if err.size else 0.0
    _require(worst <= atol, f"{name}: off by {worst:.3e} beyond tolerance {atol:.1e}")


# --- operator algebra ------------------------------------------------------

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _party_ops(angles, kind):
    """Stack of 2x2 measurement operators, spin (z-y plane) or photon (doubled)."""
    a = np.asarray(angles, dtype=float)[..., None, None]
    if kind == "spin":
        return np.cos(a) * _SZ + np.sin(a) * _SY
    return np.cos(2.0 * a) * _SZ + np.sin(2.0 * a) * _SX


def _kron(x, y):
    n = x.shape[0]
    return np.einsum("nij,nkl->nikjl", x, y).reshape(n, 4, 4)


def check_identity(stdout, kind, trials, seed):
    """S^2 = 4I - [A,A'](x)[B,B'] on the same seeded angles, batched here."""
    meta, rows = parse_csv(stdout, ["trials", "max_residual"])
    _require(rows.shape[0] == 1 and rows[0, 0] == trials, "wrong trial count")
    _require("rng=pcg64" in meta, "metadata does not name the pcg64 generator")
    _require(0.0 <= rows[0, 1] < 1e-12, f"reported residual {rows[0, 1]:.3e} not below 1e-12")
    angles = np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 2.0 * np.pi, size=(trials, 4))
    a, ap, b, bp = (_party_ops(angles[:, j], kind) for j in range(4))
    s = _kron(a, b) + _kron(ap, b) + _kron(a, bp) - _kron(ap, bp)
    rhs = 4.0 * np.eye(4) - _kron(a @ ap - ap @ a, b @ bp - bp @ b)
    worst = float(np.abs(s @ s - rhs).max())
    _require(worst < 1e-12, f"independent identity residual {worst:.3e} not below 1e-12")


def _closed_form_correlation(a, b, kind):
    if kind == "spin":
        return -math.cos(a - b)  # singlet
    return math.cos(2.0 * (a + b))  # photon pair state


def _closed_form_s(degs, kind):
    al, alp, be, bep = np.deg2rad(degs)
    e = lambda x, y: _closed_form_correlation(x, y, kind)  # noqa: E731
    return e(al, be) + e(alp, be) + e(al, bep) - e(alp, bep)


def check_chsh(stdout, kind, degs):
    """S at one settings tuple against the closed-form correlations."""
    _, rows = parse_csv(
        stdout, ["alpha", "alpha_prime", "beta", "beta_prime", "kind", "s"], text={"kind": kind}
    )
    _require(rows.shape[0] == 1, "expected one row")
    _close("settings", rows[0, :4], degs, 0.0)
    _close("S", rows[0, 4], _closed_form_s(degs, kind), 1e-12)


def check_chsh_scan(stdout, kind, step):
    """s_max is 2*sqrt(2), and the closed-form S at the reported angles agrees."""
    _, rows = parse_csv(
        stdout, ["best_alpha", "best_alpha_prime", "best_beta", "best_beta_prime", "s_max"]
    )
    _require(rows.shape[0] == 1, "expected one row")
    degs, s_max = rows[0, :4], rows[0, 4]
    _close("s_max", s_max, 2.0 * math.sqrt(2.0), 1e-12)
    _close("grid alignment", degs / step, np.round(degs / step), 1e-9)
    _close("closed-form S at the maximizer", abs(_closed_form_s(degs, kind)), s_max, 1e-12)


def check_mermin(stdout, n):
    """GHZ value 2^(n-1) (plain or scanned) and deterministic maximum 2^floor(n/2)."""
    _, rows = parse_csv(stdout, ["n", "f_value_or_max", "deterministic_max"])
    _require(rows.shape[0] == 1 and rows[0, 0] == n, "wrong particle count")
    quantum = 2.0 ** (n - 1)
    _close("|<F_n>|", abs(rows[0, 1]), quantum, 1e-9 * quantum)
    _require(rows[0, 2] == 2 ** (n // 2), f"deterministic max {rows[0, 2]} is not {2 ** (n // 2)}")


def _sawtooth(a, b):
    d = abs(a - b) % (2.0 * math.pi)
    d = min(d, 2.0 * math.pi - d)
    return -1.0 + 2.0 * d / math.pi


def check_lhv_model(stdout, samples, angles_deg):
    """Monte Carlo S against the sign model's sawtooth closed form.

    Each hidden value contributes +-2, so the estimate is a count and the
    standard error follows from the estimate alone.
    """
    _, rows = parse_csv(stdout, ["s_estimate", "stderr"])
    _require(rows.shape[0] == 1, "expected one row")
    est, stderr = rows[0]
    al, alp, be, bep = np.deg2rad(angles_deg)
    exact = _sawtooth(al, be) + _sawtooth(alp, be) + _sawtooth(al, bep) - _sawtooth(alp, bep)
    _require(
        abs(est - exact) <= 5.0 * stderr + 1e-12,
        f"estimate {est:.6f} is {abs(est - exact) / max(stderr, 1e-300):.1f} stderr from {exact:.6f}",
    )
    plus = (est + 2.0) * samples / 4.0
    _close("count of +2 outcomes", plus, round(plus), 1e-3)
    want = math.sqrt(max(4.0 - est * est, 0.0) / (samples - 1))
    _close("stderr", stderr, want, 1e-15, rtol=1e-6)


def check_lhv_enumerate(stdout):
    """Any deterministic strategy gives CHSH +-2, so the maximum is 2."""
    _, rows = parse_csv(stdout, ["max_s"])
    _require(rows.shape == (1, 1) and rows[0, 0] == 2, f"max_s {rows.ravel()} is not 2")


# --- Fock coincidences -----------------------------------------------------


def _grid_thetas(rows, grid):
    _require(rows.shape[0] == grid * grid, f"expected {grid * grid} rows, got {rows.shape[0]}")
    thetas = np.linspace(0.0, 180.0, grid)
    _close("theta1 grid", rows[:, 0], np.repeat(thetas, grid), 1e-12)
    _close("theta2 grid", rows[:, 1], np.tile(thetas, grid), 1e-12)
    return np.deg2rad(rows[:, 0]), np.deg2rad(rows[:, 1])


def check_oumandel_correlation(stdout, grid):
    """Equal splitter: E = cos 2(theta1 + theta2)."""
    _, rows = parse_csv(stdout, ["theta1", "theta2", "e_value"])
    t1, t2 = _grid_thetas(rows, grid)
    _close("E", rows[:, 2], np.cos(2.0 * (t1 + t2)), 1e-12)


def check_oumandel_probability(stdout, grid, tx, ty):
    """P = (sqrt(Tx Ty) cos t1 sin t2 + sqrt(Rx Ry) sin t1 cos t2)^2."""
    _, rows = parse_csv(stdout, ["theta1", "theta2", "p_numeric", "p_closed_form", "abs_diff"])
    t1, t2 = _grid_thetas(rows, grid)
    rx, ry = 1.0 - tx, 1.0 - ty
    amp = math.sqrt(tx * ty) * np.cos(t1) * np.sin(t2) + math.sqrt(rx * ry) * np.sin(t1) * np.cos(t2)
    _close("p_numeric", rows[:, 2], amp * amp, 1e-12)
    _close("p_closed_form", rows[:, 3], amp * amp, 1e-12)
    _close("abs_diff column", rows[:, 4], np.abs(rows[:, 2] - rows[:, 3]), 1e-15)
    _require(bool(np.all(rows[:, 4] <= 1e-12)), f"abs_diff up to {rows[:, 4].max():.3e}")


# --- de Broglie-Bohm -------------------------------------------------------


class Packets:
    """The two free Gaussian packets of a dbb command, evaluated directly.

    psi(x, t) ~ (1 + i tau)^(-1/2) exp(-(x - xc)^2 / (4 s^2 (1 + i tau)) + i k x),
    with hbar = m = 1, start time 0, tau = t / (2 s^2) and xc = x0 + k t.
    Constant phases and norms cancel in every velocity, so they are dropped.
    """

    def __init__(self, center_a, width_a, k_a, center_b, width_b, k_b):
        self.a = (center_a, width_a, k_a)
        self.b = (center_b, width_b, k_b)

    @staticmethod
    def _psi_and_slope(packet, x, t):
        x0, s, k = packet
        a = 1.0 + 1.0j * t / (2.0 * s * s)
        xc = x0 + k * t
        psi = np.exp(-((x - xc) ** 2) / (4.0 * s * s * a) + 1.0j * k * x) / np.sqrt(a)
        return psi, -(x - xc) / (2.0 * s * s * a) + 1.0j * k

    def _terms(self, form, x1, x2, t):
        pa1, ga1 = self._psi_and_slope(self.a, x1, t)
        pb2, gb2 = self._psi_and_slope(self.b, x2, t)
        pa2, ga2 = self._psi_and_slope(self.a, x2, t)
        pb1, gb1 = self._psi_and_slope(self.b, x1, t)
        sign = {"product": 0.0, "symmetric": 1.0, "antisymmetric": -1.0}[form]
        # psi = direct + swapped; d(direct)/dx1 = direct * ga1, and so on
        return pa1 * pb2, sign * pa2 * pb1, ga1, gb1, ga2, gb2

    def velocity(self, form, x1, x2, t):
        """(v1, v2) = Im(grad psi / psi) for the product or (anti)symmetrized pair."""
        direct, swapped, ga1, gb1, ga2, gb2 = self._terms(form, x1, x2, t)
        psi = direct + swapped
        v1 = ((direct * ga1 + swapped * gb1) / psi).imag
        v2 = ((direct * gb2 + swapped * ga2) / psi).imag
        return v1, v2

    def cross_coupling(self, form, x1, x2, t):
        """|dv1/dx2|, differentiated analytically (the slopes are linear in x)."""
        direct, swapped, ga1, gb1, ga2, gb2 = self._terms(form, x1, x2, t)
        num = direct * ga1 + swapped * gb1
        den = direct + swapped
        d_num = direct * gb2 * ga1 + swapped * ga2 * gb1
        d_den = direct * gb2 + swapped * ga2
        return np.abs(((d_num * den - num * d_den) / (den * den)).imag)

    def free_path(self, packet, x_start, t):
        """Bohmian path of a single free packet: xc(t) + (x0 - c) sqrt(1 + tau^2)."""
        x0, s, k = self.a if packet == "a" else self.b
        return x0 + k * t + (x_start - x0) * np.sqrt(1.0 + (t / (2.0 * s * s)) ** 2)


def check_dbb_grid(stdout, packets, form, grid, time):
    """Velocities and cross-coupling against the direct evaluation; zero for product forms."""
    _, rows = parse_csv(stdout, ["x1", "x2", "v1", "v2", "cross_coupling"])
    _require(rows.shape[0] == grid * grid, f"expected {grid * grid} rows, got {rows.shape[0]}")
    v1, v2 = packets.velocity(form, rows[:, 0], rows[:, 1], time)
    _close("v1", rows[:, 2], v1, 1e-9, rtol=1e-9)
    _close("v2", rows[:, 3], v2, 1e-9, rtol=1e-9)
    cc = rows[:, 4]
    if form == "product":
        _require(bool(np.all(cc == 0.0)), f"product cross_coupling up to {cc.max():.3e}, not 0")
    else:
        # the program differentiates numerically (Richardson); next to the
        # antisymmetric node its error reaches ~5e-8, so agreement is to 1e-6
        _close("cross_coupling", cc, packets.cross_coupling(form, rows[:, 0], rows[:, 1], time),
               1e-6, rtol=1e-6)


def _rk4_replay(packets, form, times, x_start):
    """Classical RK4 on the directly evaluated field, on the output's own time steps."""
    def f(p, t):
        return np.array(packets.velocity(form, p[0], p[1], t))

    x = np.array(x_start, dtype=float)
    out = [x]
    for t, t_next in zip(times[:-1], times[1:]):
        h = t_next - t
        k1 = f(x, t)
        k2 = f(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = f(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = f(x + h * k3, t + h)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


def check_dbb_trajectory(stdout, packets, form, start, t1, dt):
    """Trajectory against the closed form (product), the node (antisymmetric), and a replay."""
    _, rows = parse_csv(stdout, ["t", "x1", "x2"])
    steps = math.ceil(t1 / dt - 1e-9)
    _require(rows.shape[0] == steps + 1, f"expected {steps + 1} rows, got {rows.shape[0]}")
    times = rows[:, 0]
    _close("first point", rows[0, 1:], start, 0.0)
    _close("end time", times[-1], t1, 1e-12 * max(1.0, t1))
    if form == "product":
        _close("x1 closed form", rows[:, 1], packets.free_path("a", start[0], times), 1e-9)
        _close("x2 closed form", rows[:, 2], packets.free_path("b", start[1], times), 1e-9)
    if form == "antisymmetric":
        gap = np.sign(rows[:, 1] - rows[:, 2])
        _require(bool(np.all(gap == gap[0]) and gap[0] != 0), "antisymmetric pair crossed x1 = x2")
    _close("RK4 replay", rows[:, 1:], _rk4_replay(packets, form, times, start), 1e-9)


def check_spin(stdout, s0, bz, gyro, steps, dt):
    """Exact rotation about z at rate gyro*bz, with |s| conserved to 1e-12."""
    _, rows = parse_csv(stdout, ["t", "sx", "sy", "sz", "norm_drift"])
    _require(rows.shape[0] == steps + 1, f"expected {steps + 1} rows, got {rows.shape[0]}")
    t = rows[:, 0]
    _close("time grid", t, np.arange(steps + 1) * dt, 1e-9)
    w = gyro * bz * t
    sx0, sy0, sz0 = s0
    _close("sx", rows[:, 1], sx0 * np.cos(w) + sy0 * np.sin(w), 1e-9)
    _close("sy", rows[:, 2], sy0 * np.cos(w) - sx0 * np.sin(w), 1e-9)
    _close("sz", rows[:, 3], np.full_like(t, sz0), 1e-9)
    _require(bool(np.all(rows[:, 4] <= 1e-12)), f"norm_drift up to {rows[:, 4].max():.3e}")
    drift = np.abs(np.linalg.norm(rows[:, 1:4], axis=1) - math.sqrt(sx0**2 + sy0**2 + sz0**2))
    _close("norm_drift column", rows[:, 4], drift, 1e-12)
