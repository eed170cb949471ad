"""CHSH/Bell parameter: operator identity, singlet values, angle scans.

The Bell combination used everywhere in this module is

    S = E(alpha, beta) + E(alpha', beta) + E(alpha, beta') - E(alpha', beta')

(the minus sign on the doubly-primed term), whose squared operator obeys
S^2 = 4*I - [A, A'] (x) [B, B'] identically.  On the singlet the spin
correlation is E(a, b) = -cos(a - b); S reaches +-2*sqrt(2) at e.g.
(0, pi/2, pi/4, -pi/4) for spin settings and (0, pi/4, -pi/8, pi/8) for
photon settings.

Settings are a float array-like of shape (..., 4), (alpha, alpha', beta,
beta') on the last axis and a batch on the leading ones, checked once per
call; kind is an argument.  Values are plain: chsh_value returns S as a
float, or an array shaped like the batch, and tsirelson_scan returns
(s, settings), the signed S at the grid maximizer and the (4,) angle array
that reaches it; it reduces only the (alpha, alpha') pairs that a bound
from the correlation matrix leaves.
"""

import numpy as np

from ._common import _chsh_angles, _require_finite
from .operators import _SIGMA, KINDS, _frozen, _kron, _party_ops, _scan_angles, _unbox

TSIRELSON = 2.0 * np.sqrt(2.0)


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


def singlet() -> np.ndarray:
    """(|+-> - |-+>)/sqrt(2); spin correlation -cos(a - b)."""
    return _frozen(np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0))


def photon_pair_state() -> np.ndarray:
    """(|xx> - |yy>)/sqrt(2); photon correlation +cos 2(t1 + t2).

    This is the polarization-entangled analog of the singlet for the
    doubled-angle analyzer convention: its photon-kind correlations
    coincide with the coincidence-normalized correlation of the
    equal-split two-photon state in the Fock module.
    """
    return _frozen(np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0))


def _check_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != 4:
        raise ValueError(f"need a two-qubit ket (dim 4), got dim {psi.size}")
    _require_finite("ket amplitudes", psi.view(np.float64))
    if abs(np.linalg.norm(psi) - 1.0) >= 1e-10:
        raise ValueError("state is not normalized to 1e-10")
    return psi


def _terms(ops) -> np.ndarray:
    """A(x)B, A'(x)B, A(x)B', A'(x)B' from ops = (A, A', B, B') stacked on axis 0."""
    return _kron(ops[[0, 1, 0, 1]], ops[[2, 2, 3, 3]])


def _combine(terms):
    # the CHSH signs: minus on the doubly-primed term
    return terms[0] + terms[1] + terms[2] - terms[3]


def correlation(psi, a, b, kind: str = "spin_half") -> float | np.ndarray:
    """E(a, b) = <psi| Op(a) (x) Op(b) |psi>; a and b broadcast."""
    _check_kind(kind)
    psi = _check_state(psi)
    a, b = (_require_finite("angles", np.asarray(x, dtype=float)) for x in (a, b))
    return _unbox(np.vecdot(psi, _kron(_party_ops(a, kind), _party_ops(b, kind)) @ psi).real)


def bell_operator(settings, kind: str = "spin_half") -> np.ndarray:
    """A(x)B + A'(x)B + A(x)B' - A'(x)B' as a 4x4 Hermitian matrix, or a stack."""
    return _combine(_terms(_party_ops(_chsh_angles(settings), _check_kind(kind))))


def identity_residual(settings, kind: str = "spin_half") -> float | np.ndarray:
    """Max-norm of S^2 - (4I - [A,A'] (x) [B,B']); exactly zero in theory."""
    ops = _party_ops(_chsh_angles(settings), _check_kind(kind))
    a, ap, b, bp = ops
    s = _combine(_terms(ops))
    rhs = 4.0 * np.eye(4) - _kron(a @ ap - ap @ a, b @ bp - bp @ b)
    return _unbox(np.max(np.abs(s @ s - rhs), axis=(-2, -1)))


def chsh_value(psi, settings, kind: str = "spin_half") -> float | np.ndarray:
    """S as the sum of four correlations, a float or one per batch element; equals <psi|bell_operator|psi>."""
    ops = _party_ops(_chsh_angles(settings), _check_kind(kind))
    psi = _check_state(psi)
    return _unbox(_combine(np.vecdot(psi, _terms(ops) @ psi).real))


# axis pairs whose span contains every measurement direction of each kind;
# E(a, b) = u(a) . C u(b) with u the direction cosines on those axes
_AXES = {
    "spin_half": (("z", "y"), 1.0),
    "photon": (("z", "x"), 2.0),
}


def _correlation_matrix(psi, kind):
    (ax0, ax1), freq = _AXES[kind]
    c = np.empty((2, 2))
    for i, pa in enumerate((ax0, ax1)):
        for j, pb in enumerate((ax0, ax1)):
            c[i, j] = np.vecdot(psi, _kron(_SIGMA[pa], _SIGMA[pb]) @ psi).real
    return c, freq


_BLOCK = 2**15  # table entries reduced at once: a block's arrays stay in cache


def _pair_extremes(e, i, j):
    """Per pair, max f, min f, max g and min g over beta for f = e[i] + e[j] and g = e[i] - e[j], in blocks."""
    out, rows = np.empty((4, i.size)), max(1, _BLOCK // e.shape[1])
    for k in range(0, i.size, rows):
        ei, ej = e[i[k:k + rows]], e[j[k:k + rows]]
        f, g = ei + ej, np.subtract(ei, ej, out=ei)  # f first: g overwrites ei
        # e is finite, so fmax and fmin are max and min without the NaN checks
        out[:, k:k + rows] = np.fmax.reduce(f, 1), np.fmin.reduce(f, 1), np.fmax.reduce(g, 1), np.fmin.reduce(g, 1)
    return out


def _select(c, u):
    """tsirelson_scan's pick (s, (ia, iap, ib, ibp)) from e = u.T @ c @ u, reducing only the pairs that can win.

    S = f(beta) + g(beta') with f, g = E(alpha, .) +- E(alpha', .) = (v_a +- v_a') . u_beta for v = u^T c, so
    |S| at (alpha, alpha'), in either order, is at most |v_a + v_a'| + |v_a - v_a'| times max |u_beta|, which
    G = v v^T gives in O(n^2).  A pair whose bound is below b0 - 1e-12 max(1, b0), b0 the exact |S| of the 8
    top-bound pairs, cannot tie the maximum and is skipped.  Rounding (eps = 2**-53): e, f, g and S add at most
    7 eps relative, the computed max |u_beta| hides 3 eps; |v_a +- v_a'|^2 = G_aa + G_a'a' +- 2 G_aa' comes within
    8 eps (G_aa + G_a'a'), so the roots within 8 sqrt(eps max G_aa) < 2**-23 sqrt(max G_aa); 1 + 2**-48 covers
    the relative terms and their own rounding.  A reduced pair gives its mirror: the swap keeps f, negates g.
    """
    v = u.T @ c
    e = v @ u  # the two products of u.T @ c @ u: e[i, j] == E(angles[i], angles[j])
    d = (v * v).sum(axis=1)
    sq, g2 = d[:, None] + d[None, :], 2.0 * (v @ v.T)
    bound = np.sqrt(np.maximum(sq + g2, 0.0)) + np.sqrt(np.maximum(sq - g2, 0.0)) + 2.0**-23 * np.sqrt(d.max())
    bound *= np.sqrt((u * u).sum(axis=0)).max() * (1.0 + 2.0**-48)
    fmax, fmin, gmax, gmin = _pair_extremes(e, *np.unravel_index(np.argpartition(bound, -8, None)[-8:], e.shape))
    b0 = max(float((fmax + gmax).max()), float(-(fmin + gmin).min()))
    ia, iap = np.nonzero(np.triu(bound >= b0 - 1e-12 * max(1.0, b0)))
    fmax, fmin, gmax, gmin = _pair_extremes(e, ia, iap)
    keys = np.ravel_multi_index((np.r_[ia, iap], np.r_[iap, ia]), e.shape)  # row-major: the pairs, then mirrors
    s_hi, s_lo = np.concatenate([fmax + gmax, fmax - gmin]), np.concatenate([fmin + gmin, fmin - gmax])
    best = max(float(s_hi.max()), float(-s_lo.min()))
    # only the row-major first tie of each sign can win; argmax finds its beta and beta' (first = smallest)
    candidates = []
    for sign, s_ext in ((1.0, s_hi), (-1.0, s_lo)):
        key = keys[sign * s_ext >= best - 1e-12 * max(1.0, best)].min(initial=e.size)
        if key < e.size:
            ia, iap = np.unravel_index(key, e.shape)
            f, g = e[ia] + e[iap], e[ia] - e[iap]
            candidates.append((ia, iap, np.argmax(sign * f), np.argmax(sign * g)))
    ia, iap, ib, ibp = min(candidates)
    return float(e[ia, ib] + e[iap, ib] + e[ia, ibp] - e[iap, ibp]), (ia, iap, ib, ibp)


def tsirelson_scan(kind: str = "spin_half", grid_step: float = np.pi / 180.0) -> tuple[float, np.ndarray]:
    """Exhaustive |S| maximization over a 4-angle grid of spacing grid_step.

    The grid is all multiples of grid_step in [0, 2*pi); requires
    0 < grid_step <= pi/4.  The scan maximizes |chsh_value| on the singlet
    (spin) or the photon pair state (photon).  Values within 1e-12 of the
    maximum are treated as ties and resolved toward the lexicographically
    smallest (alpha, alpha_prime, beta, beta_prime) tuple, so the result
    is independent of evaluation order.  Returns (s, settings) with s
    signed at the maximizer and settings the (4,) array of its angles.
    """
    angles = _scan_angles(grid_step)
    _check_kind(kind)
    c, freq = _correlation_matrix(singlet() if kind == "spin_half" else photon_pair_state(), kind)
    s, best = _select(c, np.vstack([np.cos(freq * angles), np.sin(freq * angles)]))
    return s, angles[list(best)]
