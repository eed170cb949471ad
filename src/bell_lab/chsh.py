"""CHSH/Bell parameter: operator identity, singlet values, angle scans.

The Bell combination used everywhere in this module is

    S = E(alpha, beta) + E(alpha', beta) + E(alpha, beta') - E(alpha', beta')

(the minus sign on the doubly-primed term), whose squared operator obeys
S^2 = 4*I - [A, A'] (x) [B, B'] identically.  On the singlet the spin
correlation is E(a, b) = -cos(a - b); S reaches +-2*sqrt(2) at e.g.
(0, pi/2, pi/4, -pi/4) for spin settings and (0, pi/4, -pi/8, pi/8) for
photon settings.
"""

import numpy as np

from .operators import (
    KINDS,
    MeasurementOp,
    _Record,
    _party_ops,
    _require_finite,
    _scan_angles,
    _unbox,
    commutator,
    expectation,
    ket,
    pauli,
    photon_op,
    spin_op,
    tensor,
)

TSIRELSON = 2.0 * np.sqrt(2.0)


class ChshSettings(_Record):
    """Four analyzer angles (radians) plus the measurement convention.

    The four angle fields may be numpy arrays of one common shape; the
    settings are then a batch, and bell_operator, identity_residual and
    chsh_value broadcast over it, returning one result per element.
    Finiteness, shape and kind are checked once for the whole batch.
    """

    alpha: float | np.ndarray
    alpha_prime: float | np.ndarray
    beta: float | np.ndarray
    beta_prime: float | np.ndarray
    kind: str = "spin_half"

    def __post_init__(self):
        shapes = {np.shape(angle) for angle in self.angles}
        if len(shapes) > 1:
            raise ValueError(f"angle fields must share one shape, got {sorted(shapes)}")
        _require_finite("settings angles", np.asarray(self.angles, dtype=float))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")

    @property
    def angles(self):
        return (self.alpha, self.alpha_prime, self.beta, self.beta_prime)


class BellValue(_Record):
    """A Bell parameter S together with the settings that produced it.

    ``s`` is a float, or an array shaped like a batch of settings.
    """

    s: float | np.ndarray
    settings: ChshSettings


def party_op(angle: float, kind: str) -> MeasurementOp:
    """Single-party measurement operator for the given convention."""
    if kind == "spin_half":
        return spin_op(angle)
    if kind == "photon":
        return photon_op(angle)
    raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def singlet() -> np.ndarray:
    """(|+-> - |-+>)/sqrt(2); spin correlation -cos(a - b)."""
    return ket([0.0, 1.0, -1.0, 0.0])


def photon_pair_state() -> np.ndarray:
    """(|xx> - |yy>)/sqrt(2); photon correlation +cos 2(t1 + t2).

    This is the polarization-entangled analog of the singlet for the
    doubled-angle analyzer convention: its photon_op correlations
    coincide with the coincidence-normalized correlation of the
    equal-split two-photon state in the Fock module.
    """
    return ket([1.0, 0.0, 0.0, -1.0])


def _check_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != 4:
        raise ValueError(f"need a two-qubit ket (dim 4), got dim {psi.size}")
    if abs(np.linalg.norm(psi) - 1.0) >= 1e-10:
        raise ValueError("state is not normalized to 1e-10")
    return psi


def _terms(ops) -> np.ndarray:
    """A(x)B, A'(x)B, A(x)B', A'(x)B' from ops = (A, A', B, B') stacked on axis 0."""
    return tensor(ops[[0, 1, 0, 1]], ops[[2, 2, 3, 3]])


def _combine(terms):
    # the CHSH signs: minus on the doubly-primed term
    return terms[0] + terms[1] + terms[2] - terms[3]


def correlation(psi, a, b, kind: str = "spin_half") -> float | np.ndarray:
    """E(a, b) = <psi| Op(a) (x) Op(b) |psi>; a and b broadcast."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    psi = _check_state(psi)
    return expectation(psi, tensor(_party_ops(a, kind), _party_ops(b, kind))).real


def bell_operator(settings: ChshSettings) -> np.ndarray:
    """A(x)B + A'(x)B + A(x)B' - A'(x)B' as a 4x4 Hermitian matrix, or a stack."""
    return _combine(_terms(_party_ops(settings.angles, settings.kind)))


def identity_residual(settings: ChshSettings) -> float | np.ndarray:
    """Max-norm of S^2 - (4I - [A,A'] (x) [B,B']); exactly zero in theory."""
    ops = _party_ops(settings.angles, settings.kind)
    a, ap, b, bp = ops
    s = _combine(_terms(ops))
    rhs = 4.0 * np.eye(4) - tensor(commutator(a, ap), commutator(b, bp))
    return _unbox(np.max(np.abs(s @ s - rhs), axis=(-2, -1)))


def chsh_value(psi, settings: ChshSettings) -> BellValue:
    """S as the sum of four correlations; equals <psi|bell_operator|psi>."""
    psi = _check_state(psi)
    correlations = expectation(psi, _terms(_party_ops(settings.angles, settings.kind))).real
    return BellValue(s=_unbox(_combine(correlations)), settings=settings)


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
            c[i, j] = expectation(psi, tensor(pauli(pa), pauli(pb))).real
    return c, freq


def tsirelson_scan(kind: str = "spin_half", grid_step: float = np.pi / 180.0) -> BellValue:
    """Exhaustive |S| maximization over a 4-angle grid of spacing grid_step.

    The grid is all multiples of grid_step in [0, 2*pi); requires
    0 < grid_step <= pi/4.  The scan maximizes |chsh_value| on the singlet
    (spin) or the photon pair state (photon).  Values within 1e-12 of the
    maximum are treated as ties and resolved toward the lexicographically
    smallest (alpha, alpha_prime, beta, beta_prime) tuple, so the result
    is independent of evaluation order.
    """
    angles = _scan_angles(grid_step)
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")

    psi = singlet() if kind == "spin_half" else photon_pair_state()
    c, freq = _correlation_matrix(psi, kind)

    n = angles.size
    u = np.vstack([np.cos(freq * angles), np.sin(freq * angles)])
    e = u.T @ c @ u  # e[i, j] == correlation(psi, angles[i], angles[j], kind)

    # For fixed (alpha, alpha'), S(beta, beta') = f(beta) + g(beta') with
    # f = E(alpha, .) + E(alpha', .) and g = E(alpha, .) - E(alpha', .),
    # so the inner maximization separates.
    s_hi = np.empty((n, n))  # largest S per (alpha, alpha')
    s_lo = np.empty((n, n))  # smallest S per (alpha, alpha')
    for ia in range(n):
        f = e[ia][None, :] + e  # rows: alpha' index, cols: beta
        g = e[ia][None, :] - e
        s_hi[ia] = f.max(axis=1) + g.max(axis=1)
        s_lo[ia] = f.min(axis=1) + g.min(axis=1)

    best = max(float(s_hi.max()), float(-s_lo.min()))
    tol = 1e-12 * max(1.0, best)

    # argwhere lists ties lexicographically, so only the first of each sign can
    # win; its beta and beta' are found again by argmax (first = smallest)
    candidates = []
    for sign, s_ext in ((1.0, s_hi), (-1.0, s_lo)):
        for ia, iap in np.argwhere(sign * s_ext >= best - tol)[:1]:
            f, g = e[ia] + e[iap], e[ia] - e[iap]
            candidates.append((ia, iap, np.argmax(sign * f), np.argmax(sign * g)))
    ia, iap, ib, ibp = min(candidates)

    settings = ChshSettings(
        alpha=float(angles[ia]),
        alpha_prime=float(angles[iap]),
        beta=float(angles[ib]),
        beta_prime=float(angles[ibp]),
        kind=kind,
    )
    s = e[ia, ib] + e[iap, ib] + e[ia, ibp] - e[iap, ibp]
    return BellValue(s=float(s), settings=settings)
