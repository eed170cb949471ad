"""GHZ states and the n-particle Mermin parameter.

F_n = (1/2i) [ prod_j (A_j + i A_j') - prod_j (A_j - i A_j') ]

with per-particle two-outcome operators in the transverse (x-y) plane,
A(a) = cos(a)*sigma_x + sin(a)*sigma_y.  On the GHZ state
(|+...+> + i|-...->)/sqrt(2) the shared settings (a, a') = (0, pi/2)
attain the quantum bound |<F_n>| = 2^(n-1); any single plane containing
the z axis caps the GHZ expectation at the classical value instead, which
is why the transverse plane is the right home for these operators.

For the n = 3 operator the exact identity

    F^2 = 4I - [A1,A1'][A2,A2'] - [A2,A2'][A3,A3'] - [A3,A3'][A1,A1']

holds with each commutator acting on its own tensor slot.
"""

from functools import reduce
from math import comb

import numpy as np

from .operators import (
    MeasurementOp,
    _Record,
    _party_ops,
    _require_finite,
    _scan_angles,
    _unbox,
    commutator,
    ket,
    tensor,
)


class GhzState(_Record):
    n: int
    ket: np.ndarray


def ghz(n: int) -> GhzState:
    """(|+...+> + i|-...->)/sqrt(2) on n qubits, 2 <= n <= 10."""
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= 10:
        raise ValueError(f"n must be an integer in [2, 10], got {n!r}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    amps[-1] = 1.0j
    return GhzState(n=int(n), ket=ket(amps))


class MerminSettings(_Record):
    """Per-particle angle pairs (a_j, a_j'), radians, transverse plane."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((float(a), float(ap)) for a, ap in self.pairs)
        if len(pairs) < 1:
            raise ValueError("need at least one angle pair")
        for a, ap in pairs:
            _require_finite("angle", a)
            _require_finite("angle", ap)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_shared(cls, n: int, a: float, a_prime: float) -> "MerminSettings":
        """The same (a, a') pair applied to all n particles."""
        return cls(pairs=((a, a_prime),) * n)

    @property
    def n(self) -> int:
        return len(self.pairs)


def transverse_spin_op(a: float) -> MeasurementOp:
    """cos(a)*sigma_x + sin(a)*sigma_y."""
    return MeasurementOp(_party_ops(a, "transverse"), label=f"At({a:g})")


def mermin_operator(settings: MerminSettings) -> np.ndarray:
    """The 2^n x 2^n Hermitian Mermin operator for the given settings."""
    ops = _party_ops(settings.pairs, "transverse")  # (n, 2, 2, 2): A_j, A_j'
    m_plus = reduce(tensor, ops[:, 0] + 1.0j * ops[:, 1])
    # (m_plus - m_plus^dagger) / 2i in one more buffer; a C-ordered out=
    # keeps the layout, and so the bits of m @ psi, of the plain formula
    f = np.conjugate(m_plus.T, out=np.empty_like(m_plus))
    return np.divide(np.subtract(m_plus, f, out=f), 2.0j, out=f)


def mermin_value(state: GhzState, settings: MerminSettings) -> float:
    """<F_n> on the given state; bounded by 2^(n-1) in magnitude."""
    if settings.n != state.n:
        raise ValueError(
            f"settings are for {settings.n} particles but the state has {state.n}"
        )
    # <F> = Im <psi|P|psi> with P = prod_j (A_j + i A_j'), each 2x2 factor
    # applied to its own axis of the ket: O(2^n) memory, no 2^n x 2^n matrix
    ops = _party_ops(settings.pairs, "transverse")
    phi = state.ket
    for j, factor in enumerate(ops[:, 0] + 1.0j * ops[:, 1]):
        phi = (factor @ phi.reshape(2**j, 2, -1)).ravel()
    return float(np.vdot(state.ket, phi).imag)


def mermin_square_residual(settings: MerminSettings) -> float:
    """Max-norm residual of the three-particle F^2 commutator identity."""
    if settings.n != 3:
        raise ValueError(f"the squared identity is for n = 3, got n = {settings.n}")
    f = mermin_operator(settings)
    ops = _party_ops(settings.pairs, "transverse")
    comms = commutator(ops[:, 0], ops[:, 1])
    eye = np.eye(2, dtype=complex)
    rhs = 4.0 * np.eye(8, dtype=complex)
    for pair in ((0, 1), (1, 2), (2, 0)):
        # the two commutators on their own slots, identity on the third
        rhs -= reduce(tensor, [comms[j] if j in pair else eye for j in range(3)])
    return float(np.max(np.abs(f @ f - rhs)))


def ghz_expectation_shared(n: int, a, a_prime):
    """<F_n> on ghz(n) for shared settings, by the closed corner formula.

    Follows from the corner matrix elements of prod_j (A_j + i A_j') on the
    GHZ state:

        <F_n> = sum over odd k of (-1)^((k-1)/2) * C(n, k)
                * sin(k*a' + (n-k)*a)

    Broadcasts over numpy arrays of angles.
    """
    a = np.asarray(a, dtype=float)
    ap = np.asarray(a_prime, dtype=float)
    total = np.zeros(np.broadcast(a, ap).shape)
    for k in range(1, n + 1, 2):
        sign = -1.0 if (k - 1) // 2 % 2 else 1.0
        total = total + sign * comb(n, k) * np.sin(k * ap + (n - k) * a)
    return _unbox(total)


def mermin_shared_scan(n: int, grid_step: float = np.pi / 180.0):
    """Maximize |<F_n>| on ghz(n) over a shared (a, a') grid.

    The grid is all multiples of grid_step in [0, 2*pi); ties within 1e-12
    of the maximum resolve to the lexicographically smallest (a, a').
    Returns (value, settings) with value signed at the maximizer.
    """
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= 10:
        raise ValueError(f"n must be an integer in [2, 10], got {n!r}")
    angles = _scan_angles(grid_step)
    vals = ghz_expectation_shared(n, angles[:, None], angles[None, :])
    best = float(np.abs(vals).max())
    tol = 1e-12 * max(1.0, best)
    # argwhere lists indices in row-major, i.e. lexicographic, order
    ia, iap = np.argwhere(np.abs(vals) >= best - tol)[0]
    settings = MerminSettings.from_shared(n, float(angles[ia]), float(angles[iap]))
    return float(vals[ia, iap]), settings
