"""GHZ states and the n-particle Mermin parameter.

A state is a ket, a 1-D complex128 array of size 2^n: ghz(n) returns one
read-only, and mermin_value checks the size and finiteness of its ket.
Settings are an (n, 2) array-like of angle pairs (a_j, a_j'), radians,
1 <= n <= 10; the shared pair (a, a') on n particles is [(a, a')] * n.
mermin_shared_scan returns (value, pairs), pairs an (n, 2) float array.

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

from ._common import _require_finite
from .operators import _frozen, _kron, _party_ops, _scan_angles, _unbox


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= 10:
        raise ValueError(f"n must be an integer in [2, 10], got {n!r}")


def ghz(n: int) -> np.ndarray:
    """(|+...+> + i|-...->)/sqrt(2) on n qubits, 2 <= n <= 10, as a read-only ket."""
    _check_n(n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    amps[-1] = 1.0j
    return _frozen(amps / np.sqrt(2.0))


def _pairs(pairs) -> np.ndarray:
    """Mermin settings as an (n, 2) float array of finite angle pairs, 1 <= n <= 10.

    The cap is checked before any 2^n-sized array is built.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.shape[:1] == (0,):
        raise ValueError("need at least one angle pair")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"angle pairs must have shape (n, 2), got shape {pairs.shape}")
    if len(pairs) > 10:
        raise ValueError(f"need at most 10 angle pairs, got {len(pairs)}")
    _require_finite("angle pairs", pairs)
    return pairs


def mermin_operator(pairs) -> np.ndarray:
    """The 2^n x 2^n Hermitian Mermin operator for n angle pairs (a_j, a_j')."""
    return _operator(_party_ops(_pairs(pairs), "transverse"))


def _operator(ops) -> np.ndarray:  # from the (n, 2, 2, 2) stack of A_j, A_j'
    m_plus = reduce(_kron, ops[:, 0] + 1.0j * ops[:, 1])
    # (m_plus - m_plus^dagger) / 2i in one more buffer; a C-ordered out=
    # keeps the layout, and so the bits of m @ psi, of the plain formula
    f = np.conjugate(m_plus.T, out=np.empty_like(m_plus))
    return np.divide(np.subtract(m_plus, f, out=f), 2.0j, out=f)


def mermin_value(psi, pairs) -> float:
    """<F_n> on a finite ket of size 2^n for n angle pairs; bounded by 2^(n-1) in magnitude for a unit ket."""
    pairs = _pairs(pairs)
    n = len(pairs)
    psi = phi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != 2**n:
        raise ValueError(f"need a ket of size {2**n} for {n} particles, got size {psi.size}")
    _require_finite("ket amplitudes", psi.view(np.float64))
    # <F> = Im <psi|P|psi> with P = prod_j (A_j + i A_j'), each 2x2 factor
    # applied to its own axis of the ket: O(2^n) memory, no 2^n x 2^n matrix
    ops = _party_ops(pairs, "transverse")
    for j, factor in enumerate(ops[:, 0] + 1.0j * ops[:, 1]):
        phi = (factor @ phi.reshape(2**j, 2, -1)).ravel()
    return float(np.vdot(psi, phi).imag)


def mermin_square_residual(pairs) -> float:
    """Max-norm residual of the three-particle F^2 commutator identity."""
    pairs = _pairs(pairs)
    if len(pairs) != 3:
        raise ValueError(f"the squared identity is for n = 3, got n = {len(pairs)}")
    ops = _party_ops(pairs, "transverse")
    f = _operator(ops)
    comms = ops[:, 0] @ ops[:, 1] - ops[:, 1] @ ops[:, 0]
    eye = np.eye(2, dtype=complex)
    rhs = 4.0 * np.eye(8, dtype=complex)
    for pair in ((0, 1), (1, 2), (2, 0)):
        # the two commutators on their own slots, identity on the third
        rhs -= reduce(_kron, [comms[j] if j in pair else eye for j in range(3)])
    return float(np.max(np.abs(f @ f - rhs)))


def ghz_expectation_shared(n: int, a, a_prime):
    """<F_n> on ghz(n) for shared settings, by the closed corner formula.

    Follows from the corner matrix elements of prod_j (A_j + i A_j') on the
    GHZ state:

        <F_n> = sum over odd k of (-1)^((k-1)/2) * C(n, k)
                * sin(k*a' + (n-k)*a)

    Broadcasts over numpy arrays of finite angles; 2 <= n <= 10.
    """
    _check_n(n)
    a, ap = (_require_finite("angles", np.asarray(x, dtype=float)) for x in (a, a_prime))
    return _unbox(_corner_sum(n, a, ap))


def _corner_sum(n, a, ap) -> np.ndarray:  # on float arrays of checked angles
    total = np.zeros(np.broadcast(a, ap).shape)
    for k in range(1, n + 1, 2):
        sign = -1.0 if (k - 1) // 2 % 2 else 1.0
        total = total + sign * comb(n, k) * np.sin(k * ap + (n - k) * a)
    return total


def mermin_shared_scan(n: int, grid_step: float = np.pi / 180.0):
    """Maximize |<F_n>| on ghz(n) over a shared (a, a') grid.

    The grid is all multiples of grid_step in [0, 2*pi); ties within 1e-12
    of the maximum resolve to the lexicographically smallest (a, a').
    Returns (value, pairs) with value signed at the maximizer and pairs
    the (n, 2) array of the maximizing (a, a'), one row per particle.
    """
    _check_n(n)
    angles = _scan_angles(grid_step)
    vals = _corner_sum(n, angles[:, None], angles[None, :])
    best = float(np.abs(vals).max())
    tol = 1e-12 * max(1.0, best)
    # argwhere lists indices in row-major, i.e. lexicographic, order
    ia, iap = np.argwhere(np.abs(vals) >= best - tol)[0]
    return float(vals[ia, iap]), np.full((n, 2), (angles[ia], angles[iap]))
