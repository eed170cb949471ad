"""Dense complex operator algebra for two-outcome quantum measurements.

Conventions used throughout the package:

* states (kets) are 1-D ``complex128`` numpy arrays, operators are square
  2-D arrays; scalars are python complex numbers; angles are floats in
  radians,
* the qubit basis is ``|+> = (1, 0)``, ``|-> = (0, 1)``,
* ``tensor`` is the Kronecker product, so a composite basis index is
  ``i_a * dim_b + i_b`` (left factor = first particle); it broadcasts over
  leading axes, so stacks of operators multiply pairwise,
* measurement operators come from one stack builder, ``_party_ops(angles,
  kind)``, as ``(..., 2, 2)`` arrays: ``spin_half`` axes in the z-y plane,
  ``cos(a)*sigma_z + sin(a)*sigma_y``; ``photon`` analyzers ``2*P(t) - 1``,
  which is ``cos(2t)*sigma_z + sin(2t)*sigma_x``; and the Mermin operators,
  kind ``transverse``, ``cos(a)*sigma_x + sin(a)*sigma_y``,
* ``MeasurementOp`` wraps a caller's own matrix, checked Hermitian and
  involutory on construction,
* a public function checks each input once, for private cores that trust it.

The spin and photon kinds are unitarily equivalent at doubled angles:
``R @ photon(t) @ R.conj().T == spin_half(2t)`` for ``R = diag(1, i)``.
"""

import numpy as np

from ._common import _Record, _require_finite

# construction-time invariant checks; derived-quantity tests use 1e-10
ATOL = 1e-12

# measurement conventions of _party_ops: spin axes or photon analyzers
KINDS = ("spin_half", "photon")

_SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_EYE2 = np.eye(2)


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def ket(amplitudes) -> np.ndarray:
    """Normalizing ket constructor: complex vector scaled to unit norm, at any finite scale."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    _require_finite("ket amplitudes", v.view(np.float64))
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not 2.0**-500 <= n < np.inf:  # overflowed, or its squares lost bits to underflow
        big = np.abs(v.view(np.float64)).max(initial=0.0)
        if big == 0.0:
            raise ValueError("cannot normalize the zero vector")
        v = (v.view(np.float64) / big).view(complex)  # real division: each part in [-1, 1]
        n = np.linalg.norm(v)
    return _frozen(v / n)


class MeasurementOp(_Record):
    """Hermitian involutory operator (spectrum in {-1, +1}).

    Construction validates both properties to 1e-12, so any instance is a
    legal two-outcome measurement by the time you can touch it.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"measurement operator must be square, got shape {m.shape}")
        _require_finite("measurement operator", m.view(np.float64))
        label = self.label or m
        if np.abs(m - m.conj().T).max() >= ATOL:
            raise ValueError(f"not Hermitian to {ATOL}: {label}")
        if np.abs(m @ m - np.eye(m.shape[0])).max() >= ATOL:
            raise ValueError(f"not involutory to {ATOL}: {label}")
        object.__setattr__(self, "matrix", _frozen(m))


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, MeasurementOp):
        return a.matrix
    return np.asarray(a, dtype=complex)


def _party_ops(angles, kind: str) -> np.ndarray:
    """(..., 2, 2) stack of measurement matrices, one per angle.

    kind is one of KINDS, or "transverse" for the Mermin operators
    cos(a)*sigma_x + sin(a)*sigma_y.  A scalar angle gives one 2x2 matrix.
    The caller has checked the kind and the angles, finite floats; every
    finite angle gives a Hermitian, involutory matrix.
    """
    c, s = np.cos(angles), np.sin(angles)
    if kind == "photon":
        # 2*P(theta) - 1 with P the projector onto e = (cos theta, sin theta)
        e = np.stack([c, s], axis=-1).astype(complex)
        return 2.0 * (e[..., :, None] * e[..., None, :]) - _EYE2
    axis = _SIGMA["x"] if kind == "transverse" else _SIGMA["z"]  # else spin_half
    return c[..., None, None] * axis + s[..., None, None] * _SIGMA["y"]


def _unbox(x):
    """A Python scalar for a 0-d result, else the array unchanged."""
    return x.item() if np.ndim(x) == 0 else x


def _scan_angles(grid_step: float) -> np.ndarray:
    """All multiples of grid_step in [0, 2*pi); requires 0 < grid_step <= pi/4."""
    _require_finite("grid_step", grid_step)
    grid_step = float(grid_step)
    if not (0.0 < grid_step <= np.pi / 4.0):
        raise ValueError(f"grid_step must be in (0, pi/4], got {grid_step!r}")
    return np.arange(0.0, 2.0 * np.pi, grid_step)


def tensor(a, b) -> np.ndarray:
    """Kronecker product; composite index convention i_a*dim_b + i_b.

    Broadcasts over leading axes: stacks of shape (..., m, n) and
    (..., p, q) give (..., m*p, n*q).  On 2-D inputs it is bitwise equal
    to np.kron, which multiplies the same pairs with the same ufunc.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"tensor needs matrices or stacks of them, got shapes {a.shape} and {b.shape}")
    return _kron(a, b)


def _kron(a, b) -> np.ndarray:  # tensor of arrays of 2 or more dimensions, unchecked
    out = np.multiply(a[..., :, None, :, None], b[..., None, :, None, :])
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def commutator(a, b) -> np.ndarray:
    """ab - ba for equal-dimension square matrices, or stacks of them."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"commutator needs square matrices, got shape {a.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in commutator: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def expectation(psi, m) -> complex | np.ndarray:
    """<psi|M|psi> for a finite ket; real to 1e-12 when M is Hermitian.

    For a stack of operators (..., d, d) it returns an array with one
    value per operator, each bitwise equal to np.vdot(psi, M @ psi).
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    _require_finite("ket amplitudes", psi.view(np.float64))
    m = _as_matrix(m)
    if m.ndim < 2 or m.shape[-2:] != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: ket dim {psi.size}, operator shape {m.shape}")
    return _unbox(np.vecdot(psi, m @ psi))


def hermitian_extremal_eigenvalue(m) -> float:
    """max |eigenvalue| of a finite Hermitian matrix (checked to 1e-10)."""
    a = _as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {a.shape}")
    _require_finite("matrix", a)
    if np.max(np.abs(a - a.conj().T)) >= 1e-10:
        raise ValueError("matrix is not Hermitian to 1e-10")
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))
