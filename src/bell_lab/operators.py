"""Dense complex operator algebra for two-outcome quantum measurements.

Conventions used throughout the package:

* states (kets) are 1-D ``complex128`` numpy arrays, operators are square
  2-D arrays; scalars are python complex numbers; angles are floats in
  radians,
* the qubit basis is ``|+> = (1, 0)``, ``|-> = (0, 1)``,
* ``tensor`` is the Kronecker product, so a composite basis index is
  ``i_a * dim_b + i_b`` (left factor = first particle); it broadcasts over
  leading axes, so stacks of operators multiply pairwise,
* spin measurement axes live in the z-y plane:
  ``spin_op(a) = cos(a)*sigma_z + sin(a)*sigma_y``,
* photon analyzer operators are ``photon_op(t) = 2*P(t) - 1`` with the
  doubled-angle closed form ``cos(2t)*sigma_z + sin(2t)*sigma_x``.

The two families are unitarily equivalent at doubled angles:
``R @ photon_op(t) @ R.conj().T == spin_op(2t)`` for ``R = diag(1, i)``.
"""

import numpy as np

# construction-time invariant checks; derived-quantity tests use 1e-10
ATOL = 1e-12

# measurement conventions: spin_op axes or photon_op analyzers
KINDS = ("spin_half", "photon")

_SIGMA = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
_EYE2 = np.eye(2)


def _require_finite(name, value):
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, got {value!r}")


def _frozen(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def ket(amplitudes) -> np.ndarray:
    """Normalizing ket constructor: complex vector scaled to unit norm."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    _require_finite("ket amplitudes", v.view(np.float64))
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return _frozen(v / n)


def _check_measurement(m, label):
    """Raise unless every (..., d, d) matrix in m is finite, Hermitian and
    involutory to ATOL; label names the operators in the message."""
    _require_finite("measurement operator", m.view(np.float64))
    if np.abs(m - np.swapaxes(m.conj(), -1, -2)).max() >= ATOL:
        raise ValueError(f"not Hermitian to {ATOL}: {label}")
    if np.abs(m @ m - np.eye(m.shape[-1])).max() >= ATOL:
        raise ValueError(f"not involutory to {ATOL}: {label}")


class _Record:
    """Frozen record base with the semantics of @dataclass(frozen=True), but no code generated per class.

    Fields are a subclass's annotations, in order after inherited ones; a class attribute of the
    same name is a field's default.  __post_init__ is looked up on the class at every construction.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values in order, bound from a call's arguments and the defaults."""
        name, fields, n = cls.__qualname__, cls._fields, len(args)
        if n > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {n} were given")
        for key in kwargs:
            if key not in fields[n:]:
                why = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {why} argument {key!r}")
        for key in fields[n:]:
            if key not in kwargs and not hasattr(cls, key):
                raise TypeError(f"{name}() missing required argument {key!r}")
        return args + tuple(kwargs[key] if key in kwargs else getattr(cls, key) for key in fields[n:])

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"


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
        _check_measurement(m, self.label or m)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, MeasurementOp):
        return a.matrix
    return np.asarray(a, dtype=complex)


def pauli(axis: str) -> MeasurementOp:
    """The Pauli matrix for axis 'x', 'y' or 'z' as a MeasurementOp."""
    if axis not in _SIGMA:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    return MeasurementOp(_SIGMA[axis], label=f"sigma_{axis}")


def spin_op(alpha: float) -> MeasurementOp:
    """Stern-Gerlach operator for a magnet at angle alpha in the z-y plane.

    cos(a)*sigma_z + sin(a)*sigma_y, so that
    [spin_op(a), spin_op(a')] = 2i*sin(a - a')*sigma_x.
    """
    return MeasurementOp(_party_ops(alpha, "spin_half"), label=f"A({alpha:g})")


def photon_projector(theta: float) -> np.ndarray:
    """Rank-1 projector onto linear polarization at analyzer angle theta."""
    _require_finite("theta", theta)
    c, s = np.cos(theta), np.sin(theta)
    e = np.array([c, s], dtype=complex)
    return _frozen(np.outer(e, e))


def photon_op(theta: float) -> MeasurementOp:
    """Analyzer measurement operator 2*P(theta) - 1 = cos(2t)*sigma_z + sin(2t)*sigma_x."""
    return MeasurementOp(_party_ops(theta, "photon"), label=f"Aph({theta:g})")


def _party_ops(angles, kind: str) -> np.ndarray:
    """(..., 2, 2) stack of measurement matrices, one per angle.

    kind is one of KINDS, or "transverse" for the Mermin operators
    cos(a)*sigma_x + sin(a)*sigma_y.  A scalar angle gives one 2x2 matrix.
    The whole stack is checked once to be Hermitian and involutory.
    """
    angles = np.asarray(angles, dtype=float)
    _require_finite("angles", angles)
    c, s = np.cos(angles), np.sin(angles)
    if kind == "spin_half":
        m = c[..., None, None] * _SIGMA["z"] + s[..., None, None] * _SIGMA["y"]
    elif kind == "transverse":
        m = c[..., None, None] * _SIGMA["x"] + s[..., None, None] * _SIGMA["y"]
    elif kind == "photon":
        # 2*P(theta) - 1 with P the projector of photon_projector
        e = np.stack([c, s], axis=-1).astype(complex)
        m = 2.0 * (e[..., :, None] * e[..., None, :]) - _EYE2
    else:
        raise ValueError(f"kind must be one of {KINDS} or 'transverse', got {kind!r}")
    _check_measurement(m, f"{kind} operators")
    return m


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


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def expectation(psi, m) -> complex | np.ndarray:
    """<psi|M|psi>; real to 1e-12 when M is Hermitian.

    For a stack of operators (..., d, d) it returns an array with one
    value per operator, each bitwise equal to np.vdot(psi, M @ psi).
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    m = _as_matrix(m)
    if m.ndim < 2 or m.shape[-2:] != (psi.size, psi.size):
        raise ValueError(f"dimension mismatch: ket dim {psi.size}, operator shape {m.shape}")
    return _unbox(np.vecdot(psi, m @ psi))


def hermitian_extremal_eigenvalue(m) -> float:
    """max |eigenvalue| of a finite Hermitian matrix (checked to 1e-10)."""
    a = _as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    _require_finite("matrix", a)
    if np.max(np.abs(a - a.conj().T)) >= 1e-10:
        raise ValueError("matrix is not Hermitian to 1e-10")
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))
