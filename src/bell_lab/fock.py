"""Truncated four-mode bosonic Fock space for two-photon coincidences.

Modes are (detector, polarization) pairs in the canonical order
(1,x), (1,y), (2,x), (2,y); occupation states are 4-tuples with total
photon number <= 2, listed lexicographically (15 states).

The beam-splitter state

    |Psi> = sqrt(Tx*Ty)|x1 y2> + sqrt(Rx*Ry)|x2 y1>
            - i*sqrt(Ry*Tx)|x1 y1> + i*sqrt(Rx*Ty)|x2 y2>

factorizes exactly into one x-photon and one y-photon creation factor
(see product_state) and yields coincidence probability

    P(t1, t2) = (sqrt(Tx*Ty) cos t1 sin t2 + sqrt(Rx*Ry) sin t1 cos t2)^2.
"""

from functools import lru_cache
from itertools import product as _iproduct

import numpy as np

from .errors import UndefinedCorrelationError
from ._common import _Record, _require_finite
from .operators import _unbox, dagger

MODE_ORDER = ((1, "x"), (1, "y"), (2, "x"), (2, "y"))


class ModeIndex(_Record):
    detector: int
    polarization: str

    def __post_init__(self):
        if (self.detector, self.polarization) not in MODE_ORDER:
            raise ValueError(
                f"mode must be one of {MODE_ORDER}, got "
                f"({self.detector!r}, {self.polarization!r})"
            )

    @property
    def slot(self) -> int:
        return MODE_ORDER.index((self.detector, self.polarization))


class FockBasis(_Record):
    """Ordered occupation-number basis over the four detection modes."""

    n_max_total: int
    states: tuple

    def index(self, occ) -> int:
        return self.states.index(tuple(occ))


def standard_basis(n_max_total: int = 2) -> FockBasis:
    """All occupation 4-tuples with total <= n_max_total, lexicographic."""
    if n_max_total < 0:
        raise ValueError("n_max_total must be >= 0")
    states = tuple(
        occ
        for occ in _iproduct(range(n_max_total + 1), repeat=4)
        if sum(occ) <= n_max_total
    )
    return FockBasis(n_max_total=n_max_total, states=states)


class FockState(_Record):
    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amps.size != len(self.basis.states):
            raise ValueError(
                f"amplitude count {amps.size} != basis size {len(self.basis.states)}"
            )
        _require_finite("amplitudes", amps.view(np.float64))
        if abs(np.linalg.norm(amps) - 1.0) >= 1e-12:
            raise ValueError("Fock state must be normalized to 1e-12")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, occ) -> complex:
        return complex(self.amplitudes[self.basis.index(occ)])


class BeamSplitterSpec(_Record):
    """Per-polarization transmission/reflection probabilities, T + R = 1."""

    t_x: float
    r_x: float
    t_y: float
    r_y: float

    def __post_init__(self):
        for name in ("t_x", "r_x", "t_y", "r_y"):
            v = getattr(self, name)
            _require_finite(name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        if abs(self.t_x + self.r_x - 1.0) >= 1e-12 or abs(self.t_y + self.r_y - 1.0) >= 1e-12:
            raise ValueError("need t_x + r_x = 1 and t_y + r_y = 1 (within 1e-12)")

    @classmethod
    def equal_split(cls) -> "BeamSplitterSpec":
        return cls(0.5, 0.5, 0.5, 0.5)

    @classmethod
    def from_transmissions(cls, t_x: float, t_y: float) -> "BeamSplitterSpec":
        return cls(t_x, 1.0 - t_x, t_y, 1.0 - t_y)


def annihilation(mode: ModeIndex, basis: FockBasis) -> np.ndarray:
    """Ladder matrix with elements sqrt(n) lowering the given mode."""
    size = len(basis.states)
    index = {occ: i for i, occ in enumerate(basis.states)}
    a = np.zeros((size, size), dtype=complex)
    slot = mode.slot
    for i, occ in enumerate(basis.states):
        n = occ[slot]
        if n == 0:
            continue
        lowered = list(occ)
        lowered[slot] = n - 1
        a[index[tuple(lowered)], i] = np.sqrt(n)
    return a


def creation(mode: ModeIndex, basis: FockBasis) -> np.ndarray:
    return dagger(annihilation(mode, basis))


def vacuum(basis: FockBasis) -> np.ndarray:
    v = np.zeros(len(basis.states), dtype=complex)
    v[basis.index((0, 0, 0, 0))] = 1.0
    return v


def ou_mandel_state(bs: BeamSplitterSpec, basis: FockBasis = None) -> FockState:
    """The four-term two-photon state behind the beam splitter."""
    basis = basis or standard_basis()
    amps = np.zeros(len(basis.states), dtype=complex)
    amps[basis.index((1, 0, 0, 1))] = np.sqrt(bs.t_x * bs.t_y)  # |x1 y2>
    amps[basis.index((0, 1, 1, 0))] = np.sqrt(bs.r_x * bs.r_y)  # |x2 y1>
    amps[basis.index((1, 1, 0, 0))] = -1.0j * np.sqrt(bs.r_y * bs.t_x)  # |x1 y1>
    amps[basis.index((0, 0, 1, 1))] = 1.0j * np.sqrt(bs.r_x * bs.t_y)  # |x2 y2>
    return FockState(basis=basis, amplitudes=amps)


def product_state(bs: BeamSplitterSpec, basis: FockBasis = None) -> FockState:
    """[sqrt(Tx) a+(1,x) + i sqrt(Rx) a+(2,x)] [sqrt(Ty) a+(2,y) - i sqrt(Ry) a+(1,y)] |0>.

    Expands, term by term, to the same amplitudes as ou_mandel_state — the
    four-term state is a product of one x-photon factor and one y-photon
    factor, so it generates local trajectories despite its appearance.
    """
    basis = basis or standard_basis()
    op_x = np.sqrt(bs.t_x) * creation(ModeIndex(1, "x"), basis) + 1.0j * np.sqrt(
        bs.r_x
    ) * creation(ModeIndex(2, "x"), basis)
    op_y = np.sqrt(bs.t_y) * creation(ModeIndex(2, "y"), basis) - 1.0j * np.sqrt(
        bs.r_y
    ) * creation(ModeIndex(1, "y"), basis)
    return FockState(basis=basis, amplitudes=op_x @ (op_y @ vacuum(basis)))


@lru_cache(maxsize=8)
def _ladders(basis: FockBasis) -> np.ndarray:
    """The four annihilation matrices in MODE_ORDER, built once per basis (read-only).

    Bounded to the 8 most recently used bases: a stack has 4 n^2 entries.
    """
    stack = np.stack([annihilation(ModeIndex(det, pol), basis) for det, pol in MODE_ORDER])
    stack.setflags(write=False)
    return stack


def detector_amplitude_op(detector: int, theta, basis: FockBasis = None) -> np.ndarray:
    """cos(theta)*a(det, x) + sin(theta)*a(det, y): the analyzed field at a detector.

    Broadcasts over theta: the result has shape ``np.shape(theta) + (n, n)``.
    """
    basis = basis or standard_basis()
    slot = ModeIndex(detector, "x").slot
    _require_finite("theta", theta)
    a_x, a_y = _ladders(basis)[slot:slot + 2]
    theta = np.asarray(theta)[..., None, None]
    return np.cos(theta) * a_x + np.sin(theta) * a_y


def coincidence_probability(state: FockState, theta1, theta2):
    """||D2(theta2) D1(theta1) |Psi>||^2 (normal-ordered expectation, K = 1).

    Broadcasts over (theta1, theta2); scalar angles give a float.
    """
    d1 = detector_amplitude_op(1, theta1, state.basis)
    d2 = detector_amplitude_op(2, theta2, state.basis)
    out = (d2 @ (d1 @ state.amplitudes)[..., None])[..., 0]
    return _unbox(np.real(np.vecdot(out, out)))


def coincidence_closed_form(bs: BeamSplitterSpec, theta1, theta2):
    """(sqrt(Tx*Ty) cos t1 sin t2 + sqrt(Rx*Ry) sin t1 cos t2)^2, broadcasting."""
    amp = np.sqrt(bs.t_x * bs.t_y) * np.cos(theta1) * np.sin(theta2) + np.sqrt(
        bs.r_x * bs.r_y
    ) * np.sin(theta1) * np.cos(theta2)
    return _unbox(amp * amp)


def coincidence_correlation(state: FockState, theta1, theta2):
    """Coincidence-normalized correlation of analyzer outcomes.

    Outcome labeling: at detector 1 the transmitted port (theta1) counts
    as +1; at detector 2 the reflected port (theta2 + pi/2) counts as +1.
    The pairs here are anticorrelated in the x/y basis (the equal-angle
    coincidence rate vanishes), so this is the labeling under which equal
    settings give E = +1:

        E = [P(t1, t2+) + P(t1+, t2) - P(t1, t2) - P(t1+, t2+)] / sum

    with + denoting the orthogonal port and the sum over all four.  For
    the equal-split state E = cos 2(theta1 + theta2).  Broadcasts like
    coincidence_probability; one undefined point rejects the whole call.
    A subnormal total, which has lost its relative precision, is undefined too.
    """
    t1p = theta1 + np.pi / 2.0
    t2p = theta2 + np.pi / 2.0
    p_ss = coincidence_probability(state, theta1, theta2)
    p_sp = coincidence_probability(state, theta1, t2p)
    p_ps = coincidence_probability(state, t1p, theta2)
    p_pp = coincidence_probability(state, t1p, t2p)
    total = p_ss + p_sp + p_ps + p_pp
    if np.any(total < np.finfo(float).tiny):
        raise UndefinedCorrelationError(
            "the four coincidence probabilities sum to zero or a subnormal; correlation undefined"
        )
    return (p_sp + p_ps - p_ss - p_pp) / total

