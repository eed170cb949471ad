"""The two-photon, four-mode bosonic Fock space behind the coincidences.

Modes are (detector, polarization) pairs in the canonical order
(1,x), (1,y), (2,x), (2,y).  The one basis, STATES, holds the
15 occupation 4-tuples with total photon number <= 2, listed
lexicographically; every state and ladder matrix here is written in it.
The four ladder matrices are one private table, built when the module loads.
A state is a complex128 array of 15 amplitudes, read by STATES.index; the
constructors return it read-only, and coincidence_probability checks it.

A beam splitter is its two transmission probabilities T_x and T_y, taken
as two floats in [0, 1]; it is lossless, so each reflection is R = 1 - T.
The beam-splitter state

    |Psi> = sqrt(Tx*Ty)|x1 y2> + sqrt(Rx*Ry)|x2 y1>
            - i*sqrt(Ry*Tx)|x1 y1> + i*sqrt(Rx*Ty)|x2 y2>

factorizes exactly into one x-photon and one y-photon creation factor
(see product_state) and yields coincidence probability

    P(t1, t2) = (sqrt(Tx*Ty) cos t1 sin t2 + sqrt(Rx*Ry) sin t1 cos t2)^2.
"""

from itertools import product as _iproduct

import numpy as np

from .errors import UndefinedCorrelationError
from ._common import _require_finite
from .operators import _frozen, _unbox

_MODE_ORDER = ((1, "x"), (1, "y"), (2, "x"), (2, "y"))

# the basis: every occupation 4-tuple with total <= 2, lexicographic
STATES = tuple(occ for occ in _iproduct(range(3), repeat=4) if sum(occ) <= 2)

# the four annihilation matrices in _MODE_ORDER, built once (read-only): slot k lowers occupation k by one
_LADDERS = np.zeros((len(_MODE_ORDER), len(STATES), len(STATES)), dtype=complex)
for _j, _occ in enumerate(STATES):
    for _k, _n in enumerate(_occ):
        if _n:
            _LADDERS[_k, STATES.index(_occ[:_k] + (_n - 1,) + _occ[_k + 1:]), _j] = np.sqrt(_n)
_LADDERS.setflags(write=False)


def _slot(detector: int) -> int:
    """The position of the detector's x mode in _MODE_ORDER; its y mode is the next."""
    if detector not in (1, 2):
        raise ValueError(f"detector must be 1 or 2, got {detector!r}")
    return _MODE_ORDER.index((detector, "x"))


def _check_state(state) -> np.ndarray:
    """The state's 15 amplitudes in STATES order, checked finite and normalized to 1e-12."""
    amps = np.asarray(state, dtype=complex).ravel()
    if amps.size != len(STATES):
        raise ValueError(f"amplitude count {amps.size} != basis size {len(STATES)}")
    _require_finite("amplitudes", amps.view(np.float64))
    if abs(np.linalg.norm(amps) - 1.0) >= 1e-12:
        raise ValueError("Fock state must be normalized to 1e-12")
    return amps


def _split(t_x, t_y):
    """(T_x, R_x, T_y, R_y) of the lossless splitter with transmissions t_x, t_y, each checked once."""
    for name, t in (("t_x", t_x), ("t_y", t_y)):
        _require_finite(name, t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {t!r}")
    return t_x, 1.0 - t_x, t_y, 1.0 - t_y


def ou_mandel_state(t_x: float, t_y: float) -> np.ndarray:
    """The four-term two-photon state behind the splitter that transmits t_x and t_y."""
    t_x, r_x, t_y, r_y = _split(t_x, t_y)
    amps = np.zeros(len(STATES), dtype=complex)
    amps[STATES.index((1, 0, 0, 1))] = np.sqrt(t_x * t_y)  # |x1 y2>
    amps[STATES.index((0, 1, 1, 0))] = np.sqrt(r_x * r_y)  # |x2 y1>
    amps[STATES.index((1, 1, 0, 0))] = -1.0j * np.sqrt(r_y * t_x)  # |x1 y1>
    amps[STATES.index((0, 0, 1, 1))] = 1.0j * np.sqrt(r_x * t_y)  # |x2 y2>
    return _frozen(amps)


def product_state(t_x: float, t_y: float) -> np.ndarray:
    """[sqrt(Tx) a+(1,x) + i sqrt(Rx) a+(2,x)] [sqrt(Ty) a+(2,y) - i sqrt(Ry) a+(1,y)] |0>.

    Expands, term by term, to the same amplitudes as ou_mandel_state — the
    four-term state is a product of one x-photon factor and one y-photon
    factor, so it generates local trajectories despite its appearance.
    """
    t_x, r_x, t_y, r_y = _split(t_x, t_y)
    x1, y1, x2, y2 = _LADDERS.conj().transpose(0, 2, 1)  # the creation matrices a+, in _MODE_ORDER
    op_x = np.sqrt(t_x) * x1 + 1.0j * np.sqrt(r_x) * x2
    op_y = np.sqrt(t_y) * y2 - 1.0j * np.sqrt(r_y) * y1
    return _frozen(op_x @ (op_y @ np.eye(len(STATES), dtype=complex)[0]))  # on the vacuum, STATES[0]


def detector_amplitude_op(detector: int, theta) -> np.ndarray:
    """cos(theta)*a(det, x) + sin(theta)*a(det, y): the analyzed field at a detector.

    Broadcasts over theta: the result has shape ``np.shape(theta) + (15, 15)``.
    """
    slot = _slot(detector)
    _require_finite("theta", theta)
    return _amplitude_op(slot, theta)


def _amplitude_op(slot: int, theta) -> np.ndarray:
    a_x, a_y = _LADDERS[slot:slot + 2]
    theta = np.asarray(theta)[..., None, None]
    return np.cos(theta) * a_x + np.sin(theta) * a_y


def _probability(amps: np.ndarray, theta1, theta2):  # coincidence_probability, unchecked
    out = (_amplitude_op(2, theta2) @ (_amplitude_op(0, theta1) @ amps)[..., None])[..., 0]
    return _unbox(np.real(np.vecdot(out, out)))


def coincidence_probability(state, theta1, theta2):
    """||D2(theta2) D1(theta1) |Psi>||^2 (normal-ordered expectation, K = 1).

    Broadcasts over (theta1, theta2), array-likes included; scalar angles give a float.
    """
    theta1, theta2 = (_require_finite("theta", theta) for theta in (theta1, theta2))
    return _probability(_check_state(state), theta1, theta2)


def coincidence_closed_form(t_x: float, t_y: float, theta1, theta2):
    """(sqrt(Tx*Ty) cos t1 sin t2 + sqrt(Rx*Ry) sin t1 cos t2)^2, broadcasting over the angles."""
    t_x, r_x, t_y, r_y = _split(t_x, t_y)
    theta1, theta2 = (_require_finite("theta", theta) for theta in (theta1, theta2))
    amp = np.sqrt(t_x * t_y) * np.cos(theta1) * np.sin(theta2) + np.sqrt(
        r_x * r_y
    ) * np.sin(theta1) * np.cos(theta2)
    return _unbox(amp * amp)


def coincidence_correlation(state, theta1, theta2):
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
    theta1, theta2 = (np.asarray(_require_finite("theta", theta)) for theta in (theta1, theta2))  # lists too
    amps = _check_state(state)
    t1p, t2p = theta1 + np.pi / 2.0, theta2 + np.pi / 2.0
    p_ss = _probability(amps, theta1, theta2)
    p_sp = _probability(amps, theta1, t2p)
    p_ps = _probability(amps, t1p, theta2)
    p_pp = _probability(amps, t1p, t2p)
    total = p_ss + p_sp + p_ps + p_pp
    if np.any(total < np.finfo(float).tiny):
        raise UndefinedCorrelationError(
            "the four coincidence probabilities sum to zero or a subnormal; correlation undefined"
        )
    return (p_sp + p_ps - p_ss - p_pp) / total

