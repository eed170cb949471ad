"""De Broglie-Bohm guidance for free Gaussian packets, one and two particles.

Everything is built on the exactly-evolved free Gaussian

    psi(x, t) = (2 pi s^2)^(-1/4) (1 + i tau)^(-1/2)
                * exp( -(x - xc)^2 / (4 s^2 (1 + i tau))
                       + i k (x - x0) - i hbar k^2 (t - t0) / (2 m) )

with tau = hbar (t - t0) / (2 m s^2) and xc = x0 + hbar k (t - t0) / m,
evaluated in log form so that far tails and near-node points stay
well-conditioned.  The guidance velocity is the probability-current form
v = (hbar/m) * Im(grad psi / psi); for the symmetrized two-particle
wavefunctions this makes v1 depend on x2 (and vice versa), which
cross_coupling quantifies as |dv1/dx2|.  Densities below 1e-300 are
treated as nodes and refused rather than extrapolated.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NodeSingularityError
from .operators import _require_finite

FORMS = ("product", "symmetric", "antisymmetric")

_MAX_STEPS = 10**6  # RK4 steps one span may take

# densities below this are nodes for all practical purposes
_LOG_DENSITY_FLOOR = float(np.log(1e-300))


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    mass: float = 1.0
    gyro: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "gyro"):
            _require_finite(name, getattr(self, name))
        if self.hbar <= 0.0 or self.mass <= 0.0:
            raise ValueError("hbar and mass must be positive")


@dataclass(frozen=True)
class WavePacket:
    """Initial Gaussian packet.

    width is the initial position standard deviation (|psi|^2 is a
    Gaussian of std ``width`` at ``start_time``); wavenumber is the
    carrier k, so the group velocity is hbar*k/m.
    """

    center: float
    width: float
    wavenumber: float
    start_time: float = 0.0

    def __post_init__(self):
        for name in ("center", "width", "wavenumber", "start_time"):
            _require_finite(name, getattr(self, name))
        if self.width <= 0.0:
            raise ValueError(f"width must be positive, got {self.width!r}")


@dataclass(frozen=True)
class TwoParticleWF:
    """Product or (anti)symmetrized pair of packets; one dimension each."""

    packet_a: WavePacket
    packet_b: WavePacket
    form: str = "product"

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {self.form!r}")


def _check_time(wp: WavePacket, t: float):
    if t < wp.start_time:
        raise ValueError(f"t = {t!r} is before the packet's start_time {wp.start_time!r}")


def _terms(wp: WavePacket, c: PhysicalConstants, t: float):
    """(const, xc, quad, slope, ik, x0, phase), Python numbers all: the x-independent parts of

        log psi(x)   = const - (x - xc)^2 / quad + ik (x - x0) - phase,
        d log psi/dx = -(x - xc) / slope + ik.
    """
    tau = c.hbar * (t - wp.start_time) / (2.0 * c.mass * wp.width**2)
    a = 1.0 + 1.0j * tau
    xc = wp.center + c.hbar * wp.wavenumber * (t - wp.start_time) / c.mass
    return (
        complex(-0.25 * np.log(2.0 * np.pi * wp.width**2) - 0.5 * np.log(a)),
        xc,
        4.0 * wp.width**2 * a,
        2.0 * wp.width**2 * a,
        1.0j * wp.wavenumber,
        wp.center,
        0.5j * c.hbar * wp.wavenumber**2 * (t - wp.start_time) / c.mass,
    )


def _log_psi(terms, x):
    const, xc, quad, _, ik, x0, phase = terms
    return const - (x - xc) * (x - xc) / quad + ik * (x - x0) - phase


def _dlog_psi(terms, x):
    _, xc, _, slope, ik, _, _ = terms
    return -(x - xc) / slope + ik


def psi_eval(wp: WavePacket, c: PhysicalConstants, x, t: float):
    """Exact free evolution of the packet; broadcasts over x."""
    _require_finite("x", x)
    _require_finite("t", t)
    _check_time(wp, t)
    return np.exp(_log_psi(_terms(wp, c, t), x))


def velocity_1p(wp: WavePacket, c: PhysicalConstants, x: float, t: float) -> float:
    """Guidance velocity (hbar/m) Im(d log psi / dx) for one free packet."""
    _require_finite("x", x)
    _require_finite("t", t)
    _check_time(wp, t)
    return _velocity_1p(wp, c, x, t)


def _velocity_1p(wp: WavePacket, c: PhysicalConstants, x: float, t: float) -> float:
    terms = _terms(wp, c, t)
    if 2.0 * np.real(_log_psi(terms, x)) < _LOG_DENSITY_FLOOR:
        raise NodeSingularityError(f"density below 1e-300 at x={x!r}, t={t!r}")
    return float(c.hbar / c.mass * np.imag(_dlog_psi(terms, x)))


def packet_overlap(wp_a: WavePacket, wp_b: WavePacket, c: PhysicalConstants, t: float = None) -> complex:
    """<psi_a(t)|psi_b(t)> by the closed Gaussian integral.

    Free evolution makes this constant in t; the default evaluates at the
    later of the two start times.
    """
    if t is None:
        t = max(wp_a.start_time, wp_b.start_time)
    _require_finite("t", t)
    _check_time(wp_a, t)
    _check_time(wp_b, t)
    coeffs = []
    for wp in (wp_a, wp_b):
        # log psi = qa x^2 + qb x + qc
        const, xc, quad, slope, ik, x0, phase = _terms(wp, c, t)
        coeffs.append((-1.0 / quad, xc / slope + ik, const - xc**2 / quad - ik * x0 - phase))
    (a1, b1, c1), (a2, b2, c2) = coeffs
    p = np.conj(a1) + a2  # Re(p) < 0 always
    q = np.conj(b1) + b2
    r = np.conj(c1) + c2
    return complex(np.exp(r - q * q / (4.0 * p)) * np.sqrt(np.pi / -p))


def _norm_factor(wf: TwoParticleWF, c: PhysicalConstants) -> float:
    """1/sqrt(2 +- 2|<a|b>|^2) for the symmetrized forms, 1 for product.

    One packet_overlap; each public call and each trajectory takes it once.
    """
    if wf.form == "product":
        return 1.0
    o2 = abs(packet_overlap(wf.packet_a, wf.packet_b, c)) ** 2
    if wf.form == "symmetric":
        return 1.0 / np.sqrt(2.0 + 2.0 * o2)
    denom = 2.0 - 2.0 * o2
    if denom <= 1e-14:
        raise ValueError("antisymmetric combination of (near-)identical packets vanishes")
    return 1.0 / np.sqrt(denom)


def psi2_eval(wf: TwoParticleWF, c: PhysicalConstants, x1, x2, t: float):
    """Two-particle wavefunction value; broadcasts over (x1, x2)."""
    _check_point(wf, x1, x2, t)
    ta, tb = _terms(wf.packet_a, c, t), _terms(wf.packet_b, c, t)
    if wf.form == "product":
        return np.exp(_log_psi(ta, x1) + _log_psi(tb, x2))
    lm, w1, sw2 = _exchange_terms(wf.form, ta, tb, x1, x2)
    return _norm_factor(wf, c) * np.exp(lm) * (w1 + sw2)


def _exchange_terms(form: str, ta, tb, x1, x2):
    """(lm, w1, sw2) of a symmetrized pair, so that psi = nf exp(lm) (w1 + sw2).

    With l1 = log psi_a(x1) + log psi_b(x2) and l2 = log psi_a(x2) + log psi_b(x1):
    lm = max(Re l1, Re l2), w1 = exp(l1 - lm) and sw2 = +-exp(l2 - lm), the
    sign being the form's.
    """
    sign = 1.0 if form == "symmetric" else -1.0
    l1 = _log_psi(ta, x1) + _log_psi(tb, x2)
    l2 = _log_psi(ta, x2) + _log_psi(tb, x1)
    lm = np.maximum(l1.real, l2.real)
    return lm, np.exp(l1 - lm), sign * np.exp(l2 - lm)


def _cmul(a, b):
    """a * b for complex values, each real product rounded on its own.

    numpy may fuse a complex array multiply into FMA instructions on some
    SIMD targets; writing it out keeps array results bitwise equal to
    scalar ones on every CPU.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return (ar * br - ai * bi) + 1j * (ar * bi + ai * br)


def _refuse_nodes(node, x1, x2, t):
    """Raise NodeSingularityError naming the first node point in row-major order."""
    if node is not False and np.count_nonzero(node):  # a float point's False skips numpy
        i = np.flatnonzero(node)[0]
        p1, p2 = (float(np.broadcast_to(x, np.shape(node)).flat[i]) for x in (x1, x2))
        raise NodeSingularityError(f"density below 1e-300 at ({p1!r}, {p2!r}), t={float(t)!r}")


def _velocity(wf: TwoParticleWF, c: PhysicalConstants, x1, x2, t: float, nf: float, terms=None):
    """(v1, v2) at points (x1, x2) that broadcast; the caller validates them.

    nf is _norm_factor(wf, c) and terms the packets' _terms at t, if the
    caller has them.  For the product form v1 keeps x1's shape and v2 x2's.
    """
    hm = c.hbar / c.mass
    ta, tb = terms or (_terms(wf.packet_a, c, t), _terms(wf.packet_b, c, t))
    if wf.form == "product":
        la1, lb2 = _log_psi(ta, x1), _log_psi(tb, x2)
        _refuse_nodes((2.0 * la1.real < _LOG_DENSITY_FLOOR) | (2.0 * lb2.real < _LOG_DENSITY_FLOOR),
                      x1, x2, t)
        return hm * _dlog_psi(ta, x1).imag, hm * _dlog_psi(tb, x2).imag
    # refused as nodes below: den == 0, and a far tail, where (x - xc)^2
    # overflows, lm is -inf and log_rho NaN (beyond about 1e154 from the packets)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lm, w1, sw2 = _exchange_terms(wf.form, ta, tb, x1, x2)
        den = w1 + sw2
        log_rho = 2.0 * (lm + np.log(np.abs(den))) + 2.0 * np.log(nf)
    _refuse_nodes((den == 0.0) | ~(log_rho >= _LOG_DENSITY_FLOOR), x1, x2, t)
    v1 = (_cmul(w1, _dlog_psi(ta, x1)) + _cmul(sw2, _dlog_psi(tb, x1))) / den
    v2 = (_cmul(w1, _dlog_psi(tb, x2)) + _cmul(sw2, _dlog_psi(ta, x2))) / den
    return hm * v1.imag, hm * v2.imag


def _stage_velocity(wf: TwoParticleWF, c: PhysicalConstants, x1, x2, t, nf, terms):
    """_velocity of a symmetrized form at one point of Python floats, bitwise equal to it.

    Its operations in its order, on CPython floats but for np.exp and numpy's /den formula;
    a far tail (lm = -inf), or a node test near the floor, or at a tiny or non-finite den,
    falls back to _velocity.
    """
    hm, (ta, tb) = c.hbar / c.mass, terms
    l1 = _log_psi(ta, x1) + _log_psi(tb, x2)
    l2 = _log_psi(ta, x2) + _log_psi(tb, x1)
    lm = l1.real if l1.real > l2.real else l2.real  # np.maximum's choice on ties
    if not lm > -math.inf:  # exp(l1 - lm) would be NaN; _velocity refuses the point
        return tuple(float(v) for v in _velocity(wf, c, x1, x2, t, nf, terms))
    w1 = complex(np.exp(l1 - lm))
    sw2 = (1.0 if wf.form == "symmetric" else -1.0) * complex(np.exp(l2 - lm))
    den = w1 + sw2
    ad = abs(den)  # abs and math.log may be an ulp off np.abs and np.log
    log_rho = 2.0 * (lm + math.log(ad)) + 2.0 * math.log(nf) if ad > 1e-300 else math.nan
    if not abs(log_rho - _LOG_DENSITY_FLOOR) > 1e-6:
        return tuple(float(v) for v in _velocity(wf, c, x1, x2, t, nf, terms))
    if log_rho < _LOG_DENSITY_FLOOR:
        _refuse_nodes(True, x1, x2, t)
    n1 = _cmul(w1, _dlog_psi(ta, x1)) + _cmul(sw2, _dlog_psi(tb, x1))
    n2 = _cmul(w1, _dlog_psi(tb, x2)) + _cmul(sw2, _dlog_psi(ta, x2))
    if abs(den.real) >= abs(den.imag):  # Im(n / den) by numpy's formula, not CPython's
        rat = den.imag / den.real
        scl = 1.0 / (den.real + den.imag * rat)
        return hm * ((n1.imag - n1.real * rat) * scl), hm * ((n2.imag - n2.real * rat) * scl)
    rat = den.real / den.imag
    scl = 1.0 / (den.imag + den.real * rat)
    return hm * ((n1.imag * rat - n1.real) * scl), hm * ((n2.imag * rat - n2.real) * scl)


def _check_point(wf: TwoParticleWF, x1, x2, t: float):
    for name, v in (("x1", x1), ("x2", x2), ("t", t)):
        _require_finite(name, v)
    _check_time(wf.packet_a, t)
    _check_time(wf.packet_b, t)


def _as_result(value, shape):
    """A float for scalar points, else an array of the points' broadcast shape."""
    return float(value) if shape == () else np.broadcast_to(value, shape).copy()


def velocity_2p(wf: TwoParticleWF, c: PhysicalConstants, x1, x2, t: float):
    """(v1, v2) from per-coordinate j/rho on the two-particle wavefunction.

    Broadcasts over (x1, x2): scalar points give two floats, arrays two
    arrays of the broadcast shape.  A node at any point refuses the call.
    """
    _check_point(wf, x1, x2, t)
    v1, v2 = _velocity(wf, c, x1, x2, t, _norm_factor(wf, c))
    shape = np.broadcast(x1, x2).shape
    return _as_result(v1, shape), _as_result(v2, shape)


def cross_coupling(wf: TwoParticleWF, c: PhysicalConstants, x1, x2, t: float):
    """|dv1/dx2| by central differences with one Richardson refinement.

    Step h = 1e-5 * the smaller packet width; the Richardson combination
    (4 D(h/2) - D(h)) / 3 removes the leading O(h^2) error.  Broadcasts
    over (x1, x2) like velocity_2p.
    """
    _check_point(wf, x1, x2, t)
    nf = _norm_factor(wf, c)
    h = 1e-5 * min(wf.packet_a.width, wf.packet_b.width)

    def d(step):
        vp = _velocity(wf, c, x1, x2 + step, t, nf)[0]
        vm = _velocity(wf, c, x1, x2 - step, t, nf)[0]
        return (vp - vm) / (2.0 * step)

    return _as_result(np.abs((4.0 * d(h / 2.0) - d(h)) / 3.0), np.broadcast(x1, x2).shape)


@dataclass(frozen=True)
class Trajectory:
    """Times (strictly increasing) and positions, one row per step."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if times.ndim != 1 or positions.shape[0] != times.size:
            raise ValueError("times and positions must have matching leading length")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        positions.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)


def _check_span(t0: float, t1: float, dt: float):
    for name, v in (("t0", t0), ("t1", t1), ("dt", dt)):
        _require_finite(name, v)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got t0={t0!r}, t1={t1!r}")
    # a dt of at most half an ulp leaves t + dt == t somewhere in [t0, t1]
    t_max = max(abs(t0), abs(t1))
    if dt <= 0.5 * math.ulp(t_max):
        raise ValueError(f"dt={dt!r} cannot advance t={t_max!r} in float64")
    if (t1 - t0) / dt > _MAX_STEPS:  # every step is kept, so this bounds memory
        raise ValueError(f"(t1 - t0) / dt = {(t1 - t0) / dt:.6g} steps exceeds {_MAX_STEPS}")


def _stacked(times, states):  # one row per time; one-component states stack 1-D
    states = np.array(states)
    return np.array(times), states[:, 0] if states.shape[1] == 1 else states


def _rk4(f, y0: tuple, t0: float, t1: float, dt: float):
    """Classical RK4 for dy/dt = f(y, t); returns (times, states) as arrays.

    Steps of size dt, with one shorter final step to land on t1 exactly.
    States are tuples, each component stepped IEEE-identically to an array
    element.  A NodeSingularityError from f halts integration and is re-raised
    carrying the completed steps as a Trajectory in ``partial_trajectory``.
    """
    times, states = [t0], [y0]
    t, y = t0, y0
    # a remainder below eps is rounding in t, not a step; _MAX_STEPS steps
    # from t = 0 round off less than 1e-4 * dt, so a tiny dt keeps its tail
    eps = min(1e-12 * max(1.0, abs(t1)), 1e-3 * dt)
    try:
        while t < t1 - eps:
            step = min(dt, t1 - t)
            half, sixth = 0.5 * step, step / 6.0
            k1 = f(y, t)
            k2 = f(tuple(a + half * k for a, k in zip(y, k1)), t + half)
            k3 = f(tuple(a + half * k for a, k in zip(y, k2)), t + half)
            k4 = f(tuple(a + step * k for a, k in zip(y, k3)), t + step)
            y = tuple(a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4))
            t = t + step
            times.append(t)
            states.append(y)
    except NodeSingularityError as err:
        partial = Trajectory(*_stacked(times, states))
        raise NodeSingularityError(str(err), partial_trajectory=partial) from None
    return _stacked(times, states)


def integrate_trajectory(wf, c: PhysicalConstants, start, t0: float, t1: float, dt: float) -> Trajectory:
    """Classical RK4 integration of the guidance velocity field.

    ``wf`` is a WavePacket (scalar start) or TwoParticleWF (pair start).
    Steps of size dt, with one shorter final step to land on t1 exactly.
    Hitting a node halts integration: the raised NodeSingularityError
    carries the completed steps as ``partial_trajectory``.
    """
    _check_span(t0, t1, dt)
    # the stages call the private kernels on floats: times only grow from
    # the checked t0, and a stage position is refused if it is not finite
    if isinstance(wf, WavePacket):
        y = (float(start),)
        _check_time(wf, t0)

        def vel(y, t):
            if not math.isfinite(y[0]):
                _require_finite("x", y[0])
            return (_velocity_1p(wf, c, y[0], t),)
    elif isinstance(wf, TwoParticleWF):
        y = tuple(np.asarray(start, dtype=float).ravel().tolist())
        if len(y) != 2:
            raise ValueError("two-particle start must be a pair (x1, x2)")
        _check_point(wf, *y, t0)
        nf = _norm_factor(wf, c)
        # stages 2 and 3 share a time, and stage 4's is the next step's first
        terms = lru_cache(maxsize=2)(lambda t: (_terms(wf.packet_a, c, t), _terms(wf.packet_b, c, t)))
        kernel = _velocity if wf.form == "product" else _stage_velocity

        def vel(y, t):
            x1, x2 = y
            if not (math.isfinite(x1) and math.isfinite(x2)):
                _check_point(wf, x1, x2, t)
            return kernel(wf, c, x1, x2, t, nf, terms(t))
    else:
        raise ValueError(f"wf must be a WavePacket or TwoParticleWF, got {type(wf)!r}")
    return Trajectory(*_rk4(vel, y, t0, t1, dt))


@dataclass(frozen=True)
class SpinState:
    s: tuple

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        if len(s) != 3:
            raise ValueError("spin must be a 3-vector")
        _require_finite("s", np.array(s))
        if not np.linalg.norm(s) > 0.0:
            raise ValueError("spin vector must be nonzero")
        object.__setattr__(self, "s", s)


def _as_spin(s) -> tuple:
    return (s if isinstance(s, SpinState) else SpinState(np.asarray(s, dtype=float).ravel())).s


def _as_field(b_field) -> list:
    b = np.asarray(b_field, dtype=float).ravel()
    if b.size != 3:
        raise ValueError("b_field must be a 3-vector")
    _require_finite("b_field", b)
    return b.tolist()


def _cross(y, b) -> tuple:
    """np.cross of 3-vectors by its own formula on floats: bitwise equal, less overhead."""
    (y0, y1, y2), (b0, b1, b2) = y, b
    return (y1 * b2 - y2 * b1, y2 * b0 - y0 * b2, y0 * b1 - y1 * b0)


def spin_derivative(s, b_field, c: PhysicalConstants) -> np.ndarray:
    """Larmor torque ds/dt = gyro * (s x B)."""
    return c.gyro * np.array(_cross(_as_spin(s), _as_field(b_field)))


@dataclass(frozen=True)
class SpinTrajectory:
    times: np.ndarray
    spins: np.ndarray  # shape (len(times), 3)


def integrate_spin(s0, b_field, c: PhysicalConstants, t1: float, dt: float) -> SpinTrajectory:
    """RK4 precession from t = 0 to t1; |s| and s.B are conserved quantities."""
    _check_span(0.0, t1, dt)
    s, b, g = _as_spin(s0), _as_field(b_field), c.gyro

    def torque(y, t):
        d0, d1, d2 = _cross(y, b)
        return g * d0, g * d1, g * d2

    return SpinTrajectory(*_rk4(torque, s, 0.0, t1, dt))
