"""De Broglie-Bohm guidance for pairs of free Gaussian packets, and spin precession.

Everything is built on the exactly-evolved free Gaussian, in units ħ = m = 1
from a start at t = 0,

    psi(x, t) = (2 pi s^2)^(-1/4) (1 + i tau)^(-1/2)
                * exp( -(x - xc)^2 / (4 s^2 (1 + i tau)) + i k (x - x0) - i k^2 t / 2 )

with tau = t / (2 s^2) and xc = x0 + k t; ħ and m enter only as r = ħ/m,
so in other units a path is x_r(t) = x_1(r t).  It is evaluated in log form
so that far tails and near-node points stay well-conditioned.  The guidance
velocity is the probability-current form v = Im(grad psi / psi); for the
symmetrized two-particle wavefunctions this makes v1 depend on x2 (and vice
versa), which cross_coupling quantifies as |dv1/dx2|.  Densities below 1e-300
are treated as nodes and refused rather than extrapolated.

numpy is imported in the functions that build arrays: importing this module loads
none, and neither does _path, the trajectory run behind `bell-lab dbb --trajectory`.
"""

from __future__ import annotations  # numpy stays unloaded until a function that builds arrays runs

import cmath
import math
import sys
from array import array
from functools import cached_property

from .errors import NodeSingularityError
from ._common import _MAX_STEPS, _Record, _require_finite

FORMS = ("product", "symmetric", "antisymmetric")

# densities below this are nodes for all practical purposes
_LOG_DENSITY_FLOOR = math.log(1e-300)
_NORMAL = sys.float_info.min  # the least normal float64


class WavePacket(_Record):
    """Gaussian packet at t = 0.

    width is the initial position standard deviation (|psi|^2 is a
    Gaussian of std ``width`` at t = 0); wavenumber is the carrier k,
    so the group velocity is k.
    """

    center: float
    width: float
    wavenumber: float

    def __post_init__(self):
        for name in ("center", "width", "wavenumber"):
            _require_finite(name, getattr(self, name))
        if self.width <= 0.0:
            raise ValueError(f"width must be positive, got {self.width!r}")


class TwoParticleWF(_Record):
    """Product or (anti)symmetrized pair of packets; one dimension each."""

    packet_a: WavePacket
    packet_b: WavePacket
    form: str = "product"

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {self.form!r}")


def _check_time(t: float):
    if t < 0.0:
        raise ValueError(f"t = {t!r} is before the packets' start time 0.0")


def _clock(wp: WavePacket, t_end: float):
    """(at, the terms at t_end): at(t) is the packet's _terms at a time 0 <= t <= t_end.

    The parts that do not depend on t are worked out once, and each time takes the same float operations on
    Python numbers, cmath.log of 1 + i tau among them.  Refuses a packet whose width**2 or wavenumber**2 is not
    a normal float (a zero wavenumber aside), or whose terms are not finite at t_end: they grow with t.
    """
    try:
        w2, k2 = wp.width**2, wp.wavenumber**2
    except OverflowError:  # float ** raises where float * gives inf
        w2 = k2 = math.inf
    x0, k, four_w2, two_w2 = wp.center, wp.wavenumber, 4.0 * w2, 2.0 * w2
    ik, half_k2 = 1.0j * k, 0.5 * k2

    def at(t):
        a = 1.0 + 1.0j * (t / two_w2)
        # the phase i k^2 t / 2; 0.0 + makes it +0j at t = -0.0 as at t = 0.0
        return lw - 0.5 * cmath.log(a), x0 + k * t, four_w2 * a, two_w2 * a, ik, x0, 1.0j * (0.0 + half_k2 * t)

    # tau first: where it is finite, so is cmath.log's argument
    if (_NORMAL <= w2 < math.inf and (k == 0.0 or _NORMAL <= k2 < math.inf)
            and math.isfinite(t_end / two_w2)):
        lw = -0.25 * math.log(2.0 * math.pi * w2)
        end = at(t_end)
        if all(math.isfinite(v.real) and math.isfinite(v.imag) for v in end):
            return at, end
    raise ValueError(f"packet algebra leaves float64 by t={float(t_end)!r}: "
                     f"width={wp.width!r}, wavenumber={wp.wavenumber!r}")


def _terms(wp: WavePacket, t: float):
    """(const, xc, quad, slope, ik, x0, phase), Python numbers all: the x-independent parts of

        log psi(x)   = const - (x - xc)^2 / quad + ik (x - x0) - phase,
        d log psi/dx = -(x - xc) / slope + ik.
    """
    return _clock(wp, t)[1]


def _log_psi(terms, x):
    const, xc, quad, _, ik, x0, phase = terms
    return const - (x - xc) * (x - xc) / quad + ik * (x - x0) - phase


def _dlog_psi(terms, x):
    _, xc, _, slope, ik, _, _ = terms
    return -(x - xc) / slope + ik


def packet_overlap(wp_a: WavePacket, wp_b: WavePacket) -> complex:
    """<psi_a|psi_b> by the closed Gaussian integral, at t = 0: free evolution keeps it constant."""
    ta, tb = _terms(wp_a, 0.0), _terms(wp_b, 0.0)
    coeffs = []
    for const, xc, quad, slope, ik, x0, phase in (ta, tb):
        # log psi = qa y^2 + qb y + qc in y = x - xc_a: only the packets' separation is squared
        xc, x0 = xc - ta[1], x0 - ta[1]
        coeffs.append((-1.0 / quad, xc / slope + ik, const - xc * xc / quad - ik * x0 - phase))
    (a1, b1, c1), (a2, b2, c2) = coeffs
    p = a1.conjugate() + a2  # Re(p) < 0 always
    q = b1.conjugate() + b2
    r = c1.conjugate() + c2
    try:
        overlap = cmath.exp(r - q * q / (4.0 * p)) * cmath.sqrt(math.pi / -p)
    except (OverflowError, ValueError):  # cmath raises where the value leaves float64
        overlap = math.nan
    if not cmath.isfinite(overlap):
        raise ValueError(f"packet overlap overflows float64: centres {ta[1]!r} and {tb[1]!r} at t=0.0")
    return overlap


def _norm_factor(wf: TwoParticleWF) -> float:
    """1/sqrt(2 +- 2|<a|b>|^2) for the symmetrized forms, 1 for product.

    One packet_overlap; each public call and each trajectory takes it once.
    """
    if wf.form == "product":
        return 1.0
    o2 = abs(packet_overlap(wf.packet_a, wf.packet_b)) ** 2
    if wf.form == "symmetric":
        return 1.0 / math.sqrt(2.0 + 2.0 * o2)
    denom = 2.0 - 2.0 * o2
    if denom <= 1e-14:
        raise ValueError("antisymmetric combination of (near-)identical packets vanishes")
    return 1.0 / math.sqrt(denom)


def psi2_eval(wf: TwoParticleWF, x1, x2, t: float):
    """Two-particle wavefunction value; broadcasts over (x1, x2).

    A far tail, where (x - xc)^2 overflows, has the value 0.
    """
    import numpy as np
    x1, x2 = _check_point(x1, x2, t)
    ta, tb = _terms(wf.packet_a, t), _terms(wf.packet_b, t)
    with np.errstate(over="ignore", invalid="ignore"):
        if wf.form == "product":  # a NaN log psi, where x - xc overflows, fails > -inf too
            log_psi = _log_psi(ta, x1) + _log_psi(tb, x2)
            return np.where(log_psi.real > -np.inf, np.exp(log_psi), 0j)[()]
        lm, w1, sw2 = _exchange_terms(wf.form, ta, tb, x1, x2)
        psi = _norm_factor(wf) * np.exp(lm) * (w1 + sw2)
    return np.where(lm > -np.inf, psi, 0j)[()]  # at lm = -inf, exp(l1 - lm) is NaN


def _exchange_terms(form: str, ta, tb, x1, x2):
    """(lm, w1, sw2) of a symmetrized pair, so that psi = nf exp(lm) (w1 + sw2).

    With l1 = log psi_a(x1) + log psi_b(x2) and l2 = log psi_a(x2) + log psi_b(x1):
    lm = max(Re l1, Re l2), w1 = exp(l1 - lm) and sw2 = +-exp(l2 - lm), the
    sign being the form's.
    """
    import numpy as np
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
    import numpy as np
    if node is not False and np.count_nonzero(node):  # a float point's False skips numpy
        i = np.flatnonzero(node)[0]
        p1, p2 = (float(np.broadcast_to(x, np.shape(node)).flat[i]) for x in (x1, x2))
        raise NodeSingularityError(f"density below 1e-300 at ({p1!r}, {p2!r}), t={float(t)!r}")


def _velocity(wf: TwoParticleWF, x1, x2, t: float, nf: float, terms=None, coupling=False):
    """(v1, v2) at points (x1, x2) that broadcast; the caller validates them.

    nf is _norm_factor(wf) and terms the packets' _terms at t, if the
    caller has them.  For the product form v1 keeps x1's shape and v2 x2's.
    With coupling, |dv1/dx2| instead, once the same points pass the node test.
    """
    import numpy as np
    ta, tb = terms or (_terms(wf.packet_a, t), _terms(wf.packet_b, t))
    if wf.form == "product":
        la1, lb2 = _log_psi(ta, x1), _log_psi(tb, x2)
        # not >=, so that a NaN log density (inf - inf beyond float64) is a node too
        ok = (2.0 * la1.real >= _LOG_DENSITY_FLOOR) & (2.0 * lb2.real >= _LOG_DENSITY_FLOOR)
        _refuse_nodes(np.logical_not(ok), x1, x2, t)
        return 0.0 if coupling else (_dlog_psi(ta, x1).imag, _dlog_psi(tb, x2).imag)
    # refused as nodes below: den == 0, and a far tail, where (x - xc)^2
    # overflows, lm is -inf and log_rho NaN (beyond about 1e154 from the packets)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lm, w1, sw2 = _exchange_terms(wf.form, ta, tb, x1, x2)
        den = w1 + sw2
        log_rho = 2.0 * (lm + np.log(np.abs(den))) + 2.0 * np.log(nf)
    _refuse_nodes((den == 0.0) | ~(log_rho >= _LOG_DENSITY_FLOOR), x1, x2, t)
    ga1, gb1, ga2, gb2 = _dlog_psi(ta, x1), _dlog_psi(tb, x1), _dlog_psi(ta, x2), _dlog_psi(tb, x2)
    if coupling:  # d log psi is linear in x, so dv1/dx2 = -Im[w1 sw2 (ga1 - gb1)(ga2 - gb2) / den^2]
        return np.abs((_cmul(_cmul(w1, sw2), _cmul(ga1 - gb1, ga2 - gb2)) / den / den).imag)
    v1 = (_cmul(w1, ga1) + _cmul(sw2, gb1)) / den
    v2 = (_cmul(w1, gb2) + _cmul(sw2, ga2)) / den
    return v1.imag, v2.imag


def _stage_velocity(wf: TwoParticleWF, nf: float):
    """The RK4 stages' kernel (x1, x2, t, (ta, tb)) -> (v1, v2), with the exchange sign and
    2 log nf bound: _velocity(wf, x1, x2, t, nf, (ta, tb)) at a point of Python floats, bitwise.

    _velocity's operations in its order, on CPython numbers: _log_psi and _dlog_psi written out, each _cmul
    a complex product (two rounded products and a rounded sum per part, as _cmul), cmath.exp (np.exp's bits
    here) and numpy's /den formula.  A far tail (lm = -inf) or an infinite phase at a finite modulus (cmath.exp
    raises, np.exp gives NaN) makes den NaN; that, a tiny den or a node test near the floor falls back to _velocity.
    """
    product = wf.form == "product"
    sign, log_nf2 = 1.0 if wf.form == "symmetric" else -1.0, 2.0 * math.log(nf)

    def kernel(x1, x2, t, terms):
        (ca, xa, qa, sa, ka, oa, pa), (cb, xb, qb, sb, kb, ob, pb) = terms
        a1, a2, b1, b2 = x1 - xa, x2 - xa, x1 - xb, x2 - xb
        la1, lb2 = ca - a1 * a1 / qa + ka * (x1 - oa) - pa, cb - b2 * b2 / qb + kb * (x2 - ob) - pb
        ga1, gb2 = -a1 / sa + ka, -b2 / sb + kb
        if product:
            if not (2.0 * la1.real >= _LOG_DENSITY_FLOOR and 2.0 * lb2.real >= _LOG_DENSITY_FLOOR):
                _refuse_nodes(True, x1, x2, t)
            return ga1.imag, gb2.imag
        l1, l2 = la1 + lb2, (ca - a2 * a2 / qa + ka * (x2 - oa) - pa) + (cb - b1 * b1 / qb + kb * (x1 - ob) - pb)
        lm = l1.real if l1.real > l2.real else l2.real  # np.maximum's choice on ties
        try:
            w1, sw2 = cmath.exp(l1 - lm), sign * cmath.exp(l2 - lm)
        except ValueError:  # an infinite phase at a finite modulus, where np.exp gives NaN
            w1 = sw2 = math.nan
        den = w1 + sw2
        ad = abs(den)  # abs and math.log may be an ulp off np.abs and np.log
        log_rho = 2.0 * (lm + math.log(ad)) + log_nf2 if ad > 1e-300 else math.nan
        if not abs(log_rho - _LOG_DENSITY_FLOOR) > 1e-6:
            return tuple(float(v) for v in _velocity(wf, x1, x2, t, nf, terms))
        if log_rho < _LOG_DENSITY_FLOOR:
            _refuse_nodes(True, x1, x2, t)
        n1, n2 = w1 * ga1 + sw2 * (-b1 / sb + kb), w1 * gb2 + sw2 * (-a2 / sa + ka)
        if abs(den.real) >= abs(den.imag):  # Im(n / den) by numpy's formula, not CPython's
            rat = den.imag / den.real
            scl = 1.0 / (den.real + den.imag * rat)
            return (n1.imag - n1.real * rat) * scl, (n2.imag - n2.real * rat) * scl
        rat = den.real / den.imag
        scl = 1.0 / (den.imag + den.real * rat)
        return (n1.imag * rat - n1.real) * scl, (n2.imag * rat - n2.real) * scl

    return kernel


def _check_point(x1, x2, t: float):
    """(x1, x2) once they and t are checked: scalars and arrays as given (the kernels' bits), array-likes as floats."""
    import numpy as np
    for name, v in (("x1", x1), ("x2", x2), ("t", t)):
        _require_finite(name, v)
    _check_time(t)
    return [x if np.isscalar(x) or isinstance(x, np.ndarray) else np.asarray(x, dtype=float) for x in (x1, x2)]


def _as_result(value, shape):
    """A float for scalar points, else an array of the points' broadcast shape."""
    import numpy as np
    return float(value) if shape == () else np.broadcast_to(value, shape).copy()


def velocity_2p(wf: TwoParticleWF, x1, x2, t: float):
    """(v1, v2) from per-coordinate j/rho on the two-particle wavefunction.

    Broadcasts over (x1, x2): scalar points give two floats, arrays two
    arrays of the broadcast shape.  A node at any point refuses the call.
    """
    import numpy as np
    x1, x2 = _check_point(x1, x2, t)
    with np.errstate(over="ignore", invalid="ignore"):  # a product far tail's log psi is -inf: a node
        v1, v2 = _velocity(wf, x1, x2, t, _norm_factor(wf))
    shape = np.broadcast(x1, x2).shape
    return _as_result(v1, shape), _as_result(v2, shape)


def cross_coupling(wf: TwoParticleWF, x1, x2, t: float):
    """|dv1/dx2| in closed form: the exchange product w1 sw2 times the packets' slope differences.

    With psi = nf exp(lm) (w1 + sw2) and g = d log psi/dx, linear in x,
    dv1/dx2 = -Im[w1 sw2 (g_a(x1) - g_b(x1)) (g_a(x2) - g_b(x2)) / (w1 + sw2)^2]:
    exactly 0 for the product form (sw2 = 0) and for identical packets, and vanishing
    wherever the packets do not overlap in configuration space.  Broadcasts over
    (x1, x2) like velocity_2p, and refuses the same nodes.
    """
    import numpy as np
    x1, x2 = _check_point(x1, x2, t)
    with np.errstate(over="ignore", invalid="ignore"):  # as in velocity_2p
        g = _velocity(wf, x1, x2, t, _norm_factor(wf), coupling=True)
    return _as_result(g, np.broadcast(x1, x2).shape)


class Trajectory(_Record):
    """Times (strictly increasing) and positions, one row per step."""

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        import numpy as np
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if times.ndim != 1 or positions.shape[0] != times.size:
            raise ValueError("times and positions must have matching leading length")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        positions.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)


def _check_span(t0: float, t1: float, dt: float):
    for name, v in (("t0", t0), ("t1", t1), ("dt", dt)):
        _require_finite(name, v)
    _check_time(t0)  # t1 > t0 >= 0 below, so t1 - t0 <= t1 cannot overflow
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got t0={t0!r}, t1={t1!r}")
    # a dt of at most half an ulp leaves t + dt == t somewhere in [t0, t1]
    if dt <= 0.5 * math.ulp(t1):
        raise ValueError(f"dt={dt!r} cannot advance t={t1!r} in float64")
    if (ratio := (t1 - t0) / dt) > _MAX_STEPS + 1.0 or _step_count(t0, t1, dt) > _MAX_STEPS:
        steps = f"{ratio:.6g}"
        if float(steps) != ratio and ratio < 2.0**53:  # 6 digits round it: quote the count, exact below 2**53
            steps = _step_count(t0, t1, dt)
        raise ValueError(f"(t1 - t0) / dt = {steps} steps exceeds {_MAX_STEPS}")


def _step_count(t0: float, t1: float, dt: float) -> int:
    """The number of steps of at most dt from t0 to t1, counted once from (t1 - t0) / dt.

    A remainder of at most min(1e-12 * max(1, |t1|), 1e-3 * dt) is rounding,
    not a step; the dt / 1000 cap keeps a tiny dt's remainder a step.  The
    ratio's own rounding is far below either.
    """
    tol = min(1e-12 * max(1.0, abs(t1)) / dt, 1e-3)  # in steps
    return math.ceil((t1 - t0) / dt - tol)


def _grid(t0: float, t1: float, dt: float):
    """(t, step, t + step/2, t + step, the next row's t) of each of _step_count's steps: the stage times.

    The steps are dt but the last, min(dt, t1 - t), whose row is at t1 exactly: t summed step by step
    strays from k dt by rounding, and a stray within _step_count's tolerance is no step.
    """
    t = t0
    for left in range(_step_count(t0, t1, dt) - 1, -1, -1):  # steps left after this one
        step = dt if left else min(dt, t1 - t)
        end = t + step
        yield t, step, t + 0.5 * step, end, end if left else t1
        t = end if left else t1


def _rk4(f, x1: float, x2: float, t0: float, t1: float, dt: float):
    """Classical RK4 for the pair (x1, x2)' = f(x1, x2, t) on _grid's steps; returns flat (times, states) buffers.

    The pair is stepped as two floats, each IEEE-identically to an array element, and kept as flat doubles:
    times in one array("d"), and x1 and x2 of each row interleaved in the other.  A NodeSingularityError from
    f halts integration and is re-raised carrying the completed steps as a Trajectory in ``partial_trajectory``.
    """
    times, states = array("d", [t0]), array("d", (x1, x2))
    try:
        for t, step, mid, end, row in _grid(t0, t1, dt):
            half, sixth = 0.5 * step, step / 6.0
            p1, p2 = f(x1, x2, t)
            q1, q2 = f(x1 + half * p1, x2 + half * p2, mid)
            r1, r2 = f(x1 + half * q1, x2 + half * q2, mid)
            s1, s2 = f(x1 + step * r1, x2 + step * r2, end)
            x1, x2 = x1 + sixth * (p1 + 2.0 * q1 + 2.0 * r1 + s1), x2 + sixth * (p2 + 2.0 * q2 + 2.0 * r2 + s2)
            times.append(row)
            states.extend((x1, x2))
    except NodeSingularityError as err:
        raise NodeSingularityError(str(err), partial_trajectory=Trajectory(*_stacked(times, states))) from None
    return times, states


def _stacked(times, states):
    """_rk4's buffers as (times, positions) arrays that view them, positions shaped (steps + 1, 2)."""
    import numpy as np
    return np.frombuffer(times), np.frombuffer(states).reshape(-1, 2)


def _path(wf: TwoParticleWF, start, t0: float, t1: float, dt: float):
    """integrate_trajectory's checks and run, as _rk4's flat buffers; without numpy for a start of two floats.

    The stages' kernel gets both packets' terms, worked out once per distinct stage time: stages 2 and 3 share
    the midpoint, and stage 4's time is the next step's start."""
    _check_span(t0, t1, dt)
    if not isinstance(wf, TwoParticleWF):
        raise ValueError(f"wf must be a TwoParticleWF, got {type(wf)!r}")
    if not (type(start) is tuple and all(type(v) is float for v in start)):
        import numpy as np
        start = np.asarray(start, dtype=float).ravel().tolist()
    if len(start) != 2:
        raise ValueError("two-particle start must be a pair (x1, x2)")
    # the stages call the float kernel: times only grow from the checked t0, the clocks
    # are checked at t1, and a stage position is refused if it is not finite
    for name, v in zip(("x1", "x2"), start):  # t0 is checked with the span
        _require_finite(name, v)
    (clock_a, _), (clock_b, _) = _clock(wf.packet_a, t1), _clock(wf.packet_b, t1)
    kernel = _stage_velocity(wf, _norm_factor(wf))
    last_t = terms = None

    def vel(x1, x2, t):
        nonlocal last_t, terms
        if not (math.isfinite(x1) and math.isfinite(x2)):
            _require_finite("x1", x1)
            _require_finite("x2", x2)
        if t != last_t:
            last_t, terms = t, (clock_a(t), clock_b(t))
        return kernel(x1, x2, t, terms)

    return _rk4(vel, *start, t0, t1, dt)


def integrate_trajectory(wf: TwoParticleWF, start, t0: float, t1: float, dt: float) -> Trajectory:
    """Classical RK4 integration of the guidance velocity field from the pair start.

    Steps of size dt, with one shorter final step to land on t1 exactly; _rk4 steps the pair as two floats,
    each stage calling the float kernel, and the Trajectory views its buffers.  Hitting a node halts
    integration: the raised NodeSingularityError carries the completed steps as ``partial_trajectory``.
    """
    return Trajectory(*_stacked(*_path(wf, start, t0, t1, dt)))


def _as_spin(s0) -> tuple:
    import numpy as np
    s = tuple(np.asarray(s0, dtype=float).ravel().tolist())
    if len(s) != 3:
        raise ValueError("spin must be a 3-vector")
    _require_finite("s", np.array(s))
    if not any(s):
        raise ValueError("spin vector must be nonzero")
    # as _clock's packets: a square that is not a normal float loses the norm's digits or all of it
    if not _NORMAL <= s[0] * s[0] + s[1] * s[1] + s[2] * s[2] < math.inf:
        raise ValueError(f"spin algebra leaves float64: |s|^2 of s={s!r} is not a normal float")
    return s


def _as_field(b_field) -> list:
    import numpy as np
    b = np.asarray(b_field, dtype=float).ravel()
    if b.size != 3:
        raise ValueError("b_field must be a 3-vector")
    _require_finite("b_field", b)
    return b.tolist()


class SpinTrajectory(_Record):
    times: np.ndarray
    spins: np.ndarray  # shape (len(times), 3); integrate_spin's keep each component contiguous

    @cached_property
    def norms(self) -> np.ndarray:
        """|s| of each row, bitwise equal to its np.linalg.norm."""
        import numpy as np
        sq = np.vecdot(self.spins, self.spins)
        return np.sqrt(sq, out=sq)


def _rk4_gain(x: float):
    """(log|P|, arg P) of RK4's amplification P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = -ix.

    One RK4 step of u' = -i w u is exactly u -> P(-i w h) u, with x = w h, and
    |P|^2 = 1 - x^6/72 + x^8/576.  Beyond |x| = 1 both come from y = 1/x, so
    that an x of inf gives log|P| = inf, not inf - inf.
    """
    if abs(x) <= 1.0:
        x2 = x * x
        return (0.5 * math.log1p(x2 * x2 * x2 * (x2 - 8.0) / 576.0),
                math.atan2(-(x - x * x2 / 6.0), 1.0 - x2 / 2.0 + x2 * x2 / 24.0))
    y = 1.0 / x
    y2 = y * y  # |P|^2 = x^8 (1 - 8 y^2 + 576 y^8) / 576, and P / x^4 has P's argument
    return (4.0 * math.log(abs(x)) - math.log(24.0) + 0.5 * math.log1p(y2 * (576.0 * y2 * y2 * y2 - 8.0)),
            math.atan2(y / 6.0 - y * y2, 1.0 / 24.0 - y2 / 2.0 + y2 * y2))


def _polar(log_r: float, phi: float):
    """(e^log_r cos phi, e^log_r sin phi) by libm: numpy's float64 exp picks SIMD loops by CPU,
    and its last bits, so the spin goldens', would move with it."""
    try:
        r = math.exp(log_r)
    except OverflowError:
        r = math.inf
    return r * math.cos(phi), r * math.sin(phi)


def _precess(s: tuple, b: list, g: float, t1: float, dt: float):
    """(times, spins) of RK4 precession from t = 0: the step map raised to each row's power.

    With e = B/|B| and w = gyro |B|, the part p e of s along B stays and the
    part across B turns: one RK4 step multiplies it by P(-i w dt) in the plane,
    so row k is p e + Re(P^k) (s - p e) + Im(P^k) (e x s), P^k being
    e^(k log|P| + ik arg P).  With k = i m + j, P^k is the outer product of
    P^(im) and P^j over about 2 sqrt(n) powers.  Times are k dt; the last
    step, to t1, is one factor P(-i w h) on row n - 1.
    """
    import numpy as np
    n = _step_count(0.0, t1, dt)
    big = max(map(abs, b))
    if big:  # scaled by the largest component first: hypot of the field itself may overflow
        h = math.hypot(*(v / big for v in b))
        e, w = [v / big / h for v in b], g * big * h
    else:
        e, w = [0.0, 0.0, 1.0], 0.0
    p = s[0] * e[0] + s[1] * e[1] + s[2] * e[2]
    across = [si - p * ei for si, ei in zip(s, e)]
    turned = [e[1] * s[2] - e[2] * s[1], e[2] * s[0] - e[0] * s[2], e[0] * s[1] - e[1] * s[0]]
    log_p, arg_p = _rk4_gain(w * dt)
    m = math.isqrt(n) + 1
    (fr, fi), (cr, ci) = (np.array([_polar(k * log_p, k * arg_p) for k in ks]).T
                          for ks in (range(m), range(0, n + 1, m)))
    times, spins = np.arange(n + 1.0) * dt, np.empty((3, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # rows that leave float64 are integrate_spin's to refuse
        re = (np.multiply.outer(cr, fr) - np.multiply.outer(ci, fi)).ravel()[:n + 1]
        im = (np.multiply.outer(cr, fi) + np.multiply.outer(ci, fr)).ravel()[:n + 1]
        if n:  # t1 - (n - 1) dt: dt but for rounding, or the shortened last step
            times[n] = t1
            log_h, arg_h = _rk4_gain(w * (t1 - times[n - 1]))
            re[n], im[n] = _polar((n - 1) * log_p + log_h, (n - 1) * arg_p + arg_h)
        for row, a, c, ei in zip(spins, across, turned, e):  # a field along z: row 2 is s[2] exactly
            np.multiply(re, a, out=row)
            row += im * c
            row += p * ei
    spins[:, 0] = s
    return times, spins.T


def integrate_spin(s0, b_field, t1: float, dt: float, gyro: float = 1.0) -> SpinTrajectory:
    """RK4 precession ds/dt = gyro (s x B) of the 3-vector s0 from t = 0 to t1; |s| and s.B are conserved.

    Steps of size dt, with one shorter final step to land on t1 exactly.
    The field is constant, so RK4 is linear in s and each step the same
    map: _precess raises it to each row's power in closed form instead of
    stepping.  Refuses a run whose states or |s|^2 leave float64 (a large
    gyro * B * |s| overflows the torque), at the first such row.
    """
    import numpy as np
    _require_finite("gyro", gyro)
    _check_span(0.0, t1, dt)
    s, b = _as_spin(s0), _as_field(b_field)
    traj = SpinTrajectory(*_precess(s, b, gyro, t1, dt))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state makes its |s| inf or NaN
        bad = ~np.isfinite(traj.norms)
    if bad.any():
        raise ValueError(f"spin algebra leaves float64 by t={float(traj.times[bad.argmax()])!r}: "
                         f"s0={s!r}, b_field={tuple(b)!r}, gyro={gyro!r}")
    return traj
