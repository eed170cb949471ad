import cmath
import math
import re
import tracemalloc
import warnings
from array import array

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings as hyp_settings, strategies as st
from scipy.integrate import quad

from bell_lab import dbb
from bell_lab.dbb import (
    FORMS,
    TwoParticleWF,
    WavePacket,
    cross_coupling,
    integrate_spin,
    integrate_trajectory,
    packet_overlap,
    psi2_eval,
    velocity_2p,
)
from bell_lab.errors import NodeSingularityError

PACKET_A = WavePacket(center=-1.5, width=0.8, wavenumber=0.6)
PACKET_B = WavePacket(center=1.5, width=1.1, wavenumber=-0.4)
GOLDEN_POINT = (0.1, 0.35)
GOLDEN_TIME = 0.8
# |dv1/dx2| at the float64 GOLDEN_POINT and GOLDEN_TIME, from its value to 25 digits (mpmath, two routes)
GOLDEN_ANTISYM = 0.27433487196825692
GOLDEN_SYM = 0.85254135763538118


def gaussian(wp, x, t):
    """One free packet's psi(x, t), written out from the dbb module docstring."""
    tau = t / (2.0 * wp.width**2)
    xc = wp.center + wp.wavenumber * t
    return ((2.0 * np.pi * wp.width**2) ** -0.25 / np.sqrt(1.0 + 1.0j * tau)
            * np.exp(-(x - xc) ** 2 / (4.0 * wp.width**2 * (1.0 + 1.0j * tau))
                     + 1.0j * wp.wavenumber * (x - wp.center)
                     - 0.5j * wp.wavenumber**2 * t))


def gaussian_velocity(wp, x, t):
    """One free packet's guidance velocity in real arithmetic: k plus the spreading term."""
    tau = t / (2.0 * wp.width**2)
    xc = wp.center + wp.wavenumber * t
    return wp.wavenumber + (x - xc) * tau / (2.0 * wp.width**2 * (1.0 + tau * tau))


def product(wp):
    """wp as particle 1 of a product pair, with PACKET_B as particle 2."""
    return TwoParticleWF(wp, PACKET_B, form="product")


class TestSinglePacket:
    """One packet, as particle 1 of a product pair; x2 = 0.4 where a point needs one."""

    def test_normalized_any_time(self):
        wf = product(WavePacket(center=0.3, width=0.7, wavenumber=1.2))
        xs = np.linspace(-16.0, 16.0, 801)
        for t in (0.0, 0.5, 2.0):
            rho = np.abs(psi2_eval(wf, xs[:, None], xs[None, :], t)) ** 2
            assert abs(np.trapezoid(np.trapezoid(rho, xs, axis=1), xs) - 1.0) < 1e-8

    def test_center_moves_at_group_velocity(self):
        wf = product(WavePacket(center=-1.0, width=0.5, wavenumber=2.0))
        t = 1.3
        xc = -1.0 + 2.0 * t
        # at a fixed x2 the x1 density is the packet's, up to a constant factor
        n, _ = quad(lambda x: abs(psi2_eval(wf, x, 0.4, t)) ** 2, -60, 60, limit=200)
        m, _ = quad(lambda x: x * abs(psi2_eval(wf, x, 0.4, t)) ** 2, -60, 60, limit=200)
        assert abs(m / n - xc) < 1e-8

    def test_k_zero_initial_velocity_vanishes(self):
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.0))
        for x in (-0.7, 0.0, 1.3):
            assert abs(velocity_2p(wf, x, 0.4, 0.0)[0]) < 1e-14

    def test_wide_packet_moves_at_hbar_k_over_m(self):
        wf = product(WavePacket(center=0.0, width=50.0, wavenumber=1.5))
        v = velocity_2p(wf, 0.2, 0.4, 0.4)[0]
        assert abs(v - 1.5) < 1e-4

    def test_spreading_term_is_odd_in_displacement(self):
        # for k = 0 at t > 0 the velocity field is linear in (x - center)
        wf = product(WavePacket(center=0.0, width=0.6, wavenumber=0.0))
        v1 = velocity_2p(wf, 0.5, 0.4, 1.0)[0]
        v2 = velocity_2p(wf, -0.5, 0.4, 1.0)[0]
        assert abs(v1 + v2) < 1e-12
        assert v1 > 0.0  # spreading pushes probability outward

    def test_velocity_matches_finite_difference_of_phase(self):
        wf = product(WavePacket(center=-0.4, width=0.9, wavenumber=0.8))
        h = 1e-6
        for x, t in [(0.3, 0.2), (-1.0, 1.5), (2.0, 0.7)]:
            dphase = np.angle(psi2_eval(wf, x + h, 0.4, t) / psi2_eval(wf, x - h, 0.4, t)) / (2 * h)
            assert abs(velocity_2p(wf, x, 0.4, t)[0] - dphase) < 1e-6

    def test_far_tail_raises_node_error(self):
        wf = product(WavePacket(center=0.0, width=0.1, wavenumber=0.0))
        with pytest.raises(NodeSingularityError):
            velocity_2p(wf, 1e6, 0.4, 0.0)

    def test_start_time_validation(self):
        # every packet starts at t = 0: each entry point refuses an earlier time with one message
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.0))
        message = r"^t = -0\.5 is before the packets' start time 0\.0$"
        for fn in (psi2_eval, velocity_2p, cross_coupling):
            with pytest.raises(ValueError, match=message):
                fn(wf, 0.0, 0.4, -0.5)
        with pytest.raises(ValueError, match=message):
            integrate_trajectory(wf, (0.0, 0.4), -0.5, 1.0, 0.1)

    def test_nonfinite_x_refused(self):
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.0))
        for fn in (psi2_eval, velocity_2p):
            with pytest.raises(ValueError, match="x1 must be finite"):
                fn(wf, np.nan, 0.4, 0.0)
            with pytest.raises(ValueError, match="x1 must be finite"):
                fn(wf, np.array([0.0, np.inf]), 0.4, 0.0)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            WavePacket(center=0.0, width=0.0, wavenumber=1.0)
        with pytest.raises(ValueError):
            WavePacket(center=0.0, width=-1.0, wavenumber=1.0)


def quadrature_overlap(wp_a, wp_b, t):
    """<psi_a(t)|psi_b(t)> by quadrature of the test-local gaussian evolved to t."""

    def integrand(x, part):
        return getattr(gaussian(wp_a, x, t).conjugate() * gaussian(wp_b, x, t), part)

    re, _ = quad(integrand, -80, 80, args=("real",), limit=300)
    im, _ = quad(integrand, -80, 80, args=("imag",), limit=300)
    return complex(re, im)


class TestOverlap:
    # packet_overlap takes no time: it is the t = 0 integral, which free evolution keeps
    OVERLAP_TIMES = (0.0, GOLDEN_TIME, 2.1, 10.0)

    def test_matches_quadrature(self):
        got = packet_overlap(PACKET_A, PACKET_B)
        for t in self.OVERLAP_TIMES:
            assert abs(got - quadrature_overlap(PACKET_A, PACKET_B, t)) < 1e-10

    def test_time_invariant_modulus(self):
        # free evolution is unitary, so |<a(t)|b(t)>| is |<a|b>| at every t
        got = abs(packet_overlap(PACKET_A, PACKET_B))
        for t in self.OVERLAP_TIMES:
            assert abs(abs(quadrature_overlap(PACKET_A, PACKET_B, t)) - got) < 1e-12

    def test_self_overlap_is_one(self):
        assert abs(packet_overlap(PACKET_A, PACKET_A) - 1.0) < 1e-12

    @pytest.mark.parametrize("shift", [1e4, -1e8, 1e12])
    def test_translation_invariant(self, shift):
        # moving both packets changes nothing, however far from the origin they go
        a, b = (WavePacket(wp.center + shift, wp.width, wp.wavenumber) for wp in (PACKET_A, PACKET_B))
        assert abs(packet_overlap(a, b) - packet_overlap(PACKET_A, PACKET_B)) < 1e-12

    def test_packets_too_far_apart_are_refused(self):
        # the separation squared overflows float64; both symmetrized forms refuse alike
        a, b = WavePacket(-1e300, 0.8, 0.6), WavePacket(1e300, 1.1, -0.4)
        message = r"^packet overlap overflows float64: centres -1e\+300 and 1e\+300 at t=0\.0$"
        with pytest.raises(ValueError, match=message):
            packet_overlap(a, b)
        for form in ("symmetric", "antisymmetric"):
            wf = TwoParticleWF(a, b, form=form)
            for fn in (velocity_2p, cross_coupling):
                with pytest.raises(ValueError, match=message):
                    fn(wf, np.array([-1e300, 0.0]), 1e300, 0.8)


class TestTwoParticleDensity:
    def test_product_density_factorizes(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        x1, x2, t = 0.3, -0.8, 0.6
        rho = psi2_eval(wf, x1, x2, t)
        want = gaussian(PACKET_A, x1, t) * gaussian(PACKET_B, x2, t)
        assert abs(rho - want) < 1e-12

    def test_antisym_vanishes_on_diagonal(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        assert abs(psi2_eval(wf, 0.4, 0.4, 0.7)) < 1e-12

    def test_exchange_symmetry(self):
        sym = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        anti = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        x1, x2, t = -0.2, 0.9, 0.5
        assert abs(psi2_eval(sym, x1, x2, t) - psi2_eval(sym, x2, x1, t)) < 1e-12
        assert (
            abs(psi2_eval(anti, x1, x2, t) + psi2_eval(anti, x2, x1, t)) < 1e-12
        )

    def test_symmetrized_norm_via_quadrature(self):
        # the exchange integral gives N = 1/sqrt(2 +- 2|<a|b>|^2); check
        # both the total probability and the constant itself
        o2 = abs(packet_overlap(PACKET_A, PACKET_B)) ** 2
        for form, sign in (("symmetric", 1.0), ("antisymmetric", -1.0)):
            wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
            xs = np.linspace(-8.0, 8.0, 401)
            rho = np.empty((len(xs), len(xs)))
            for i, x1 in enumerate(xs):
                rho[i] = np.abs(psi2_eval(wf, float(x1), xs, 0.0)) ** 2
            total = np.trapezoid(np.trapezoid(rho, xs, axis=1), xs)
            assert abs(total - 1.0) < 1e-6
            expected = 1.0 / np.sqrt(2.0 + sign * 2.0 * o2)
            val = psi2_eval(wf, 0.1, 0.35, 0.0)
            a = gaussian(PACKET_A, 0.1, 0.0) * gaussian(PACKET_B, 0.35, 0.0)
            b = gaussian(PACKET_A, 0.35, 0.0) * gaussian(PACKET_B, 0.1, 0.0)
            assert abs(val - expected * (a + sign * b)) < 1e-12

    def test_antisym_identical_packets_rejected(self):
        with pytest.raises(ValueError):
            wf = TwoParticleWF(PACKET_A, PACKET_A, form="antisymmetric")
            psi2_eval(wf, 0.0, 1.0, 0.0)

    def test_form_validation(self):
        with pytest.raises(ValueError):
            TwoParticleWF(PACKET_A, PACKET_B, form="mixed")

    @pytest.mark.parametrize("form", ["product", "symmetric", "antisymmetric"])
    def test_point_validation(self, form):
        wf = TwoParticleWF(WavePacket(center=-1.0, width=0.5, wavenumber=1.0),
                           WavePacket(center=1.0, width=0.7, wavenumber=-1.0), form=form)
        with pytest.raises(ValueError, match="before the packets' start time"):
            psi2_eval(wf, 0.1, 0.2, -0.5)
        with pytest.raises(ValueError, match="x1 must be finite"):
            psi2_eval(wf, np.nan, 0.2, 1.5)
        with pytest.raises(ValueError, match="x2 must be finite"):
            psi2_eval(wf, 0.1, np.array([0.2, np.inf]), 1.5)


# a coordinate near the packets or anywhere out to the far tails
_COORDINATES = st.one_of(st.floats(-6.0, 6.0), st.floats(-1e300, 1e300))
# a wavenumber of 0 or one whose square is a normal float, as the packet algebra needs
_PACKETS = st.builds(WavePacket, center=st.floats(-3.0, 3.0), width=st.floats(0.3, 2.0),
                     wavenumber=st.one_of(st.just(0.0), st.floats(1e-6, 2.0), st.floats(-2.0, -1e-6)))


class TestVelocities:
    def test_product_matches_single_particle(self):
        # each velocity is its own packet's, and v1 does not see x2 at all
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        v1s = set()
        for x2 in (-2.0, 0.0, 3.0):
            v1, v2 = velocity_2p(wf, 0.25, x2, 0.9)
            assert v1 == pytest.approx(gaussian_velocity(PACKET_A, 0.25, 0.9), rel=1e-14)
            assert v2 == pytest.approx(gaussian_velocity(PACKET_B, x2, 0.9), rel=1e-14)
            v1s.add(v1)
        assert len(v1s) == 1

    def test_symmetrized_velocity_via_finite_difference(self):
        for form in ("symmetric", "antisymmetric"):
            wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
            x1, x2, t = 0.1, 0.35, GOLDEN_TIME
            h = 1e-6
            p0 = psi2_eval(wf, x1, x2, t)
            dp1 = (psi2_eval(wf, x1 + h, x2, t) - psi2_eval(wf, x1 - h, x2, t)) / (2 * h)
            dp2 = (psi2_eval(wf, x1, x2 + h, t) - psi2_eval(wf, x1, x2 - h, t)) / (2 * h)
            v1, v2 = velocity_2p(wf, x1, x2, t)
            assert abs(v1 - (dp1 / p0).imag) < 1e-5
            assert abs(v2 - (dp2 / p0).imag) < 1e-5

    @hyp_settings(max_examples=200, deadline=None)
    @given(a=_PACKETS, b=_PACKETS, form=st.sampled_from(["symmetric", "antisymmetric"]), x1=_COORDINATES,
           x2=_COORDINATES, t=st.floats(0.0, 3.0))
    @example(a=PACKET_A, b=PACKET_B, form="antisymmetric", x1=GOLDEN_POINT[0], x2=GOLDEN_POINT[1], t=GOLDEN_TIME)
    def test_exchange_symmetry(self, a, b, form, x1, x2, t):
        # psi(x1, x2) = +-psi(x2, x1), so v1(x1, x2) = v2(x2, x1) and dv1/dx2 is the same at both
        # points; swapping the points swaps the two exchange terms exactly, so the results are
        # bitwise equal, and a node (far tails included) is refused at both points
        wf = TwoParticleWF(a, b, form=form)
        assume(form != "antisymmetric" or abs(packet_overlap(a, b)) ** 2 < 0.5)
        try:
            v1, v2 = velocity_2p(wf, x1, x2, t)
            g = cross_coupling(wf, x1, x2, t)
        except NodeSingularityError:
            for fn in (velocity_2p, cross_coupling):
                with pytest.raises(NodeSingularityError, match=re.escape(f"({x2!r}, {x1!r}), t=")):
                    fn(wf, x2, x1, t)
            return
        assert velocity_2p(wf, x2, x1, t) == (v2, v1)
        assert cross_coupling(wf, x2, x1, t) == g

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("x1, x2", [(1e200, 0.0), (0.0, 1e200), (1e155, 0.0), (-1e300, 1e300)])
    def test_far_tail_refused_as_a_node(self, form, x1, x2):
        # beyond about 1e154 from the packets (x - xc)^2 overflows; every form refuses the point
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with pytest.raises(NodeSingularityError, match=re.escape(f"({x1!r}, {x2!r}), t=0.5") + "$"):
            velocity_2p(wf, x1, x2, 0.5)

    def test_nan_log_density_refused_as_a_node(self):
        # x1 - xc overflows to inf and Re log psi_a(x1) is inf - inf = NaN: a node, not a NaN velocity
        wf = TwoParticleWF(WavePacket(-1e308, 1.0, 0.5), PACKET_B, form="product")
        with pytest.raises(NodeSingularityError, match=re.escape("at (1e+308, 0.0), t=0.0") + "$"):
            velocity_2p(wf, 1e308, 0.0, 0.0)
        with pytest.raises(NodeSingularityError, match=re.escape("at (1e+308, 0.0), t=0.0") + "$"):
            velocity_2p(wf, np.array([-1e308, 1e308]), 0.0, 0.0)


class TestCrossCoupling:
    def test_product_form_uncoupled(self):
        # dv1/dx2 == 0 identically for a product wavefunction: each
        # velocity depends only on its own coordinate
        rng = np.random.default_rng(127)
        for _ in range(5):
            wp1 = WavePacket(
                center=float(rng.uniform(-2, 0)),
                width=float(rng.uniform(0.5, 1.5)),
                wavenumber=float(rng.uniform(-1, 1)),
            )
            wp2 = WavePacket(
                center=float(rng.uniform(0, 2)),
                width=float(rng.uniform(0.5, 1.5)),
                wavenumber=float(rng.uniform(-1, 1)),
            )
            wf = TwoParticleWF(wp1, wp2, form="product")
            xs = np.linspace(-2.5, 2.5, 21)
            worst = 0.0
            for x1 in xs:
                for x2 in xs:
                    worst = max(
                        worst, abs(cross_coupling(wf, float(x1), float(x2), 0.9))
                    )
            assert worst == 0.0

    def test_antisymmetric_golden_value(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        g = cross_coupling(wf, *GOLDEN_POINT, GOLDEN_TIME)
        assert abs(g - GOLDEN_ANTISYM) < 1e-12 * GOLDEN_ANTISYM

    def test_symmetric_golden_value(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        g = cross_coupling(wf, *GOLDEN_POINT, GOLDEN_TIME)
        assert abs(g - GOLDEN_SYM) < 1e-12 * GOLDEN_SYM

    def test_forms_differ_at_golden_point(self):
        anti = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        sym = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        ga = cross_coupling(anti, *GOLDEN_POINT, GOLDEN_TIME)
        gs = cross_coupling(sym, *GOLDEN_POINT, GOLDEN_TIME)
        assert abs(ga - gs) > 0.1

    def test_identical_packets_symmetric_form_uncoupled(self):
        # symmetrizing identical packets reproduces the product state: g_a = g_b,
        # so the slope differences, and with them the coupling, are exactly 0
        wf = TwoParticleWF(PACKET_A, PACKET_A, form="symmetric")
        for x1, x2 in [(-0.5, 0.7), (0.1, 0.35), (1.2, -1.0)]:
            assert cross_coupling(wf, x1, x2, 0.6) == 0.0


EPS = np.finfo(float).eps


def richardson_step(wf):
    """The Richardson oracle's step h: 1e-5 of the smaller packet width."""
    return 1e-5 * min(wf.packet_a.width, wf.packet_b.width)


def exchange_parts(wf, x1, x2, t):
    """The symmetrized psi written out from the dbb module docstring: (w1, w2, slopes, size).

    psi is proportional to w1 + w2, with w1 = exp(l1 - lm) and w2 = +-exp(l2 - lm), where
    l1 = log a(x1) + log b(x2), l2 = log a(x2) + log b(x1) and lm = max(Re l1, Re l2);
    slopes = (d log a/dx (x1), d log b/dx (x1), d log a/dx (x2), d log b/dx (x2)); size is
    the largest sum of the magnitudes of one log psi's terms, which sets their rounding.
    """

    def log_slope_size(wp, x):
        a = 1.0 + 1.0j * t / (2.0 * wp.width**2)
        xc = wp.center + wp.wavenumber * t
        quad_term = (x - xc) ** 2 / (4.0 * wp.width**2 * a)
        log = -0.5 * np.log(a) - quad_term + 1.0j * wp.wavenumber * x  # up to factors common to l1 and l2
        size = (0.25 * abs(np.log(2.0 * np.pi * wp.width**2)) + 0.5 * np.abs(np.log(a)) + np.abs(quad_term)
                + abs(wp.wavenumber) * (np.abs(x) + abs(wp.center)) + 0.5 * wp.wavenumber**2 * t)
        return log, -(x - xc) / (2.0 * wp.width**2 * a) + 1.0j * wp.wavenumber, size

    (la1, da1, sa1), (la2, da2, sa2) = (log_slope_size(wf.packet_a, x) for x in (x1, x2))
    (lb1, db1, sb1), (lb2, db2, sb2) = (log_slope_size(wf.packet_b, x) for x in (x1, x2))
    s = 1.0 if wf.form == "symmetric" else -1.0
    l1, l2 = la1 + lb2, la2 + lb1
    lm = np.maximum(l1.real, l2.real)
    size = np.maximum(sa1 + sb2, sa2 + sb1)
    return np.exp(l1 - lm), s * np.exp(l2 - lm), (da1, db1, da2, db2), size


def analytic_cross_coupling(wf, x1, x2, t):
    """|dv1/dx2| in closed form, as a quotient.

    d log psi is linear in x for a free Gaussian, so with psi = psi1 + s psi2,
    psi1 = a(x1) b(x2) and psi2 = a(x2) b(x1),
    dv1/dx2 = Im(d1 d2 psi / psi - d1 psi d2 psi / psi^2).
    """
    if wf.form == "product":
        return np.zeros(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
    w1, w2, (da1, db1, da2, db2), _ = exchange_parts(wf, x1, x2, t)
    psi = w1 + w2
    d1 = w1 * da1 + w2 * db1
    d2 = w1 * db2 + w2 * da2
    d12 = w1 * da1 * db2 + w2 * db1 * da2
    return np.abs(np.imag(d12 / psi - d1 * d2 / psi**2))


def richardson_cross_coupling(wf, x1, x2, t, particle=1):
    """|dv1/dx2| (particle 1) or |dv2/dx1| (particle 2) by central differences of velocity_2p.

    Step h = richardson_step(wf); the Richardson combination (4 D(h/2) - D(h)) / 3
    removes the leading O(h^2) error.
    """
    h = richardson_step(wf)

    def d(step):
        if particle == 1:
            vp, vm = velocity_2p(wf, x1, x2 + step, t)[0], velocity_2p(wf, x1, x2 - step, t)[0]
        else:
            vp, vm = velocity_2p(wf, x1 + step, x2, t)[1], velocity_2p(wf, x1 - step, x2, t)[1]
        return (vp - vm) / (2.0 * step)

    return np.abs((4.0 * d(h / 2.0) - d(h)) / 3.0)


def coupling_error_bound(wf, x1, x2, t, richardson=False):
    """A bound on one route's error at (x1, x2), from |den| = |w1 + w2| and the step h.

    With G the largest |slope| and L the size of exchange_parts, l1 and l2 carry an
    absolute rounding error of about eps L, so w1 and w2 a relative one, and den, which
    cancels next to a node, an absolute one of at most eps (1 + L) (|w1| + |w2|) <= 2 eps (1 + L).
    - Closed forms: |w1 w2 (g_a - g_b)(g_a - g_b)| / |den|^2 <= 4 G^2 / |den|^2, and den^2 has
      a relative error of 4 eps (1 + L) / |den|: at most 16 eps (1 + L) G^2 / |den|^3.
    - Richardson: v1 = Im(n / den) with |n| <= 2 G errs by at most 4 eps (1 + L) G / |den|^2;
      each D(s) divides two such errors by 2 s, so (4 D(h/2) - D(h)) / 3 errs by 3 of them / h.
      Its truncation: next to a node, v1 has a pole about |den| / (2 G) from the point, where
      (4 D(h/2) - D(h)) / 3 misses (2 h G / |den|)^4 / 4 of a derivative of size 4 G^2 / |den|^2.
    Each term is doubled for the error of the products themselves.
    """
    w1, w2, slopes, size = exchange_parts(wf, x1, x2, t)
    den, g = np.abs(w1 + w2), np.max(np.abs(np.broadcast_arrays(*slopes)), axis=0)
    h = richardson_step(wf)
    with np.errstate(divide="ignore", over="ignore"):  # a den whose powers underflow bounds nothing: inf
        if not richardson:
            return 32.0 * EPS * (1.0 + size) * g**2 / den**3
        return 24.0 * EPS * (1.0 + size) * g / (h * den**2) + 32.0 * (h * g / den) ** 4 * g**2 / den**2


class TestCouplingRoutes:
    """The closed form in dbb against the quotient and Richardson oracles, over random packets."""

    @hyp_settings(max_examples=150, deadline=None)
    @given(a=_PACKETS, b=_PACKETS, form=st.sampled_from(FORMS), x1=st.floats(-4.0, 4.0),
           x2=st.floats(-4.0, 4.0), t=st.floats(0.0, 3.0))
    @example(a=PACKET_A, b=PACKET_B, form="symmetric", x1=GOLDEN_POINT[0], x2=GOLDEN_POINT[1], t=GOLDEN_TIME)
    @example(a=PACKET_A, b=PACKET_B, form="antisymmetric", x1=0.1, x2=0.1155, t=GOLDEN_TIME)
    @example(a=WavePacket(1.0, 0.5, 0.0), b=WavePacket(0.0, 2.0, -1.0), form="antisymmetric", x1=0.0,
             x2=2.220446049250313e-16, t=1.0)
    @example(a=WavePacket(0.0, 1.0, 0.0), b=WavePacket(0.0, 1.0, 1.0), form="antisymmetric", x1=0.0,
             x2=6.969732414325568e-144, t=0.0)
    def test_routes_agree(self, a, b, form, x1, x2, t):
        wf = TwoParticleWF(a, b, form=form)
        assume(form != "antisymmetric" or abs(packet_overlap(a, b)) ** 2 < 0.5)
        try:
            got = cross_coupling(wf, x1, x2, t)
        except NodeSingularityError:
            reject()
        if form == "product":
            assert got == 0.0
            return
        w1, w2, slopes, _ = exchange_parts(wf, x1, x2, t)
        den = np.abs(w1 + w2)
        assume(den > 0.0)  # a node that rounding hid from dbb, where no route keeps a digit
        near = coupling_error_bound(wf, x1, x2, t)
        assert abs(got - analytic_cross_coupling(wf, x1, x2, t)) <= 2.0 * near
        # Richardson needs the nearest pole of v1 well beyond its step
        assume(richardson_step(wf) * np.max(np.abs(slopes)) < 1e-3 * den)
        bound = near + coupling_error_bound(wf, x1, x2, t, richardson=True)
        assert abs(got - richardson_cross_coupling(wf, x1, x2, t)) <= bound
        # v = grad S, so dv1/dx2 = dv2/dx1: differences of v2 in x1 find the same coupling
        assert abs(got - richardson_cross_coupling(wf, x1, x2, t, particle=2)) <= bound


class TestArrayRoute:
    """Array points against one velocity_2p / cross_coupling call per point."""

    @hyp_settings(max_examples=40, deadline=None)
    @given(
        form=st.sampled_from(FORMS),
        shape=st.one_of(
            st.just(()),
            st.integers(1, 6).map(lambda n: (n,)),
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shapes_match_one_point_per_call(self, form, shape, seed):
        rng = np.random.default_rng(seed)
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        t = float(rng.uniform(0.0, 2.0))
        # scalar points are np.float64 as in the CLI grid: Python floats
        # take CPython's complex arithmetic, which rounds differently
        x1 = rng.uniform(-4.0, 4.0, size=shape)[()]
        x2 = rng.uniform(-4.0, 4.0, size=shape)[()]
        v1, v2 = velocity_2p(wf, x1, x2, t)
        cc = cross_coupling(wf, x1, x2, t)
        if shape == ():
            assert type(v1) is float and type(v2) is float and type(cc) is float
        assert np.shape(v1) == np.shape(v2) == np.shape(cc) == shape
        for i in np.ndindex(shape):
            a, b = np.float64(np.asarray(x1)[i]), np.float64(np.asarray(x2)[i])
            assert (np.asarray(v1)[i], np.asarray(v2)[i]) == velocity_2p(wf, a, b, t)
            assert np.asarray(cc)[i] == cross_coupling(wf, a, b, t)

    @pytest.mark.parametrize("form", FORMS)
    def test_row_broadcast_matches_points(self, form):
        # the CLI's layout: one scalar x1 against a row of x2
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        xs1 = np.linspace(-3.1, 3.55, 15)
        xs2 = xs1 + 0.2375
        for x1 in xs1:
            v1, v2 = velocity_2p(wf, x1, xs2, GOLDEN_TIME)
            cc = cross_coupling(wf, x1, xs2, GOLDEN_TIME)
            for j, x2 in enumerate(xs2):
                assert (v1[j], v2[j]) == velocity_2p(wf, x1, x2, GOLDEN_TIME)
                assert cc[j] == cross_coupling(wf, x1, x2, GOLDEN_TIME)

    def test_square_rounds_alike_on_scalars_and_arrays(self):
        # at these x1 the libm pow(d, 2) that a scalar ** 2 calls differs from
        # the correctly rounded d * d that an array ** 2 computes
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        x1 = np.array([-1.8016008307514264, 2.285567725566442, 0.5381448676347205,
                       2.3182707445626907])
        x2 = np.float64(0.35)
        v1, v2 = velocity_2p(wf, x1, x2, GOLDEN_TIME)
        for i, x in enumerate(x1):
            assert (v1[i], v2[i]) == velocity_2p(wf, x, x2, GOLDEN_TIME)

    @pytest.mark.parametrize("form", FORMS)
    def test_analytic_cross_coupling(self, form):
        # each point within the bound that coupling_error_bound derives from its |den|
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        xs = np.linspace(-3.0, 3.0, 25)
        x1, x2 = xs[:, None], xs[None, :] + 0.125
        for t in (0.0, GOLDEN_TIME, 1.7):
            got = cross_coupling(wf, x1, x2, t)
            want = analytic_cross_coupling(wf, x1, x2, t)
            assert got.shape == (25, 25)
            if form == "product":
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 2.0 * coupling_error_bound(wf, x1, x2, t))
        if form == "antisymmetric":
            assert abs(float(analytic_cross_coupling(wf, *GOLDEN_POINT, GOLDEN_TIME))
                       - GOLDEN_ANTISYM) < 1e-12 * GOLDEN_ANTISYM

    def test_one_overlap_per_call(self, monkeypatch):
        # once per public call or trajectory, not per point or RK4 stage
        calls = []
        overlap = dbb.packet_overlap

        def counting(*args, **kwargs):
            calls.append(args)
            return overlap(*args, **kwargs)

        monkeypatch.setattr(dbb, "packet_overlap", counting)
        xs = np.linspace(-3.0, 3.0, 7)
        for form in FORMS:
            wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
            velocity_2p(wf, xs[:, None], xs[None, :] + 0.1, GOLDEN_TIME)
            cross_coupling(wf, xs[:, None], xs[None, :] + 0.1, GOLDEN_TIME)
            psi2_eval(wf, xs, xs + 0.1, GOLDEN_TIME)
            traj = integrate_trajectory(wf, (-1.5, 1.5), 0.0, 0.1, 0.01)
            assert traj.times.size == 11
        # four calls for each of the two symmetrized forms, none for product
        assert len(calls) == 8

    def test_rejects_nan_points(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        with pytest.raises(ValueError):
            velocity_2p(wf, np.array([0.1, np.nan]), 0.3, 0.5)
        with pytest.raises(ValueError):
            cross_coupling(wf, 0.1, np.array([0.3, np.nan]), 0.5)

    @pytest.mark.parametrize("form", FORMS)
    def test_node_error_names_first_point(self, form):
        far = TwoParticleWF(
            WavePacket(center=-30.0, width=0.5, wavenumber=0.6),
            WavePacket(center=30.0, width=0.5, wavenumber=-0.4),
            form=form,
        )
        x1 = np.array([[-30.0, -30.0], [-30.0, -31.0]])
        x2 = np.array([[30.0, -23.25], [-5.0, 30.0]])
        for fn in (velocity_2p, cross_coupling):
            with pytest.raises(NodeSingularityError, match=re.escape("(-30.0, -23.25), t=0.0") + "$") as exc_info:
                fn(far, x1, x2, 0.0)
            message = str(exc_info.value)
            assert "array(" not in message and "np.float64(" not in message

    def test_antisymmetric_exchange_node_refused_on_arrays(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        with pytest.raises(NodeSingularityError, match=r"\(0\.2, 0\.2\)"):
            velocity_2p(wf, np.array([0.1, 0.2]), np.array([0.3, 0.2]), 0.5)

    @pytest.mark.parametrize("form", FORMS)
    def test_far_tail_value_is_zero(self, form):
        # (x - xc)^2 overflows out there; the value is 0, with no warning
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi2_eval(wf, 1e200, 0.0, 0.5) == 0j
            got = psi2_eval(wf, np.array([1e200, 0.1, -1e300]), np.array([0.0, 0.35, 1e300]), 0.5)
        assert got[0] == got[2] == 0j
        assert abs(got[1] - psi2_eval(wf, 0.1, 0.35, 0.5)) < 1e-15

    def test_product_far_tail_with_a_nan_log_psi_is_zero(self):
        # x - xc overflows to inf, so ik (x - x0) has real part 0 * inf: log psi is NaN, not -inf
        wf = TwoParticleWF(WavePacket(-1e308, 1.0, 0.5), PACKET_B, "product")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi2_eval(wf, 1e308, 0.0, 0.0) == 0j
            got = psi2_eval(wf, np.array([1e308, -1e308]), np.array([0.0, 0.35]), 0.0)
        assert got[0] == 0j and got[1] == psi2_eval(wf, -1e308, 0.35, 0.0) != 0j

    @pytest.mark.parametrize("form", ["symmetric", "antisymmetric"])
    def test_far_tail_refused_on_arrays(self, form):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with pytest.raises(NodeSingularityError, match=r"\(1e\+300, 0\.2\)"):
            velocity_2p(wf, np.array([0.1, 1e300]), np.array([0.3, 0.2]), 0.5)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_far_tail_refused_on_arrays_without_a_warning(self, form, t):
        # (x - xc)^2 overflows there; Tier-1 turns a numpy warning of it into an error
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with pytest.raises(NodeSingularityError, match=r"\(1e\+300, 0\.2\)"):
            velocity_2p(wf, np.array([0.1, 1e300]), np.array([0.3, 0.2]), t)
        with pytest.raises(NodeSingularityError, match=r"\(1e\+300, 0\.2"):
            cross_coupling(wf, np.array([0.1, 1e300]), np.array([0.3, 0.2]), t)


class TestTrajectories:
    # particle 1 of a product pair moves in its own packet's field alone

    def test_k_zero_stays_at_center(self):
        wf = product(WavePacket(center=0.4, width=1.0, wavenumber=0.0))
        tr = integrate_trajectory(wf, start=(0.4, 1.5), t0=0.0, t1=2.0, dt=0.01)
        assert np.max(np.abs(tr.positions[:, 0] - 0.4)) < 1e-10

    def test_wide_packet_advances_ballistically(self):
        wf = product(WavePacket(center=0.0, width=80.0, wavenumber=1.0))
        tr = integrate_trajectory(wf, start=(0.0, 1.5), t0=0.0, t1=2.0, dt=0.01)
        assert abs(tr.positions[-1, 0] - 2.0) < 1e-3  # k t

    def test_rk4_order(self):
        wf = product(WavePacket(center=0.0, width=0.5, wavenumber=1.0))

        def endpoint(dt):
            return integrate_trajectory(wf, start=(0.3, 1.5), t0=0.0, t1=1.0, dt=dt).positions[-1, 0]

        ref = endpoint(0.0005)
        e1 = abs(endpoint(0.02) - ref)
        e2 = abs(endpoint(0.01) - ref)
        order = np.log2(e1 / e2)
        assert 3.5 <= order <= 4.5

    def test_final_partial_step_lands_on_t1(self):
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.5))
        tr = integrate_trajectory(wf, start=(0.0, 1.5), t0=0.0, t1=1.05, dt=0.1)
        assert abs(tr.times[-1] - 1.05) < 1e-12

    def test_two_particle_product_matches_two_singles(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        tr = integrate_trajectory(wf, start=(-1.5, 1.5), t0=0.0, t1=1.0, dt=0.01)
        assert tr.positions.shape == (len(tr.times), 2)
        for i, (wp, x) in enumerate(((PACKET_A, -1.5), (PACKET_B, 1.5))):
            # each particle by RK4 on its own packet's closed-form velocity
            _, single, _ = reference_rk4(lambda y, t: np.array([gaussian_velocity(wp, y[0], t)]),
                                         np.array([x]), 0.0, 1.0, 0.01)
            assert abs(tr.positions[-1, i] - single[-1, 0]) < 1e-10

    def test_node_start_halts_immediately(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        with pytest.raises(NodeSingularityError) as exc_info:
            integrate_trajectory(wf, start=(0.2, 0.2), t0=0.0, t1=1.0, dt=0.01)
        partial = exc_info.value.partial_trajectory
        assert partial is not None
        assert len(partial.times) == 1

    def test_antisym_trajectories_never_cross(self):
        # the diagonal is a nodal surface, so particle ordering persists
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        tr = integrate_trajectory(wf, start=(-0.3, 0.3), t0=0.0, t1=1.5, dt=0.005)
        assert np.all(tr.positions[:, 1] > tr.positions[:, 0])

    def test_validation(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        with pytest.raises(ValueError):
            integrate_trajectory(wf, start=(0.0, 0.0), t0=0.0, t1=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_trajectory(wf, start=(0.0, 0.0), t0=1.0, t1=0.5, dt=0.01)
        with pytest.raises(ValueError):
            integrate_trajectory(wf, start=0.0, t0=0.0, t1=1.0, dt=0.01)
        with pytest.raises(ValueError, match="x2 must be finite"):
            integrate_trajectory(wf, start=(0.0, np.nan), t0=0.0, t1=1.0, dt=0.01)

    @hyp_settings(max_examples=300, deadline=None)
    @given(times=st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308])),
                          max_size=4))
    def test_increasing_times_checked_as_np_diff_would(self, times):
        # a pair is increasing as its difference is positive: inf, NaN and overflow included
        with np.errstate(over="ignore", invalid="ignore"):
            increasing = bool(np.all(np.diff(times) > 0.0))
        try:
            dbb.Trajectory(times, np.zeros((len(times), 2)))
        except ValueError as err:
            assert str(err) == "times must be strictly increasing" and not increasing
        else:
            assert increasing

    def test_increasing_check_makes_no_float_temporary(self):
        n = 100_000
        times, positions = np.arange(float(n)), np.zeros((n, 2))
        tracemalloc.start()
        try:
            dbb.Trajectory(times, positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n  # the comparison's n - 1 booleans, not np.diff's n - 1 doubles

    def test_dt_that_cannot_advance_time_refused(self, monkeypatch):
        # at |t| = 2e20 an ulp is 32768: t + dt == t for dt up to half of that
        half_ulp = 0.5 * np.spacing(2e20)
        for t0, t1 in ((1e20, 2e20), (0.0, 2e20)):
            with pytest.raises(ValueError, match="cannot advance"):
                dbb._check_span(t0, t1, half_ulp)
        # just above half an ulp time advances; a span of 1e9 keeps the step
        # count (~6e4) under _MAX_STEPS, which 1e20 would not
        dbb._check_span(2e20 - 1e9, 2e20, np.nextafter(half_ulp, np.inf))
        no_integration(monkeypatch)
        with pytest.raises(ValueError, match="cannot advance"):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=1e20, dt=1e3)

    def test_span_of_too_many_steps_refused(self, monkeypatch):
        no_integration(monkeypatch)
        dbb._check_span(0.0, 1e6, 1.0)  # exactly _MAX_STEPS steps
        for t0, t1, dt, steps in ((0.0, 1e6 + 1.0, 1.0, "1000001"), (0.0, 1.7e308, 1e300, "170000000"),
                                  (0.0, 1e9, 0.001, "1e+12")):
            with pytest.raises(ValueError, match=re.escape(f"= {steps} steps exceeds")):
                dbb._check_span(t0, t1, dt)
        # a span from before the start is refused first, so t1 - t0 <= t1 cannot overflow
        with pytest.raises(ValueError, match=r"^t = -1e\+308 is before the packets' start time 0\.0$"):
            dbb._check_span(-1e308, 1e308, 1e300)
        with pytest.raises(ValueError, match="steps exceeds"):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=2e6, dt=1.0)

    @hyp_settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.just(10**6), st.integers(1, 10**6)),
           dt=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-300, 1e300), st.floats(1e-4, 1.0)))
    @example(n=10**6, dt=0.22947474961030467)
    def test_span_of_n_steps_of_dt_takes_n_and_is_not_refused(self, n, dt):
        # spin's span, t1 = n * dt: the ratio (t1 - t0) / dt may round above n, even above the cap at
        # n = 10^6 (as at the example's dt); the span is counted by the steps it takes
        t1 = n * dt
        assume(math.isfinite(t1))
        dbb._check_span(0.0, t1, dt)
        assert dbb._step_count(0.0, t1, dt) == n

    def test_tiny_dt_takes_the_final_remainder(self):
        # dt = 1e-14 is far below the 1e-12 end tolerance; the 0.4 dt left
        # after one step is still a step, not rounding
        times, states = dbb._rk4(lambda x1, x2, t: (1.0, 1.0), 0.0, 0.0, 0.0, 1.4e-14, 1e-14)
        assert times.tolist() == [0.0, 1e-14, 1.4e-14]
        assert states[-2] == pytest.approx(1.4e-14, rel=1e-15)  # the last row's x1: x1 and x2 interleave
        times, _ = dbb._rk4(lambda x1, x2, t: (1.0, 1.0), 0.0, 0.0, 0.0, 1e-14 * (1 + 2e-3), 1e-14)
        assert times[-1] == 1e-14 * (1 + 2e-3) and len(times) == 3

    def test_long_span_takes_its_step_count(self):
        # 300 / 0.003 steps: t summed step by step ends 8.0e-10 short of t1, above the
        # 3e-10 end tolerance, and a loop on t took a 100,001st step of that size
        times, states = dbb._rk4(lambda x1, x2, t: (1.0, 1.0), 0.0, 0.0, 0.0, 300.0, 0.003)
        assert len(times) == 100_001 and times[-1] == 300.0
        assert np.all(np.diff(times[:-1]) > 0.0029) and np.all(np.diff(states[0::2]) > 0.0029)

    def test_long_span_lands_on_t1(self):
        # 1000 / 0.01 steps: t summed step by step ends 7.6e-10 short of t1, below the
        # 1e-9 end tolerance, so a loop on t stopped there; the last counted step's row is at t1
        times, _ = dbb._rk4(lambda x1, x2, t: (1.0, 1.0), 0.0, 0.0, 0.0, 1000.0, 0.01)
        assert len(times) == 100_001 and times[-1] == 1000.0
        assert 0.01 < times[-1] - times[-2] < 0.01 + 1e-9

    @pytest.mark.parametrize("t1, dt, n", [
        (1.0, 0.01, 100), (1.05, 0.1, 11), (0.5, 0.05, 10), (1.4e-14, 1e-14, 2), (1e-14 * (1 + 2e-3), 1e-14, 2),
        (1.0 + 5e-13, 0.5, 2),  # a remainder below 1e-12: rounding, not a step
        (1.0 + 1e-6, 0.5, 3),  # one above it: a step of its own
        (2000.0, 0.002, 10**6), (1e-23, 1.0, 0),
    ])
    def test_step_count(self, t1, dt, n):
        assert dbb._step_count(0.0, t1, dt) == n

    def test_nonfinite_stage_position_refused(self, monkeypatch):
        # the RK4 stages skip the boundary validation but not the finiteness check
        monkeypatch.setattr(dbb, "_stage_velocity", lambda *args: lambda *stage: (np.inf, 0.0))
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        with pytest.raises(ValueError, match="x1 must be finite"):
            integrate_trajectory(wf, start=(-1.5, 1.5), t0=0.0, t1=1.0, dt=0.01)

    def test_one_packet_validation(self):
        # trajectories are of pairs: a lone packet is refused before integrating
        wp = WavePacket(center=0.0, width=1.0, wavenumber=0.0)
        with pytest.raises(ValueError, match="wf must be a TwoParticleWF, got <class 'bell_lab.dbb.WavePacket'>"):
            integrate_trajectory(wp, start=0.0, t0=0.0, t1=1.0, dt=0.01)


def no_integration(monkeypatch):
    """Fail the test if either RK4 route starts: dbb's stepwise _rk4 or spin's _precess."""
    for name in ("_rk4", "_precess"):
        monkeypatch.setattr(dbb, name, lambda *args: pytest.fail("integration started"))


def reference_rk4(vel, x, t0, t1, dt):
    """The hand-rolled RK4 loop that integrate_trajectory and integrate_spin
    each carried before they shared one integrator; a bitwise oracle of
    trajectories, and of spin steps taken one at a time.

    Returns (times, states, halted): a NodeSingularityError from vel stops
    the loop and the completed steps are returned with halted = True.
    """
    times = [t0]
    points = [x.copy()]
    t = t0
    eps = 1e-12 * max(1.0, abs(t1))
    try:
        while t < t1 - eps:
            step = min(dt, t1 - t)
            k1 = vel(x, t)
            k2 = vel(x + 0.5 * step * k1, t + 0.5 * step)
            k3 = vel(x + 0.5 * step * k2, t + 0.5 * step)
            k4 = vel(x + step * k3, t + step)
            x = x + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t + step
            times.append(t)
            points.append(x.copy())
    except NodeSingularityError:
        return np.array(times), np.array(points), True
    return np.array(times), np.array(points), False


def stepwise_spin(s0, b, gyro, t1, dt):
    """(times, spins): RK4 precession one step at a time on dbb._grid's steps, the state a float
    tuple and the torque gyro * (s x B) written out on floats.  integrate_spin's route before it
    raised the step map to a power, in the generic loop that dbb._rk4 ran before it stepped a pair;
    bitwise equal to reference_rk4 with np.cross (test_derivative_bitwise_equal_to_np_cross) at a
    twentieth of its cost.
    """
    b0, b1, b2 = map(float, b)

    def torque(y):
        y0, y1, y2 = y
        return gyro * (y1 * b2 - y2 * b1), gyro * (y2 * b0 - y0 * b2), gyro * (y0 * b1 - y1 * b0)

    y = tuple(map(float, s0))
    times, spins = array("d", [0.0]), array("d", y)
    for _, step, _, _, row in dbb._grid(0.0, t1, dt):
        half, sixth = 0.5 * step, step / 6.0
        k1 = torque(y)
        k2 = torque([a + half * k for a, k in zip(y, k1)])
        k3 = torque([a + half * k for a, k in zip(y, k2)])
        k4 = torque([a + step * k for a, k in zip(y, k3)])
        y = tuple([a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)])
        times.append(row)
        spins.extend(y)
    return np.frombuffer(times), np.frombuffer(spins).reshape(-1, 3)


def larmor(s0, b, gyro, t):
    """The exact precession: s0 rotated about B by gyro |B| t, at each time of t."""
    s0, b = np.asarray(s0, dtype=float), np.asarray(b, dtype=float)
    n, phi = b / np.linalg.norm(b), gyro * np.linalg.norm(b) * np.asarray(t)[:, None]
    return s0 * np.cos(phi) + np.cross(s0, n) * np.sin(phi) + n * (n @ s0) * (1.0 - np.cos(phi))


EPS = np.finfo(float).eps


def stepwise_tolerance(s0, n):
    """|integrate_spin - stepwise RK4| allowed after n steps.

    The stepwise loop's rounding walk grows as n^2 eps: measured up to
    0.0103 n^2 eps |s0| (n = 10^5, x = gyro |B| dt = 0.124) and 0.84 n eps |s0|
    (n = 100), while integrate_spin stays within 5e-14 of RK4's exact power
    (mpmath, 2,000 steps at x = 0.124, where the loop is 1.2e-11 off it).
    """
    return (16.0 * n + n * n / 20.0) * EPS * np.linalg.norm(s0)


# (s0, B, gyro, dt): a field along z at the bench's dt (x = 0.002), a tilted one (x = 0.0098)
# and one with a negative z component (x = -0.124)
SPIN_CASES = [((0.6, -0.3, 0.742), (0.0, 0.0, 1.0), 1.0, 0.002), ((0.3, -0.8, 0.5), (0.2, -0.5, 1.3), 0.7, 0.01),
              ((0.0, 1.0, 1.0), (2.0, 0.0, -0.5), -0.6, 0.1)]


def reference_trajectory(wf, start, t0, t1, dt):
    def vel(x, t):
        return np.array(velocity_2p(wf, float(x[0]), float(x[1]), t))
    return reference_rk4(vel, np.array(start, dtype=float), t0, t1, dt)


# (wavefunction, start): near the centres, and far enough into a tail that
# the spreading packet drops the density at the trajectory below 1e-300
# after a few steps; the ids start at wf1, the names these cases have always run under
_NEAR = [pytest.param(TwoParticleWF(PACKET_A, PACKET_B, form=form), (-0.3, 0.3), id=f"wf{i}-start{i}")
         for i, form in enumerate(FORMS, 1)]
_HALTING = [pytest.param(TwoParticleWF(PACKET_A, PACKET_B, form=form), (-1.5, x2), id=f"wf{i}-start{i}")
            for i, (form, x2) in enumerate((("product", 42.344), ("symmetric", 42.3), ("antisymmetric", 42.3)), 1)]


class TestSharedRk4:
    @pytest.mark.parametrize("wf, start", _NEAR)
    @pytest.mark.parametrize("t0, t1, dt", [(0.0, 1.0, 0.01), (0.25, 1.3, 0.1), (0.0, 1.05, 0.1)])
    def test_trajectory_matches_reference(self, wf, start, t0, t1, dt):
        times, points, halted = reference_trajectory(wf, start, t0, t1, dt)
        assert not halted
        tr = integrate_trajectory(wf, start, t0, t1, dt)
        assert np.array_equal(tr.times, times)
        assert np.array_equal(tr.positions, points)

    def test_shortened_final_step_is_exercised(self):
        times, _, _ = reference_trajectory(*_NEAR[0].values, 0.0, 1.05, 0.1)
        assert 0.0 < times[-1] - times[-2] < 0.1 - 1e-9

    @pytest.mark.parametrize("wf, start", _HALTING)
    def test_node_halt_partial_matches_reference(self, wf, start):
        times, points, halted = reference_trajectory(wf, start, 0.0, 3.05, 0.1)
        assert halted and len(times) > 5
        with pytest.raises(NodeSingularityError) as exc_info:
            integrate_trajectory(wf, start, 0.0, 3.05, 0.1)
        partial = exc_info.value.partial_trajectory
        assert np.array_equal(partial.times, times)
        assert np.array_equal(partial.positions, points)

    @pytest.mark.parametrize("s0, b, gyro, t1, dt", [
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 2.0, 0.002),
        ((0.3, -1.2, 0.7), (0.4, 1.1, -2.0), 1.7, 1.0, 0.03),
        ((0.0, 1.0, 1.0), (2.0, 0.0, 0.5), -0.6, 0.95, 0.1),
    ])
    def test_spin_matches_reference(self, s0, b, gyro, t1, dt):
        # the same RK4 map, raised to a power instead of stepped: equal to rounding
        bv = np.array(b)
        times, spins, _ = reference_rk4(lambda s, t: gyro * np.cross(s, bv), np.array(s0), 0.0, t1, dt)
        tr = integrate_spin(s0, b, t1=t1, dt=dt, gyro=gyro)
        n = len(times) - 1
        assert len(tr.times) == n + 1 and tr.times[-1] == times[-1] == t1
        assert np.max(np.abs(tr.times - times)) <= n * EPS * t1  # k dt against t summed step by step
        assert np.max(np.abs(tr.spins - spins)) <= stepwise_tolerance(s0, n)

    @pytest.mark.parametrize("n", [100, 10**4, 10**5])
    @pytest.mark.parametrize("s0, b, gyro, dt", SPIN_CASES[::2])
    def test_spin_matches_stepwise_rk4(self, s0, b, gyro, dt, n):
        times, spins = stepwise_spin(s0, b, gyro, n * dt, dt)
        tr = integrate_spin(s0, b, t1=n * dt, dt=dt, gyro=gyro)
        assert len(tr.times) == len(times) == n + 1
        assert np.max(np.abs(tr.spins - spins)) <= stepwise_tolerance(s0, n)

    @pytest.mark.parametrize("n", [100, 10**4, 10**5])
    @pytest.mark.parametrize("s0, b, gyro, dt", SPIN_CASES)
    def test_spin_tracks_the_exact_rotation(self, s0, b, gyro, dt, n):
        # a third route: RK4's error per step is at most |x|^5/120 in phase and x^6/144 in
        # |s| (x = gyro |B| dt) on the part of s across B; the rest is rounding, measured
        # at most 1.0 eps (1 + k |x|) |s| beyond that bound
        tr = integrate_spin(s0, b, t1=n * dt, dt=dt, gyro=gyro)
        s, bv = np.array(s0), np.array(b)
        x, across = gyro * np.linalg.norm(bv) * dt, np.linalg.norm(s - bv * (s @ bv) / (bv @ bv))
        k = np.arange(n + 1)
        bound = across * k * (abs(x) ** 5 / 120.0 + x**6 / 144.0) + 8.0 * EPS * np.linalg.norm(s) * (1.0 + k * abs(x))
        assert np.all(np.linalg.norm(tr.spins - larmor(s0, b, gyro, tr.times), axis=1) <= bound)


def _outcome(kernel, *args):
    """The kernel's (v1, v2) as exact hex strings, or its node refusal message."""
    try:
        return tuple(float(v).hex() for v in kernel(*args))
    except NodeSingularityError as err:
        return str(err)


_PACKETS = st.builds(WavePacket, center=st.floats(-5.0, 5.0), width=st.floats(0.2, 3.0),
                     wavenumber=st.floats(-3.0, 3.0))
# an x1 near the packets, far into a tail or out where (x - xc)^2 overflows, and
# x2 - x1: on the exchange node x1 = x2, within rounding of it, near it, or anywhere
_POINTS = st.lists(st.tuples(
    st.one_of(st.floats(-6.0, 6.0), st.floats(-1e4, 1e4), st.floats(-1e300, 1e300)),
    st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-1e-2, 1e-2), st.floats(-8.0, 8.0),
              st.floats(-1e300, 1e300)),
), min_size=1, max_size=30)


# nonzero finite parts of a complex factor, subnormals among them; products stay finite
_NONZERO = st.one_of(st.floats(-1e150, 1e150), st.floats(-1e-300, 1e-300)).filter(bool)


class TestFloatStageKernel:
    """The RK4 stages' float kernel, for every form, against _velocity, its array oracle, on Python floats."""

    @hyp_settings(max_examples=150, deadline=None)
    @given(form=st.sampled_from(FORMS), a=_PACKETS, b=_PACKETS, t=st.floats(0.0, 4.0), points=_POINTS)
    def test_bitwise_equal_to_velocity(self, form, a, b, t, points):
        wf = TwoParticleWF(a, b, form=form)
        try:
            nf = dbb._norm_factor(wf)
            terms = dbb._terms(a, t), dbb._terms(b, t)
        except ValueError:
            assume(False)  # (near-)identical packets have no antisymmetric state, and a
            # wavenumber whose square is subnormal no terms
        kernel = dbb._stage_velocity(wf, nf)
        for x1, gap in points:
            x2 = x1 + gap
            assert _outcome(kernel, x1, x2, t, terms) == _outcome(dbb._velocity, wf, x1, x2, t, nf)

    def test_nan_log_density_refused_like_velocity(self):
        # x1 - xc overflows to inf, so Re log psi_a(x1) is NaN; both routes refuse the point (the
        # symmetrized forms have no such pair: their packet overlap overflows first)
        a = WavePacket(-1e308, 1.0, 0.5)
        wf = TwoParticleWF(a, PACKET_B)
        terms, nf = (dbb._terms(a, 0.0), dbb._terms(PACKET_B, 0.0)), dbb._norm_factor(wf)
        with np.errstate(over="ignore", invalid="ignore"):  # as velocity_2p calls _velocity
            want = _outcome(dbb._velocity, wf, 1e308, 1.5, 0.0, nf)
        assert _outcome(dbb._stage_velocity(wf, nf), 1e308, 1.5, 0.0, terms) == want == (
            "density below 1e-300 at (1e+308, 1.5), t=0.0")

    @pytest.mark.parametrize("form", FORMS[1:])
    def test_infinite_phase_at_a_finite_modulus_goes_to_velocity(self, form):
        # k (x - x0) overflows where x - xc does not: l1 - lm is 0 + inf i, where cmath.exp
        # raises and np.exp gives NaN, which _velocity refuses as a node
        a, b, t = WavePacket(0.0, 1.0, 2.0), WavePacket(0.0, 1.0, -2.0), 6e307
        wf = TwoParticleWF(a, b, form=form)
        terms = dbb._terms(a, t), dbb._terms(b, t)
        x1, x2 = terms[0][1], terms[1][1]  # each packet's centre
        l1 = dbb._log_psi(terms[0], x1) + dbb._log_psi(terms[1], x2)
        assert np.isfinite(l1.real) and l1.imag == np.inf
        with pytest.raises(ValueError):
            cmath.exp(l1 - l1.real)
        nf = dbb._norm_factor(wf)
        outcome = _outcome(dbb._stage_velocity(wf, nf), x1, x2, t, terms)
        assert outcome == _outcome(dbb._velocity, wf, x1, x2, t, nf) == (
            f"density below 1e-300 at ({x1!r}, {x2!r}), t={t!r}")

    @hyp_settings(max_examples=500, deadline=None)
    @given(re=st.one_of(st.floats(max_value=0.0, allow_nan=False), st.floats(-1e-300, 0.0), st.just(-np.inf)),
           im=st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300), st.sampled_from([0.0, -0.0]),
                        st.floats(-40.0, 40.0)))
    def test_cmath_exp_is_numpy_exp(self, re, im):
        # where the kernel takes exp: Re(l - lm) <= 0, at any finite phase; signs of zero included
        z = complex(re, im)
        assert _bits([cmath.exp(z)]) == _bits([complex(np.exp(z))])

    @hyp_settings(max_examples=500, deadline=None)
    @given(st.lists(st.builds(complex, _NONZERO, _NONZERO), min_size=4, max_size=4))
    def test_complex_products_are_the_written_out_ones(self, values):
        # the kernel's numerators w1 * g + sw2 * g': each part of a CPython complex product is _cmul's two
        # rounded products and one rounded sum (no FMA), so the sum of two products has the bits of the
        # written-out form; the one freedom is the sign of a part that is exactly zero, here where
        # subnormal products underflow (the exact-zero points below pin what the kernel makes of it)
        a, b, c, d = values
        for x, y in ((a, b), (c, d)):
            parts = x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real
            assert _bits([x * y]) == _bits([complex(*parts)])
        got = a * b + c * d
        want = ((a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)
                + ((c.real * d.real - c.imag * d.imag) + 1j * (c.real * d.imag + c.imag * d.real)))
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            assert g.hex() == w.hex() if w else g == w == 0.0

    @pytest.mark.parametrize("form", FORMS[1:])
    @pytest.mark.parametrize("ka, kb", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.6, 0.0), (0.0, -0.4),
                                        (0.6, -0.4)])
    @pytest.mark.parametrize("centres", [(-1.5, 1.5), (0.0, 1.5), (-0.0, 2.0), (5e-324, -1.5)])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_exact_zero_points_equal_velocity(self, form, ka, kb, centres, t):
        # zero wavenumbers at the start time make every imaginary part an exact zero, stage points at
        # the packet centres and at x = +-0.0 real parts too: each v and its sign of zero as _velocity's
        a, b = WavePacket(centres[0], 0.8, ka), WavePacket(centres[1], 1.1, kb)
        wf = TwoParticleWF(a, b, form=form)
        nf, terms = dbb._norm_factor(wf), (dbb._terms(a, t), dbb._terms(b, t))
        kernel = dbb._stage_velocity(wf, nf)
        xs = list(dict.fromkeys([0.0, -0.0, 5e-324, *centres, terms[0][1], terms[1][1]]))
        outcomes = [(_outcome(kernel, x1, x2, t, terms), _outcome(dbb._velocity, wf, x1, x2, t, nf))
                    for x1 in xs for x2 in xs]
        assert [pair for pair in outcomes if pair[0] != pair[1]] == []
        if ka == kb == 0.0 and t == 0.0:  # antisymmetric: x1 == x2 is a node, refused by both
            assert all(v in ("0x0.0p+0", "-0x0.0p+0") for got, _ in outcomes if type(got) is tuple for v in got)

    def test_exp_differs_only_at_an_infinite_phase(self):
        for z in (complex(0.0, np.inf), complex(-3.0, -np.inf)):
            with pytest.raises(ValueError, match="math domain error"):
                cmath.exp(z)
            with np.errstate(invalid="ignore"):
                assert np.isnan(np.exp(z))
        assert _bits([cmath.exp(complex(-np.inf, np.inf))]) == _bits([complex(np.exp(complex(-np.inf, np.inf)))])

    @pytest.mark.parametrize("form", FORMS)
    def test_packet_terms_once_per_stage_time(self, monkeypatch, form):
        # stages 2 and 3 share a time, and stage 4's is the next step's first
        calls = clocked(monkeypatch, keep_terms=True)
        tr = integrate_trajectory(TwoParticleWF(PACKET_A, PACKET_B, form=form), (-1.5, 1.5),
                                  0.25, 1.3, 0.1)
        # t0, each step's midpoint and end, once for each packet, each a float of its own whose terms
        # are _terms' bitwise; _norm_factor's terms, at t = 0, are not the clock's
        times = [(wp, t) for wp, t, _ in calls]
        assert all(type(t) is float for _, t in times)
        assert len(times) == len(set(times)) == 2 * (2 * len(tr.times) - 1)
        assert [_bits(terms) for _, _, terms in calls] == [_bits(dbb._terms(wp, t)) for wp, t in times]

    def test_no_batch_exceeds_the_block(self, monkeypatch):
        # no block of stage times is worked out ahead: the clock takes one time per call, as the stages
        # reach it, so over 10^5 steps each packet's times arrive increasing, each distinct time once
        calls = clocked(monkeypatch)
        monkeypatch.setattr(dbb, "_stage_velocity", lambda *args: lambda *stage: (0.0, 0.0))
        tr = integrate_trajectory(TwoParticleWF(PACKET_A, PACKET_B), (-1.5, 1.5), 0.0, 300.0, 0.003)
        assert len(tr.times) == 10**5 + 1
        assert all(type(t) is float for _, t, _ in calls)
        times_a = [t for wp, t, _ in calls if wp is PACKET_A]
        assert len(times_a) == 2 * 10**5 + 1 and times_a == sorted(set(times_a))
        assert [t for wp, t, _ in calls if wp is PACKET_B] == times_a


def clocked(monkeypatch, keep_terms=False):
    """Record (packet, time, its terms if keep_terms else None) of every call to a _clock's evaluator."""
    calls = []
    clock = dbb._clock

    def recording(wp, t_end):
        at, end = clock(wp, t_end)

        def timed(t):
            terms = at(t)
            calls.append((wp, t, terms if keep_terms else None))
            return terms
        return timed, end

    monkeypatch.setattr(dbb, "_clock", recording)
    return calls


U = 2.0**-53  # the unit roundoff of float64
# _PACKETS, less the wavenumbers whose square is not a normal float, which _clock refuses
_ORACLE_PACKETS = st.builds(WavePacket, center=st.floats(-5.0, 5.0), width=st.floats(0.2, 3.0),
                            wavenumber=st.one_of(st.just(0.0), st.floats(1e-100, 3.0), st.floats(-3.0, -1e-100)))


def one_time_terms(wp, t):
    """The packet terms as one evaluation at t worked them out, t-independent parts included."""
    tau = t / (2.0 * wp.width**2)
    a = 1.0 + 1.0j * tau
    xc = wp.center + wp.wavenumber * t
    return (
        complex(-0.25 * math.log(2.0 * math.pi * wp.width**2) - 0.5 * cmath.log(a)),
        xc,
        4.0 * wp.width**2 * a,
        2.0 * wp.width**2 * a,
        1.0j * wp.wavenumber,
        wp.center,
        1.0j * (0.5 * wp.wavenumber**2 * t + 0.0),  # + 0.0: the phase at t = -0.0 is +0j, as at t = 0.0
    )


def _bits(terms):
    """Each term's type and exact real and imaginary parts: -0.0 and 0.0 differ."""
    return [(type(v), complex(v).real.hex(), complex(v).imag.hex()) for v in terms]


def _normal(v):
    return np.finfo(float).tiny <= v < np.inf


# widths and wavenumbers near 1 and out to where their squares leave float64
_ANY_SIZE = st.one_of(st.floats(0.2, 3.0), st.floats(1e-320, 1e300))
_RANGED_PACKETS = st.builds(WavePacket, center=st.one_of(st.floats(-5.0, 5.0), st.floats(-1e300, 1e300)),
                            width=_ANY_SIZE, wavenumber=st.one_of(st.just(0.0), _ANY_SIZE, _ANY_SIZE.map(lambda k: -k)))


class TestClock:
    """_clock's per-time terms against the one-time formula, and its refusals."""

    @hyp_settings(max_examples=300, deadline=None)
    @given(wp=_RANGED_PACKETS, t=st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e300)), later=st.floats(0.0, 1e3))
    def test_bitwise_equal_to_one_time_terms(self, wp, t, later):
        t_end = t + later
        try:
            want = one_time_terms(wp, t_end)
        except (OverflowError, ZeroDivisionError, ValueError):  # float ** and /, and math.log of 0, raise
            want = None
        try:
            clock, end = dbb._clock(wp, t_end)
        except ValueError as err:
            assert str(err) == (f"packet algebra leaves float64 by t={t_end!r}: "
                                f"width={wp.width!r}, wavenumber={wp.wavenumber!r}")
            # refused only where the terms leave float64 or a square is not normal
            assert (want is None or not all(np.isfinite(want)) or not _normal(wp.width**2)
                    or not (wp.wavenumber == 0.0 or _normal(wp.wavenumber**2)))
            return
        assert _bits(end) == _bits(clock(t_end)) == _bits(want)
        assert _bits(clock(t)) == _bits(one_time_terms(wp, t))
        assert all(np.isfinite(clock(t)))  # the terms grow with t, so t_end bounds them
        assert _bits(dbb._terms(wp, t)) == _bits(clock(t))

    @hyp_settings(max_examples=300, deadline=None)
    @given(wp=_RANGED_PACKETS, t_end=st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e300)),
           fractions=st.lists(st.floats(0.0, 1.0), max_size=40))
    def test_batch_bitwise_equal_to_each_time(self, wp, t_end, fractions):
        # a clock keeps no state from one time to the next: over a batch of times, in order and
        # reversed, each time's terms are those of a clock made for that time alone, _terms'
        try:
            clock, _ = dbb._clock(wp, t_end)
        except ValueError:
            assume(False)
        times = [0.0, *(f * t_end for f in fractions), t_end]
        want = [_bits(dbb._terms(wp, t)) for t in times]
        assert [_bits(clock(t)) for t in times] == want
        assert [_bits(clock(t)) for t in reversed(times)] == want[::-1]

    def test_batch_keeps_the_sign_of_a_zero_time(self):
        wp = WavePacket(center=-0.0, width=0.8, wavenumber=-0.6)
        clock, _ = dbb._clock(wp, 1.0)
        times = [-0.0, 0.0, 5e-324, 1.0]
        assert [_bits(clock(t)) for t in times] == [_bits(dbb._terms(wp, t)) for t in times]
        assert [_bits(clock(t)) for t in times] == [_bits(one_time_terms(wp, t)) for t in times]
        assert _bits([clock(-0.0)[6]]) == _bits([0j])  # the phase at t = -0.0 is +0j, as at t = 0.0

    def test_log_density_floor_is_the_log_of_1e_300(self):
        # math.log's double, and np.log's: the node test's floor did not move with the library it comes from
        assert dbb._LOG_DENSITY_FLOOR.hex() == math.log(1e-300).hex() == float(np.log(1e-300)).hex()

    @hyp_settings(max_examples=300, deadline=None)
    @given(wp=_ORACLE_PACKETS, other=_ORACLE_PACKETS, t=st.floats(0.0, 50.0))
    def test_log_terms_and_overlap_against_mpmath(self, wp, other, t):
        # an oracle at 40 digits from the float inputs, within a forward-error bound: each rounded operation
        # on the way errs by at most U relative to the size of what it rounds (U * 4 for a complex division,
        # and for cmath.log, allowed 2 ulp per part), and an error passes through log and exp as an absolute
        # or relative one of the same size
        with mpmath.workdps(40):
            w2, u2, d = mpmath.mpf(wp.width) ** 2, mpmath.mpf(other.width) ** 2, mpmath.mpf(other.center) - wp.center
            log_w, log_a = -mpmath.log(2 * mpmath.pi * w2) / 4, mpmath.log(mpmath.mpc(1, mpmath.mpf(t) / (2 * w2)))
            const = complex(log_w - log_a / 2)
            # <a|b> = N_a N_b int exp(-A y^2 + B y + C) dy in y = x - center_a, the Gaussian integral
            big_a = 1 / (4 * w2) + 1 / (4 * u2)
            big_b = d / (2 * u2) + 1j * (mpmath.mpf(other.wavenumber) - wp.wavenumber)
            big_c = -d * d / (4 * u2) - 1j * other.wavenumber * d
            overlap = complex(mpmath.sqrt(mpmath.pi / big_a) * mpmath.exp(big_b**2 / (4 * big_a) + big_c)
                              * (4 * mpmath.pi**2 * w2 * u2) ** -0.25)
            scale = float(abs(log_w) + abs(log_a))
            size = float(abs(log_w) + abs(mpmath.log(2 * mpmath.pi * u2)) / 4 + d * d / (4 * u2)
                         + abs(other.wavenumber * d) + abs(big_b) ** 2 / (4 * big_a))
        # const: w^2, pi, their product, math.log, t / (2 w^2), cmath.log (2) and the subtraction: 8 operations
        assert abs(dbb._terms(wp, t)[0] - const) <= 8 * U * (1.0 + scale)
        # the exponent r - q^2 / 4p: per packet 11 operations to its coefficients, then 3 sums, q^2, 4p, the
        # division and the subtraction, 29 in all, each at most 4 U of the exponent's addends; then exp,
        # pi / -p, sqrt and the product, 4 more, relative to the overlap
        assert abs(packet_overlap(wp, other) - overlap) <= (4 * 29 * U * (1.0 + size) + 4 * 4 * U) * abs(overlap)

    @pytest.mark.parametrize("width, k", [
        (1e200, 0.6),  # width**2 overflows: float ** raises
        (0.8, 1e200),  # so does wavenumber**2
        (1e-200, 0.6),  # width**2 underflows to 0
        (1e-160, 0.6),  # width**2 is subnormal
        (0.8, -1e-160),  # so is wavenumber**2
        (1e-150, 0.6),  # tau overflows at t = 1e10
    ])
    @pytest.mark.parametrize("form", FORMS)
    def test_refused_at_every_entry_point(self, monkeypatch, form, width, k):
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        wf = TwoParticleWF(WavePacket(-1.5, width, k), PACKET_B, form=form)
        message = r"^packet algebra leaves float64 by t=\S+: " + re.escape(f"width={width!r}, wavenumber={k!r}") + "$"
        x1, x2 = np.array([-1.5, 0.1]), np.array([1.5, 0.35])
        for fn in (psi2_eval, velocity_2p, cross_coupling):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for point in ((-1.5, 1.5), (x1, x2)):
                    with pytest.raises(ValueError, match=message):
                        fn(wf, *point, 1e10)
        with pytest.raises(ValueError, match=message):
            integrate_trajectory(wf, (-1.5, 1.5), 0.0, 1e10, 1e5)

    def test_trajectory_checked_at_t1(self, monkeypatch):
        # tau = t / (2 width^2) is finite at t = 1 and overflows by t = 1e9
        wf = TwoParticleWF(WavePacket(-1.5, 1e-150, 0.6), PACKET_B, form="symmetric")
        assert np.isfinite(velocity_2p(wf, -1.5, 1.5, 1.0)).all()
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        with pytest.raises(ValueError, match=r"^packet algebra leaves float64 by t=1000000000\.0: width=1e-150"):
            integrate_trajectory(wf, (-1.5, 1.5), 0.0, 1e9, 1e4)


class TestSpinPrecession:
    # the torque gyro * (s x B) is seen through the steps it drives

    def test_derivative_parallel_field_vanishes(self):
        # s x B = 0: no stage moves the spin, so every row is the start
        tr = integrate_spin((0.0, 0.0, 1.0), (0.0, 0.0, 2.0), t1=1.0, dt=0.1)
        assert np.array_equal(tr.spins, np.tile([0.0, 0.0, 1.0], (len(tr.times), 1)))

    def test_derivative_example(self):
        # ds/dt = (0, -3, 0) at s = x, B = 3z: one short step moves s by dt times it
        dt = 1e-7
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 3.0), t1=dt, dt=dt)
        assert np.max(np.abs((tr.spins[1] - tr.spins[0]) / dt - np.array([0.0, -3.0, 0.0]))) < 1e-6

    def test_derivative_orthogonal_to_spin(self):
        # every stage's torque is orthogonal to B, so s.B is kept to rounding; orthogonal
        # to s, so |s| drifts by the RK4 error alone
        rng = np.random.default_rng(131)
        for _ in range(100):
            s, b = rng.normal(size=3), rng.normal(size=3)
            tr = integrate_spin(s, b, t1=0.1, dt=0.01)
            scale = np.linalg.norm(s) * max(1.0, np.linalg.norm(b))
            assert np.max(np.abs(tr.spins @ b - s @ b)) < 1e-14 * scale
            assert np.max(np.abs(np.linalg.norm(tr.spins, axis=1) - np.linalg.norm(s))) < 1e-9 * scale

    def test_derivative_bitwise_equal_to_np_cross(self):
        # the stepwise oracle's torque, written out on floats, rounds as gyro * np.cross
        # does at any magnitude; integrate_spin agrees with both within the tolerance
        rng = np.random.default_rng(132)
        for _ in range(100):
            s, b = rng.normal(size=3) * 10.0 ** rng.integers(-5, 6, size=3), rng.normal(size=3)
            gyro = rng.normal()
            _, spins, _ = reference_rk4(lambda y, t: gyro * np.cross(y, b), s, 0.0, 0.05, 0.01)
            assert np.array_equal(stepwise_spin(s, b, gyro, 0.05, 0.01)[1], spins)
            tr = integrate_spin(s, b, t1=0.05, dt=0.01, gyro=gyro)
            assert np.max(np.abs(tr.spins - spins)) <= stepwise_tolerance(s, 5)

    def test_norms_are_each_row_norm_taken_once(self):
        tr = integrate_spin((0.3, -0.8, 0.5), (0.2, -0.5, 1.3), t1=20.0, dt=0.01)
        want = [np.linalg.norm(np.array(row)) for row in tr.spins.tolist()]  # each row contiguous
        assert [v.hex() for v in tr.norms.tolist()] == [v.hex() for v in want]
        assert tr.norms is tr.norms

    def test_components_are_contiguous(self):
        tr = integrate_spin((0.3, -0.8, 0.5), (0.0, 0.0, 1.0), t1=1.0, dt=0.01)
        assert tr.spins.shape == (101, 3) and all(column.flags.c_contiguous for column in tr.spins.T)

    def test_field_along_z_keeps_sz_and_its_sign(self):
        # B / |B| is +-z exactly, so sz is the start's exactly, for either sign of bz
        for bz in (1.3, -1.3):
            tr = integrate_spin((0.3, -0.8, 0.5), (0.0, 0.0, bz), t1=20.0, dt=0.01)
            assert np.all(tr.spins[:, 2] == 0.5)
            assert tr.spins[1, 1] * bz < -0.8 * bz  # s' = gyro s x B: sy falls for bz > 0

    def test_steps_at_the_cap(self):
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=10**6 * 0.002, dt=0.002)
        assert len(tr.times) == 10**6 + 1 and tr.times[-1] == 2000.0

    def test_shortened_last_step(self):
        # 1.05 / 0.1: ten steps of dt and one of 0.05, the RK4 map at each size
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=1.05, dt=0.1)
        times, spins = stepwise_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 1.05, 0.1)
        assert len(tr.times) == len(times) == 12 and tr.times[-1] == 1.05
        assert np.max(np.abs(tr.spins - spins)) <= 1e-15

    def test_zero_field_keeps_the_start(self):
        tr = integrate_spin((0.3, -0.8, 0.5), (0.0, 0.0, 0.0), t1=1.0, dt=0.1)
        assert np.array_equal(tr.spins, np.tile([0.3, -0.8, 0.5], (11, 1)))

    def test_field_whose_norm_overflows(self):
        # |B| = 1.7e308 * sqrt(2) overflows; B / |B| and gyro |B| dt do not
        tr = integrate_spin((1.0, 0.0, 0.0), (1.7e308, 1.7e308, 0.0), t1=1.0, dt=0.1, gyro=1e-310)
        assert np.max(np.abs(tr.spins - larmor((1.0, 0.0, 0.0), (1.0, 1.0, 0.0), 1e-310 * 1.7e308, tr.times))) < 1e-6

    def test_norm_conserved_long_run(self):
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=20.0, dt=0.002)
        norms = np.linalg.norm(tr.spins, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_larmor_frequency(self):
        # s_x(t) = cos(gyro*B*t), s_y(t) = -sin(gyro*B*t) for B along z
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=10.0, dt=0.001)
        assert np.max(np.abs(tr.spins[:, 0] - np.cos(tr.times))) < 1e-6
        assert np.max(np.abs(tr.spins[:, 1] + np.sin(tr.times))) < 1e-6
        assert np.max(np.abs(tr.spins[:, 2])) < 1e-12

    def test_returns_after_full_period(self):
        period = 2.0 * np.pi
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=period, dt=0.0005)
        assert np.max(np.abs(tr.spins[-1] - np.array([1.0, 0.0, 0.0]))) < 1e-6

    def test_aligned_spin_is_stationary(self):
        tr = integrate_spin((0.0, 0.0, 1.0), (0.0, 0.0, 5.0), t1=3.0, dt=0.01)
        assert np.max(np.abs(tr.spins - np.array([0.0, 0.0, 1.0]))) < 1e-12

    def test_gyro_scales_frequency(self):
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=np.pi, dt=0.0005, gyro=2.0)
        # after t = pi at doubled rate the spin returns to +x
        assert np.max(np.abs(tr.spins[-1] - np.array([1.0, 0.0, 0.0]))) < 1e-6

    def test_zero_spin_rejected(self):
        with pytest.raises(ValueError, match="^spin vector must be nonzero$"):
            integrate_spin((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=1.0, dt=0.1)

    def test_spin_given_any_way_is_three_floats(self):
        for s0 in (np.array([0, 0, 2]), [0, 0, 2], np.array([[0.0], [0.0], [2.0]])):
            s = dbb._as_spin(s0)
            assert s == (0.0, 0.0, 2.0) and all(type(v) is float for v in s)
            assert np.array_equal(integrate_spin(s0, (1.0, 0.0, 0.0), t1=1.0, dt=0.5).spins[0], s)

    @pytest.mark.parametrize("s0", [
        (1e-170, 1e-170, 0.0),  # |s|^2 underflows to 0 for a nonzero spin
        (0.0, 1e-160, 0.0),  # |s|^2 is subnormal
        (1e200, 0.0, 0.0),  # |s|^2 overflows
        (0.0, 1.5e154, -1.5e154),  # so does a sum of normal squares
    ])
    def test_spin_whose_square_is_not_normal_refused(self, monkeypatch, s0):
        no_integration(monkeypatch)
        message = re.escape(f"spin algebra leaves float64: |s|^2 of s={s0!r} is not a normal float")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                integrate_spin(s0, (0.0, 0.0, 1.0), t1=0.004, dt=0.002)

    @pytest.mark.parametrize("s0", [(1.5e-154, 0.0, 0.0), (0.0, 0.0, -1e154)])
    def test_spin_whose_square_is_normal_kept(self, s0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = integrate_spin(s0, (0.0, 0.0, 1.0), t1=0.004, dt=0.002)
        assert np.array_equal(tr.spins[0], s0) and np.isfinite(np.vecdot(tr.spins, tr.spins)).all()

    @pytest.mark.parametrize("s0, gyro, dt", [
        ((1e150, 0.0, 0.0), 1e200, 0.002),  # the torque overflows, so the states do
        ((1e154, 0.0, 0.0), 1.0, 3.0),  # the states stay finite; at omega dt = 3 each RK4 step grows |s|^2 2.27x
    ])
    def test_run_leaving_float64_refused_once_the_steps_are_done(self, monkeypatch, s0, gyro, dt):
        runs = []
        precess = dbb._precess
        monkeypatch.setattr(dbb, "_precess", lambda *args: runs.append(precess(*args)) or runs[-1])
        message = re.escape(f"spin algebra leaves float64 by t={dt!r}: s0={s0!r}, b_field=(0.0, 0.0, 1.0), "
                            f"gyro={gyro!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                integrate_spin(s0, (0.0, 0.0, 1.0), t1=3 * dt, dt=dt, gyro=gyro)
        assert len(runs[0][0]) == 4  # no row checked on its own: all three steps were taken

    def test_integration_validation(self):
        with pytest.raises(ValueError):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=0.0, dt=0.01)
        with pytest.raises(ValueError):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), t1=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 1.0), t1=1.0, dt=0.1)
