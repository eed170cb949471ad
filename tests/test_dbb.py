import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st
from scipy.integrate import quad

from bell_lab import dbb
from bell_lab.dbb import (
    FORMS,
    PhysicalConstants,
    SpinState,
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

C = PhysicalConstants()

PACKET_A = WavePacket(center=-1.5, width=0.8, wavenumber=0.6)
PACKET_B = WavePacket(center=1.5, width=1.1, wavenumber=-0.4)
GOLDEN_POINT = (0.1, 0.35)
GOLDEN_TIME = 0.8
GOLDEN_ANTISYM = 0.274334872102655
GOLDEN_SYM = 0.852541359356584


def gaussian(wp, x, t):
    """One free packet's psi(x, t), written out from the dbb module docstring."""
    tau = C.hbar * (t - wp.start_time) / (2.0 * C.mass * wp.width**2)
    xc = wp.center + C.hbar * wp.wavenumber * (t - wp.start_time) / C.mass
    return ((2.0 * np.pi * wp.width**2) ** -0.25 / np.sqrt(1.0 + 1.0j * tau)
            * np.exp(-(x - xc) ** 2 / (4.0 * wp.width**2 * (1.0 + 1.0j * tau))
                     + 1.0j * wp.wavenumber * (x - wp.center)
                     - 0.5j * C.hbar * wp.wavenumber**2 * (t - wp.start_time) / C.mass))


def gaussian_velocity(wp, x, t):
    """One free packet's guidance velocity in real arithmetic: hbar k / m plus the spreading term."""
    tau = C.hbar * (t - wp.start_time) / (2.0 * C.mass * wp.width**2)
    xc = wp.center + C.hbar * wp.wavenumber * (t - wp.start_time) / C.mass
    return C.hbar / C.mass * (wp.wavenumber + (x - xc) * tau / (2.0 * wp.width**2 * (1.0 + tau * tau)))


def product(wp):
    """wp as particle 1 of a product pair, with PACKET_B as particle 2."""
    return TwoParticleWF(wp, PACKET_B, form="product")


class TestSinglePacket:
    """One packet, as particle 1 of a product pair; x2 = 0.4 where a point needs one."""

    def test_normalized_any_time(self):
        wf = product(WavePacket(center=0.3, width=0.7, wavenumber=1.2))
        xs = np.linspace(-16.0, 16.0, 801)
        for t in (0.0, 0.5, 2.0):
            rho = np.abs(psi2_eval(wf, C, xs[:, None], xs[None, :], t)) ** 2
            assert abs(np.trapezoid(np.trapezoid(rho, xs, axis=1), xs) - 1.0) < 1e-8

    def test_center_moves_at_group_velocity(self):
        wf = product(WavePacket(center=-1.0, width=0.5, wavenumber=2.0))
        t = 1.3
        xc = -1.0 + C.hbar * 2.0 * t / C.mass
        # at a fixed x2 the x1 density is the packet's, up to a constant factor
        n, _ = quad(lambda x: abs(psi2_eval(wf, C, x, 0.4, t)) ** 2, -60, 60, limit=200)
        m, _ = quad(lambda x: x * abs(psi2_eval(wf, C, x, 0.4, t)) ** 2, -60, 60, limit=200)
        assert abs(m / n - xc) < 1e-8

    def test_k_zero_initial_velocity_vanishes(self):
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.0))
        for x in (-0.7, 0.0, 1.3):
            assert abs(velocity_2p(wf, C, x, 0.4, 0.0)[0]) < 1e-14

    def test_wide_packet_moves_at_hbar_k_over_m(self):
        wf = product(WavePacket(center=0.0, width=50.0, wavenumber=1.5))
        v = velocity_2p(wf, C, 0.2, 0.4, 0.4)[0]
        assert abs(v - C.hbar * 1.5 / C.mass) < 1e-4

    def test_spreading_term_is_odd_in_displacement(self):
        # for k = 0 at t > 0 the velocity field is linear in (x - center)
        wf = product(WavePacket(center=0.0, width=0.6, wavenumber=0.0))
        v1 = velocity_2p(wf, C, 0.5, 0.4, 1.0)[0]
        v2 = velocity_2p(wf, C, -0.5, 0.4, 1.0)[0]
        assert abs(v1 + v2) < 1e-12
        assert v1 > 0.0  # spreading pushes probability outward

    def test_velocity_matches_finite_difference_of_phase(self):
        wf = product(WavePacket(center=-0.4, width=0.9, wavenumber=0.8))
        h = 1e-6
        for x, t in [(0.3, 0.2), (-1.0, 1.5), (2.0, 0.7)]:
            dphase = np.angle(psi2_eval(wf, C, x + h, 0.4, t) / psi2_eval(wf, C, x - h, 0.4, t)) / (2 * h)
            assert abs(velocity_2p(wf, C, x, 0.4, t)[0] - C.hbar * dphase / C.mass) < 1e-6

    def test_far_tail_raises_node_error(self):
        wf = product(WavePacket(center=0.0, width=0.1, wavenumber=0.0))
        with pytest.raises(NodeSingularityError):
            velocity_2p(wf, C, 1e6, 0.4, 0.0)

    def test_start_time_validation(self):
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.0, start_time=1.0))
        for fn in (psi2_eval, velocity_2p):
            with pytest.raises(ValueError, match="before the packet's start_time"):
                fn(wf, C, 0.0, 0.4, 0.5)

    def test_nonfinite_x_refused(self):
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.0))
        for fn in (psi2_eval, velocity_2p):
            with pytest.raises(ValueError, match="x1 must be finite"):
                fn(wf, C, np.nan, 0.4, 0.0)
            with pytest.raises(ValueError, match="x1 must be finite"):
                fn(wf, C, np.array([0.0, np.inf]), 0.4, 0.0)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            WavePacket(center=0.0, width=0.0, wavenumber=1.0)
        with pytest.raises(ValueError):
            WavePacket(center=0.0, width=-1.0, wavenumber=1.0)


class TestOverlap:
    def test_matches_quadrature(self):
        for t in (0.0, GOLDEN_TIME, 2.1):
            def integrand_re(x):
                return (gaussian(PACKET_A, x, t).conjugate() * gaussian(PACKET_B, x, t)).real

            def integrand_im(x):
                return (gaussian(PACKET_A, x, t).conjugate() * gaussian(PACKET_B, x, t)).imag

            re, _ = quad(integrand_re, -80, 80, limit=300)
            im, _ = quad(integrand_im, -80, 80, limit=300)
            got = packet_overlap(PACKET_A, PACKET_B, C, t=t)
            assert abs(got - complex(re, im)) < 1e-10

    def test_time_invariant_modulus(self):
        # free evolution is unitary, so |<a|b>| is conserved
        vals = [
            abs(packet_overlap(PACKET_A, PACKET_B, C, t=t))
            for t in (0.0, 0.8, 3.0, 10.0)
        ]
        assert max(vals) - min(vals) < 1e-12

    def test_self_overlap_is_one(self):
        assert abs(packet_overlap(PACKET_A, PACKET_A, C) - 1.0) < 1e-12

    @pytest.mark.parametrize("shift", [1e4, -1e8, 1e12])
    def test_translation_invariant(self, shift):
        # moving both packets changes nothing, however far from the origin they go
        a, b = (WavePacket(wp.center + shift, wp.width, wp.wavenumber) for wp in (PACKET_A, PACKET_B))
        assert abs(packet_overlap(a, b, C) - packet_overlap(PACKET_A, PACKET_B, C)) < 1e-12

    def test_packets_too_far_apart_are_refused(self):
        # the separation squared overflows float64; both symmetrized forms refuse alike
        a, b = WavePacket(-1e300, 0.8, 0.6), WavePacket(1e300, 1.1, -0.4)
        message = r"^packet overlap overflows float64: centres -1e\+300 and 1e\+300 at t=0\.0$"
        with pytest.raises(ValueError, match=message):
            packet_overlap(a, b, C)
        for form in ("symmetric", "antisymmetric"):
            wf = TwoParticleWF(a, b, form=form)
            for fn in (velocity_2p, cross_coupling):
                with pytest.raises(ValueError, match=message):
                    fn(wf, C, np.array([-1e300, 0.0]), 1e300, 0.8)


class TestTwoParticleDensity:
    def test_product_density_factorizes(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        x1, x2, t = 0.3, -0.8, 0.6
        rho = psi2_eval(wf, C, x1, x2, t)
        want = gaussian(PACKET_A, x1, t) * gaussian(PACKET_B, x2, t)
        assert abs(rho - want) < 1e-12

    def test_antisym_vanishes_on_diagonal(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        assert abs(psi2_eval(wf, C, 0.4, 0.4, 0.7)) < 1e-12

    def test_exchange_symmetry(self):
        sym = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        anti = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        x1, x2, t = -0.2, 0.9, 0.5
        assert abs(psi2_eval(sym, C, x1, x2, t) - psi2_eval(sym, C, x2, x1, t)) < 1e-12
        assert (
            abs(psi2_eval(anti, C, x1, x2, t) + psi2_eval(anti, C, x2, x1, t)) < 1e-12
        )

    def test_symmetrized_norm_via_quadrature(self):
        # the exchange integral gives N = 1/sqrt(2 +- 2|<a|b>|^2); check
        # both the total probability and the constant itself
        o2 = abs(packet_overlap(PACKET_A, PACKET_B, C)) ** 2
        for form, sign in (("symmetric", 1.0), ("antisymmetric", -1.0)):
            wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
            xs = np.linspace(-8.0, 8.0, 401)
            rho = np.empty((len(xs), len(xs)))
            for i, x1 in enumerate(xs):
                rho[i] = np.abs(psi2_eval(wf, C, float(x1), xs, 0.0)) ** 2
            total = np.trapezoid(np.trapezoid(rho, xs, axis=1), xs)
            assert abs(total - 1.0) < 1e-6
            expected = 1.0 / np.sqrt(2.0 + sign * 2.0 * o2)
            val = psi2_eval(wf, C, 0.1, 0.35, 0.0)
            a = gaussian(PACKET_A, 0.1, 0.0) * gaussian(PACKET_B, 0.35, 0.0)
            b = gaussian(PACKET_A, 0.35, 0.0) * gaussian(PACKET_B, 0.1, 0.0)
            assert abs(val - expected * (a + sign * b)) < 1e-12

    def test_antisym_identical_packets_rejected(self):
        with pytest.raises(ValueError):
            wf = TwoParticleWF(PACKET_A, PACKET_A, form="antisymmetric")
            psi2_eval(wf, C, 0.0, 1.0, 0.0)

    def test_form_validation(self):
        with pytest.raises(ValueError):
            TwoParticleWF(PACKET_A, PACKET_B, form="mixed")

    @pytest.mark.parametrize("form", ["product", "symmetric", "antisymmetric"])
    def test_point_validation(self, form):
        late_a = WavePacket(center=-1.0, width=0.5, wavenumber=1.0, start_time=1.0)
        late_b = WavePacket(center=1.0, width=0.7, wavenumber=-1.0, start_time=1.0)
        wf = TwoParticleWF(late_a, late_b, form=form)
        with pytest.raises(ValueError, match="before the packet's start_time"):
            psi2_eval(wf, C, 0.1, 0.2, 0.0)
        with pytest.raises(ValueError, match="x1 must be finite"):
            psi2_eval(wf, C, np.nan, 0.2, 1.5)
        with pytest.raises(ValueError, match="x2 must be finite"):
            psi2_eval(wf, C, 0.1, np.array([0.2, np.inf]), 1.5)


# a coordinate near the packets or anywhere out to the far tails
_COORDINATES = st.one_of(st.floats(-6.0, 6.0), st.floats(-1e300, 1e300))


class TestVelocities:
    def test_product_matches_single_particle(self):
        # each velocity is its own packet's, and v1 does not see x2 at all
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        v1s = set()
        for x2 in (-2.0, 0.0, 3.0):
            v1, v2 = velocity_2p(wf, C, 0.25, x2, 0.9)
            assert v1 == pytest.approx(gaussian_velocity(PACKET_A, 0.25, 0.9), rel=1e-14)
            assert v2 == pytest.approx(gaussian_velocity(PACKET_B, x2, 0.9), rel=1e-14)
            v1s.add(v1)
        assert len(v1s) == 1

    def test_symmetrized_velocity_via_finite_difference(self):
        for form in ("symmetric", "antisymmetric"):
            wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
            x1, x2, t = 0.1, 0.35, GOLDEN_TIME
            h = 1e-6
            p0 = psi2_eval(wf, C, x1, x2, t)
            dp1 = (psi2_eval(wf, C, x1 + h, x2, t) - psi2_eval(wf, C, x1 - h, x2, t)) / (2 * h)
            dp2 = (psi2_eval(wf, C, x1, x2 + h, t) - psi2_eval(wf, C, x1, x2 - h, t)) / (2 * h)
            v1, v2 = velocity_2p(wf, C, x1, x2, t)
            assert abs(v1 - C.hbar / C.mass * (dp1 / p0).imag) < 1e-5
            assert abs(v2 - C.hbar / C.mass * (dp2 / p0).imag) < 1e-5

    @hyp_settings(max_examples=200, deadline=None)
    @given(form=st.sampled_from(["symmetric", "antisymmetric"]),
           x1=_COORDINATES, x2=_COORDINATES, t=st.floats(0.0, 3.0))
    def test_exchange_symmetry(self, form, x1, x2, t):
        # psi(x1, x2) = +-psi(x2, x1), so v1(x1, x2) = v2(x2, x1); swapping the
        # points swaps the two exchange terms exactly, so the results are bitwise
        # equal, and a node (far tails included) is refused at both points
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        try:
            v1, v2 = velocity_2p(wf, C, x1, x2, t)
        except NodeSingularityError:
            with pytest.raises(NodeSingularityError, match=re.escape(f"({x2!r}, {x1!r}), t=")):
                velocity_2p(wf, C, x2, x1, t)
            return
        assert velocity_2p(wf, C, x2, x1, t) == (v2, v1)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("x1, x2", [(1e200, 0.0), (0.0, 1e200), (1e155, 0.0), (-1e300, 1e300)])
    def test_far_tail_refused_as_a_node(self, form, x1, x2):
        # beyond about 1e154 from the packets (x - xc)^2 overflows; every form refuses the point
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with pytest.raises(NodeSingularityError, match=re.escape(f"({x1!r}, {x2!r}), t=0.5") + "$"):
            velocity_2p(wf, C, x1, x2, 0.5)


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
                        worst, abs(cross_coupling(wf, C, float(x1), float(x2), 0.9))
                    )
            assert worst < 1e-8

    def test_antisymmetric_golden_value(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        g = cross_coupling(wf, C, *GOLDEN_POINT, GOLDEN_TIME)
        assert abs(g) >= 0.99 * GOLDEN_ANTISYM

    def test_symmetric_golden_value(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        g = cross_coupling(wf, C, *GOLDEN_POINT, GOLDEN_TIME)
        assert abs(abs(g) - GOLDEN_SYM) < 1e-6 * GOLDEN_SYM

    def test_forms_differ_at_golden_point(self):
        anti = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        sym = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        ga = cross_coupling(anti, C, *GOLDEN_POINT, GOLDEN_TIME)
        gs = cross_coupling(sym, C, *GOLDEN_POINT, GOLDEN_TIME)
        assert abs(ga - gs) > 0.1

    def test_identical_packets_symmetric_form_uncoupled(self):
        # symmetrizing identical packets reproduces the product state, so
        # the coupling must vanish despite the symmetrized formula
        wf = TwoParticleWF(PACKET_A, PACKET_A, form="symmetric")
        for x1, x2 in [(-0.5, 0.7), (0.1, 0.35), (1.2, -1.0)]:
            assert abs(cross_coupling(wf, C, x1, x2, 0.6)) < 1e-8


def analytic_cross_coupling(wf, c, x1, x2, t):
    """|dv1/dx2| in closed form.

    d log psi is linear in x for a free Gaussian, so with psi = psi1 + s psi2,
    psi1 = a(x1) b(x2) and psi2 = a(x2) b(x1),
    dv1/dx2 = (hbar/m) Im(d1 d2 psi / psi - d1 psi d2 psi / psi^2).
    """

    def log_and_slope(wp, x):
        tau = c.hbar * (t - wp.start_time) / (2.0 * c.mass * wp.width**2)
        a = 1.0 + 1.0j * tau
        xc = wp.center + c.hbar * wp.wavenumber * (t - wp.start_time) / c.mass
        slope = -(x - xc) / (2.0 * wp.width**2 * a) + 1.0j * wp.wavenumber
        log = -0.5 * np.log(a) - (x - xc) ** 2 / (4.0 * wp.width**2 * a) + 1.0j * wp.wavenumber * x
        return log, slope

    (la1, da1), (la2, da2) = (log_and_slope(wf.packet_a, x) for x in (x1, x2))
    (lb1, db1), (lb2, db2) = (log_and_slope(wf.packet_b, x) for x in (x1, x2))
    if wf.form == "product":
        return np.zeros(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
    s = 1.0 if wf.form == "symmetric" else -1.0
    l1, l2 = la1 + lb2, la2 + lb1
    lm = np.maximum(l1.real, l2.real)
    w1, w2 = np.exp(l1 - lm), s * np.exp(l2 - lm)
    psi = w1 + w2
    d1 = w1 * da1 + w2 * db1
    d2 = w1 * db2 + w2 * da2
    d12 = w1 * da1 * db2 + w2 * db1 * da2
    return np.abs(c.hbar / c.mass * np.imag(d12 / psi - d1 * d2 / psi**2))


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
        v1, v2 = velocity_2p(wf, C, x1, x2, t)
        cc = cross_coupling(wf, C, x1, x2, t)
        if shape == ():
            assert type(v1) is float and type(v2) is float and type(cc) is float
        assert np.shape(v1) == np.shape(v2) == np.shape(cc) == shape
        for i in np.ndindex(shape):
            a, b = np.float64(np.asarray(x1)[i]), np.float64(np.asarray(x2)[i])
            assert (np.asarray(v1)[i], np.asarray(v2)[i]) == velocity_2p(wf, C, a, b, t)
            assert np.asarray(cc)[i] == cross_coupling(wf, C, a, b, t)

    @pytest.mark.parametrize("form", FORMS)
    def test_row_broadcast_matches_points(self, form):
        # the CLI's layout: one scalar x1 against a row of x2
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        xs1 = np.linspace(-3.1, 3.55, 15)
        xs2 = xs1 + 0.2375
        for x1 in xs1:
            v1, v2 = velocity_2p(wf, C, x1, xs2, GOLDEN_TIME)
            cc = cross_coupling(wf, C, x1, xs2, GOLDEN_TIME)
            for j, x2 in enumerate(xs2):
                assert (v1[j], v2[j]) == velocity_2p(wf, C, x1, x2, GOLDEN_TIME)
                assert cc[j] == cross_coupling(wf, C, x1, x2, GOLDEN_TIME)

    def test_square_rounds_alike_on_scalars_and_arrays(self):
        # at these x1 the libm pow(d, 2) that a scalar ** 2 calls differs from
        # the correctly rounded d * d that an array ** 2 computes
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        x1 = np.array([-1.8016008307514264, 2.285567725566442, 0.5381448676347205,
                       2.3182707445626907])
        x2 = np.float64(0.35)
        v1, v2 = velocity_2p(wf, C, x1, x2, GOLDEN_TIME)
        for i, x in enumerate(x1):
            assert (v1[i], v2[i]) == velocity_2p(wf, C, x, x2, GOLDEN_TIME)

    @pytest.mark.parametrize("form", FORMS)
    def test_analytic_cross_coupling(self, form):
        # 1e-6 is the bound the Richardson error meets next to the antisymmetric node
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        xs = np.linspace(-3.0, 3.0, 25)
        x1, x2 = xs[:, None], xs[None, :] + 0.125
        for t in (0.0, GOLDEN_TIME, 1.7):
            got = cross_coupling(wf, C, x1, x2, t)
            want = analytic_cross_coupling(wf, C, x1, x2, t)
            assert got.shape == (25, 25)
            assert np.max(np.abs(got - want)) < 1e-6
        if form == "antisymmetric":
            assert abs(float(analytic_cross_coupling(wf, C, *GOLDEN_POINT, GOLDEN_TIME))
                       - GOLDEN_ANTISYM) < 1e-9

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
            velocity_2p(wf, C, xs[:, None], xs[None, :] + 0.1, GOLDEN_TIME)
            cross_coupling(wf, C, xs[:, None], xs[None, :] + 0.1, GOLDEN_TIME)
            psi2_eval(wf, C, xs, xs + 0.1, GOLDEN_TIME)
            traj = integrate_trajectory(wf, C, (-1.5, 1.5), 0.0, 0.1, 0.01)
            assert traj.times.size == 11
        # four calls for each of the two symmetrized forms, none for product
        assert len(calls) == 8

    def test_rejects_nan_points(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        with pytest.raises(ValueError):
            velocity_2p(wf, C, np.array([0.1, np.nan]), 0.3, 0.5)
        with pytest.raises(ValueError):
            cross_coupling(wf, C, 0.1, np.array([0.3, np.nan]), 0.5)

    @pytest.mark.parametrize("form", FORMS)
    def test_node_error_names_first_point(self, form):
        far = TwoParticleWF(
            WavePacket(center=-30.0, width=0.5, wavenumber=0.6),
            WavePacket(center=30.0, width=0.5, wavenumber=-0.4),
            form=form,
        )
        x1 = np.array([[-30.0, -30.0], [-30.0, -31.0]])
        x2 = np.array([[30.0, -23.25], [-5.0, 30.0]])
        # cross_coupling names the shifted point it evaluated, x2 +- step
        for fn, point in ((velocity_2p, r"\(-30\.0, -23\.25\)"),
                          (cross_coupling, r"\(-30\.0, -23\.2[45]\d*\)")):
            with pytest.raises(NodeSingularityError, match=point + ", t=0.0$") as exc_info:
                fn(far, C, x1, x2, 0.0)
            message = str(exc_info.value)
            assert "array(" not in message and "np.float64(" not in message

    def test_antisymmetric_exchange_node_refused_on_arrays(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        with pytest.raises(NodeSingularityError, match=r"\(0\.2, 0\.2\)"):
            velocity_2p(wf, C, np.array([0.1, 0.2]), np.array([0.3, 0.2]), 0.5)

    @pytest.mark.parametrize("form", FORMS)
    def test_far_tail_value_is_zero(self, form):
        # (x - xc)^2 overflows out there; the value is 0, with no warning
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi2_eval(wf, C, 1e200, 0.0, 0.5) == 0j
            got = psi2_eval(wf, C, np.array([1e200, 0.1, -1e300]), np.array([0.0, 0.35, 1e300]), 0.5)
        assert got[0] == got[2] == 0j
        assert abs(got[1] - psi2_eval(wf, C, 0.1, 0.35, 0.5)) < 1e-15

    @pytest.mark.parametrize("form", ["symmetric", "antisymmetric"])
    def test_far_tail_refused_on_arrays(self, form):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with pytest.raises(NodeSingularityError, match=r"\(1e\+300, 0\.2\)"):
            velocity_2p(wf, C, np.array([0.1, 1e300]), np.array([0.3, 0.2]), 0.5)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_far_tail_refused_on_arrays_without_a_warning(self, form, t):
        # (x - xc)^2 overflows there; Tier-1 turns a numpy warning of it into an error
        wf = TwoParticleWF(PACKET_A, PACKET_B, form=form)
        with pytest.raises(NodeSingularityError, match=r"\(1e\+300, 0\.2\)"):
            velocity_2p(wf, C, np.array([0.1, 1e300]), np.array([0.3, 0.2]), t)
        with pytest.raises(NodeSingularityError, match=r"\(1e\+300, 0\.2"):
            cross_coupling(wf, C, np.array([0.1, 1e300]), np.array([0.3, 0.2]), t)


class TestTrajectories:
    # particle 1 of a product pair moves in its own packet's field alone

    def test_k_zero_stays_at_center(self):
        wf = product(WavePacket(center=0.4, width=1.0, wavenumber=0.0))
        tr = integrate_trajectory(wf, C, start=(0.4, 1.5), t0=0.0, t1=2.0, dt=0.01)
        assert np.max(np.abs(tr.positions[:, 0] - 0.4)) < 1e-10

    def test_wide_packet_advances_ballistically(self):
        wf = product(WavePacket(center=0.0, width=80.0, wavenumber=1.0))
        tr = integrate_trajectory(wf, C, start=(0.0, 1.5), t0=0.0, t1=2.0, dt=0.01)
        assert abs(tr.positions[-1, 0] - C.hbar * 1.0 * 2.0 / C.mass) < 1e-3

    def test_rk4_order(self):
        wf = product(WavePacket(center=0.0, width=0.5, wavenumber=1.0))

        def endpoint(dt):
            return integrate_trajectory(wf, C, start=(0.3, 1.5), t0=0.0, t1=1.0, dt=dt).positions[-1, 0]

        ref = endpoint(0.0005)
        e1 = abs(endpoint(0.02) - ref)
        e2 = abs(endpoint(0.01) - ref)
        order = np.log2(e1 / e2)
        assert 3.5 <= order <= 4.5

    def test_final_partial_step_lands_on_t1(self):
        wf = product(WavePacket(center=0.0, width=1.0, wavenumber=0.5))
        tr = integrate_trajectory(wf, C, start=(0.0, 1.5), t0=0.0, t1=1.05, dt=0.1)
        assert abs(tr.times[-1] - 1.05) < 1e-12

    def test_two_particle_product_matches_two_singles(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        tr = integrate_trajectory(wf, C, start=(-1.5, 1.5), t0=0.0, t1=1.0, dt=0.01)
        assert tr.positions.shape == (len(tr.times), 2)
        for i, (wp, x) in enumerate(((PACKET_A, -1.5), (PACKET_B, 1.5))):
            # each particle by RK4 on its own packet's closed-form velocity
            _, single, _ = reference_rk4(lambda y, t: np.array([gaussian_velocity(wp, y[0], t)]),
                                         np.array([x]), 0.0, 1.0, 0.01)
            assert abs(tr.positions[-1, i] - single[-1, 0]) < 1e-10

    def test_node_start_halts_immediately(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        with pytest.raises(NodeSingularityError) as exc_info:
            integrate_trajectory(wf, C, start=(0.2, 0.2), t0=0.0, t1=1.0, dt=0.01)
        partial = exc_info.value.partial_trajectory
        assert partial is not None
        assert len(partial.times) == 1

    def test_antisym_trajectories_never_cross(self):
        # the diagonal is a nodal surface, so particle ordering persists
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="antisymmetric")
        tr = integrate_trajectory(wf, C, start=(-0.3, 0.3), t0=0.0, t1=1.5, dt=0.005)
        assert np.all(tr.positions[:, 1] > tr.positions[:, 0])

    def test_validation(self):
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="product")
        with pytest.raises(ValueError):
            integrate_trajectory(wf, C, start=(0.0, 0.0), t0=0.0, t1=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_trajectory(wf, C, start=(0.0, 0.0), t0=1.0, t1=0.5, dt=0.01)
        with pytest.raises(ValueError):
            integrate_trajectory(wf, C, start=0.0, t0=0.0, t1=1.0, dt=0.01)
        with pytest.raises(ValueError, match="x2 must be finite"):
            integrate_trajectory(wf, C, start=(0.0, np.nan), t0=0.0, t1=1.0, dt=0.01)

    def test_dt_that_cannot_advance_time_refused(self, monkeypatch):
        # at |t| = 2e20 an ulp is 32768: t + dt == t for dt up to half of that
        half_ulp = 0.5 * np.spacing(2e20)
        for t0, t1 in ((1e20, 2e20), (-2e20, 0.0)):
            with pytest.raises(ValueError, match="cannot advance"):
                dbb._check_span(t0, t1, half_ulp)
        # just above half an ulp time advances; a span of 1e9 keeps the step
        # count (~6e4) under _MAX_STEPS, which 1e20 would not
        dbb._check_span(2e20 - 1e9, 2e20, np.nextafter(half_ulp, np.inf))
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        with pytest.raises(ValueError, match="cannot advance"):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), C, t1=1e20, dt=1e3)

    def test_span_of_too_many_steps_refused(self, monkeypatch):
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        dbb._check_span(0.0, 1e6, 1.0)  # exactly _MAX_STEPS steps
        for t0, t1, dt in ((0.0, 1e6 + 1.0, 1.0), (-1e308, 1e308, 1e300), (0.0, 1e9, 0.001)):
            with pytest.raises(ValueError, match="steps exceeds"):
                dbb._check_span(t0, t1, dt)
        with pytest.raises(ValueError, match="steps exceeds"):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), C, t1=2e6, dt=1.0)

    def test_tiny_dt_takes_the_final_remainder(self):
        # dt = 1e-14 is far below the 1e-12 end tolerance; the 0.4 dt left
        # after one step is still a step, not rounding
        times, states = dbb._rk4(lambda y, t: (1.0,), (0.0,), 0.0, 1.4e-14, 1e-14)
        assert times.tolist() == [0.0, 1e-14, 1.4e-14]
        assert states[-1] == pytest.approx(1.4e-14, rel=1e-15)
        times, _ = dbb._rk4(lambda y, t: (1.0,), (0.0,), 0.0, 1e-14 * (1 + 2e-3), 1e-14)
        assert times[-1] == 1e-14 * (1 + 2e-3) and len(times) == 3

    def test_nonfinite_stage_position_refused(self, monkeypatch):
        # the RK4 stages skip the boundary validation but not the finiteness check
        monkeypatch.setattr(dbb, "_stage_velocity", lambda *args: (np.inf, 0.0))
        wf = TwoParticleWF(PACKET_A, PACKET_B, form="symmetric")
        with pytest.raises(ValueError, match="x1 must be finite"):
            integrate_trajectory(wf, C, start=(-1.5, 1.5), t0=0.0, t1=1.0, dt=0.01)

    def test_one_packet_validation(self):
        # trajectories are of pairs: a lone packet is refused before integrating
        wp = WavePacket(center=0.0, width=1.0, wavenumber=0.0)
        with pytest.raises(ValueError, match="wf must be a TwoParticleWF, got <class 'bell_lab.dbb.WavePacket'>"):
            integrate_trajectory(wp, C, start=0.0, t0=0.0, t1=1.0, dt=0.01)


def reference_rk4(vel, x, t0, t1, dt):
    """The hand-rolled RK4 loop that integrate_trajectory and integrate_spin
    each carried before they shared one integrator; a bitwise oracle.

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


def reference_trajectory(wf, start, t0, t1, dt):
    def vel(x, t):
        return np.array(velocity_2p(wf, C, float(x[0]), float(x[1]), t))
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
        tr = integrate_trajectory(wf, C, start, t0, t1, dt)
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
            integrate_trajectory(wf, C, start, 0.0, 3.05, 0.1)
        partial = exc_info.value.partial_trajectory
        assert np.array_equal(partial.times, times)
        assert np.array_equal(partial.positions, points)

    @pytest.mark.parametrize("s0, b, gyro, t1, dt", [
        ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 2.0, 0.002),
        ((0.3, -1.2, 0.7), (0.4, 1.1, -2.0), 1.7, 1.0, 0.03),
        ((0.0, 1.0, 1.0), (2.0, 0.0, 0.5), -0.6, 0.95, 0.1),
    ])
    def test_spin_matches_reference(self, s0, b, gyro, t1, dt):
        bv = np.array(b)
        times, spins, _ = reference_rk4(lambda s, t: gyro * np.cross(s, bv), np.array(s0), 0.0, t1, dt)
        tr = integrate_spin(s0, b, PhysicalConstants(gyro=gyro), t1=t1, dt=dt)
        assert np.array_equal(tr.times, times)
        assert np.array_equal(tr.spins, spins)


def _outcome(kernel, *args):
    """The kernel's (v1, v2) as exact hex strings, or its node refusal message."""
    try:
        return tuple(float(v).hex() for v in kernel(*args))
    except NodeSingularityError as err:
        return str(err)


_PACKETS = st.builds(WavePacket, center=st.floats(-5.0, 5.0), width=st.floats(0.2, 3.0),
                     wavenumber=st.floats(-3.0, 3.0), start_time=st.floats(-1.0, 1.0))
# an x1 near the packets, far into a tail or out where (x - xc)^2 overflows, and
# x2 - x1: on the exchange node x1 = x2, within rounding of it, near it, or anywhere
_POINTS = st.lists(st.tuples(
    st.one_of(st.floats(-6.0, 6.0), st.floats(-1e4, 1e4), st.floats(-1e300, 1e300)),
    st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-1e-2, 1e-2), st.floats(-8.0, 8.0),
              st.floats(-1e300, 1e300)),
), min_size=1, max_size=30)


class TestFloatStageKernel:
    """The RK4 stages' float kernel against _velocity, its array oracle, on Python floats."""

    @hyp_settings(max_examples=150, deadline=None)
    @given(form=st.sampled_from(["symmetric", "antisymmetric"]), a=_PACKETS, b=_PACKETS,
           hbar=st.floats(0.3, 3.0), mass=st.floats(0.3, 3.0), dt=st.floats(0.0, 4.0), points=_POINTS)
    def test_bitwise_equal_to_velocity(self, form, a, b, hbar, mass, dt, points):
        # the product form's stages call _velocity itself
        wf, c = TwoParticleWF(a, b, form=form), PhysicalConstants(hbar=hbar, mass=mass)
        try:
            nf = dbb._norm_factor(wf, c)
        except ValueError:
            assume(False)  # (near-)identical packets have no antisymmetric state
        t = max(a.start_time, b.start_time) + dt
        terms = dbb._terms(a, c, t), dbb._terms(b, c, t)
        for x1, gap in points:
            x2 = x1 + gap
            assert (_outcome(dbb._stage_velocity, wf, c, x1, x2, t, nf, terms)
                    == _outcome(dbb._velocity, wf, c, x1, x2, t, nf))

    @pytest.mark.parametrize("form", FORMS)
    def test_packet_terms_once_per_stage_time(self, monkeypatch, form):
        # stages 2 and 3 share a time, and stage 4's is the next step's first
        calls = []
        clock = dbb._clock

        def recording(wp, c, t_end):
            at, end = clock(wp, c, t_end)

            def timed(t):
                calls.append((wp, t))
                return at(t)
            return timed, end

        monkeypatch.setattr(dbb, "_clock", recording)
        tr = integrate_trajectory(TwoParticleWF(PACKET_A, PACKET_B, form=form), C, (-1.5, 1.5),
                                  0.25, 1.3, 0.1)
        # each step's start and midpoint, and the end, once for each packet; _norm_factor's
        # terms, at t = 0, take no per-time call
        assert len(calls) == len(set(calls)) == 2 * (2 * len(tr.times) - 1)


def one_time_terms(wp, c, t):
    """The packet terms as one evaluation at t worked them out, t-independent parts included."""
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


def _bits(terms):
    """Each term's type and exact real and imaginary parts: -0.0 and 0.0 differ."""
    return [(type(v), complex(v).real.hex(), complex(v).imag.hex()) for v in terms]


def _normal(v):
    return np.finfo(float).tiny <= v < np.inf


# widths and wavenumbers near 1 and out to where their squares leave float64
_ANY_SIZE = st.one_of(st.floats(0.2, 3.0), st.floats(1e-320, 1e300))
_RANGED_PACKETS = st.builds(WavePacket, center=st.one_of(st.floats(-5.0, 5.0), st.floats(-1e300, 1e300)),
                            width=_ANY_SIZE, wavenumber=st.one_of(st.just(0.0), _ANY_SIZE, _ANY_SIZE.map(lambda k: -k)),
                            start_time=st.floats(-1.0, 1.0))


class TestClock:
    """_clock's per-time terms against the one-time formula, and its refusals."""

    @hyp_settings(max_examples=300, deadline=None)
    @given(wp=_RANGED_PACKETS, hbar=st.floats(0.3, 3.0), mass=st.floats(0.3, 3.0),
           dt=st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e300)), later=st.floats(0.0, 1e3))
    def test_bitwise_equal_to_one_time_terms(self, wp, hbar, mass, dt, later):
        c = PhysicalConstants(hbar=hbar, mass=mass)
        t = wp.start_time + dt
        t_end = t + later
        with np.errstate(all="ignore"):
            try:
                want = one_time_terms(wp, c, t_end)
            except (OverflowError, ZeroDivisionError):  # float ** and / raise
                want = None
        try:
            clock, end = dbb._clock(wp, c, t_end)
        except ValueError as err:
            assert str(err) == (f"packet algebra leaves float64 by t={t_end!r}: "
                                f"width={wp.width!r}, wavenumber={wp.wavenumber!r}")
            # refused only where the terms leave float64 or a square is not normal
            assert (want is None or not all(np.isfinite(want)) or not _normal(wp.width**2)
                    or not (wp.wavenumber == 0.0 or _normal(wp.wavenumber**2)))
            return
        assert _bits(end) == _bits(clock(t_end)) == _bits(want)
        assert _bits(clock(t)) == _bits(one_time_terms(wp, c, t))
        assert all(np.isfinite(clock(t)))  # the terms grow with t, so t_end bounds them
        assert _bits(dbb._terms(wp, c, t)) == _bits(clock(t))

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
                        fn(wf, C, *point, 1e10)
        with pytest.raises(ValueError, match=message):
            integrate_trajectory(wf, C, (-1.5, 1.5), 0.0, 1e10, 1e5)

    def test_trajectory_checked_at_t1(self, monkeypatch):
        # tau = t / (2 width^2) is finite at t = 1 and overflows by t = 1e9
        wf = TwoParticleWF(WavePacket(-1.5, 1e-150, 0.6), PACKET_B, form="symmetric")
        assert np.isfinite(velocity_2p(wf, C, -1.5, 1.5, 1.0)).all()
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        with pytest.raises(ValueError, match=r"^packet algebra leaves float64 by t=1000000000\.0: width=1e-150"):
            integrate_trajectory(wf, C, (-1.5, 1.5), 0.0, 1e9, 1e4)


class TestSpinPrecession:
    # the torque gyro * (s x B) is seen through the steps it drives

    def test_derivative_parallel_field_vanishes(self):
        # s x B = 0: no stage moves the spin, so every row is the start
        tr = integrate_spin(SpinState((0.0, 0.0, 1.0)), (0.0, 0.0, 2.0), C, t1=1.0, dt=0.1)
        assert np.array_equal(tr.spins, np.tile([0.0, 0.0, 1.0], (len(tr.times), 1)))

    def test_derivative_example(self):
        # ds/dt = (0, -3, 0) at s = x, B = 3z: one short step moves s by dt times it
        dt = 1e-7
        tr = integrate_spin(SpinState((1.0, 0.0, 0.0)), (0.0, 0.0, 3.0), C, t1=dt, dt=dt)
        assert np.max(np.abs((tr.spins[1] - tr.spins[0]) / dt - np.array([0.0, -3.0, 0.0]))) < 1e-6

    def test_derivative_orthogonal_to_spin(self):
        # every stage's torque is orthogonal to B, so s.B is kept to rounding; orthogonal
        # to s, so |s| drifts by the RK4 error alone
        rng = np.random.default_rng(131)
        for _ in range(100):
            s, b = rng.normal(size=3), rng.normal(size=3)
            tr = integrate_spin(s, b, C, t1=0.1, dt=0.01)
            scale = np.linalg.norm(s) * max(1.0, np.linalg.norm(b))
            assert np.max(np.abs(tr.spins @ b - s @ b)) < 1e-14 * scale
            assert np.max(np.abs(np.linalg.norm(tr.spins, axis=1) - np.linalg.norm(s))) < 1e-9 * scale

    def test_derivative_bitwise_equal_to_np_cross(self):
        # the torque written out on floats rounds as gyro * np.cross does, at any magnitude
        rng = np.random.default_rng(132)
        for _ in range(100):
            s, b = rng.normal(size=3) * 10.0 ** rng.integers(-5, 6, size=3), rng.normal(size=3)
            gyro = rng.normal()
            _, spins, _ = reference_rk4(lambda y, t: gyro * np.cross(y, b), s, 0.0, 0.05, 0.01)
            tr = integrate_spin(s, b, PhysicalConstants(gyro=gyro), t1=0.05, dt=0.01)
            assert np.array_equal(tr.spins, spins)

    def test_norm_conserved_long_run(self):
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), C, t1=20.0, dt=0.002)
        norms = np.linalg.norm(tr.spins, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_larmor_frequency(self):
        # s_x(t) = cos(gyro*B*t), s_y(t) = -sin(gyro*B*t) for B along z
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), C, t1=10.0, dt=0.001)
        assert np.max(np.abs(tr.spins[:, 0] - np.cos(tr.times))) < 1e-6
        assert np.max(np.abs(tr.spins[:, 1] + np.sin(tr.times))) < 1e-6
        assert np.max(np.abs(tr.spins[:, 2])) < 1e-12

    def test_returns_after_full_period(self):
        period = 2.0 * np.pi
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), C, t1=period, dt=0.0005)
        assert np.max(np.abs(tr.spins[-1] - np.array([1.0, 0.0, 0.0]))) < 1e-6

    def test_aligned_spin_is_stationary(self):
        tr = integrate_spin((0.0, 0.0, 1.0), (0.0, 0.0, 5.0), C, t1=3.0, dt=0.01)
        assert np.max(np.abs(tr.spins - np.array([0.0, 0.0, 1.0]))) < 1e-12

    def test_gyro_scales_frequency(self):
        c2 = PhysicalConstants(gyro=2.0)
        tr = integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), c2, t1=np.pi, dt=0.0005)
        # after t = pi at doubled rate the spin returns to +x
        assert np.max(np.abs(tr.spins[-1] - np.array([1.0, 0.0, 0.0]))) < 1e-6

    def test_zero_spin_rejected(self):
        with pytest.raises(ValueError):
            SpinState((0.0, 0.0, 0.0))

    def test_integration_validation(self):
        with pytest.raises(ValueError):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), C, t1=0.0, dt=0.01)
        with pytest.raises(ValueError):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), C, t1=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            integrate_spin((1.0, 0.0, 0.0), (0.0, 1.0), C, t1=1.0, dt=0.1)
