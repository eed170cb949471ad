#!/usr/bin/env python3
"""Guidance velocities for two Gaussian packets: product vs symmetrized.

In the de Broglie-Bohm picture each particle follows the velocity field
v_i = Im(d log psi / d x_i), in units ħ = m = 1.  For a product wavefunction the
field for particle 1 cannot depend on x_2 — the cross-coupling
|d v_1 / d x_2| vanishes identically.  Symmetrizing or antisymmetrizing
the same two packets makes the coupling finite everywhere the packets
overlap: the nonlocal dependence is a property of the wavefunction's
form, not of any interaction term.
"""

import numpy as np

from bell_lab.dbb import (
    TwoParticleWF,
    WavePacket,
    cross_coupling,
    integrate_trajectory,
    velocity_2p,
)


def main():
    left = WavePacket(center=-1.5, width=0.8, wavenumber=0.6)
    right = WavePacket(center=1.5, width=1.1, wavenumber=-0.4)
    x1, x2, t = 0.1, 0.35, 0.8

    print("=== Cross-coupling |d v_1 / d x_2| at a probe point ===")
    for form in ("product", "symmetric", "antisymmetric"):
        wf = TwoParticleWF(left, right, form=form)
        g = abs(cross_coupling(wf, x1, x2, t))
        v1, v2 = velocity_2p(wf, x1, x2, t)
        print(f"{form:>14}: coupling = {g:.12f}   v = ({v1:+.6f}, {v2:+.6f})")

    print()
    print("=== The product coupling vanishes on a whole grid ===")
    prod = TwoParticleWF(left, right, form="product")
    worst = 0.0
    for a in np.linspace(-2.5, 2.5, 15):
        for b in np.linspace(-2.5, 2.5, 15):
            worst = max(worst, abs(cross_coupling(prod, float(a), float(b), t)))
    print(f"max over a 15x15 grid at t = {t}: {worst:.3e}")

    print()
    print("=== Trajectories respond to the form ===")
    start = (-0.3, 0.3)
    for form in ("product", "antisymmetric"):
        wf = TwoParticleWF(left, right, form=form)
        tr = integrate_trajectory(wf, start, t0=0.0, t1=2.0, dt=0.01)
        xs = tr.positions
        print(f"{form:>14}: ({xs[0, 0]:+.3f}, {xs[0, 1]:+.3f}) -> "
              f"({xs[-1, 0]:+.3f}, {xs[-1, 1]:+.3f})")
    print("antisymmetry keeps the two coordinates from crossing: the")
    print("exchange node at x1 = x2 repels the configuration point")

    print()
    print("=== Identical packets ===")
    # Symmetrizing identical packets reproduces the product state (up to
    # normalization), so the coupling collapses back to zero...
    twin = TwoParticleWF(left, left, form="symmetric")
    g = abs(cross_coupling(twin, x1, x2, t))
    print(f"symmetric, identical packets : coupling = {g:.3e}")
    # ...while antisymmetrizing them annihilates the state outright.
    try:
        anti_twin = TwoParticleWF(left, left, form="antisymmetric")
        cross_coupling(anti_twin, x1, x2, t)
    except ValueError as exc:
        print(f"antisymmetric, identical     : ValueError: {exc}")


if __name__ == "__main__":
    main()
