#!/usr/bin/env python3
"""Classical spin precession as an RK4 conservation test-bed.

The spin vector obeys ds/dt = gyro * (s x B), so both |s| and the
component of s along B are conserved exactly, and the transverse part
rotates at the Larmor frequency gyro * |B|.  The field is constant, so
one fixed RK4 step is one linear map, and integrate_spin raises it to
each step's power in closed form instead of stepping: the rows are RK4's
own, and they keep all three properties to tight tolerance over ten
thousand steps.
"""

import numpy as np

from bell_lab.dbb import integrate_spin


def main():
    s0 = (0.6, 0.0, 0.8)
    b = (0.0, 0.0, 1.0)

    print("=== Ten thousand RK4 steps in a z field ===")
    tr = integrate_spin(s0, b, t1=20.0, dt=0.002)
    norms = np.linalg.norm(tr.spins, axis=1)
    print(f"steps                : {len(tr.times) - 1}")
    print(f"max | |s| - 1 |      : {np.max(np.abs(norms - 1.0)):.3e}")
    print(f"max | s_z - 0.8 |    : {np.max(np.abs(tr.spins[:, 2] - 0.8)):.3e}")

    phase = np.unwrap(np.arctan2(-tr.spins[:, 1], tr.spins[:, 0]))
    omega = (phase[-1] - phase[0]) / (tr.times[-1] - tr.times[0])
    print(f"measured frequency   : {omega:.12f}")
    print(f"gyro * |B|           : {1.0:.12f}")

    print()
    print("=== The transverse part is a clean cosine ===")
    print(f"{'t':>6}  {'s_x':>9}  {'cos(t)*0.6':>11}")
    for t_probe in (0.0, np.pi / 2, np.pi, 2 * np.pi, 10.0):
        i = int(round(t_probe / 0.002))
        print(f"{tr.times[i]:>6.3f}  {tr.spins[i, 0]:>9.6f}  "
              f"{0.6 * np.cos(tr.times[i]):>11.6f}")

    print()
    print("=== Doubling the gyromagnetic ratio halves the period ===")
    tr2 = integrate_spin(s0, b, t1=np.pi, dt=0.001, gyro=2.0)
    print(f"s(0)       = ({s0[0]:+.6f}, {s0[1]:+.6f}, {s0[2]:+.6f})")
    print(f"s(pi), g=2 = ({tr2.spins[-1, 0]:+.6f}, {tr2.spins[-1, 1]:+.6f}, "
          f"{tr2.spins[-1, 2]:+.6f})")
    print("one full turn in half the time")

    print()
    print("=== Aligned spin is stationary ===")
    tr3 = integrate_spin((0.0, 0.0, 1.0), b, t1=5.0, dt=0.01)
    drift = np.max(np.linalg.norm(tr3.spins - np.array([0.0, 0.0, 1.0]), axis=1))
    print(f"max |s(t) - s(0)| with s parallel to B: {drift:.3e}")


if __name__ == "__main__":
    main()
