#!/usr/bin/env python3
"""CHSH walkthrough: the operator identity, the quantum bound, and the axes
that attain it.

The Bell parameter S combines four two-party correlations,

    S = E(a, b) + E(a', b) + E(a, b') - E(a', b')

and the square of the corresponding operator satisfies

    S^2 = 4*I - [A, A'] (x) [B, B']

so |S| can only exceed the classical bound 2 when the two local
observable pairs fail to commute.  The maximum, 2*sqrt(2), is Tsirelson's
bound.
"""

import numpy as np

from bell_lab.chsh import (
    TSIRELSON,
    bell_operator,
    chsh_value,
    correlation,
    identity_residual,
    singlet,
    tsirelson_scan,
)
from bell_lab.operators import hermitian_extremal_eigenvalue, ket

DEG = np.pi / 180.0


def main():
    rng = np.random.default_rng(7)

    print("=== The operator identity ===")
    worst = 0.0
    for _ in range(300):
        s = rng.uniform(0, 2 * np.pi, size=4)
        worst = max(worst, identity_residual(s))
    print(f"max |S^2 - (4I - [A,A'](x)[B,B'])| over 300 random settings: {worst:.3e}")

    print()
    print("=== Tsirelson's bound at the standard axes ===")
    # Alice measures along 0 and 90 degrees, Bob along 45 and 135.
    literal = (0.0, 90 * DEG, 45 * DEG, 135 * DEG)
    eig = hermitian_extremal_eigenvalue(bell_operator(literal))
    print(f"extremal eigenvalue of the Bell operator: {eig:.15f}")
    print(f"2*sqrt(2)                               : {TSIRELSON:.15f}")

    # On the singlet, the CHSH combination that attains it at these axes
    # carries its minus sign on the (a, b') term; with the textbook sign
    # placement the same |S| appears at b' = -45 degrees instead of 135.
    psi = singlet()
    e = {(a, b): correlation(psi, a * DEG, b * DEG) for a in (0, 90) for b in (45, 135)}
    s_alt = e[(0, 45)] + e[(90, 45)] - e[(0, 135)] + e[(90, 135)]
    s_std = chsh_value(psi, (0.0, 90 * DEG, 45 * DEG, -45 * DEG))
    print(f"E(a,b) + E(a',b) - E(a,b') + E(a',b') at (0,90,45,135): {s_alt:+.15f}")
    print(f"standard combination at (0,90,45,-45)                 : {s_std:+.15f}")

    print()
    print("=== Scanning for the maximum ===")
    for step_deg in (15, 5, 1):
        v, settings = tsirelson_scan("spin_half", grid_step=step_deg * DEG)
        a, ap, b, bp = settings / DEG
        print(
            f"step {step_deg:>2} deg: |S| = {abs(v):.12f} "
            f"at (a, a', b, b') = ({a:.0f}, {ap:.0f}, {b:.0f}, {bp:.0f})"
        )

    print()
    print("=== The bound holds for every state ===")
    worst = 0.0
    for _ in range(2000):
        psi = ket(rng.normal(size=4) + 1j * rng.normal(size=4))
        s = rng.uniform(0, 2 * np.pi, size=4)
        worst = max(worst, abs(chsh_value(psi, s)))
    print(f"max |S| over 2000 random (state, settings) draws: {worst:.12f}")
    print(f"never exceeds 2*sqrt(2) = {TSIRELSON:.12f}")


if __name__ == "__main__":
    main()
