#!/usr/bin/env python3
"""Mermin's n-particle Bell parameter on GHZ states.

For n spin-1/2 particles in the GHZ state, the Mermin operator F_n built
from two in-plane spin directions per particle reaches 2^(n-1), while any
local deterministic assignment is capped at 2^(n//2).  The gap therefore
grows exponentially with n — the n = 3 case already turns a statistical
inequality into a 4-vs-2 contradiction.
"""

import numpy as np

from bell_lab.lhv import mermin_deterministic_max
from bell_lab.mermin import (
    ghz,
    ghz_expectation_shared,
    mermin_operator,
    mermin_shared_scan,
    mermin_square_residual,
    mermin_value,
)
from bell_lab.operators import hermitian_extremal_eigenvalue

DEG = np.pi / 180.0


def main():
    print("=== The three-particle case ===")
    state = ghz(3)
    settings = [(0.0, 90 * DEG)] * 3
    f3 = mermin_value(state, settings)
    print(f"<F_3> on GHZ(3) at (a, a') = (0, 90) deg : {f3:.12f}")
    print(f"extremal eigenvalue of F_3               : "
          f"{hermitian_extremal_eigenvalue(mermin_operator(settings)):.12f}")
    print(f"local deterministic maximum for n = 3    : {mermin_deterministic_max(3)}")

    print()
    print("=== F_3^2 is constant where the quantum value saturates ===")
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        worst = max(worst, mermin_square_residual(rng.uniform(0, 2 * np.pi, size=(3, 2))))
    print(f"max residual of the F_3^2 identity over 200 random settings: {worst:.3e}")

    print()
    print("=== Exponential separation ===")
    print(f"{'n':>2}  {'scan |<F_n>|':>14}  {'2^(n-1)':>8}  {'LHV max':>8}")
    for n in range(2, 7):
        value, _ = mermin_shared_scan(n, grid_step=DEG)
        print(f"{n:>2}  {abs(value):>14.9f}  {2 ** (n - 1):>8}  "
              f"{mermin_deterministic_max(n):>8}")

    print()
    print("=== The corner formula ===")
    # Along a shared pair of directions the GHZ expectation reduces to a
    # binomial sine series; the matrix and formula routes agree.
    a, ap = 0.35, 1.9
    n = 4
    formula = ghz_expectation_shared(n, a, ap)
    matrix = mermin_value(ghz(n), [(a, ap)] * n)
    print(f"n = {n}, (a, a') = ({a}, {ap}) rad")
    print(f"matrix route : {matrix:.15f}")
    print(f"formula route: {formula:.15f}")


if __name__ == "__main__":
    main()
