#!/usr/bin/env python3
"""Local hidden variables: exact bounds and a concrete sign model.

Enumerating every deterministic strategy shows the CHSH combination can
never exceed 2 under local realism.  A concrete hidden-variable model —
a shared angle lambda with sign responses — realizes the bound and
produces the characteristic sawtooth correlation, linear in the angle
difference where the quantum correlation is a cosine.
"""

import numpy as np

from bell_lab.chsh import correlation, singlet
from bell_lab.lhv import (
    chsh_deterministic_max,
    mermin_deterministic_max,
    sawtooth_correlation,
    sign_model,
    simulate_chsh_stats,
)

DEG = np.pi / 180.0


def main():
    print("=== Exact deterministic bounds ===")
    print(f"CHSH over all 16 deterministic strategies : {chsh_deterministic_max()}")
    for n in (3, 4, 5):
        print(f"Mermin n = {n} over all 4^{n} strategies      : "
              f"{mermin_deterministic_max(n)}")

    print()
    print("=== Sawtooth vs cosine ===")
    psi = singlet()
    print(f"{'delta (deg)':>12}  {'LHV sawtooth':>13}  {'quantum':>9}")
    for d in (0, 30, 45, 60, 90, 120, 180):
        lhv = sawtooth_correlation(0.0, d * DEG)
        qm = correlation(psi, 0.0, d * DEG)
        print(f"{d:>12}  {lhv:>13.6f}  {qm:>9.6f}")
    print("the two agree only at 0, 90, and 180 degrees")

    print()
    print("=== Monte Carlo at the CHSH-optimal axes ===")
    model = sign_model()
    optimal = (0.0, 90 * DEG, 45 * DEG, -45 * DEG)
    samples = 200_000
    est, err = simulate_chsh_stats(model, optimal, samples=samples, seed=42)
    print(f"sign model at (0, 90, 45, -45) deg: S = {est:+.6f} "
          f"+- {err:.6f}  ({samples} samples)")
    print("every hidden value lands exactly on the bound |S| = 2 here,")
    print("so the standard error vanishes")

    quartet = (0.0, 45 * DEG, 22.5 * DEG, 67.5 * DEG)
    est2, err2 = simulate_chsh_stats(model, quartet, samples=samples, seed=42)
    print(f"sign model at (0, 45, 22.5, 67.5) deg: S = {est2:+.6f} "
          f"+- {err2:.6f}")

    print()
    print("=== Reproducibility ===")
    rerun = simulate_chsh_stats(model, optimal, samples=samples, seed=42)
    print(f"same seed reruns bit-identically: {rerun == (est, err)}")


if __name__ == "__main__":
    main()
