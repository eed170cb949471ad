#!/usr/bin/env python3
"""Two-photon coincidences behind a beam splitter, second-quantized.

A polarization-entangled pair — one x photon and one y photon meeting at
a beam splitter — is written in a four-mode Fock space.  Coincidence
rates between polarizers at angles theta1 and theta2 follow from ladder
operators; on an equal (50/50) splitter they reduce to

    P(theta1, theta2) = (1/4) * sin^2(theta1 + theta2)

and the counting-rate correlation E = cos 2(theta1 + theta2) violates
the CHSH bound exactly at Tsirelson's value.  The same run shows the
post-splitter state factorizes into independent single-photon factors.
"""

import numpy as np

from bell_lab.chsh import TSIRELSON
from bell_lab.fock import (
    coincidence_closed_form,
    coincidence_correlation,
    coincidence_probability,
    ou_mandel_state,
    product_state,
)

DEG = np.pi / 180.0


def main():
    print("=== Coincidence probabilities on an equal splitter ===")
    st = ou_mandel_state(0.5, 0.5)
    print(f"{'theta1':>7}  {'theta2':>7}  {'P(coinc)':>10}  {'sin^2/4':>10}")
    for t1, t2 in ((0, 0), (0, 90), (45, 45), (30, 60), (22.5, 22.5)):
        p = coincidence_probability(st, t1 * DEG, t2 * DEG)
        q = 0.25 * np.sin((t1 + t2) * DEG) ** 2
        print(f"{t1:>7}  {t2:>7}  {p:>10.6f}  {q:>10.6f}")

    print()
    print("=== Unequal splitters match the closed form ===")
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        tx, ty = rng.uniform(0.05, 0.95, size=2).tolist()
        state = ou_mandel_state(tx, ty)
        for t1, t2 in rng.uniform(0, np.pi, size=(20, 2)):
            p = coincidence_probability(state, float(t1), float(t2))
            q = coincidence_closed_form(tx, ty, float(t1), float(t2))
            worst = max(worst, abs(p - q))
    print(f"max |numeric - closed form| over 1000 draws: {worst:.3e}")

    print()
    print("=== CHSH from counting rates ===")
    e = lambda t1, t2: coincidence_correlation(st, t1 * DEG, t2 * DEG)
    print(f"E(theta1, theta2) = cos 2(theta1+theta2); e.g. E(0, 22.5) = "
          f"{e(0, 22.5):+.6f}")
    s = e(0, -22.5) + e(45, -22.5) + e(0, 22.5) - e(45, 22.5)
    print(f"S at polarizers (0, 45 | -22.5, 22.5) deg = {s:.15f}")
    s_alt = -e(0, 22.5) + e(45, 22.5) + e(0, 67.5) + e(45, 67.5)
    print(f"the combination with its sign on the first term attains the same")
    print(f"magnitude at (0, 45 | 22.5, 67.5) deg     = {s_alt:.15f}")
    print(f"2*sqrt(2)                                 = {TSIRELSON:.15f}")

    print()
    print("=== The post-splitter state factorizes ===")
    delta = np.max(np.abs(ou_mandel_state(0.5, 0.5) - product_state(0.5, 0.5)))
    print(f"max |ou_mandel_state - product_state| amplitude difference: {delta:.3e}")
    print("the joint detection amplitude is a product of single-photon")
    print("amplitudes — the coincidence pattern needs no nonlocal ingredient")


if __name__ == "__main__":
    main()
