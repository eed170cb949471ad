"""Fixed reference work that measures how fast the host is running right now.

This is not bell-lab code and must never change with it.  Timed as a
subprocess next to the workload's commands, it pays what every command
pays -- interpreter start-up and the numpy import -- plus a short fixed
loop of pure-Python and numpy arithmetic.  Other tenants of a shared host
slow it and the program alike, so dividing by its time removes the host's
drift and keeps every change in the program.
"""

import numpy as np


def work():
    total = 0
    for i in range(100_000):
        total += i * i % 7
    a = np.arange(100_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return total + float(a[-1])


if __name__ == "__main__":
    work()
