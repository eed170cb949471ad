"""The benchmark's workloads: fixed sequences of bell-lab commands.

The benchmark seed picks only inputs: the seeds passed to seeded commands,
analyzer angles, splitter transmissions, the field evaluation time,
trajectory start points and the initial spin.  Sizes are constants, so
every seed asks for the same amount of work and timings compare across
seeds.  Each command carries the check that its stdout must pass.

Why these three:

* ``algebra`` -- operators, chsh, mermin and lhv do nearly all the work and
  every output is one row, so fock, dbb and CSV writing are idle.  It also
  uses operators at both ends of their size range: thousands of 4x4
  Kronecker products in ``identity`` next to one 1024x1024 Mermin operator.
* ``grids`` -- many independent evaluation points written as thousands of
  CSV rows; fock and dbb point evaluation dominate, operators/chsh idle.
* ``trajectories`` -- the same dbb velocity code as ``grids`` but along a
  dependent chain of RK4 steps, plus RK4 spin precession.  A change that
  batches over points but costs more per step shows here and not in grids.
"""

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

import checks

WORKLOADS = ("algebra", "grids", "trajectories")

# Full sizes give 3.5-5 s of commands per pass on a 2-core Xeon, so 4-7
# passes (with their calibration runs) fit a 30 s run, and the import floor
# (~0.2 s per command) stays under half of the total.  Tiny sizes are for
# the smoke tests.
SIZES = {
    "full": {
        "identity_trials": 2000,
        "chsh_step": 1.5,  # divides 22.5, so both kinds' optimum is on the grid
        "mermin_n": 10,
        "mermin_step": 1.0,
        "lhv_samples": 4_000_000,
        "oumandel_correlation_grid": 51,
        "oumandel_grid": 71,
        "dbb_grid": 35,
        "trajectory_t1": 3.0,
        "trajectory_dt": 0.003,
        "spin_steps": 10000,
    },
    "tiny": {
        "identity_trials": 20,
        "chsh_step": 22.5,
        "mermin_n": 3,
        "mermin_step": 15.0,
        "lhv_samples": 2000,
        "oumandel_correlation_grid": 5,
        "oumandel_grid": 5,
        "dbb_grid": 4,
        "trajectory_t1": 0.2,
        "trajectory_dt": 0.01,
        "spin_steps": 50,
    },
}

# Packet parameters passed explicitly, so the checks never depend on CLI defaults.
PACKETS = {"center_a": -1.5, "width_a": 0.8, "k_a": 0.6, "center_b": 1.5, "width_b": 1.1, "k_b": -0.4}


class Command(NamedTuple):
    args: tuple
    check: Callable[[bytes], None]


def _num(x):
    return format(float(x), "g")


_CHSH_FLAGS = ("alpha", "alpha-prime", "beta", "beta-prime")


def _algebra(rng, z):
    id_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
    lhv_seed = int(rng.integers(0, 2**31))
    angles = [float(a) for a in rng.integers(0, 720, size=4) * 0.5]
    chsh_angles = [[float(a) for a in rng.integers(-360, 360, size=4) * 0.5] for _ in range(2)]
    n, trials, samples = z["mermin_n"], z["identity_trials"], z["lhv_samples"]
    cmds = [
        Command(
            ("identity", "--kind", kind, "--trials", str(trials), "--seed", str(seed)),
            partial(checks.check_identity, kind=kind, trials=trials, seed=seed),
        )
        for kind, seed in zip(("spin", "photon"), id_seeds)
    ]
    cmds += [
        Command(
            ("chsh", "--kind", kind,
             *(f"--{name}={_num(a)}" for name, a in zip(_CHSH_FLAGS, degs))),
            partial(checks.check_chsh, kind=kind, degs=degs),
        )
        for kind, degs in zip(("spin", "photon"), chsh_angles)
    ]
    cmds += [
        Command(
            ("chsh", "scan", "--kind", kind, "--step", _num(z["chsh_step"])),
            partial(checks.check_chsh_scan, kind=kind, step=z["chsh_step"]),
        )
        for kind in ("spin", "photon")
    ]
    cmds += [
        Command(("mermin", "--n", str(n)), partial(checks.check_mermin, n=n)),
        Command(
            ("mermin", "--n", str(n), "--scan", "--step", _num(z["mermin_step"])),
            partial(checks.check_mermin, n=n),
        ),
        Command(
            ("lhv", "--model", "sign", "--samples", str(samples), "--seed", str(lhv_seed),
             "--angles", ",".join(_num(a) for a in angles)),
            partial(checks.check_lhv_model, samples=samples, angles_deg=angles),
        ),
        Command(("lhv", "--enumerate"), checks.check_lhv_enumerate),
    ]
    return cmds


def _packet_args():
    return tuple(f"--{key.replace('_', '-')}={_num(value)}" for key, value in PACKETS.items())


def _grids(rng, z):
    tx, ty = (round(float(t), 3) for t in rng.uniform(0.1, 0.9, size=2))
    time = round(float(rng.uniform(0.4, 1.6)), 3)
    g_corr, g_prob, g_dbb = z["oumandel_correlation_grid"], z["oumandel_grid"], z["dbb_grid"]
    packets = checks.Packets(**PACKETS)
    cmds = [
        Command(
            ("oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", str(g_corr), "--correlation"),
            partial(checks.check_oumandel_correlation, grid=g_corr),
        ),
        Command(
            ("oumandel", "--tx", _num(tx), "--ty", _num(ty), "--grid", str(g_prob)),
            partial(checks.check_oumandel_probability, grid=g_prob, tx=tx, ty=ty),
        ),
    ]
    cmds += [
        Command(
            ("dbb", "--form", form, *_packet_args(), "--time", _num(time), "--grid", str(g_dbb)),
            partial(checks.check_dbb_grid, packets=packets, form=form, grid=g_dbb, time=time),
        )
        for form in ("product", "symmetric", "antisymmetric")
    ]
    return cmds


def _trajectories(rng, z):
    packets = checks.Packets(**PACKETS)
    t1, dt = z["trajectory_t1"], z["trajectory_dt"]
    cmds = []
    for form in ("product", "symmetric", "antisymmetric"):
        for _ in range(2):
            # within one width of each packet's centre, so x1 < x2 with room to spare
            u1, u2 = rng.uniform(-1.0, 1.0, size=2)
            start = (
                round(PACKETS["center_a"] + PACKETS["width_a"] * float(u1), 4),
                round(PACKETS["center_b"] + PACKETS["width_b"] * float(u2), 4),
            )
            cmds.append(Command(
                ("dbb", "--form", form, *_packet_args(), "--trajectory",
                 f"--start1={_num(start[0])}", f"--start2={_num(start[1])}",
                 "--t1", _num(t1), "--dt", _num(dt)),
                partial(checks.check_dbb_trajectory, packets=packets, form=form,
                        start=start, t1=t1, dt=dt),
            ))
    s0 = tuple(round(float(v), 3) for v in rng.uniform(-1.0, 1.0, size=3))
    steps, bz, gyro, dt_spin = z["spin_steps"], 1.0, 1.0, 0.002
    cmds.append(Command(
        ("spin", "--bz", _num(bz), "--gyro", _num(gyro), "--steps", str(steps),
         "--dt", _num(dt_spin), f"--s0={','.join(_num(v) for v in s0)}"),
        partial(checks.check_spin, s0=s0, bz=bz, gyro=gyro, steps=steps, dt=dt_spin),
    ))
    return cmds


_SEQUENCES = {"algebra": _algebra, "grids": _grids, "trajectories": _trajectories}


def commands(workload, seed, size="full"):
    """The workload's command sequence for this seed; same seed, same commands."""
    if workload not in _SEQUENCES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed) % 2**63])
    return _SEQUENCES[workload](rng, SIZES[size])
