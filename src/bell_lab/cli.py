"""bell-lab command line: each experiment family as deterministic CSV.

Output layout is fixed: a header row, then a single '#' metadata line
carrying the tool version, the command and its parameters (plus the seed
and RNG algorithm for stochastic commands — never a timestamp), then the
data rows.  Floats are rendered with 17 significant digits, lines end in
LF, so identical flags and seed reproduce the file byte for byte.
Angles are taken in degrees on the command line.

Every command makes one broadcast library call per result and writes
named columns that broadcast against each other; a grid command passes
its two axes as a column and a row, never as a meshgrid, so a grid is
evaluated in one call.  Grids have at most MAX_GRID_SIDE points per axis.

Exit codes: 0 success, 2 validation or usage error, 3 internal numerical
check failure, 4 node-singularity halt.  Every failure of a command also
writes one machine-parsable line ``error=<code> detail=<text>`` to stderr.
"""

import math
import os
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import __version__
from .chsh import ChshSettings, chsh_value, identity_residual, photon_pair_state, singlet, tsirelson_scan
from .dbb import (
    FORMS,
    PhysicalConstants,
    TwoParticleWF,
    WavePacket,
    cross_coupling,
    integrate_spin,
    integrate_trajectory,
    velocity_2p,
)
from .errors import NodeSingularityError, NumericalCheckError
from .fock import BeamSplitterSpec, coincidence_closed_form, coincidence_correlation, coincidence_probability, ou_mandel_state
from .lhv import RNG_ALGORITHM, chsh_deterministic_max, make_rng, mermin_deterministic_max, sign_model, simulate_chsh_stats
from .mermin import MerminSettings, ghz, mermin_shared_scan, mermin_value

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NODE = 4

IDENTITY_TOLERANCE = 1e-12
IDENTITY_CHUNK = 4096
# a grid is evaluated whole, so this bounds its arrays: at most 512**2 points
MAX_GRID_SIDE = 512

_KIND = {"spin": "spin_half", "photon": "photon"}

# printf-style cell format by numpy dtype kind: bools as 1/0, floats with 17 significant digits
_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}


def _fmt(value) -> str:
    value = np.asarray(value)
    return _FORMATS.get(value.dtype.kind, "%s") % value.item()


def _meta(command: str, params: dict, seed=None) -> str:
    parts = [f"tool=bell-lab version={__version__} command={command}"]
    parts += [f"{key}={_fmt(value)}" for key, value in params.items()]
    if seed is not None:
        parts.append(f"seed={int(seed)} rng={RNG_ALGORITHM}")
    return "# " + " ".join(parts)


def _open_out(ctx, param, path):
    """Open --out before any work; append mode keeps an existing file as it was until _write_csv."""
    if path is None:
        return None
    try:
        return ctx.with_resource(open(path, "a", encoding="utf-8", newline=""))
    except OSError as err:
        raise click.UsageError(f"cannot open --out {path}: {err.strerror}") from None


_OUT = click.option("--out", type=click.Path(dir_okay=False), default=None, callback=_open_out,
                    help="CSV path (default stdout).")


def _write_csv(out, meta_line: str, columns: dict):
    """Header, metadata line, then one row per element of the broadcast columns, to out or stdout."""
    cells = np.broadcast_arrays(*columns.values())
    row = ",".join(_FORMATS.get(cell.dtype.kind, "%s") for cell in cells)
    lines = map(row.__mod__, zip(*(cell.ravel().tolist() for cell in cells)))
    text = "\n".join([",".join(columns), meta_line, *lines]) + "\n"
    if out is not None and os.path.isfile(out.name):  # a pipe or device takes no truncate
        out.truncate(0)
    (out or sys.stdout).write(text)


_EXIT_CODES = {NodeSingularityError: EXIT_NODE, NumericalCheckError: EXIT_NUMERICAL,
               ValueError: EXIT_VALIDATION, click.UsageError: EXIT_VALIDATION}


@contextmanager
def _exit_codes():
    """Map a failure onto its exit code and one ``error=<code> detail=<text>`` line on stderr."""
    try:
        yield
    except tuple(_EXIT_CODES) as err:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))
        detail = err.format_message() if isinstance(err, click.UsageError) else str(err)
        click.echo(f"error={code} detail={' '.join(detail.split())}", err=True)
        sys.exit(code)


class _Main(click.Group):
    """The root group: maps a failure anywhere below it, or in its own arguments, onto its exit code."""

    def parse_args(self, ctx, args):
        if not args and not ctx.resilient_parsing:  # a bare bell-lab is --help
            click.echo(ctx.get_help())
            ctx.exit()
        with _exit_codes():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _check_grid(side: float):
    """Refuse a grid of more than MAX_GRID_SIDE points per axis before building it."""
    if side > MAX_GRID_SIDE:
        raise ValueError(f"grid of {side:.6g} points per axis exceeds {MAX_GRID_SIDE}")


def _scan_side(step: float) -> float:
    """2 pi / step in radians; the scan's ceil of it exceeds the cap exactly when it does."""
    rad = float(np.deg2rad(step))
    return 2.0 * math.pi / rad if rad > 0.0 else 0.0  # the scan refuses rad <= 0 itself


def _parse_floats(text, name, count):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != count:
        raise click.UsageError(f"{name} must be {count} comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise click.UsageError(f"could not parse {name}: {exc}")


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="bell-lab")
def main():
    """Bell/CHSH, Mermin, Ou-Mandel and de Broglie-Bohm numerics."""


@main.group(invoke_without_command=True)
@click.option("--alpha", type=float, default=None, help="Alice unprimed angle (degrees).")
@click.option("--alpha-prime", type=float, default=None, help="Alice primed angle (degrees).")
@click.option("--beta", type=float, default=None, help="Bob unprimed angle (degrees).")
@click.option("--beta-prime", type=float, default=None, help="Bob primed angle (degrees).")
@click.option("--kind", type=click.Choice(["spin", "photon"]), default="spin", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV path (default stdout); a subcommand takes its own --out.")
@click.pass_context
def chsh(ctx, alpha, alpha_prime, beta, beta_prime, kind, out):
    """S for one settings tuple on the singlet / photon pair state."""
    if ctx.invoked_subcommand is not None:  # runs before the subcommand parses, so no file is made
        if out is not None:
            raise click.UsageError(f"chsh --out does not apply to '{ctx.invoked_subcommand}'; "
                                   f"give it after '{ctx.invoked_subcommand}'")
        return
    out = _open_out(ctx, None, out)
    degs = (alpha, alpha_prime, beta, beta_prime)
    if any(v is None for v in degs):
        raise click.UsageError("chsh needs --alpha, --alpha-prime, --beta and --beta-prime")
    settings = ChshSettings(*np.deg2rad(degs), kind=_KIND[kind])
    state = singlet() if kind == "spin" else photon_pair_state()
    columns = {"alpha": alpha, "alpha_prime": alpha_prime, "beta": beta,
               "beta_prime": beta_prime, "kind": kind}
    _write_csv(out, _meta("chsh", columns), {**columns, "s": chsh_value(state, settings).s})


@chsh.command("scan")
@click.option("--step", type=float, required=True, help="Grid step (degrees), in (0, 45].")
@click.option("--kind", type=click.Choice(["spin", "photon"]), default="spin", show_default=True)
@_OUT
def chsh_scan(step, kind, out):
    """Exhaustive grid maximization of |S|."""
    _check_grid(_scan_side(step))
    result = tsirelson_scan(_KIND[kind], np.deg2rad(step))
    best = np.rad2deg(result.settings.angles)
    names = ("best_alpha", "best_alpha_prime", "best_beta", "best_beta_prime")
    _write_csv(out, _meta("chsh-scan", {"step": step, "kind": kind}),
               {**dict(zip(names, best)), "s_max": abs(result.s)})


@main.command()
@click.option("--kind", type=click.Choice(["spin", "photon"]), required=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, required=True)
@_OUT
def identity(kind, trials, seed, out):
    """Max residual of S^2 = 4I - [A,A'](x)[B,B'] over random settings."""
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    rng = make_rng(seed)
    worst = 0.0
    # one draw and one batch per chunk of trials keeps memory bounded for
    # any --trials; PCG64 uniform draws do not depend on the chunking
    for start in range(0, trials, IDENTITY_CHUNK):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(min(IDENTITY_CHUNK, trials - start), 4))
        batch = ChshSettings(*angles.T, kind=_KIND[kind])
        worst = max(worst, float(identity_residual(batch).max()))
    if worst >= IDENTITY_TOLERANCE:
        raise NumericalCheckError(
            f"identity residual {worst:.3e} exceeds {IDENTITY_TOLERANCE:.1e}"
        )
    meta = _meta("identity", {"kind": kind, "trials": trials}, seed=seed)
    _write_csv(out, meta, {"trials": trials, "max_residual": worst})


@main.command()
@click.option("--n", type=int, required=True, help="Number of particles (2..10).")
@click.option("--scan", is_flag=True, help="Scan a shared (a, a') grid instead of the canonical pair.")
@click.option("--step", type=float, default=1.0, show_default=True, help="Scan step (degrees).")
@_OUT
def mermin(n, scan, step, out):
    """<F_n> on the GHZ state plus the deterministic LHV maximum."""
    if scan:
        _check_grid(_scan_side(step))
        value, _settings = mermin_shared_scan(n, np.deg2rad(step))
        params = {"n": n, "scan": True, "step": step}
    else:
        # canonical shared pair (0, 90) degrees attains the quantum bound
        value = mermin_value(ghz(n), MerminSettings.from_shared(n, 0.0, np.pi / 2.0))
        params = {"n": n, "scan": False}
    _write_csv(out, _meta("mermin", params),
               {"n": n, "f_value_or_max": value, "deterministic_max": mermin_deterministic_max(n)})


@main.command()
@click.option("--enumerate", "enumerate_", is_flag=True, help="Exhaustive deterministic-strategy maximum.")
@click.option("--model", type=click.Choice(["sign"]), default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--angles", type=str, default=None, help="alpha,alpha',beta,beta' in degrees.")
@_OUT
def lhv(enumerate_, model, samples, seed, angles, out):
    """Local hidden-variable baselines: enumeration or Monte Carlo."""
    if enumerate_:
        _write_csv(out, _meta("lhv", {"mode": "enumerate"}), {"max_s": chsh_deterministic_max()})
        return
    if model is None or samples is None or seed is None or angles is None:
        raise click.UsageError("lhv needs --enumerate, or --model --samples --seed --angles")
    settings = ChshSettings(*np.deg2rad(_parse_floats(angles, "--angles", 4)), kind="spin_half")
    stats = simulate_chsh_stats(sign_model(), settings, samples, seed)
    meta = _meta("lhv", {"mode": "model", "model": model, "samples": samples, "angles": angles},
                 seed=seed)
    _write_csv(out, meta, {"s_estimate": stats.estimate, "stderr": stats.stderr})


@main.command()
@click.option("--tx", type=float, required=True, help="x-polarization transmission probability.")
@click.option("--ty", type=float, required=True, help="y-polarization transmission probability.")
@click.option("--theta1", type=float, default=0.0, show_default=True, help="Analyzer 1 (degrees).")
@click.option("--theta2", type=float, default=0.0, show_default=True, help="Analyzer 2 (degrees).")
@click.option("--grid", type=int, default=None, help="Evaluate on an NxN angle grid over [0, 180] degrees.")
@click.option("--correlation", is_flag=True, help="Coincidence-normalized correlation instead of probabilities.")
@_OUT
def oumandel(tx, ty, theta1, theta2, grid, correlation, out):
    """Two-photon coincidence probabilities / correlations behind the splitter."""
    bs = BeamSplitterSpec.from_transmissions(tx, ty)
    state = ou_mandel_state(bs)
    params = {"tx": tx, "ty": ty, "theta1": theta1, "theta2": theta2}
    if grid is None:
        t1, t2 = theta1, theta2
    else:
        if grid < 2:
            raise click.UsageError("--grid must be >= 2")
        _check_grid(grid)
        thetas = np.linspace(0.0, 180.0, grid)
        t1, t2 = thetas[:, None], thetas[None, :]
        params["grid"] = grid
    params["correlation"] = correlation
    meta = _meta("oumandel", params)
    r1, r2 = np.deg2rad(t1), np.deg2rad(t2)
    if correlation:
        _write_csv(out, meta, {"theta1": t1, "theta2": t2,
                               "e_value": coincidence_correlation(state, r1, r2)})
        return
    p = coincidence_probability(state, r1, r2)
    q = coincidence_closed_form(bs, r1, r2)
    _write_csv(out, meta, {"theta1": t1, "theta2": t2, "p_numeric": p, "p_closed_form": q,
                           "abs_diff": np.abs(p - q)})


@main.command()
@click.option("--form", type=click.Choice(FORMS), required=True)
@click.option("--center-a", type=float, default=-1.5, show_default=True)
@click.option("--width-a", type=float, default=0.8, show_default=True)
@click.option("--k-a", type=float, default=0.6, show_default=True)
@click.option("--center-b", type=float, default=1.5, show_default=True)
@click.option("--width-b", type=float, default=1.1, show_default=True)
@click.option("--k-b", type=float, default=-0.4, show_default=True)
@click.option("--time", "time_", type=float, default=0.8, show_default=True, help="Evaluation time for the velocity grid.")
@click.option("--grid", type=int, default=21, show_default=True)
@click.option("--trajectory", is_flag=True, help="Integrate a trajectory instead of sampling the field.")
@click.option("--start1", type=float, default=None, help="Trajectory start x1 (default: center of packet a).")
@click.option("--start2", type=float, default=None, help="Trajectory start x2 (default: center of packet b).")
@click.option("--t0", type=float, default=0.0, show_default=True)
@click.option("--t1", type=float, default=2.0, show_default=True)
@click.option("--dt", type=float, default=0.01, show_default=True)
@_OUT
def dbb(form, center_a, width_a, k_a, center_b, width_b, k_b, time_, grid, trajectory,
        start1, start2, t0, t1, dt, out):
    """Two-particle guidance velocities, cross-coupling, trajectories."""
    c = PhysicalConstants()
    wf = TwoParticleWF(
        packet_a=WavePacket(center=center_a, width=width_a, wavenumber=k_a),
        packet_b=WavePacket(center=center_b, width=width_b, wavenumber=k_b),
        form=form,
    )
    params = {"form": form, "center_a": center_a, "width_a": width_a, "k_a": k_a,
              "center_b": center_b, "width_b": width_b, "k_b": k_b}
    if trajectory:
        s1 = center_a if start1 is None else start1
        s2 = center_b if start2 is None else start2
        traj = integrate_trajectory(wf, c, (s1, s2), t0, t1, dt)
        meta = _meta("dbb", {**params, "mode": "trajectory", "start1": s1, "start2": s2,
                             "t0": t0, "t1": t1, "dt": dt})
        _write_csv(out, meta, {"t": traj.times, "x1": traj.positions[:, 0],
                               "x2": traj.positions[:, 1]})
        return
    if grid < 2:
        raise click.UsageError("--grid must be >= 2")
    _check_grid(grid)
    lo = min(center_a - 2.0 * width_a, center_b - 2.0 * width_b)
    hi = max(center_a + 2.0 * width_a, center_b + 2.0 * width_b)
    xs1 = np.linspace(lo, hi, grid)
    # x2 axis shifted by half a cell: keeps the antisymmetric exchange
    # node (x1 == x2 exactly) off the sample points
    x1, x2 = xs1[:, None], (xs1 + 0.5 * (hi - lo) / (grid - 1))[None, :]
    meta = _meta("dbb", {**params, "mode": "field", "time": time_, "grid": grid})
    v1, v2 = velocity_2p(wf, c, x1, x2, time_)
    _write_csv(out, meta, {"x1": x1, "x2": x2, "v1": v1, "v2": v2,
                           "cross_coupling": cross_coupling(wf, c, x1, x2, time_)})


@main.command()
@click.option("--bz", type=float, default=1.0, show_default=True, help="Field along z.")
@click.option("--gyro", type=float, default=1.0, show_default=True)
@click.option("--steps", type=int, default=10000, show_default=True)
@click.option("--dt", type=float, default=0.002, show_default=True)
@click.option("--s0", type=str, default="1,0,0", show_default=True, help="Initial spin sx,sy,sz.")
@_OUT
def spin(bz, gyro, steps, dt, s0, out):
    """RK4 Larmor precession with conservation diagnostics."""
    if steps < 1:
        raise click.UsageError("--steps must be >= 1")
    s0v = _parse_floats(s0, "--s0", 3)
    c = PhysicalConstants(gyro=gyro)
    traj = integrate_spin(s0v, (0.0, 0.0, bz), c, t1=steps * dt, dt=dt)
    # each row's np.linalg.norm: the axis=1 norm and sums of squares differ from it in the last bit
    norms = np.sqrt(np.vecdot(traj.spins, traj.spins))
    meta = _meta("spin", {"bz": bz, "gyro": gyro, "steps": steps, "dt": dt, "s0": s0})
    _write_csv(out, meta, {"t": traj.times, "sx": traj.spins[:, 0], "sy": traj.spins[:, 1],
                           "sz": traj.spins[:, 2],
                           "norm_drift": np.abs(norms - float(np.linalg.norm(s0v)))})


if __name__ == "__main__":
    main()
