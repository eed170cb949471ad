"""bell-lab command line: each experiment family as deterministic CSV.

Output layout is fixed: a header row, then a single '#' metadata line
carrying the tool version, the command and its parameters (plus the seed
and RNG algorithm for stochastic commands — never a timestamp), then the
data rows.  Floats are rendered with 17 significant digits, lines end in
LF, so identical flags and seed reproduce the file byte for byte.
Angles are taken in degrees on the command line.

Exit codes: 0 success, 2 validation error, 3 internal numerical check
failure, 4 node-singularity halt.  Every failure also writes one
machine-parsable line ``error=<code> detail=<text>`` to stderr.
"""

import functools
import itertools
import sys

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

_KIND = {"spin": "spin_half", "photon": "photon"}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _meta(command: str, params, seed=None) -> str:
    parts = [f"tool=bell-lab version={__version__} command={command}"]
    parts += [f"{key}={_fmt(value)}" for key, value in params]
    if seed is not None:
        parts.append(f"seed={int(seed)} rng={RNG_ALGORITHM}")
    return "# " + " ".join(parts)


def _write_csv(out, header, meta_line, rows):
    lines = [",".join(header), meta_line]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(code: int, err: BaseException):
    detail = " ".join(str(err).split())
    click.echo(f"error={code} detail={detail}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except NodeSingularityError as err:
            _fail(EXIT_NODE, err)
        except NumericalCheckError as err:
            _fail(EXIT_NUMERICAL, err)
        except ValueError as err:
            _fail(EXIT_VALIDATION, err)

    return wrapper


def _parse_floats(text, name, count):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != count:
        raise click.UsageError(f"{name} must be {count} comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise click.UsageError(f"could not parse {name}: {exc}")


@click.group()
@click.version_option(__version__, prog_name="bell-lab")
def main():
    """Bell/CHSH, Mermin, Ou-Mandel and de Broglie-Bohm numerics."""


@main.group(invoke_without_command=True)
@click.option("--alpha", type=float, default=None, help="Alice unprimed angle (degrees).")
@click.option("--alpha-prime", type=float, default=None, help="Alice primed angle (degrees).")
@click.option("--beta", type=float, default=None, help="Bob unprimed angle (degrees).")
@click.option("--beta-prime", type=float, default=None, help="Bob primed angle (degrees).")
@click.option("--kind", type=click.Choice(["spin", "photon"]), default="spin", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="CSV path (default stdout).")
@click.pass_context
@_guarded
def chsh(ctx, alpha, alpha_prime, beta, beta_prime, kind, out):
    """S for one settings tuple on the singlet / photon pair state."""
    if ctx.invoked_subcommand is not None:
        return
    degs = (alpha, alpha_prime, beta, beta_prime)
    if any(v is None for v in degs):
        raise click.UsageError("chsh needs --alpha, --alpha-prime, --beta and --beta-prime")
    settings = ChshSettings(*np.deg2rad(degs), kind=_KIND[kind])
    state = singlet() if kind == "spin" else photon_pair_state()
    value = chsh_value(state, settings)
    meta = _meta(
        "chsh",
        [("alpha", alpha), ("alpha_prime", alpha_prime), ("beta", beta),
         ("beta_prime", beta_prime), ("kind", kind)],
    )
    _write_csv(
        out,
        ["alpha", "alpha_prime", "beta", "beta_prime", "kind", "s"],
        meta,
        [(alpha, alpha_prime, beta, beta_prime, kind, value.s)],
    )


@chsh.command("scan")
@click.option("--step", type=float, required=True, help="Grid step (degrees), in (0, 45].")
@click.option("--kind", type=click.Choice(["spin", "photon"]), default="spin", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def chsh_scan(step, kind, out):
    """Exhaustive grid maximization of |S|."""
    result = tsirelson_scan(_KIND[kind], np.deg2rad(step))
    best = np.rad2deg(result.settings.angles)
    meta = _meta("chsh-scan", [("step", step), ("kind", kind)])
    _write_csv(
        out,
        ["best_alpha", "best_alpha_prime", "best_beta", "best_beta_prime", "s_max"],
        meta,
        [(best[0], best[1], best[2], best[3], abs(result.s))],
    )


@main.command()
@click.option("--kind", type=click.Choice(["spin", "photon"]), required=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
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
    meta = _meta("identity", [("kind", kind), ("trials", trials)], seed=seed)
    _write_csv(out, ["trials", "max_residual"], meta, [(trials, worst)])


@main.command()
@click.option("--n", type=int, required=True, help="Number of particles (2..10).")
@click.option("--scan", is_flag=True, help="Scan a shared (a, a') grid instead of the canonical pair.")
@click.option("--step", type=float, default=1.0, show_default=True, help="Scan step (degrees).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def mermin(n, scan, step, out):
    """<F_n> on the GHZ state plus the deterministic LHV maximum."""
    if scan:
        value, _settings = mermin_shared_scan(n, np.deg2rad(step))
        params = [("n", n), ("scan", True), ("step", step)]
    else:
        # canonical shared pair (0, 90) degrees attains the quantum bound
        value = mermin_value(ghz(n), MerminSettings.from_shared(n, 0.0, np.pi / 2.0))
        params = [("n", n), ("scan", False)]
    det = mermin_deterministic_max(n)
    meta = _meta("mermin", params)
    _write_csv(out, ["n", "f_value_or_max", "deterministic_max"], meta, [(n, value, det)])


@main.command()
@click.option("--enumerate", "enumerate_", is_flag=True, help="Exhaustive deterministic-strategy maximum.")
@click.option("--model", type=click.Choice(["sign"]), default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--angles", type=str, default=None, help="alpha,alpha',beta,beta' in degrees.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def lhv(enumerate_, model, samples, seed, angles, out):
    """Local hidden-variable baselines: enumeration or Monte Carlo."""
    if enumerate_:
        meta = _meta("lhv", [("mode", "enumerate")])
        _write_csv(out, ["max_s"], meta, [(chsh_deterministic_max(),)])
        return
    if model is None or samples is None or seed is None or angles is None:
        raise click.UsageError("lhv needs --enumerate, or --model --samples --seed --angles")
    settings = ChshSettings(*np.deg2rad(_parse_floats(angles, "--angles", 4)), kind="spin_half")
    stats = simulate_chsh_stats(sign_model(), settings, samples, seed)
    meta = _meta(
        "lhv",
        [("mode", "model"), ("model", model), ("samples", samples), ("angles", angles)],
        seed=seed,
    )
    _write_csv(out, ["s_estimate", "stderr"], meta, [(stats.estimate, stats.stderr)])


@main.command()
@click.option("--tx", type=float, required=True, help="x-polarization transmission probability.")
@click.option("--ty", type=float, required=True, help="y-polarization transmission probability.")
@click.option("--theta1", type=float, default=0.0, show_default=True, help="Analyzer 1 (degrees).")
@click.option("--theta2", type=float, default=0.0, show_default=True, help="Analyzer 2 (degrees).")
@click.option("--grid", type=int, default=None, help="Evaluate on an NxN angle grid over [0, 180] degrees.")
@click.option("--correlation", is_flag=True, help="Coincidence-normalized correlation instead of probabilities.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def oumandel(tx, ty, theta1, theta2, grid, correlation, out):
    """Two-photon coincidence probabilities / correlations behind the splitter."""
    bs = BeamSplitterSpec.from_transmissions(tx, ty)
    state = ou_mandel_state(bs)
    if grid is not None:
        if grid < 2:
            raise click.UsageError("--grid must be >= 2")
        thetas = np.linspace(0.0, 180.0, grid)
        # one array evaluation per theta1 row keeps memory O(grid)
        theta_rows = [(t1, thetas) for t1 in thetas]
    else:
        theta_rows = [(theta1, np.array([theta2]))]
    params = [("tx", tx), ("ty", ty), ("theta1", theta1), ("theta2", theta2)]
    if grid is not None:
        params.append(("grid", grid))
    params.append(("correlation", correlation))
    meta = _meta("oumandel", params)
    rows = []
    if correlation:
        for t1, t2 in theta_rows:
            e = coincidence_correlation(state, np.deg2rad(t1), np.deg2rad(t2))
            rows.extend(zip(itertools.repeat(t1), t2, e))
        _write_csv(out, ["theta1", "theta2", "e_value"], meta, rows)
    else:
        for t1, t2 in theta_rows:
            p = coincidence_probability(state, np.deg2rad(t1), np.deg2rad(t2))
            q = coincidence_closed_form(bs, np.deg2rad(t1), np.deg2rad(t2))
            rows.extend(zip(itertools.repeat(t1), t2, p, q, np.abs(p - q)))
        _write_csv(out, ["theta1", "theta2", "p_numeric", "p_closed_form", "abs_diff"], meta, rows)


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
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def dbb(form, center_a, width_a, k_a, center_b, width_b, k_b, time_, grid, trajectory,
        start1, start2, t0, t1, dt, out):
    """Two-particle guidance velocities, cross-coupling, trajectories."""
    c = PhysicalConstants()
    wf = TwoParticleWF(
        packet_a=WavePacket(center=center_a, width=width_a, wavenumber=k_a),
        packet_b=WavePacket(center=center_b, width=width_b, wavenumber=k_b),
        form=form,
    )
    base = [("form", form), ("center_a", center_a), ("width_a", width_a), ("k_a", k_a),
            ("center_b", center_b), ("width_b", width_b), ("k_b", k_b)]
    if trajectory:
        s1 = center_a if start1 is None else start1
        s2 = center_b if start2 is None else start2
        traj = integrate_trajectory(wf, c, (s1, s2), t0, t1, dt)
        meta = _meta("dbb", base + [("mode", "trajectory"), ("start1", s1), ("start2", s2),
                                    ("t0", t0), ("t1", t1), ("dt", dt)])
        rows = [(t, x[0], x[1]) for t, x in zip(traj.times, traj.positions)]
        _write_csv(out, ["t", "x1", "x2"], meta, rows)
        return
    if grid < 2:
        raise click.UsageError("--grid must be >= 2")
    lo = min(center_a - 2.0 * width_a, center_b - 2.0 * width_b)
    hi = max(center_a + 2.0 * width_a, center_b + 2.0 * width_b)
    xs1 = np.linspace(lo, hi, grid)
    # x2 axis shifted by half a cell: keeps the antisymmetric exchange
    # node (x1 == x2 exactly) off the sample points
    xs2 = xs1 + 0.5 * (hi - lo) / (grid - 1)
    meta = _meta("dbb", base + [("mode", "field"), ("time", time_), ("grid", grid)])
    rows = []
    # one array evaluation per x1 row keeps memory O(grid)
    for x1 in xs1:
        v1, v2 = velocity_2p(wf, c, x1, xs2, time_)
        cc = cross_coupling(wf, c, x1, xs2, time_)
        rows.extend(zip(itertools.repeat(x1), xs2, v1, v2, cc))
    _write_csv(out, ["x1", "x2", "v1", "v2", "cross_coupling"], meta, rows)


@main.command()
@click.option("--bz", type=float, default=1.0, show_default=True, help="Field along z.")
@click.option("--gyro", type=float, default=1.0, show_default=True)
@click.option("--steps", type=int, default=10000, show_default=True)
@click.option("--dt", type=float, default=0.002, show_default=True)
@click.option("--s0", type=str, default="1,0,0", show_default=True, help="Initial spin sx,sy,sz.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def spin(bz, gyro, steps, dt, s0, out):
    """RK4 Larmor precession with conservation diagnostics."""
    if steps < 1:
        raise click.UsageError("--steps must be >= 1")
    s0v = _parse_floats(s0, "--s0", 3)
    c = PhysicalConstants(gyro=gyro)
    traj = integrate_spin(s0v, (0.0, 0.0, bz), c, t1=steps * dt, dt=dt)
    norm0 = float(np.linalg.norm(s0v))
    meta = _meta("spin", [("bz", bz), ("gyro", gyro), ("steps", steps), ("dt", dt), ("s0", s0)])
    rows = [
        (t, sv[0], sv[1], sv[2], abs(float(np.linalg.norm(sv)) - norm0))
        for t, sv in zip(traj.times, traj.spins)
    ]
    _write_csv(out, ["t", "sx", "sy", "sz", "norm_drift"], meta, rows)


if __name__ == "__main__":
    main()
