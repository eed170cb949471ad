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
Each command imports numpy and its layer modules in its own body, so a
process loads only what it uses: no numpy for --help, --version, a refusal,
lhv --enumerate or dbb --trajectory, whose Python values are written without it.
main() parses the command line from _COMMANDS; ``bell-lab`` runs it via run().

Exit codes: 0 success, 1 a write that stdout or --out refused (a full disk
or device, or a reader that left early), 2 validation or usage error, 3
internal numerical check failure, 4 node-singularity halt.  Every failure of
a command but a reader's leaving also writes one machine-parsable line
``error=<code> detail=<text>`` to stderr.
"""

import atexit
import gc
import math
import os
import sys
import threading
from contextlib import contextmanager, nullcontext

from . import __version__
from .errors import NodeSingularityError, NumericalCheckError

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NODE = 4

IDENTITY_TOLERANCE = 1e-12
IDENTITY_CHUNK = 4096
_MAX_TRIALS = 10**7  # identity trials one run may take: about 45 s on a 2-core Xeon
# a grid is evaluated whole, so this bounds its arrays: at most 512**2 points
MAX_GRID_SIDE = 512

_KIND = {"spin": "spin_half", "photon": "photon"}

# printf-style cell format by numpy dtype kind: bools as 1/0, floats with 17 significant digits
_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}
# rows formatted and written at a time: bounds the text held at once (6 MB of spin rows)
_CSV_CHUNK = 2**16


def _pyformat(value):
    """The printf format, by _FORMATS' rules, of a float (np.float64 too), int, bool or str, or of an array("d"),
    told by its typecode so that no command loads the array module for it; None for any other value."""
    if isinstance(value, (int, float, str)):
        return "%.17g" if isinstance(value, float) else "%d" if isinstance(value, int) else "%s"
    return "%.17g" if getattr(value, "typecode", None) == "d" else None


def _fmt(value) -> str:
    """A cell or metadata value by the rules of _FORMATS; a Python scalar without numpy."""
    if isinstance(value, (int, float, str)):
        return _pyformat(value) % value
    import numpy as np
    value = np.asarray(value)
    return _FORMATS.get(value.dtype.kind, "%s") % value.item()


def _meta(command: str, params: dict, seed=None) -> str:
    parts = [f"tool=bell-lab version={__version__} command={command}"]
    parts += [f"{key}={_fmt(value)}" for key, value in params.items()]
    if seed is not None:
        from .lhv import RNG_ALGORITHM

        parts.append(f"seed={int(seed)} rng={RNG_ALGORITHM}")
    return "# " + " ".join(parts)


def _write_csv(out, meta_line: str, columns: dict):
    """Header, metadata line, then one row per element of the broadcast columns, to out or stdout.

    Columns of Python values, all scalars (one row) or all array("d") of one length, are formatted by _pyformat
    without numpy.  Others broadcast as numpy arrays, and a chunk's repeated floats are formatted once per bit
    pattern (a constant, an axis, a few-valued drift).  Either way, rows go _CSV_CHUNK at a time.
    """
    fmts = list(map(_pyformat, columns.values()))
    plain = None not in fmts
    if plain:
        cells = [(value,) if isinstance(value, (int, float, str)) else value for value in columns.values()]
    else:
        import numpy as np
        # reshape, not ravel: a strided 1-D column stays a view
        cells = [cell.reshape(-1) for cell in np.broadcast_arrays(*columns.values())]
    if out is not None and os.path.isfile(out.name):  # a pipe or device takes no truncate
        out.truncate(0)
    out = out or sys.stdout
    text = f"{','.join(columns)}\n{meta_line}\n"  # goes with the first chunk: one write up to a chunk
    for start in range(0, len(cells[0]), _CSV_CHUNK):
        chunk = [cell[start:start + _CSV_CHUNK] for cell in cells]
        if not plain:
            fmts, chunk = zip(*map(_formatted, chunk))
        chunk = iter([text, *map((",".join(fmts) + "\n").__mod__, zip(*chunk))])  # frees the values before the join
        out.write("".join(chunk))  # join exhausts the iterator, which frees the rows before the write
        text = ""


def _formatted(part):
    """(printf format, cells) of a column's chunk; a float64 one as text if it has at most half as many bit patterns.

    The full sort runs only if a strided sample of MAX_GRID_SIDE + 1 cells repeats, as it must by pigeonhole in a
    column of at most MAX_GRID_SIDE values (a constant, an axis), and cannot in an all-distinct one (a time)."""
    import numpy as np
    if part.dtype == np.float64 and part.size > 2:  # one- and two-row chunks never sort
        bits = part.view(np.uint64)  # -0.0 and NaN payloads kept apart
        if not np.diff(np.sort(bits[::max(1, bits.size // (MAX_GRID_SIDE + 1))][:MAX_GRID_SIDE + 1])).all():
            bits, inverse = np.unique(bits, return_inverse=True)  # above, np.sort: a bare np.unique imports numpy.ma
            if 2 * bits.size <= part.size:
                return "%s", np.array([_FORMATS["f"] % v for v in bits.view(float).tolist()], object)[inverse].tolist()
    return _FORMATS.get(part.dtype.kind, "%s"), part.tolist()


class UsageError(ValueError):
    """A command line that the table or a command body refuses; exits 2 like any ValueError."""


# OSError: a write that a full disk or device refused (a BrokenPipeError, the reader gone, goes on to run())
_EXIT_CODES = {NodeSingularityError: EXIT_NODE, NumericalCheckError: EXIT_NUMERICAL, ValueError: EXIT_VALIDATION,
               OSError: 1}


def _check_grid(side: float):
    """Refuse a grid of fewer than 2 or more than MAX_GRID_SIDE points per axis before building it."""
    if side < 2:
        raise UsageError("--grid must be >= 2")
    if side > MAX_GRID_SIDE:
        raise ValueError(f"grid of {side:.6g} points per axis exceeds {MAX_GRID_SIDE}")


def _typed(value: float) -> str:
    """A number flag's value as one would type it: its shortest repr, less a trailing ".0"."""
    return repr(value).removesuffix(".0")


def _check_flags(valid=math.isfinite, must="finite", **flags):
    """Refuse a number flag that is not valid (by default, not finite), quoted as typed, before the body uses it."""
    for name, value in flags.items():
        if not valid(value):
            raise UsageError(f"{_flag(name)} must be {must}, got {_typed(value)}")


def _check_count(cap: int, **flags):
    """Refuse a count flag below 1 or above cap, before the body draws or steps."""
    for name, value in flags.items():
        if not 1 <= value <= cap:
            raise UsageError(f"{_flag(name)} must be >= 1" if value < 1 else f"{_flag(name)} {value} exceeds {cap}")


def _check_step(step: float):
    """Refuse a scan step outside (0, 45] degrees (the scans' grid_step range), then a grid over the cap."""
    _check_flags(lambda v: 0.0 < v <= 45.0, "in (0, 45]", step=step)  # also NaN
    rad = math.radians(step)  # the scan's ceil of 2 pi / rad exceeds the cap exactly when this does
    _check_grid(2.0 * math.pi / rad if rad > 0.0 else math.inf)  # a step that underflows to 0 rad never ends


def _parse_floats(text, name, count):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != count:
        raise UsageError(f"{name} must be {count} comma-separated numbers")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"could not parse {name}: {exc}")
    if not all(map(math.isfinite, values)):  # quoted as given, before any conversion to radians
        raise UsageError(f"{name} must be finite, got {text}")
    return values


def chsh(alpha, alpha_prime, beta, beta_prime, kind, out):
    """S for one settings tuple on the singlet / photon pair state."""
    _check_flags(alpha=alpha, alpha_prime=alpha_prime, beta=beta, beta_prime=beta_prime)
    import numpy as np
    from .chsh import chsh_value, photon_pair_state, singlet

    settings = np.deg2rad((alpha, alpha_prime, beta, beta_prime))
    state = singlet() if kind == "spin" else photon_pair_state()
    columns = {"alpha": alpha, "alpha_prime": alpha_prime, "beta": beta, "beta_prime": beta_prime, "kind": kind}
    _write_csv(out, _meta("chsh", columns), {**columns, "s": chsh_value(state, settings, _KIND[kind])})


def chsh_scan(step, kind, out):
    """Exhaustive grid maximization of |S|."""
    _check_step(step)
    import numpy as np
    from .chsh import tsirelson_scan

    s, settings = tsirelson_scan(_KIND[kind], np.deg2rad(step))
    best = dict(zip(("best_alpha", "best_alpha_prime", "best_beta", "best_beta_prime"), np.rad2deg(settings)))
    _write_csv(out, _meta("chsh-scan", {"step": step, "kind": kind}), {**best, "s_max": abs(s)})


def identity(kind, trials, seed, out):
    """Max residual of S^2 = 4I - [A,A'](x)[B,B'] over random settings."""
    _check_count(_MAX_TRIALS, trials=trials)
    _check_flags(lambda v: v >= 0, "a non-negative integer", seed=seed)  # as typed, before make_rng names it
    import numpy as np
    from .chsh import identity_residual
    from .lhv import make_rng

    rng = make_rng(seed)
    worst = 0.0
    # one draw and one batch per chunk of trials keeps memory bounded for
    # any --trials; PCG64 uniform draws do not depend on the chunking
    for start in range(0, trials, IDENTITY_CHUNK):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(min(IDENTITY_CHUNK, trials - start), 4))
        worst = max(worst, float(identity_residual(angles, _KIND[kind]).max()))
    if worst >= IDENTITY_TOLERANCE:
        raise NumericalCheckError(f"identity residual {worst:.3e} exceeds {IDENTITY_TOLERANCE:.1e}")
    meta = _meta("identity", {"kind": kind, "trials": trials}, seed=seed)
    _write_csv(out, meta, {"trials": trials, "max_residual": worst})


def mermin(n, scan, step, out):
    """<F_n> on the GHZ state plus the deterministic LHV maximum."""
    _check_flags(lambda v: 2 <= v <= 10, "in [2, 10]", n=n)  # mermin's range, before ghz names it
    import numpy as np
    from .lhv import mermin_deterministic_max
    from .mermin import ghz, mermin_shared_scan, mermin_value

    if scan:
        _check_step(step)
        value, _ = mermin_shared_scan(n, np.deg2rad(step))
        params = {"n": n, "scan": True, "step": step}
    else:
        # canonical shared pair (0, 90) degrees attains the quantum bound
        value = mermin_value(ghz(n), [(0.0, np.pi / 2.0)] * n)
        params = {"n": n, "scan": False}
    _write_csv(out, _meta("mermin", params),
               {"n": n, "f_value_or_max": value, "deterministic_max": mermin_deterministic_max(n)})


def lhv(enumerate_, model, samples, seed, angles, out):
    """Local hidden-variable baselines: enumeration or Monte Carlo."""
    if enumerate_:
        from .lhv import chsh_deterministic_max

        _write_csv(out, _meta("lhv", {"mode": "enumerate"}), {"max_s": chsh_deterministic_max()})
        return
    if model is None or samples is None or seed is None or angles is None:
        raise UsageError("lhv needs --enumerate, or --model --samples --seed --angles")
    from .lhv import _MAX_SAMPLES, sign_model, simulate_chsh_stats

    _check_count(_MAX_SAMPLES, samples=samples)  # as typed, before simulate_chsh_stats names them
    _check_flags(lambda v: v >= 0, "a non-negative integer", seed=seed)
    import numpy as np

    settings = np.deg2rad(_parse_floats(angles, "--angles", 4))
    estimate, stderr = simulate_chsh_stats(sign_model(), settings, samples, seed)
    meta = _meta("lhv", {"mode": "model", "model": model, "samples": samples, "angles": angles}, seed=seed)
    _write_csv(out, meta, {"s_estimate": estimate, "stderr": stderr})


def oumandel(tx, ty, theta1, theta2, grid, correlation, out):
    """Two-photon coincidence probabilities / correlations behind the splitter."""
    _check_flags(tx=tx, ty=ty, theta1=theta1, theta2=theta2)
    _check_flags(lambda v: 0.0 <= v <= 1.0, "in [0, 1]", tx=tx, ty=ty)  # as typed, before fock refuses it as t_x
    import numpy as np
    from .fock import coincidence_closed_form, coincidence_correlation, coincidence_probability, ou_mandel_state

    state = ou_mandel_state(tx, ty)
    params = {"tx": tx, "ty": ty, "theta1": theta1, "theta2": theta2}
    if grid is None:
        t1, t2 = theta1, theta2
    else:
        _check_grid(grid)
        thetas = np.linspace(0.0, 180.0, grid)
        t1, t2 = thetas[:, None], thetas[None, :]
        params["grid"] = grid
    params["correlation"] = correlation
    meta = _meta("oumandel", params)
    r1, r2 = np.deg2rad(t1), np.deg2rad(t2)
    if correlation:
        _write_csv(out, meta, {"theta1": t1, "theta2": t2, "e_value": coincidence_correlation(state, r1, r2)})
        return
    p = coincidence_probability(state, r1, r2)
    q = coincidence_closed_form(tx, ty, r1, r2)
    _write_csv(out, meta, {"theta1": t1, "theta2": t2, "p_numeric": p, "p_closed_form": q, "abs_diff": np.abs(p - q)})


def dbb(form, center_a, width_a, k_a, center_b, width_b, k_b, time_, grid, trajectory,
        start1, start2, t0, t1, dt, out):
    """Two-particle guidance velocities, cross-coupling, trajectories."""
    _check_flags(center_a=center_a, width_a=width_a, k_a=k_a, center_b=center_b, width_b=width_b, k_b=k_b,
                 time_=time_, t0=t0, t1=t1, dt=dt)
    _check_flags(lambda v: v > 0.0, "positive", width_a=width_a, width_b=width_b)  # WavePacket names neither
    from .dbb import TwoParticleWF, WavePacket, _path, cross_coupling, velocity_2p

    wf = TwoParticleWF(packet_a=WavePacket(center=center_a, width=width_a, wavenumber=k_a),
                       packet_b=WavePacket(center=center_b, width=width_b, wavenumber=k_b), form=form)
    params = {"form": form, "center_a": center_a, "width_a": width_a, "k_a": k_a,
              "center_b": center_b, "width_b": width_b, "k_b": k_b}
    if trajectory:  # the start and span as typed, before _path names them x1, x2, t, dt and t1
        s1 = center_a if start1 is None else start1
        s2 = center_b if start2 is None else start2
        _check_flags(start1=s1, start2=s2)
        _check_flags(lambda v: v >= 0.0, "non-negative", t0=t0)
        _check_flags(lambda v: v > 0.0, "positive", dt=dt)
        _check_flags(lambda v: v > t0, f"after --t0 {_typed(t0)}", t1=t1)
        times, states = _path(wf, (s1, s2), t0, t1, dt)  # integrate_trajectory's run, without numpy
        meta = _meta("dbb", {**params, "mode": "trajectory", "start1": s1, "start2": s2, "t0": t0, "t1": t1, "dt": dt})
        _write_csv(out, meta, {"t": times, "x1": states[0::2], "x2": states[1::2]})
        return
    _check_flags(lambda v: v >= 0.0, "non-negative", time_=time_)
    _check_grid(grid)
    import numpy as np
    lo = min(center_a - 2.0 * width_a, center_b - 2.0 * width_b)
    hi = max(center_a + 2.0 * width_a, center_b + 2.0 * width_b)
    # x2 axis shifted by half a cell: keeps the antisymmetric exchange
    # node (x1 == x2 exactly) off the sample points
    shift = 0.5 * (hi - lo) / (grid - 1)
    if not math.isfinite(hi + shift):  # lo, hi, hi - lo or the shifted axis overflows
        raise ValueError(f"grid span [{lo!r}, {hi!r}] leaves float64")
    xs1 = np.linspace(lo, hi, grid)
    x1, x2 = xs1[:, None], (xs1 + shift)[None, :]
    meta = _meta("dbb", {**params, "mode": "field", "time": time_, "grid": grid})
    v1, v2 = velocity_2p(wf, x1, x2, time_)
    _write_csv(out, meta, {"x1": x1, "x2": x2, "v1": v1, "v2": v2,
                           "cross_coupling": cross_coupling(wf, x1, x2, time_)})


def spin(bz, gyro, steps, dt, s0, out):
    """RK4 Larmor precession with conservation diagnostics."""
    from ._common import _MAX_STEPS
    _check_count(_MAX_STEPS, steps=steps)  # the span is refused in spin's own flags: t1 = steps * dt is none of them
    _check_flags(bz=bz, gyro=gyro, dt=dt)
    if not (dt > 0.0 and math.isfinite(steps * dt)):
        raise UsageError(f"--dt must be positive, got {_typed(dt)}" if dt <= 0.0 else
                         f"--steps {_typed(steps)} times --dt {_typed(dt)} leaves float64")
    s0v = _parse_floats(s0, "--s0", 3)
    import numpy as np
    from .dbb import integrate_spin

    traj = integrate_spin(s0v, (0.0, 0.0, bz), t1=steps * dt, dt=dt, gyro=gyro)
    sx, sy, sz = traj.spins.T  # contiguous: integrate_spin keeps each component so
    drift = traj.norms - float(np.linalg.norm(s0v))
    meta = _meta("spin", {"bz": bz, "gyro": gyro, "steps": steps, "dt": dt, "s0": s0})
    _write_csv(out, meta, {"t": traj.times, "sx": sx, "sy": sy, "sz": sz, "norm_drift": np.abs(drift, out=drift)})


_REQUIRED = object()  # the default of a flag that must be given
# command -> (mode flag, the flags that need the mode, the flags that the mode ignores)
_MODES = {"oumandel": ("grid", (), ("theta1", "theta2")), "mermin": ("scan", ("step",), ()),
          "dbb": ("trajectory", ("start1", "start2", "t0", "t1", "dt"), ("grid", "time_")),
          "lhv": ("enumerate_", (), ("model", "samples", "seed", "angles"))}
_TYPE_NAMES = {float: "float", int: "integer", str: "text", bool: ""}  # help shows them in capitals

# command -> (body, {name: (type, default[, help])}); the flag is --name for the body's keyword name, with
# "-" for "_" and no trailing "_"; a bool type is a bare flag, a tuple the choices
_COMMANDS = {command: (body, {**flags, "out": (str, None, "CSV path (default stdout).")})
             for command, (body, flags) in {
    "chsh": (chsh, {"alpha": (float, _REQUIRED, "Alice unprimed angle (degrees)."),
                    "alpha_prime": (float, _REQUIRED, "Alice primed angle (degrees)."),
                    "beta": (float, _REQUIRED, "Bob unprimed angle (degrees)."),
                    "beta_prime": (float, _REQUIRED, "Bob primed angle (degrees)."), "kind": (tuple(_KIND), "spin")}),
    "chsh scan": (chsh_scan, {"step": (float, _REQUIRED, "Grid step (degrees), in (0, 45]."),
                              "kind": (tuple(_KIND), "spin")}),
    "identity": (identity, {"kind": (tuple(_KIND), _REQUIRED), "trials": (int, 1000), "seed": (int, _REQUIRED)}),
    "mermin": (mermin, {"n": (int, _REQUIRED, "Number of particles (2..10)."),
                        "scan": (bool, False, "Scan a shared (a, a') grid instead of the canonical pair."),
                        "step": (float, 1.0, "Scan step (degrees).")}),
    "lhv": (lhv, {"enumerate_": (bool, False, "Exhaustive deterministic-strategy maximum."), "model": (("sign",), None),
                  "samples": (int, None), "seed": (int, None),
                  "angles": (str, None, "alpha,alpha',beta,beta' in degrees.")}),
    "oumandel": (oumandel, {
        "tx": (float, _REQUIRED, "x-polarization transmission probability."),
        "ty": (float, _REQUIRED, "y-polarization transmission probability."),
        "theta1": (float, 0.0, "Analyzer 1 (degrees)."), "theta2": (float, 0.0, "Analyzer 2 (degrees)."),
        "grid": (int, None, "Evaluate on an NxN angle grid over [0, 180] degrees."),
        "correlation": (bool, False, "Coincidence-normalized correlation instead of probabilities.")}),
    "dbb": (dbb, {"form": (("product", "symmetric", "antisymmetric"), _REQUIRED),  # dbb.FORMS, without running dbb
                  "center_a": (float, -1.5), "width_a": (float, 0.8), "k_a": (float, 0.6), "center_b": (float, 1.5),
                  "width_b": (float, 1.1), "k_b": (float, -0.4), "grid": (int, 21), "t0": (float, 0.0),
                  "t1": (float, 2.0), "dt": (float, 0.01), "time_": (float, 0.8, "Evaluation time for the field grid."),
                  "trajectory": (bool, False, "Integrate a trajectory instead of sampling the field."),
                  "start1": (float, None, "Trajectory start x1 (default: center of packet a)."),
                  "start2": (float, None, "Trajectory start x2 (default: center of packet b).")}),
    "spin": (spin, {"bz": (float, 1.0, "Field along z."), "gyro": (float, 1.0), "steps": (int, 10000),
                    "dt": (float, 0.002), "s0": (str, "1,0,0", "Initial spin sx,sy,sz.")}),
}.items()}


def _flag(name: str) -> str:
    return "--" + name.rstrip("_").replace("_", "-")


def _help(prog: str, command: str) -> str:
    """Usage, the first line of the body's docstring, then the flags and the subcommands in columns."""
    body, flags = _COMMANDS.get(command, (main, {}))
    options = [("--version", "Show the version and exit.")] * (not command)
    for name, (kind, default, *text) in flags.items():
        metavar = f"[{'|'.join(kind)}]" if isinstance(kind, tuple) else _TYPE_NAMES[kind].upper()
        tag = "[required]" if default is _REQUIRED else "" if kind is bool or default is None else \
            f"[default: {default}]"
        options.append((f"{_flag(name)} {metavar}".rstrip(), "  ".join([*text, tag]).strip()))
    options.append(("--help", "Show this message and exit."))
    commands = [(key.rpartition(" ")[2], sub.__doc__.partition("\n")[0])
                for key, (sub, _) in _COMMANDS.items() if key.rpartition(" ")[0] == command]
    width = max(len(left) for left, _ in options + commands)
    lines = [f"Usage: {' '.join(filter(None, [prog, command]))} [OPTIONS]" + " COMMAND [ARGS]..." * bool(commands),
             "", "  " + body.__doc__.partition("\n")[0]]
    for heading, rows in (("Options:", options), ("Commands:", commands)):
        lines += ["", heading, *(f"  {left:{width}}  {right}".rstrip() for left, right in rows)] * bool(rows)
    return "\n".join(lines)


def _dispatch(prog: str, command: str, args):
    """Parse args against command's flags and run its body, or the subcommand that a word names.

    A flag is ``--opt value`` (the value may start with "-"), ``--opt=value`` or a bare ``--opt``; the last
    of a repeated flag counts.  Types, choices, then required flags are checked before --out is opened.
    """
    body, flags = _COMMANDS.get(command, (None, {}))
    names = {_flag(name): name for name in flags}
    given = {}  # name -> value, in the order first given
    args = iter(args)
    for arg in args:
        if arg == "--help" or (arg == "--version" and not command):
            with _writing(None):
                print(_help(prog, command) if arg == "--help" else f"bell-lab, version {__version__}")
            return
        if not arg.startswith("-"):
            if f"{command} {arg}".lstrip() not in _COMMANDS:
                raise UsageError(f"No such command {arg!r}.")
            if given:  # the subcommand would ignore it
                raise UsageError(f"{command} {_flag(next(iter(given)))} does not apply to {arg!r}; "
                                 f"give it after {arg!r}")
            return _dispatch(prog, f"{command} {arg}".lstrip(), list(args))
        flag, eq, value = arg.partition("=")
        if flag not in names:
            raise UsageError(f"No such option {flag!r}.")
        if flags[names[flag]][0] is bool:
            if eq:
                raise UsageError(f"Option {flag!r} does not take a value.")
            value = True
        elif not eq and (value := next(args, None)) is None:
            raise UsageError(f"Option {flag!r} requires an argument.")
        given[names[flag]] = value
    mode, needs, ignored = _MODES.get(command, (None, (), ()))
    for name in given:  # a flag typed, not a default, that the body would ignore
        if name in (ignored if mode in given else needs):
            without = "a run without " * (name in needs)
            raise UsageError(f"{command} {_flag(name)} does not apply to {without}{_flag(mode)}")
    kwargs = {name: spec[1] for name, spec in flags.items()}
    for name, value in given.items():
        kind = flags[name][0]
        try:  # tuple.index refuses a value that is not one of the choices
            kwargs[name] = kind[kind.index(value)] if isinstance(kind, tuple) else kind(value)
        except ValueError:
            want = f"one of {', '.join(map(repr, kind))}" if isinstance(kind, tuple) else f"a valid {_TYPE_NAMES[kind]}"
            raise UsageError(f"Invalid value for {_flag(name)!r}: {value!r} is not {want}.") from None
    for name, value in kwargs.items():
        if value is _REQUIRED:
            raise UsageError(f"Missing option {_flag(name)!r}.")
    if kwargs["out"] is not None:  # append mode keeps an existing file as it was until _write_csv
        try:
            kwargs["out"] = open(kwargs["out"], "a", encoding="utf-8", newline="")
        except OSError as err:
            raise UsageError(f"cannot open --out {kwargs['out']}: {err.strerror}") from None
    with _writing(kwargs["out"]):
        body(**kwargs)


@contextmanager
def _writing(out):
    """Close out (None: stdout) at the end, and name it in the OSError of a write or the close that fails."""
    try:
        with out or nullcontext():
            yield
    except OSError as err:  # on a full disk or device
        if isinstance(err, BrokenPipeError):
            raise
        raise OSError(f"cannot write {f'--out {out.name}' if out else 'stdout'}: {err.strerror}") from None


def main(args=None, prog_name="bell-lab", standalone_mode=True):
    """Bell/CHSH, Mermin, Ou-Mandel and de Broglie-Bohm numerics.

    Runs the command that args (default sys.argv[1:]) names.  A failure writes its error line and raises
    SystemExit with its code; success raises SystemExit(0) in standalone mode and returns otherwise.
    """
    try:
        _dispatch(prog_name, "", (sys.argv[1:] if args is None else list(args)) or ["--help"])  # bare: the help
    except BrokenPipeError:
        raise  # no error line: the reader has left
    except tuple(_EXIT_CODES) as err:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))
        print(f"error={code} detail={' '.join(str(err).split())}", file=sys.stderr)
        sys.exit(code)
    if standalone_mode:
        sys.exit(0)


def _watched() -> bool:
    """Whether a tracer, a profiler or ``python -i`` waits for the normal exit (coverage, cProfile)."""
    mon = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile and coverage may hook in here instead
    return bool(sys.gettrace() or sys.getprofile() or sys.flags.inspect or mon and any(map(mon.get_tool, range(6))))


def run():
    """The process entry point: main() with the garbage collector off, ended at its last write.

    A command makes no reference cycles, so a collection in it would only traverse objects, and numpy's import
    alone ran about 30 of them.  Only a process that ends with the command may turn gc off: an in-process caller
    of main() keeps its own collections.  Once main exits with an int or None code, the atexit callbacks run,
    stdout and stderr are flushed and os._exit skips the rest of shutdown, unless _watched(), a second thread or a
    missing atexit._run_exitfuncs asks for the normal exit.  A reader that closes the pipe early (``| head``) ends
    the command with exit 1; a final flush that a full disk or device refuses, with exit 1 and its error line.
    """
    gc.disable()
    try:
        try:
            main()
        except SystemExit as done:
            if (not isinstance(done.code, (int, type(None))) or _watched() or threading.active_count() > 1
                    or not hasattr(atexit, "_run_exitfuncs")):
                raise
            atexit._run_exitfuncs()
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(done.code or 0)
    except OSError as err:  # from stdout, whose buffer keeps what it could not write
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # else the exit's flush fails again
        if not isinstance(err, BrokenPipeError):
            print(f"error=1 detail=cannot write stdout: {err.strerror}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    run()
