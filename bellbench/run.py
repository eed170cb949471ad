"""bell-lab benchmark: one workload of bell-lab CLI commands, checked and timed.

    python3 bellbench/run.py --workload {algebra,grids,trajectories} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is taken from ``src/``.
One benchmark process runs the workload's commands one after another, a
closed loop with one client, and repeats the whole sequence until
``--seconds`` have passed.  Every command's stdout is checked by a route
that does not go through the code that produced it (see checks.py) and
must be byte-identical on every repeat of one seed.

``--trace 0`` runs each command as ``python -m bell_lab`` in a subprocess,
so Python start-up and import count, and reports the end-to-end metrics:

* wall_s -- summed wall time of the workload's commands;
* cpu_s -- summed user+system CPU of those child processes, from rusage;
* setup_s -- wall time of ``bell-lab --version``, the import floor, sampled
  once per pass and at least five times;
* peak_rss_mb -- largest max-RSS of any single command in a pass (median).

Times are medians over the run's repeats, each taken relative to a fixed
calibration program run around it and expressed in seconds on the
reference host (see measure_untraced); the plain medians are printed too.

``--trace 1`` drives the same commands in-process through
``bell_lab.cli.main``, alternating untraced and traced passes, and reports
the per-layer metrics of spans.py.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.  Details (provenance, per-command sha256
and timings) go to ``.bench_out/`` in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

COMMAND_TIMEOUT_S = 60
GRACE_S = 100  # after --seconds, commands are cut short so a run ends well within 180 s
SETUP_SAMPLES = 5
CALIBRATE = (str(BENCH_DIR / "calibrate.py"),)
# calibrate.py's median wall and CPU time on the reference host (2-core Xeon,
# Python 3.11, numpy 2.4); they turn time ratios back into seconds
REF_WALL_S = 0.15
REF_CPU_S = 0.25
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Ledger:
    """Attempted and failed commands, with the stdout digest of each command."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}  # command key -> (sha256, passed its check)

    def record(self, key, args, returncode, stdout, stderr, check):
        """Count one execution; a non-zero exit, a failed check or changed bytes fail it."""
        self.attempted += 1
        digest = hashlib.sha256(stdout).hexdigest()
        known = self.digests.get(key)
        problem = None
        if returncode != 0:
            problem = f"exit {returncode}: {stderr.strip()[-500:]}"
        elif known is None:
            try:
                check(stdout)
            except Exception as err:  # any checker error is a failed operation, not a crash
                problem = f"check failed: {type(err).__name__}: {err}"
            self.digests[key] = (digest, problem is None)
        elif known[0] != digest:
            problem = f"stdout sha256 {digest} differs from {known[0]} of an earlier repeat"
        elif not known[1]:
            problem = "same bytes as an output that failed its check"
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"args": list(args), "problem": problem})


def _check_version(stdout):
    if not stdout.startswith(b"bell-lab, version "):
        raise checks.CheckFailed(f"unexpected --version output {stdout[:80]!r}")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_subprocess(argv, env, timeout=COMMAND_TIMEOUT_S):
    """Run ``python argv``; returns (wall_s, cpu_s, rss_mb, returncode, stdout, stderr)."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


def measure_untraced(cmds, seconds, ledger):
    """Subprocess passes until the time is up, each command paired with calibrate.py.

    A pass is ``--version`` then every command, with calibrate.py run
    before each of them and once at the end.  Each command's wall and CPU
    times are divided by the mean of the two calibrations around it: on a
    shared host the speed drifts by tens of percent from minute to minute,
    and neighbouring runs drift together.  A metric is the median ratio
    over the run's repeats (summed over commands) times calibrate.py's
    reference time, so it reads in seconds on the reference host.  The
    plain medians are reported next to them as ``unscaled``.
    """
    env = _child_env()
    samples = {}  # ledger key -> [[wall, cpu, rss, calibration wall, calibration cpu]]
    peaks = []
    previous = []  # the last timed sample, until the calibration after it is known

    def timeout():
        return max(1.0, min(COMMAND_TIMEOUT_S, limit - time.perf_counter()))

    def calibrate():
        cal_wall, cal_cpu, _, rc, _, err = run_subprocess(CALIBRATE, env, timeout())
        if rc != 0:
            raise RuntimeError(f"calibrate.py failed: {err.strip()[-500:]}")
        if previous:  # a command's reference is the mean of the calibrations around it
            sample = previous.pop()
            sample[3] = 0.5 * (sample[3] + cal_wall)
            sample[4] = 0.5 * (sample[4] + cal_cpu)
        return cal_wall, cal_cpu

    def timed(key, args, check):
        cal_wall, cal_cpu = calibrate()
        wall, cpu, rss, rc, out, err = run_subprocess(("-m", "bell_lab", *args), env, timeout())
        ledger.record(key, args, rc, out, err, check)
        sample = [wall, cpu, rss, cal_wall, cal_cpu]
        samples.setdefault(key, []).append(sample)
        previous.append(sample)
        return rss

    deadline = time.perf_counter() + seconds
    limit = deadline + GRACE_S
    while True:
        timed("version", ("--version",), _check_version)
        peaks.append(max(timed(i, cmd.args, cmd.check) for i, cmd in enumerate(cmds)))
        if time.perf_counter() >= deadline:
            break
    while len(samples["version"]) < SETUP_SAMPLES:
        timed("version", ("--version",), _check_version)
    calibrate()

    med = statistics.median

    def scaled(key, col, ref):
        return ref * med(s[col] / s[col + 3] for s in samples[key])

    def unscaled(key, col):
        return med(s[col] for s in samples[key])

    keys = range(len(cmds))
    metrics = {
        "wall_s": sum(scaled(i, 0, REF_WALL_S) for i in keys),
        "cpu_s": sum(scaled(i, 1, REF_CPU_S) for i in keys),
        "setup_s": scaled("version", 0, REF_WALL_S),
        "peak_rss_mb": med(peaks),
    }
    details = {
        "unscaled": {"wall_s": sum(unscaled(i, 0) for i in keys),
                     "cpu_s": sum(unscaled(i, 1) for i in keys),
                     "setup_s": unscaled("version", 0)},
        "columns": ["wall_s", "cpu_s", "max_rss_mb", "calibration_wall_s", "calibration_cpu_s"],
        "version": samples["version"],
        "commands": [{"args": list(cmd.args), "samples": samples[i]} for i, cmd in enumerate(cmds)],
    }
    return metrics, len(peaks), details


def _run_in_process(main, args, tracer):
    """One command through bell_lab.cli.main; returns (wall_s, returncode, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    rc = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            kwargs = {"args": list(args), "prog_name": "bell-lab", "standalone_mode": False}
            if tracer is None:
                main(**kwargs)
            else:
                tracer.cli_call(main, **kwargs)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaping error is a failed command, recorded below
            rc = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    wall = time.perf_counter() - start
    return wall, rc, out.getvalue().encode("utf-8"), err.getvalue()


def _layer_snapshot(tracer, wall):
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = tracer.self_s[layer]
        m[f"{layer}.calls"] = tracer.calls[layer]
        m[f"{layer}.errors"] = tracer.errors[layer]
    m.update(tracer.counts)
    c = tracer.counts
    m["fock.ladder_builds_per_probability"] = (
        c["fock.ladder_builds"] / c["fock.probabilities"] if c["fock.probabilities"] else 0.0)
    m["dbb.overlaps_per_velocity"] = (
        c["dbb.overlap_evals"] / c["dbb.velocity_evals"] if c["dbb.velocity_evals"] else 0.0)
    m["trace.coverage"] = sum(tracer.self_s.values()) / wall
    return m


def measure_traced(cmds, seconds, ledger, spans_path):
    """Alternate untraced and traced in-process passes until the time is up."""
    sys.path.insert(0, str(SRC))
    import bell_lab
    from bell_lab.cli import main

    tracer = spans.Tracer(bell_lab)
    walls = {False: [], True: []}
    snapshots = []
    deadline = time.perf_counter() + seconds
    while True:
        for tracing in (False, True):
            if tracing:
                tracer.install()
            try:
                total = 0.0
                for i, cmd in enumerate(cmds):
                    wall, rc, out, err = _run_in_process(main, cmd.args, tracer if tracing else None)
                    ledger.record(i, cmd.args, rc, out, err, cmd.check)
                    total += wall
                    if tracing:
                        tracer.count_output(out)
            finally:
                tracer.uninstall()
            walls[tracing].append(total)
        snapshots.append(_layer_snapshot(tracer, walls[True][-1]))
        if time.perf_counter() >= deadline:
            break
        tracer.reset()  # only the last pass's spans are written; free the rest now
    tracer.write_spans(spans_path)

    metrics = {name: statistics.median(s[name] for s in snapshots) for name in snapshots[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return metrics, len(snapshots), {"untraced_pass_s": walls[False], "traced_pass_s": walls[True]}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py")),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own smoke tests")
    opts = parser.parse_args(argv)

    if not (SRC / "bell_lab" / "__init__.py").is_file():
        print(f"error: no bell_lab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    cmds = workloads.commands(opts.workload, opts.seed, opts.size)
    ledger = Ledger()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if opts.trace else "end_to_end"]}
    if opts.trace:
        metrics, passes, samples = measure_traced(cmds, opts.seconds, ledger,
                                                  OUT_DIR / f"spans-{opts.workload}.csv.gz")
    else:
        # warm-up: byte-compiles the package and fills the page cache, as an installed copy would
        for argv in (CALIBRATE, ("-m", "bell_lab", "--version")):
            _, _, _, rc, _, err = run_subprocess(argv, _child_env())
            if rc != 0:
                print(f"error: {' '.join(argv)} failed (exit {rc}): {err.strip()[-500:]}", file=sys.stderr)
                return 1
        metrics, passes, samples = measure_untraced(cmds, opts.seconds, ledger)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")

    failed_frac = ledger.failed / ledger.attempted
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    prov = provenance(opts.seed)
    sha256 = {" ".join(cmd.args): ledger.digests[i][0] for i, cmd in enumerate(cmds) if i in ledger.digests}
    details = dict(result, workload=opts.workload, size=opts.size, trace=opts.trace, passes=passes,
                   failed_frac=failed_frac, provenance=prov, sha256=sha256, samples=samples,
                   failures=ledger.failures)
    details_path = OUT_DIR / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
    details_path.write_text(json.dumps(details, indent=1) + "\n")

    print(f"bell-lab benchmark: workload={opts.workload} seed={opts.seed} trace={opts.trace} "
          f"passes={passes} attempted={ledger.attempted} failed={ledger.failed} "
          f"failed_frac={failed_frac:g}")
    unscaled = samples.get("unscaled", {})
    for name, unit in units.items():
        plain = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:40s} {metrics[name]:.6g} {unit}{plain}")
    for failure in ledger.failures:
        print(f"  FAILED {' '.join(failure['args'])}: {failure['problem']}")
    print(f"  provenance: {json.dumps(prov)}")
    print(f"  details: {details_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
