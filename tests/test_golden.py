"""Byte-for-byte CLI goldens, one or more per command family, and one per demo.

Each ``tests/golden/<name>.csv`` holds the exact stdout of ``bell-lab``
for the arguments listed below, and each ``tests/golden/demo_<demo>.txt``
that of ``python -W error demos/<demo>.py``.  A change that moves any byte
fails here; one that means to must regenerate the files on purpose with

    PYTHONPATH=src python tests/test_golden.py

and record the change.  ``python tests/test_golden.py DIR`` writes the
same files to DIR instead.  README's ``python`` examples have no golden, but
each must run as a demo does, without an error or a warning.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from clirun import invoke

GOLDEN_DIR = Path(__file__).parent / "golden"
DEMO_DIR = Path(__file__).parents[1] / "demos"
DEMOS = sorted(p.stem for p in DEMO_DIR.glob("*.py"))
README = Path(__file__).parents[1] / "README.md"
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)

GOLDEN = {
    "identity_spin": ["identity", "--kind", "spin", "--trials", "200", "--seed", "7"],
    "identity_photon": ["identity", "--kind", "photon", "--trials", "200", "--seed", "8"],
    "chsh_spin": ["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45",
                  "--beta-prime", "-45"],
    "chsh_photon": ["chsh", "--alpha", "0", "--alpha-prime", "45", "--beta", "-22.5",
                    "--beta-prime", "22.5", "--kind", "photon"],
    "chsh_scan_spin": ["chsh", "scan", "--step", "22.5"],
    "chsh_scan_photon": ["chsh", "scan", "--step", "22.5", "--kind", "photon"],
    "mermin_3": ["mermin", "--n", "3"],
    "mermin_10": ["mermin", "--n", "10"],
    "mermin_3_scan": ["mermin", "--n", "3", "--scan"],
    "mermin_10_scan": ["mermin", "--n", "10", "--scan"],
    "lhv_enumerate": ["lhv", "--enumerate"],
    "lhv_sign": ["lhv", "--model", "sign", "--samples", "10000", "--seed", "11",
                 "--angles", "0,45,22.5,67.5"],
    "oumandel_probability": ["oumandel", "--tx", "0.7", "--ty", "0.4", "--grid", "5"],
    "oumandel_correlation": ["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", "5",
                             "--correlation"],
    "dbb_grid": ["dbb", "--form", "symmetric", "--grid", "5"],
    "dbb_grid_product": ["dbb", "--form", "product", "--grid", "9"],
    "dbb_grid_antisymmetric": ["dbb", "--form", "antisymmetric", "--grid", "9"],
    "dbb_trajectory": ["dbb", "--form", "antisymmetric", "--trajectory", "--t1", "0.5",
                       "--dt", "0.05"],
    # 1.05 / 0.1 ends in a shortened step
    "dbb_trajectory_product": ["dbb", "--form", "product", "--trajectory", "--t1", "1.05",
                               "--dt", "0.1"],
    "dbb_trajectory_symmetric": ["dbb", "--form", "symmetric", "--trajectory", "--t1", "1.05",
                                 "--dt", "0.1"],
    "spin": ["spin", "--steps", "50"],
    # a tilted start: sz and every norm take all three components
    "spin_tilted": ["spin", "--steps", "2000", "--dt", "0.01", "--bz", "1.3", "--gyro", "0.7",
                    "--s0=0.3,-0.8,0.5"],
}


def _stdout(args) -> bytes:
    result = invoke(args)
    assert result.exit_code == 0, result.stderr or result.output
    return result.stdout_bytes


def _env(**extra):
    """This process's environment with src/ first on PYTHONPATH, for a child that imports bell_lab."""
    src = str(Path(__file__).parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def _demo_stdout(name) -> bytes:
    # -W error, as CI runs the demos: a warning fails the demo instead of printing to stderr
    return subprocess.run([sys.executable, "-W", "error", str(DEMO_DIR / f"{name}.py")], env=_env(),
                          capture_output=True, check=True).stdout


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(name):
    assert _stdout(GOLDEN[name]) == (GOLDEN_DIR / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_golden(name):
    assert _demo_stdout(name) == (GOLDEN_DIR / f"demo_{name}.txt").read_bytes()


@pytest.mark.parametrize("code", README_EXAMPLES, ids=[f"example{i}" for i in range(1, len(README_EXAMPLES) + 1)])
def test_readme_example_runs(code):
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_goldens_do_not_depend_on_simd_dispatch(tmp_path):
    # numpy picks SIMD loops by CPU at import; with every dispatch target this
    # machine supports switched off, a child process (and the demos it runs) must print the same bytes
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not disabled:
        pytest.skip("this CPU runs no dispatched numpy loops")
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=_env(NPY_DISABLE_CPU_FEATURES=" ".join(disabled)),
                   check=True)
    for name in [f"{name}.csv" for name in sorted(GOLDEN)] + [f"demo_{name}.txt" for name in DEMOS]:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR
    out_dir.mkdir(exist_ok=True)
    for name, args in GOLDEN.items():
        (out_dir / f"{name}.csv").write_bytes(_stdout(args))
    for name in DEMOS:
        (out_dir / f"demo_{name}.txt").write_bytes(_demo_stdout(name))
