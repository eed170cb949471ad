"""Byte-for-byte CLI goldens, one or more per command family.

Each ``tests/golden/<name>.csv`` holds the exact stdout of ``bell-lab``
for the arguments listed below.  A change that moves any byte fails here;
one that means to must regenerate the files on purpose with

    PYTHONPATH=src python tests/test_golden.py

and record the change.  ``python tests/test_golden.py DIR`` writes the
same files to DIR instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from bell_lab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

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
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr or result.output
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden(name):
    assert _stdout(GOLDEN[name]) == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_goldens_do_not_depend_on_simd_dispatch(tmp_path):
    # numpy picks SIMD loops by CPU at import; with every dispatch target this
    # machine supports switched off, a child process must print the same bytes
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    if not disabled:
        pytest.skip("this CPU runs no dispatched numpy loops")
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True)
    for name in sorted(GOLDEN):
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes(), name


if __name__ == "__main__":
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR
    out_dir.mkdir(exist_ok=True)
    for name, args in GOLDEN.items():
        (out_dir / f"{name}.csv").write_bytes(_stdout(args))
