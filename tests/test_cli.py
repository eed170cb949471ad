import atexit
import errno
import gc
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import bell_lab
from bell_lab import cli, dbb
from bell_lab.chsh import TSIRELSON, chsh_value, identity_residual, singlet
from bell_lab.cli import EXIT_NODE, EXIT_NUMERICAL, EXIT_VALIDATION, IDENTITY_CHUNK, MAX_GRID_SIDE, _fmt
from bell_lab.dbb import TwoParticleWF, WavePacket, cross_coupling, integrate_trajectory, velocity_2p
from bell_lab.errors import NodeSingularityError, NumericalCheckError
from bell_lab.fock import (
    coincidence_closed_form,
    coincidence_correlation,
    coincidence_probability,
    ou_mandel_state,
)
from bell_lab.lhv import make_rng, sign_model, simulate_chsh_stats
from bell_lab.operators import _scan_angles
from clirun import invoke

META_PREFIX = "# tool=bell-lab version=0.1.0 command="

LAYERS = ("operators", "chsh", "mermin", "lhv", "fock", "dbb")

# the layer modules each command runs, in LAYERS order; the others stay unrun
LAYERS_RUN = [
    ("--version", []),
    ("chsh --alpha 0 --alpha-prime 90 --beta 45 --beta-prime -45", ["operators", "chsh"]),
    ("chsh scan --step 45", ["operators", "chsh"]),
    ("identity --kind spin --trials 10 --seed 1", ["operators", "chsh", "lhv"]),
    ("lhv --enumerate", ["lhv"]),
    ("lhv --model sign --samples 100 --seed 1 --angles 0,45,22.5,67.5", ["lhv"]),
    ("mermin --n 3", ["operators", "mermin", "lhv"]),
    ("oumandel --tx 0.5 --ty 0.5", ["operators", "fock"]),
    ("dbb --form symmetric --grid 3", ["dbb"]),
    ("spin --steps 3", ["dbb"]),
]

# every deterministic command family once, for the reproducibility matrix
COMMAND_MATRIX = [
    ["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"],
    ["chsh", "--alpha", "0", "--alpha-prime", "45", "--beta", "-22.5",
     "--beta-prime", "22.5", "--kind", "photon"],
    ["chsh", "scan", "--step", "45"],
    ["chsh", "scan", "--step", "30", "--kind", "photon"],
    ["identity", "--kind", "spin", "--trials", "200", "--seed", "7"],
    ["mermin", "--n", "3"],
    ["mermin", "--n", "4", "--scan", "--step", "15"],
    ["lhv", "--enumerate"],
    ["lhv", "--model", "sign", "--samples", "500", "--seed", "11",
     "--angles", "0,45,22.5,67.5"],
    ["oumandel", "--tx", "0.7", "--ty", "0.4", "--theta1", "30", "--theta2", "60"],
    ["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", "4", "--correlation"],
    ["dbb", "--form", "antisymmetric", "--grid", "7"],
    ["dbb", "--form", "product", "--trajectory", "--t1", "0.5", "--dt", "0.05"],
    ["spin", "--steps", "50"],
]


def run_ok(args):
    result = invoke(args)
    assert result.exit_code == 0, result.stderr or result.output
    return result.output


def home(name):
    """The layer module that defines ``name``, public or dbb's private _path: a cli command imports it from there."""
    return dbb if name == "_path" else sys.modules[getattr(bell_lab, name).__module__]


def spy(monkeypatch, name):
    """Record the arguments of every call of ``name`` made through its layer module."""
    calls = []
    module = home(name)
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def reach_fails(monkeypatch, name):
    """Make ``name`` in its layer module exit 3, so a command reaching it is visible."""
    def reached(*args, **kwargs):
        raise NumericalCheckError(f"{name} reached")

    monkeypatch.setattr(home(name), name, reached)


def one_shot_csv(meta_line, columns):
    """_write_csv's text as it was before chunking: every row formatted, then one joined string."""
    cells = np.broadcast_arrays(*columns.values())
    row = ",".join(cli._FORMATS.get(cell.dtype.kind, "%s") for cell in cells)
    lines = map(row.__mod__, zip(*(cell.ravel().tolist() for cell in cells)))
    return "\n".join([",".join(columns), meta_line, *lines]) + "\n"


# floats whose bit patterns differ though their values may not: signed zeros, NaNs with two payloads,
# infinities and subnormals
CSV_SPECIALS = [0.0, -0.0, np.nan, float(np.uint64(0x7FF8000000000001).view(np.float64)), np.inf, -np.inf,
                5e-324, -2.2250738585072009e-308, 1.5, 1 / 3]


def per_row_csv(meta_line, columns):
    """The CSV text by the printf rule of each cell, row by row: ints and bools %d, floats %.17g, else %s."""
    cells = [cell.ravel() for cell in np.broadcast_arrays(*map(np.asarray, columns.values()))]
    rules = [{"b": "%d", "i": "%d", "f": "%.17g"}.get(cell.dtype.kind, "%s") for cell in cells]
    rows = [",".join(rule % cell[i].item() for rule, cell in zip(rules, cells)) for i in range(cells[0].size)]
    return "\n".join([",".join(columns), meta_line, *rows]) + "\n"


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    meta = lines[1]
    rows = [line.split(",") for line in lines[2:]]
    return header, meta, rows


class TestOutputFormat:
    def test_fmt(self):
        assert _fmt(True) == "1"
        assert _fmt(False) == "0"
        assert _fmt(5) == "5"
        assert _fmt(0.5) == "0.5"
        assert _fmt(np.float64(2.0) ** 0.5) == "1.4142135623730951"
        assert _fmt("photon") == "photon"
        assert _fmt(np.bool_(True)) == "1"
        assert _fmt(np.int64(-3)) == "-3"
        assert _fmt(2**70) == str(2**70)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_scalar_row_gives_the_chunked_bytes(self, tmp_path, capsys, monkeypatch, to_file):
        # a row of Python scalars is formatted without numpy; as 0-d arrays the same values take the
        # chunked writer, so the two must give the same bytes, and --out is replaced on both paths
        values = [7, True, False, 2**63, 2**64 + 1, -(2**70), np.float64(2.0) ** 0.5, -0.0, np.nan, np.inf, -np.inf,
                  5e-324, 1e300, "photon"]
        scalars = {f"c{i}": value for i, value in enumerate(values)}
        calls, broadcast_arrays = [], np.broadcast_arrays
        monkeypatch.setattr(np, "broadcast_arrays", lambda *cells: calls.append(cells) or broadcast_arrays(*cells))
        texts, broadcasts = [], []
        for columns in (scalars, {name: np.asarray(value) for name, value in scalars.items()}):
            if to_file:
                out = tmp_path / "x.csv"
                out.write_bytes(b"x" * 1000)
                with open(out, "a", encoding="utf-8", newline="") as stream:
                    cli._write_csv(stream, "# meta", columns)
                texts.append(out.read_text(encoding="utf-8"))
            else:
                cli._write_csv(None, "# meta", columns)
                texts.append(capsys.readouterr().out)
            broadcasts.append(len(calls))
        assert broadcasts == [0, 1]  # the scalar row never reaches numpy
        assert texts[0] == texts[1] == (f"{','.join(scalars)}\n# meta\n7,1,0,9223372036854775808,18446744073709551617,"
                                        "-1180591620717411303424,1.4142135623730951,-0,nan,inf,-inf,"
                                        "4.9406564584124654e-324,1.0000000000000001e+300,photon\n")

    @pytest.mark.parametrize("args", COMMAND_MATRIX, ids=lambda a: " ".join(a))
    def test_shape_and_reproducibility(self, args, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        r1 = invoke(args + ["--out", str(out1)])
        assert r1.exit_code == 0, r1.stderr or r1.output
        r2 = invoke(args + ["--out", str(out2)])
        assert r2.exit_code == 0
        data = out1.read_bytes()
        assert data == out2.read_bytes()  # byte-identical reruns
        assert b"\r" not in data  # LF only
        assert data.endswith(b"\n")
        lines = data.decode("utf-8").splitlines()
        assert len(lines) >= 3
        assert lines[1].startswith(META_PREFIX)
        width = len(lines[0].split(","))
        for line in lines[2:]:
            assert len(line.split(",")) == width

    def test_stdout_matches_file_output(self, tmp_path):
        args = ["mermin", "--n", "2"]
        stdout_text = run_ok(args)
        out = tmp_path / "m.csv"
        invoke(args + ["--out", str(out)])
        assert out.read_text(encoding="utf-8") == stdout_text

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunked_rows_equal_the_one_shot_text(self, tmp_path, capsys, extra):
        # one row short of a chunk, a whole chunk, and one row into the next
        n = cli._CSV_CHUNK + extra
        rng = np.random.default_rng(n)
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        floats[:6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
        columns = {"flag": rng.random(n) < 0.5, "step": np.arange(n), "trials": 7, "kind": "photon",
                   "value": floats}
        want = one_shot_csv("# meta", columns)
        out = tmp_path / "x.csv"
        out.write_bytes(b"x" * (len(want) + 10))  # a longer file is replaced
        with open(out, "a", encoding="utf-8", newline="") as stream:
            cli._write_csv(stream, "# meta", columns)
        assert out.read_text(encoding="utf-8") == want
        cli._write_csv(None, "# meta", columns)
        assert capsys.readouterr().out == want

    @hyp_settings(max_examples=200, deadline=None)
    @given(data=st.data(), side=st.tuples(st.integers(1, 12), st.integers(1, 12)),
           chunk=st.sampled_from([1, 2, 3, 5, 8, 64]))
    def test_repeated_values_give_the_per_row_bytes(self, data, side, chunk):
        # constant, few-valued and axis columns take the distinct-value path, the others not; chunks
        # from one row to more than the grid, so boundaries fall anywhere
        pool = st.sampled_from(CSV_SPECIALS) if data.draw(st.booleans()) else st.sampled_from(
            data.draw(st.lists(st.sampled_from(CSV_SPECIALS), min_size=1, max_size=3)))
        floats = st.one_of(pool, st.floats(width=64))
        k, m = side
        def column(values, size):
            return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

        columns = {"row": column(pool, k)[:, None], "column": column(floats, m)[None, :], "const": data.draw(pool),
                   "few": column(pool, k * m).reshape(k, m), "any": column(floats, k * m).reshape(k, m),
                   "step": np.arange(k * m).reshape(k, m), "flag": np.arange(m) % 2 == 0, "kind": "photon"}
        stream = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CSV_CHUNK", chunk)
            patch.setattr(stream, "name", "<memory>", raising=False)
            cli._write_csv(stream, "# meta", columns)
        assert stream.getvalue() == per_row_csv("# meta", columns)

    def test_repeated_values_across_a_real_chunk(self, capsys):
        # two rows past _CSV_CHUNK: the last chunk, of two rows, formats each cell
        n = cli._CSV_CHUNK + 2
        few = np.array(CSV_SPECIALS * n)[:n]
        columns = {"t": np.arange(n) * 0.25, "few": few, "sz": -0.0, "drift": np.repeat(few[:n // 7 + 1], 7)[:n]}
        parts = np.full(3, -0.0), np.full(2, -0.0), np.arange(3.0)
        assert [cli._formatted(part)[0] for part in parts] == ["%s", "%.17g", "%.17g"]
        cli._write_csv(None, "# meta", columns)
        assert capsys.readouterr().out == per_row_csv("# meta", columns)

    def test_sampled_columns_give_the_per_cell_bytes(self, capsys, monkeypatch):
        # a chunk is sorted only if a strided sample of MAX_GRID_SIDE + 1 of its cells repeats: an
        # increasing column never, a constant and a 512-point axis always, and so does a column of
        # distinct values that ends in a repeated tail; two chunks of a 256 x 512 grid
        n = 2 * cli._CSV_CHUNK
        tail = np.arange(n) / 3.0
        tail[n // 8:] = 0.5  # the first chunk dedupes to 16,385 patterns, the second to one
        columns = {"t": (np.arange(n) * 0.1).reshape(-1, MAX_GRID_SIDE), "const": 1 / 3,
                   "axis": np.linspace(-1.0, 1.0, MAX_GRID_SIDE)[None, :], "tail": tail.reshape(-1, MAX_GRID_SIDE)}
        sorts, unique = [], np.unique
        def counted(values, **kwargs):
            sorts.extend([values.size] * bool(kwargs.get("return_inverse")))
            return unique(values, **kwargs)

        monkeypatch.setattr(np, "unique", counted)
        formats = [cli._formatted(part)[0] for part in (columns["t"][0], np.full(3, 1 / 3), tail[:cli._CSV_CHUNK])]
        assert formats == ["%.17g", "%s", "%s"] and sorts == [3, cli._CSV_CHUNK]
        sorts.clear()
        cli._write_csv(None, "# meta", columns)
        assert sorts == [cli._CSV_CHUNK] * 6  # const, axis and tail in each chunk; never t
        assert capsys.readouterr().out == per_row_csv("# meta", columns)

    @pytest.mark.parametrize("n", [1, 7, 8, 17])
    def test_float_buffers_give_the_per_row_bytes(self, capsys, monkeypatch, n):
        # array("d") columns, as a trajectory's, take the writer's numpy-free path, chunk by chunk:
        # one row, a chunk less one, a whole chunk, and into a third chunk
        values = (CSV_SPECIALS * 2)[:n]
        columns = {"t": array("d", range(n)), "x1": array("d", values), "x2": array("d", values[::-1])}
        calls = []
        monkeypatch.setattr(cli, "_CSV_CHUNK", 8)
        monkeypatch.setattr(np, "broadcast_arrays", lambda *cells: calls.append(cells))
        cli._write_csv(None, "# meta", columns)
        assert calls == []
        monkeypatch.undo()
        assert capsys.readouterr().out == per_row_csv("# meta", {k: np.array(v) for k, v in columns.items()})

    def test_strided_columns_are_not_copied(self, monkeypatch):
        # a trajectory's positions[:, i] are strided 1-D views: flattened, not copied
        n = 100_000
        positions = np.arange(2.0 * n).reshape(n, 2)
        digests, peaks = [], []
        for columns in ({"x1": positions[:, 0], "x2": positions[:, 1]},
                        {"x1": positions[:, 0].copy(), "x2": positions[:, 1].copy()}):
            digest = hashlib.sha256()
            monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": lambda _, s: digest.update(s.encode())})())
            tracemalloc.start()
            try:
                cli._write_csv(None, "# meta", columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1]
        assert peaks[0] < peaks[1] + 8 * n // 2  # a copy of the two columns would add 16 n bytes

    def test_floats_roundtrip_17g(self):
        # 17 significant digits reproduce the computed double exactly
        text = run_ok(["chsh", "--alpha", "0", "--alpha-prime", "90",
                       "--beta", "45", "--beta-prime", "-45"])
        _, _, rows = parse_csv(text)
        expected = chsh_value(singlet(), (0.0, np.pi / 2, np.pi / 4, -np.pi / 4))
        assert float(rows[0][5]) == expected


class TestChshCommand:
    def test_corrected_tuple(self):
        text = run_ok(["chsh", "--alpha", "0", "--alpha-prime", "90",
                       "--beta", "45", "--beta-prime", "-45"])
        header, meta, rows = parse_csv(text)
        assert header == ["alpha", "alpha_prime", "beta", "beta_prime", "kind", "s"]
        assert meta == (META_PREFIX + "chsh alpha=0 alpha_prime=90 beta=45 "
                        "beta_prime=-45 kind=spin")
        assert rows == [["0", "90", "45", "-45", "spin", "-2.8284271247461898"]]
        assert abs(abs(float(rows[0][5])) - TSIRELSON) < 1e-12

    def test_literal_tuple_cancels(self):
        # the same four angles fed to the standard S combination cancel
        text = run_ok(["chsh", "--alpha", "0", "--alpha-prime", "90",
                       "--beta", "45", "--beta-prime", "135"])
        _, _, rows = parse_csv(text)
        assert abs(float(rows[0][5])) < 1e-12

    def test_photon_corrected_tuple(self):
        text = run_ok(["chsh", "--alpha", "0", "--alpha-prime", "45",
                       "--beta", "-22.5", "--beta-prime", "22.5", "--kind", "photon"])
        _, _, rows = parse_csv(text)
        assert rows[0][4] == "photon"
        assert abs(float(rows[0][5]) - TSIRELSON) < 1e-12

    def test_scan_45_degree_step(self):
        text = run_ok(["chsh", "scan", "--step", "45"])
        header, meta, rows = parse_csv(text)
        assert header == ["best_alpha", "best_alpha_prime", "best_beta",
                          "best_beta_prime", "s_max"]
        assert meta == META_PREFIX + "chsh-scan step=45 kind=spin"
        assert rows[0][:4] == ["0", "90", "45", "315"]
        assert abs(float(rows[0][4]) - TSIRELSON) < 1e-12

    def test_missing_angles_usage_error(self):
        result = invoke(["chsh"])
        assert result.exit_code == 2

    def test_scan_step_out_of_range(self):
        # once "grid_step must be in (0, pi/4], got 0.8726646259971648", in radians
        result = invoke(["chsh", "scan", "--step", "50"])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == "error=2 detail=--step must be in (0, 45], got 50\n"

    def test_out_writes_the_single_value(self, tmp_path):
        args = ["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"]
        out = tmp_path / "x.csv"
        assert run_ok(args + ["--out", str(out)]) == ""
        assert out.read_text(encoding="utf-8") == run_ok(args)

    @pytest.mark.parametrize("earlier", [None, b"earlier,run\n"], ids=["new", "existing"])
    def test_group_out_before_a_subcommand_refused(self, monkeypatch, tmp_path, earlier):
        # the group's --out would be ignored by the scan: refused before any file
        # is opened, the scan's own --out included
        reach_fails(monkeypatch, "tsirelson_scan")
        out, own = tmp_path / "a.csv", tmp_path / "b.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        result = invoke(["chsh", "--out", str(out), "scan", "--step", "45", "--out", str(own)])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == "error=2 detail=chsh --out does not apply to 'scan'; give it after 'scan'\n"
        assert not own.exists()
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == earlier

    @pytest.mark.parametrize("option", [["--alpha", "10"], ["--alpha-prime", "90"], ["--beta", "45"],
                                        ["--beta-prime=-45"], ["--kind", "photon"]], ids=lambda o: o[0])
    def test_group_option_before_a_subcommand_refused(self, monkeypatch, tmp_path, option):
        # chsh --kind photon scan once scanned spin and printed kind=spin; refused before
        # the scan's own --out is opened
        reach_fails(monkeypatch, "tsirelson_scan")
        own = tmp_path / "b.csv"
        result = invoke(["chsh", *option, "scan", "--step", "45", "--out", str(own)])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        flag = option[0].partition("=")[0]
        assert result.stderr == f"error=2 detail=chsh {flag} does not apply to 'scan'; give it after 'scan'\n"
        assert not own.exists()


class TestIdentityCommand:
    def test_thousand_trials(self):
        text = run_ok(["identity", "--kind", "spin", "--trials", "1000", "--seed", "7"])
        header, meta, rows = parse_csv(text)
        assert header == ["trials", "max_residual"]
        assert meta == META_PREFIX + "identity kind=spin trials=1000 seed=7 rng=pcg64"
        assert rows[0][0] == "1000"
        assert 0.0 < float(rows[0][1]) < 1e-12

    def test_photon_kind(self):
        text = run_ok(["identity", "--kind", "photon", "--trials", "100", "--seed", "3"])
        _, _, rows = parse_csv(text)
        assert float(rows[0][1]) < 1e-12

    def test_chunked_trials_match_one_batch(self):
        trials = 2 * IDENTITY_CHUNK + 3
        text = run_ok(["identity", "--kind", "photon", "--trials", str(trials), "--seed", "5"])
        _, _, rows = parse_csv(text)
        angles = make_rng(5).uniform(0.0, 2.0 * np.pi, size=(trials, 4))
        worst = identity_residual(angles, "photon").max()
        assert rows[0] == [str(trials), _fmt(worst)]

    def test_draws_one_chunk_at_a_time(self, monkeypatch):
        draws = []

        class SpyRng:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def uniform(self, *args, size):
                draws.append(size)
                return self.rng.uniform(*args, size=size)

        monkeypatch.setattr(cli, "IDENTITY_CHUNK", 3)
        monkeypatch.setattr(home("make_rng"), "make_rng", SpyRng)
        text = run_ok(["identity", "--kind", "spin", "--trials", "8", "--seed", "5"])
        assert draws == [(3, 4), (3, 4), (2, 4)]
        angles = make_rng(5).uniform(0.0, 2.0 * np.pi, size=(8, 4))
        worst = identity_residual(angles).max()
        assert parse_csv(text)[2][0] == ["8", _fmt(worst)]

    def test_trials_validation(self):
        result = invoke(["identity", "--kind", "spin",
                                           "--trials", "0", "--seed", "1"])
        assert result.exit_code == 2

    def test_trials_cap_refused_before_any_draw(self, monkeypatch):
        # --trials 99999999999 once ran for minutes; the cap itself still reaches the generator
        reach_fails(monkeypatch, "make_rng")
        args = ["identity", "--kind", "spin", "--seed", "1", "--trials"]
        assert invoke(args + [str(cli._MAX_TRIALS)]).exit_code == EXIT_NUMERICAL
        for trials in (cli._MAX_TRIALS + 1, 99999999999):
            result = invoke(args + [str(trials)])
            assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
            assert result.stderr == f"error=2 detail=--trials {trials} exceeds {cli._MAX_TRIALS}\n"


class TestMerminCommand:
    def test_default_canonical_pair(self):
        text = run_ok(["mermin", "--n", "3"])
        header, meta, rows = parse_csv(text)
        assert header == ["n", "f_value_or_max", "deterministic_max"]
        assert meta == META_PREFIX + "mermin n=3 scan=0"
        assert rows[0][0] == "3"
        assert abs(float(rows[0][1]) - 4.0) < 1e-12
        assert rows[0][2] == "2"

    def test_scan_mode(self):
        text = run_ok(["mermin", "--n", "4", "--scan", "--step", "15"])
        _, meta, rows = parse_csv(text)
        assert meta == META_PREFIX + "mermin n=4 scan=1 step=15"
        assert abs(abs(float(rows[0][1])) - 8.0) < 1e-6
        assert rows[0][2] == "4"

    def test_n_validation(self):
        assert invoke(["mermin", "--n", "1"]).exit_code == 2
        assert invoke(["mermin", "--n", "11"]).exit_code == 2

    def test_repeated_flag_keeps_its_last_value(self):
        assert run_ok(["mermin", "--n", "2", "--n=3"]) == run_ok(["mermin", "--n", "3"])


class TestLhvCommand:
    def test_enumerate_exact_bytes(self):
        text = run_ok(["lhv", "--enumerate"])
        assert text == ("max_s\n"
                        "# tool=bell-lab version=0.1.0 command=lhv mode=enumerate\n"
                        "2\n")

    def test_model_matches_library(self):
        text = run_ok(["lhv", "--model", "sign", "--samples", "10000", "--seed", "3",
                       "--angles", "0,45,22.5,67.5"])
        header, meta, rows = parse_csv(text)
        assert header == ["s_estimate", "stderr"]
        assert "seed=3 rng=pcg64" in meta
        settings = np.deg2rad([0.0, 45.0, 22.5, 67.5])
        estimate, stderr = simulate_chsh_stats(sign_model(), settings, 10000, 3)
        assert float(rows[0][0]) == estimate
        assert float(rows[0][1]) == stderr
        assert abs(estimate) <= 2.0

    def test_incomplete_model_options(self):
        result = invoke(["lhv", "--model", "sign"])
        assert result.exit_code == 2

    def test_bad_angles(self):
        result = invoke(["lhv", "--model", "sign", "--samples", "10",
                                           "--seed", "1", "--angles", "1,2,3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("angles", ["0,45,22.5,nan", "inf,0,0,0", "0,-inf,1e400,0"])
    def test_nonfinite_angles_quoted_as_given(self, monkeypatch, angles):
        # once "settings angles must be finite, got array([0. , 0.78539816, ...])", in radians
        reach_fails(monkeypatch, "simulate_chsh_stats")
        result = invoke(["lhv", "--model", "sign", "--samples", "10", "--seed", "1", "--angles", angles])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == f"error=2 detail=--angles must be finite, got {angles}\n"

    def test_samples_cap_refused_before_any_draw(self, monkeypatch):
        reach_fails(monkeypatch, "make_rng")
        args = ["lhv", "--model", "sign", "--seed", "1", "--angles", "0,90,45,-45", "--samples"]
        assert invoke(args + [str(10**9)]).exit_code == EXIT_NUMERICAL
        result = invoke(args + [str(10**9 + 1)])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == f"error=2 detail=--samples {10**9 + 1} exceeds {10**9}\n"


class TestOumandelCommand:
    def test_single_point(self):
        text = run_ok(["oumandel", "--tx", "0.5", "--ty", "0.5",
                       "--theta1", "30", "--theta2", "15"])
        header, _, rows = parse_csv(text)
        assert header == ["theta1", "theta2", "p_numeric", "p_closed_form", "abs_diff"]
        want = coincidence_closed_form(0.5, 0.5, np.deg2rad(30.0), np.deg2rad(15.0))
        assert float(rows[0][2]) == pytest.approx(want, abs=1e-15)
        assert float(rows[0][3]) == want
        assert float(rows[0][4]) < 1e-15

    def test_grid_row_order_theta1_outer(self):
        text = run_ok(["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", "3"])
        _, _, rows = parse_csv(text)
        assert len(rows) == 9
        assert [r[0] for r in rows] == ["0"] * 3 + ["90"] * 3 + ["180"] * 3
        assert [r[1] for r in rows[:3]] == ["0", "90", "180"]

    def test_correlation_mode(self):
        text = run_ok(["oumandel", "--tx", "0.5", "--ty", "0.5",
                       "--theta1", "10", "--theta2", "20", "--correlation"])
        header, _, rows = parse_csv(text)
        assert header == ["theta1", "theta2", "e_value"]
        assert float(rows[0][2]) == pytest.approx(np.cos(np.deg2rad(60.0)), abs=1e-12)

    def test_transmission_validation(self):
        result = invoke(["oumandel", "--tx", "1.3", "--ty", "0.5"])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr.startswith("error=2 detail=")

    def test_undefined_correlation_is_validation_error(self):
        result = invoke(["oumandel", "--tx", "1", "--ty", "0",
                                           "--correlation"])
        assert result.exit_code == EXIT_VALIDATION

    @pytest.mark.parametrize("ty", ["5e-324", "1e-310"])
    def test_subnormal_coincidence_total_is_refused(self, ty):
        # these totals are subnormal: the ratio printed -1 and -0.25 + 1.2e-14
        result = invoke(["oumandel", "--tx", "1", "--ty", ty, "--theta1", "30",
                                           "--theta2", "60", "--correlation"])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr.startswith("error=2 detail=") and "subnormal" in result.stderr

    def test_small_normal_coincidence_total_keeps_its_correlation(self):
        _, _, rows = parse_csv(run_ok(["oumandel", "--tx", "1", "--ty", "1e-20", "--theta1", "30",
                                       "--theta2", "60", "--correlation"]))
        want = np.cos(2.0 * np.deg2rad(30.0)) * np.cos(2.0 * np.deg2rad(60.0))  # -0.25
        assert abs(float(rows[0][2]) - want) <= np.spacing(abs(want))

    def test_grid_is_one_broadcast_evaluation(self, monkeypatch):
        calls = spy(monkeypatch, "coincidence_probability")
        _, _, rows = parse_csv(run_ok(["oumandel", "--tx", "0.7", "--ty", "0.4", "--grid", "71"]))
        # a column and a row of angles, never a meshgrid
        assert [(np.shape(t1), np.shape(t2)) for _, t1, t2 in calls] == [((71, 1), (1, 71))]
        # bit for bit what one call per theta1 row gives
        state = ou_mandel_state(0.7, 0.4)
        thetas = np.deg2rad(np.linspace(0.0, 180.0, 71))
        want = [coincidence_probability(state, t1, thetas) for t1 in thetas]
        assert np.array_equal([float(r[2]) for r in rows], np.concatenate(want))

    def test_correlation_grid_is_one_broadcast_evaluation(self, monkeypatch):
        calls = spy(monkeypatch, "coincidence_correlation")
        _, _, rows = parse_csv(run_ok(["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", "51",
                                       "--correlation"]))
        assert [(np.shape(t1), np.shape(t2)) for _, t1, t2 in calls] == [((51, 1), (1, 51))]
        state = ou_mandel_state(0.5, 0.5)
        thetas = np.deg2rad(np.linspace(0.0, 180.0, 51))
        want = [coincidence_correlation(state, t1, thetas) for t1 in thetas]
        assert np.array_equal([float(r[2]) for r in rows], np.concatenate(want))


class TestDbbCommand:
    def test_field_grid_shape(self):
        text = run_ok(["dbb", "--form", "symmetric", "--grid", "5"])
        header, meta, rows = parse_csv(text)
        assert header == ["x1", "x2", "v1", "v2", "cross_coupling"]
        assert "mode=field" in meta and "grid=5" in meta
        assert len(rows) == 25
        assert all(float(r[4]) >= 0.0 for r in rows)

    def test_product_field_has_no_coupling(self):
        text = run_ok(["dbb", "--form", "product", "--grid", "5"])
        _, _, rows = parse_csv(text)
        assert all(float(r[4]) == 0.0 for r in rows)

    def test_trajectory_matches_library(self):
        text = run_ok(["dbb", "--form", "antisymmetric", "--trajectory",
                       "--t1", "0.5", "--dt", "0.05"])
        header, meta, rows = parse_csv(text)
        assert header == ["t", "x1", "x2"]
        assert "mode=trajectory" in meta
        assert len(rows) == 11
        wf = TwoParticleWF(
            WavePacket(center=-1.5, width=0.8, wavenumber=0.6),
            WavePacket(center=1.5, width=1.1, wavenumber=-0.4),
            form="antisymmetric",
        )
        tr = integrate_trajectory(wf, (-1.5, 1.5), 0.0, 0.5, 0.05)
        assert float(rows[-1][1]) == tr.positions[-1, 0]
        assert float(rows[-1][2]) == tr.positions[-1, 1]

    @pytest.mark.parametrize("form", ["product", "symmetric", "antisymmetric"])
    def test_trajectory_rows_are_the_library_arrays_formatted(self, form):
        # the CLI writes _path's buffers without numpy; the bytes are integrate_trajectory's arrays
        # through the chunked numpy writer's rules, ending in a shortened step
        text = run_ok(["dbb", "--form", form, "--trajectory", "--t0", "0.25", "--t1", "1.3", "--dt", "0.1",
                       "--start1", "-0.3", "--start2", "0.3"])
        wf = TwoParticleWF(WavePacket(-1.5, 0.8, 0.6), WavePacket(1.5, 1.1, -0.4), form=form)
        tr = integrate_trajectory(wf, (-0.3, 0.3), 0.25, 1.3, 0.1)
        meta = text.splitlines()[1]
        assert text == per_row_csv(meta, {"t": tr.times, "x1": tr.positions[:, 0], "x2": tr.positions[:, 1]})

    def test_nan_log_density_on_a_trajectory_exits_four(self):
        # x1 - xc overflows at the start, so the log density is NaN: a node, not a non-finite stage
        result = invoke(["dbb", "--form", "product", "--center-a=-1e308", "--trajectory",
                                           "--start1=1e308", "--t1", "0.02", "--dt", "0.01"])
        assert (result.exit_code, result.stdout) == (EXIT_NODE, "")
        assert result.stderr == "error=4 detail=density below 1e-300 at (1e+308, 1.5), t=0.0\n"

    def test_node_start_exits_four(self):
        result = invoke(["dbb", "--form", "antisymmetric",
                                           "--trajectory", "--start1", "0.2",
                                           "--start2", "0.2"])
        assert result.exit_code == EXIT_NODE
        assert result.stderr.startswith("error=4 detail=")

    @pytest.mark.parametrize("args, point", [
        (["--form", "product", "--center-a=-30", "--width-a=0.5", "--center-b=30",
          "--width-b=0.5", "--grid", "5"], ("-31", "-23.25")),
        (["--form", "antisymmetric", "--trajectory", "--start1", "0.2", "--start2", "0.2"],
         ("0.2", "0.2")),
    ])
    def test_node_stderr_is_one_line_naming_one_point(self, args, point):
        result = invoke(["dbb", *args])
        assert result.exit_code == EXIT_NODE
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=4 detail=")
        assert f"({point[0]}" in lines[0] and f", {point[1]}" in lines[0]
        assert "array(" not in lines[0] and "np.float64(" not in lines[0]

    def test_grid_validation(self):
        result = invoke(["dbb", "--form", "product", "--grid", "1"])
        assert result.exit_code == 2

    def test_grid_is_one_broadcast_evaluation(self, monkeypatch):
        velocity, coupling = spy(monkeypatch, "velocity_2p"), spy(monkeypatch, "cross_coupling")
        _, _, rows = parse_csv(run_ok(["dbb", "--form", "symmetric", "--grid", "35"]))
        for calls in (velocity, coupling):
            assert [(np.shape(x1), np.shape(x2)) for _, x1, x2, _ in calls] == [((35, 1), (1, 35))]
        # bit for bit what one call per x1 row gives
        wf = TwoParticleWF(WavePacket(center=-1.5, width=0.8, wavenumber=0.6),
                           WavePacket(center=1.5, width=1.1, wavenumber=-0.4), form="symmetric")
        got = np.array([[float(cell) for cell in r] for r in rows])
        xs1, xs2 = got[::35, 0], got[:35, 1]
        want = [(*velocity_2p(wf, x1, xs2, 0.8), cross_coupling(wf, x1, xs2, 0.8)) for x1 in xs1]
        assert np.array_equal(got[:, 2:], np.concatenate([np.stack(w, axis=1) for w in want]))

    @pytest.mark.parametrize("args", [
        ["--form", "product", "--width-a", "1e200", "--grid", "3"],
        ["--form", "product", "--k-a", "1e200", "--grid", "2"],
        ["--form", "product", "--width-a", "1e-200"],
        ["--form", "product", "--width-a", "1e-160", "--grid", "2"],
        ["--form", "product", "--width-a", "1e-150", "--time", "1e10", "--grid", "2"],
        ["--form", "symmetric", "--width-a", "1e-150", "--time", "1e10", "--grid", "2"],
        ["--form", "symmetric", "--width-a", "1e-150", "--trajectory", "--t1", "1e9", "--dt", "1e4"],
    ])
    def test_packet_out_of_float64_exits_two(self, monkeypatch, args):
        # a square that overflows or is not normal, or a tau that overflows by the
        # evaluation time (by t1 for a trajectory, before integrating)
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        result = invoke(["dbb", *args])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=2 detail=packet algebra leaves float64 by t=")

    def test_dt_that_cannot_advance_time_exits_two(self, monkeypatch):
        # t + 0.001 == t at t = 1e20, so the span must be refused before integrating
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        result = invoke(["dbb", "--form", "product", "--trajectory",
                                           "--t0", "1e20", "--t1", "2e20", "--dt", "0.001"])
        assert result.exit_code == EXIT_VALIDATION
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=2 detail=")


@pytest.mark.parametrize("args", [
    ["dbb", "--form", "product", "--trajectory", "--t1", "1e9", "--dt", "0.001"],
    ["spin", "--steps", "1000001", "--dt", "1"],
])
def test_span_of_too_many_steps_exits_two(monkeypatch, args):
    # 10^12 and 1000001 steps: refused before integrating, never run for real
    for name in ("_rk4", "_precess"):  # dbb's stepwise RK4 and spin's propagated one
        monkeypatch.setattr(dbb, name, lambda *args: pytest.fail("integration started"))
    result = invoke(args)
    assert result.exit_code == EXIT_VALIDATION
    # --t0, --t1 and --dt are dbb's own flags; spin quotes its --steps
    span = "(t1 - t0) / dt = 1e+12 steps" if args[0] == "dbb" else "--steps 1000001"
    assert result.stderr.splitlines() == [f"error=2 detail={span} exceeds 1000000"]


def test_span_one_step_over_the_cap_quotes_its_step_count(monkeypatch):
    # (t1 - t0) / dt = 1000000.5 takes 1000001 steps, which the ratio's six significant digits print as 1e+06
    monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
    result = invoke(["dbb", "--form", "product", "--trajectory", "--t1", "1000000.5", "--dt", "1"])
    assert result.exit_code == EXIT_VALIDATION
    assert result.stderr.splitlines() == ["error=2 detail=(t1 - t0) / dt = 1000001 steps exceeds 1000000"]


@pytest.mark.parametrize("t1, dt, steps", [
    ("1000001.5", "1", "1000002"),  # six digits print 1e+06, the cap itself
    ("1000004.5", "1", "1000005"),
    ("1234567.89", "0.1", "12345679"),
    ("2000000", "1", "2e+06"),  # six digits hold the ratio: quoted as before
])
def test_span_over_the_cap_quotes_its_step_count_where_six_digits_round(monkeypatch, t1, dt, steps):
    monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
    result = invoke(["dbb", "--form", "product", "--trajectory", "--t1", t1, "--dt", dt])
    assert result.exit_code == EXIT_VALIDATION
    assert result.stderr.splitlines() == [f"error=2 detail=(t1 - t0) / dt = {steps} steps exceeds 1000000"]


@pytest.mark.parametrize("args, t1, n_rows", [
    (["spin", "--steps", "5", "--dt", "1e-14"], 5e-14, 6),
    (["dbb", "--form", "product", "--trajectory", "--t1", "1e-13", "--dt", "1e-14"], 1e-13, 11),
    (["dbb", "--form", "product", "--trajectory", "--t1", "1.4e-14", "--dt", "1e-14"], 1.4e-14, 3),
])
def test_span_shorter_than_end_tolerance_all_written(args, t1, n_rows):
    # these spans are below the 1e-12 RK4 end tolerance, which is capped at
    # dt / 1000; the last one ends on a 0.4 dt remainder
    _, _, rows = parse_csv(run_ok(args))
    assert len(rows) == n_rows
    assert float(rows[-1][0]) == pytest.approx(t1, rel=1e-12)


class TestSpinCommand:
    def test_default_diagnostics(self):
        text = run_ok(["spin", "--steps", "100"])
        header, meta, rows = parse_csv(text)
        assert header == ["t", "sx", "sy", "sz", "norm_drift"]
        assert meta == (META_PREFIX + "spin bz=1 gyro=1 steps=100 dt=0.002 s0=1,0,0")
        assert len(rows) == 101
        assert max(float(r[4]) for r in rows) < 1e-12
        t_last = float(rows[-1][0])
        assert abs(float(rows[-1][1]) - np.cos(t_last)) < 1e-10
        assert abs(float(rows[-1][2]) + np.sin(t_last)) < 1e-10

    @hyp_settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-300, 1e-300),
                                               st.floats(-1e300, 1e300), st.floats(width=64))] * 3),
                         min_size=1, max_size=40),
           stride=st.sampled_from([None, "rows", "columns", "column-major"]))
    def test_vecdot_norms_bitwise_equal_to_each_row_norm(self, rows, stride):
        # the norm_drift column's norms: random, tiny and huge 3-vectors, contiguous, strided
        # or column-major as integrate_spin keeps them; against each row as printed (a copy)
        spins = np.array(rows)
        if stride == "rows":
            spins = np.repeat(spins, 2, axis=0)[::2]
        elif stride == "columns":
            spins = np.repeat(spins, 2, axis=1)[:, ::2]
        elif stride == "column-major":
            spins = np.asfortranarray(spins)
        with np.errstate(over="ignore"):  # a huge row overflows to inf on both routes
            got = np.sqrt(np.vecdot(spins, spins))
            want = np.array([np.linalg.norm(row) for row in spins])
            printed = np.array([np.linalg.norm(np.array(row)) for row in spins.tolist()])
        hexes = [[v.hex() for v in norms.tolist()] for norms in (got, want, printed)]
        assert hexes[0] == hexes[1] == hexes[2]

    def test_columns_are_written_without_copies_and_norms_taken_once(self, monkeypatch):
        written, vecdots = [], []
        monkeypatch.setattr(cli, "_write_csv", lambda out, meta, columns: written.append(columns))
        vecdot = np.vecdot
        monkeypatch.setattr(np, "vecdot", lambda *args: vecdots.append(args) or vecdot(*args))
        assert invoke(["spin", "--steps", "100", "--s0=0.3,-0.8,0.5"]).exit_code == 0
        (columns,) = written
        assert all(column.flags.c_contiguous and column.shape == (101,) for column in columns.values())
        assert len(vecdots) == 1  # integrate_spin's finiteness check and norm_drift share it

    @pytest.mark.parametrize("args, detail", [
        (["--steps", "2000000"], "--steps 2000000 exceeds 1000000"),
        (["--dt", "-0.5"], "--dt must be positive, got -0.5"),
        (["--dt", "1e308", "--steps", "10"], "--steps 10 times --dt 1e+308 leaves float64"),
    ])
    def test_span_refused_in_spins_own_flags_before_dbb_runs(self, args, detail):
        # t0 and t1 are no flags of spin's: the library's span messages would name them
        launcher = ("import sys, types; from bell_lab.cli import main\n"
                    "try:\n"
                    "    main(sys.argv[1:])\n"
                    "except SystemExit as exit_:\n"
                    "    print(exit_.code, type(sys.modules['bell_lab.dbb']) is types.ModuleType, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", launcher, "spin", *args], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.stderr == f"error=2 detail={detail}\n2 False\n"

    @pytest.mark.parametrize("steps", [999_999, 1_000_000])
    def test_steps_up_to_the_cap_pass_the_span_check(self, monkeypatch, steps):
        # 10^6 * dt / dt rounds above 10^6 at this dt; the span is the 10^6 steps it takes
        dt = 0.22947474961030467
        assert (1_000_000 * dt) / dt > 1e6

        def reached(*args):  # integrate_spin checks the span, then calls _precess
            raise NumericalCheckError("_precess reached")

        monkeypatch.setattr(dbb, "_precess", reached)
        result = invoke(["spin", "--steps", str(steps), "--dt", repr(dt)])
        assert (result.exit_code, result.stderr) == (EXIT_NUMERICAL, "error=3 detail=_precess reached\n")

    def test_s0_validation(self):
        result = invoke(["spin", "--s0", "1,0"])
        assert result.exit_code == 2
        result = invoke(["spin", "--s0", "a,b,c"])
        assert result.exit_code == 2


# the 513-angle scan step just below 360/512 degrees, and the 512-angle one
SCAN_STEPS = {"over": "0.7031249999999999", "at": "0.703125"}


class TestGridCap:
    @pytest.mark.parametrize("args, target", [
        (["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid"], "coincidence_probability"),
        (["oumandel", "--tx", "0.5", "--ty", "0.5", "--correlation", "--grid"], "coincidence_correlation"),
        (["dbb", "--form", "antisymmetric", "--grid"], "velocity_2p"),
    ])
    def test_grid_side_boundary(self, monkeypatch, args, target):
        reach_fails(monkeypatch, target)
        assert invoke(args + [str(MAX_GRID_SIDE)]).exit_code == EXIT_NUMERICAL
        result = invoke(args + [str(MAX_GRID_SIDE + 1)])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == f"error=2 detail=grid of {MAX_GRID_SIDE + 1} points per axis exceeds {MAX_GRID_SIDE}\n"
        # and the lower side, which the same check refuses
        assert invoke(args + ["2"]).exit_code == EXIT_NUMERICAL
        assert invoke(args + ["1"]).stderr == "error=2 detail=--grid must be >= 2\n"

    @pytest.mark.parametrize("args, target", [
        (["chsh", "scan", "--step"], "tsirelson_scan"),
        (["mermin", "--n", "3", "--scan", "--step"], "mermin_shared_scan"),
    ])
    def test_scan_step_boundary(self, monkeypatch, args, target):
        # the cap counts the angles the scan itself would build
        assert len(_scan_angles(np.deg2rad(float(SCAN_STEPS["at"])))) == MAX_GRID_SIDE
        assert len(_scan_angles(np.deg2rad(float(SCAN_STEPS["over"])))) == MAX_GRID_SIDE + 1
        reach_fails(monkeypatch, target)
        assert invoke(args + [SCAN_STEPS["at"]]).exit_code == EXIT_NUMERICAL
        result = invoke(args + [SCAN_STEPS["over"]])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr.startswith("error=2 detail=grid of 512") and "exceeds" in result.stderr

    def test_subnormal_scan_step_is_refused_by_the_cap(self, monkeypatch):
        # 2 pi / step overflows to inf, which the cap refuses like any large count
        reach_fails(monkeypatch, "tsirelson_scan")
        result = invoke(["chsh", "scan", "--step", "1e-320"])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == f"error=2 detail=grid of inf points per axis exceeds {MAX_GRID_SIDE}\n"


# a flag that its command's mode ignores, and the flags that set that mode
IGNORED_FLAGS = [
    (["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", "2"], ["--theta1", "30"],
     "oumandel --theta1 does not apply to --grid"),
    (["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid=2", "--correlation"], ["--theta2=0"],
     "oumandel --theta2 does not apply to --grid"),
    (["mermin", "--n", "3"], ["--step", "5"], "mermin --step does not apply to a run without --scan"),
    (["dbb", "--form", "product"], ["--start1", "1"], "dbb --start1 does not apply to a run without --trajectory"),
    (["dbb", "--form", "symmetric", "--grid", "3"], ["--start2=-1"],
     "dbb --start2 does not apply to a run without --trajectory"),
    (["lhv", "--enumerate"], ["--model", "sign"], "lhv --model does not apply to --enumerate"),
    (["lhv", "--enumerate"], ["--samples", "10"], "lhv --samples does not apply to --enumerate"),
    (["lhv", "--enumerate"], ["--seed", "1"], "lhv --seed does not apply to --enumerate"),
    (["lhv", "--enumerate"], ["--angles", "0,90,45,-45"], "lhv --angles does not apply to --enumerate"),
]


@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("args, flag, line", IGNORED_FLAGS, ids=[f[0] for _, f, _ in IGNORED_FLAGS])
def test_flag_that_the_mode_ignores_is_refused(tmp_path, args, flag, line, before):
    # oumandel --grid 2 --theta1 30 once printed theta1=30 over a 0-180 degree grid;
    # refused in either order, before --out is opened
    out = tmp_path / "x.csv"
    words = [args[0], *flag, *args[1:]] if before else [*args, *flag]
    result = invoke([*words, "--out", str(out)])
    assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
    assert result.stderr == f"error=2 detail={line}\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["oumandel", "--tx", "0.5", "--ty", "0.5", "--theta1", "30", "--theta2", "0"],
    ["mermin", "--n", "3", "--scan", "--step", "45"],
    ["dbb", "--form", "product", "--trajectory", "--start1", "-1.5", "--start2", "1.5", "--t1", "0.1"],
    ["lhv", "--model", "sign", "--samples", "10", "--seed", "1", "--angles", "0,90,45,-45"],
])
def test_flag_in_its_own_mode_is_taken(args):
    assert run_ok(args)


ERRORS = [
    (NodeSingularityError("hit a node"), EXIT_NODE, "error=4 detail=hit a node"),
    (NumericalCheckError("residual too large"), EXIT_NUMERICAL, "error=3 detail=residual too large"),
    # whitespace collapses so the stderr line stays single-line parsable
    (ValueError("bad   input\nvalue"), EXIT_VALIDATION, "error=2 detail=bad input value"),
    (cli.UsageError("needs --flag"), EXIT_VALIDATION, "error=2 detail=needs --flag"),
]


# one command of each family, with a library call it makes after parsing
OUT_COMMANDS = [
    (["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"], "chsh_value"),
    (["chsh", "scan", "--step", "0.71"], "tsirelson_scan"),
    (["identity", "--kind", "spin", "--seed", "1"], "identity_residual"),
    (["mermin", "--n", "3"], "mermin_value"),
    (["lhv", "--enumerate"], "chsh_deterministic_max"),
    (["oumandel", "--tx", "0.5", "--ty", "0.5"], "coincidence_probability"),
    (["dbb", "--form", "product"], "velocity_2p"),
    (["dbb", "--form", "symmetric", "--trajectory"], "_path"),  # integrate_trajectory's run, without numpy
    (["spin", "--steps", "5"], "integrate_spin"),
]


class TestErrorMapping:
    @pytest.mark.parametrize("err, code, line", ERRORS, ids=[type(err).__name__ for err, _, _ in ERRORS])
    @pytest.mark.parametrize("args, target", [
        (["lhv", "--enumerate"], "chsh_deterministic_max"),
        (["chsh", "scan", "--step", "45"], "tsirelson_scan"),
    ], ids=["main", "nested"])
    def test_error_gives_its_code_and_one_line(self, monkeypatch, args, target, err, code, line):
        def boom(*args, **kwargs):
            raise err

        monkeypatch.setattr(home(target), target, boom)
        result = invoke(args)
        assert result.exit_code == code
        assert result.stderr == line + "\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("args, line", [
        (["identity", "--kind", "spin", "--trials", "0", "--seed", "1"],
         "error=2 detail=--trials must be >= 1"),
        (["oumandel", "--tx", "0.5"], "error=2 detail=Missing option '--ty'."),
        (["chsh", "--alpha", "x"], "error=2 detail=Invalid value for '--alpha': 'x' is not a valid float."),
        (["chsh", "scan"], "error=2 detail=Missing option '--step'."),
        (["nosuch"], "error=2 detail=No such command 'nosuch'."),
        (["dbb", "--form", "symmetric", "--trajectory", "--start2", "nan"],
         "error=2 detail=--start2 must be finite, got nan"),
        (["identity", "--kind", "spin", "--seed", "-1"], "error=2 detail=--seed must be a non-negative integer, got -1"),
        (["identity", "--kind", "spin", "--seed", "1.5"],
         "error=2 detail=Invalid value for '--seed': '1.5' is not a valid integer."),
        (["identity", "--kind", "foo", "--seed", "1"],
         "error=2 detail=Invalid value for '--kind': 'foo' is not one of 'spin', 'photon'."),
        (["lhv", "--model"], "error=2 detail=Option '--model' requires an argument."),
        (["dbb", "--form", "product", "--trajectory=1"], "error=2 detail=Option '--trajectory' does not take a value."),
        (["spin", "--s0", "nan,0,0"], "error=2 detail=--s0 must be finite, got nan,0,0"),
        # angle flags quoted in degrees, as given, not in radians or numpy's repr
        (["chsh", "--alpha", "nan", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"],
         "error=2 detail=--alpha must be finite, got nan"),
        (["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-inf"],
         "error=2 detail=--beta-prime must be finite, got -inf"),
        (["chsh", "scan", "--step", "nan"], "error=2 detail=--step must be in (0, 45], got nan"),
        (["chsh", "scan", "--step", "-1.5"], "error=2 detail=--step must be in (0, 45], got -1.5"),
        (["chsh", "scan", "--step", "0.1"], "error=2 detail=grid of 3600 points per axis exceeds 512"),
        (["chsh", "scan", "--step", "5e-324"], "error=2 detail=grid of inf points per axis exceeds 512"),
        (["mermin", "--n", "3", "--scan", "--step", "50"], "error=2 detail=--step must be in (0, 45], got 50"),
        (["mermin", "--n", "3", "--scan", "--step", "0"], "error=2 detail=--step must be in (0, 45], got 0"),
        (["oumandel", "--tx", "0.5", "--ty", "0.5", "--theta1", "nan"],
         "error=2 detail=--theta1 must be finite, got nan"),
        (["oumandel", "--tx", "0.5", "--ty", "0.5", "--theta2", "1e999"],
         "error=2 detail=--theta2 must be finite, got inf"),
        # range errors name the flag, not the library's field (width, t_x) that the body builds from it
        (["dbb", "--form", "product", "--width-a", "0"], "error=2 detail=--width-a must be positive, got 0"),
        (["dbb", "--form", "symmetric", "--trajectory", "--width-b=-1.5"],
         "error=2 detail=--width-b must be positive, got -1.5"),
        # a span from before the start, refused before its step count (whose t1 - t0 overflowed)
        (["dbb", "--form", "product", "--trajectory", "--t0=-1e308", "--t1", "1e308", "--dt", "1e300"],
         "error=2 detail=--t0 must be non-negative, got -1e+308"),
        (["oumandel", "--tx", "1.5", "--ty", "0.5"], "error=2 detail=--tx must be in [0, 1], got 1.5"),
        (["oumandel", "--tx", "0.5", "--ty=-0.25", "--grid", "3"], "error=2 detail=--ty must be in [0, 1], got -0.25"),
        # a trajectory's span by its flags, not the library's dt and t1, as spin's --dt is
        (["dbb", "--form", "product", "--trajectory", "--dt", "-0.5"], "error=2 detail=--dt must be positive, got -0.5"),
        (["dbb", "--form", "symmetric", "--trajectory", "--t0", "1.5", "--t1", "1.5"],
         "error=2 detail=--t1 must be after --t0 1.5, got 1.5"),
        (["dbb", "--form", "product", "--trajectory", "--t1", "0"], "error=2 detail=--t1 must be after --t0 0, got 0"),
        # the library's samples, seed, n, t and x1 as the flags they came from
        (["lhv", "--model", "sign", "--samples", "0", "--seed", "1", "--angles", "0,90,45,-45"],
         "error=2 detail=--samples must be >= 1"),
        (["lhv", "--model", "sign", "--samples", "10", "--seed", "-1", "--angles", "0,90,45,-45"],
         "error=2 detail=--seed must be a non-negative integer, got -1"),
        (["mermin", "--n", "11"], "error=2 detail=--n must be in [2, 10], got 11"),
        (["mermin", "--n", "1", "--scan"], "error=2 detail=--n must be in [2, 10], got 1"),
        (["dbb", "--form", "symmetric", "--time", "-1"], "error=2 detail=--time must be non-negative, got -1"),
        (["dbb", "--form", "product", "--trajectory", "--start1", "-inf"],
         "error=2 detail=--start1 must be finite, got -inf"),
        # a typed flag of the mode that dbb does not run, not a default of it
        (["dbb", "--form", "product", "--trajectory", "--t1", "0.02", "--grid", "999", "--time", "5"],
         "error=2 detail=dbb --grid does not apply to --trajectory"),
        (["dbb", "--form", "product", "--grid", "2", "--t1", "-5", "--dt", "7"],
         "error=2 detail=dbb --t1 does not apply to a run without --trajectory"),
    ], ids=["trials", "missing-option", "bad-float", "nested-missing-option", "no-such-command", "nan-start",
            "negative-seed", "bad-integer", "bad-choice", "no-value", "flag-with-value", "nan-s0", "nan-alpha",
            "inf-beta-prime", "nan-step", "negative-step", "step-over-grid-cap", "step-underflowing-to-zero-radians",
            "mermin-step-over-45", "mermin-zero-step", "nan-theta1", "overflowing-theta2", "zero-width-a",
            "negative-width-b", "t0-before-the-start", "tx-over-1", "negative-ty", "negative-dt", "t1-at-t0",
            "t1-at-the-default-t0", "zero-samples", "negative-lhv-seed", "mermin-n-over-10", "mermin-scan-n-under-2",
            "negative-time", "inf-start1", "field-flags-with-trajectory", "trajectory-flags-without-trajectory"])
    def test_usage_error_gives_one_line(self, args, line):
        result = invoke(args)
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == line + "\n"

    @pytest.mark.parametrize("args, flag", [
        *((["spin"], flag) for flag in ("--bz", "--gyro", "--dt")),
        *((["oumandel", "--tx=0.5", "--ty=0.5"], flag) for flag in ("--tx", "--ty")),
        *((["dbb", "--form", "symmetric"], flag)
          for flag in ("--center-a", "--width-a", "--k-a", "--center-b", "--width-b", "--k-b", "--time")),
        *((["dbb", "--form", "product", "--trajectory"], flag) for flag in ("--t0", "--t1", "--dt")),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    @pytest.mark.parametrize("value, typed", [("nan", "nan"), ("-inf", "-inf"), ("1e999", "inf")])
    def test_nonfinite_number_flag_is_quoted_as_typed(self, monkeypatch, args, flag, value, typed):
        # the flag as typed, not the library's name for what the body built from it
        # (spin --bz nan gave "b_field must be finite, got array([ 0., 0., nan])")
        for name in ("integrate_spin", "_path", "velocity_2p", "ou_mandel_state"):
            reach_fails(monkeypatch, name)
        result = invoke([*args, f"{flag}={value}"])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == f"error=2 detail={flag} must be finite, got {typed}\n"

    @pytest.mark.parametrize("args", [["--bogus"], ["--bogus", "lhv", "--enumerate"]],
                             ids=["alone", "before-a-command"])
    def test_root_usage_error_gives_one_line(self, args):
        result = invoke(args)
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == "error=2 detail=No such option '--bogus'.\n"

    def test_bare_command_prints_the_help(self):
        bare, help_ = invoke([]), invoke(["--help"])
        assert (bare.exit_code, bare.stderr) == (0, "")
        assert bare.stdout == help_.stdout and bare.stdout.startswith("Usage: ")

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_command_has_help(self, command):
        result = invoke([*command.split(), "--help"])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(f"Usage: bell-lab {command} [OPTIONS]")
        lines = result.stdout.splitlines()
        for name, (kind, default, *_) in cli._COMMANDS[command][1].items():
            flag = "--" + name.rstrip("_").replace("_", "-")
            (line,) = [line for line in lines if line.split()[:1] == [flag]]
            if default is cli._REQUIRED:
                assert line.endswith("[required]")
            elif kind is not bool and default is not None:
                assert line.endswith(f"[default: {default}]")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_out_on_a_full_device_exits_one(self):
        result = invoke(["lhv", "--enumerate", "--out", "/dev/full"])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"error=1 detail=cannot write --out /dev/full: {os.strerror(errno.ENOSPC)}\n"

    def test_out_that_cannot_be_opened_exits_two(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = invoke(["lhv", "--enumerate", "--out", str(out)])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == f"error=2 detail=cannot open --out {out}: No such file or directory\n"

    @pytest.mark.parametrize("args, target", OUT_COMMANDS, ids=lambda v: v if isinstance(v, str) else None)
    def test_out_that_cannot_be_opened_exits_two_before_any_work(self, monkeypatch, tmp_path, args, target):
        reach_fails(monkeypatch, target)
        out = tmp_path / "missing" / "x.csv"
        result = invoke(args + ["--out", str(out)])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == f"error=2 detail=cannot open --out {out}: No such file or directory\n"

    @pytest.mark.parametrize("args, target", OUT_COMMANDS, ids=lambda v: v if isinstance(v, str) else None)
    def test_failed_command_leaves_an_existing_out_untouched(self, monkeypatch, tmp_path, args, target):
        reach_fails(monkeypatch, target)
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier,run\n")
        result = invoke(args + ["--out", str(out)])
        assert result.exit_code == EXIT_NUMERICAL
        assert out.read_bytes() == b"earlier,run\n"

    def test_out_to_a_device_is_written_without_truncating_it(self):
        run_ok(["lhv", "--enumerate", "--out", os.devnull])

    def test_out_replaces_a_longer_file(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"x" * 10000)
        invoke(["lhv", "--enumerate", "--out", str(out)])
        assert out.read_text(encoding="utf-8") == run_ok(["lhv", "--enumerate"])


class Ended(Exception):
    """What the stubbed os._exit raises, so that run() returns control to the test."""


@pytest.fixture
def end(monkeypatch, capsys):
    """run() in-process on args, with gc.disable, atexit's callbacks and os._exit stubbed.

    Returns ("os._exit", [what ran]) or ("sys.exit", code, [what ran]) and the captured stdout.
    """
    ran = []

    def stub_exit(code):
        ran.append(code)
        raise Ended

    monkeypatch.setattr(gc, "disable", lambda: None)  # else pytest's own process would stop collecting
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: ran.append("atexit"))
    monkeypatch.setattr(os, "_exit", stub_exit)
    monkeypatch.setattr(cli, "_watched", lambda: False)  # a coverage run's tracer would take the normal exit

    def run(args):
        monkeypatch.setattr(sys, "argv", ["bell-lab", *args])
        try:
            cli.run()
        except Ended:
            return ("os._exit", ran), capsys.readouterr().out
        except SystemExit as done:
            return ("sys.exit", done.code, ran), capsys.readouterr().out

    return run


class TestProcessExit:
    @pytest.mark.parametrize("args, code", [(["lhv", "--enumerate"], 0), (["--version"], 0), (["--bogus"], 2)])
    def test_ends_at_the_last_write(self, end, args, code):
        how, out = end(args)
        assert how == ("os._exit", ["atexit", code])
        assert out == invoke(args).stdout

    def test_a_second_thread_takes_the_normal_exit(self, end):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert end(["lhv", "--enumerate"])[0] == ("sys.exit", 0, [])
        finally:
            stop.set()
            thread.join()

    def test_a_tracer_or_profiler_takes_the_normal_exit(self, end, monkeypatch):
        monkeypatch.setattr(cli, "_watched", lambda: True)
        assert end(["--bogus"])[0] == ("sys.exit", 2, [])

    def test_without_run_exitfuncs_takes_the_normal_exit(self, end, monkeypatch):
        monkeypatch.delattr(atexit, "_run_exitfuncs")
        assert end(["lhv", "--enumerate"])[0] == ("sys.exit", 0, [])

    def test_a_text_exit_code_takes_the_normal_exit(self, end, monkeypatch):
        monkeypatch.setattr(cli, "main", lambda: sys.exit("stopped"))
        assert end([])[0] == ("sys.exit", "stopped", [])

    def test_another_exception_propagates(self, end, monkeypatch):
        def boom():
            raise RuntimeError("boom")

        monkeypatch.setattr(home("chsh_deterministic_max"), "chsh_deterministic_max", boom)
        with pytest.raises(RuntimeError, match="boom"):
            end(["lhv", "--enumerate"])

    def test_a_profile_function_is_watching(self):
        before = sys.getprofile()
        sys.setprofile(lambda *args: None)
        try:
            assert cli._watched()
        finally:
            sys.setprofile(before)


# one command line of each family, then a node halt and a refusal, with their exit codes
NO_CYCLES = [
    *((args, 0) for args in [
        ["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"],
        ["chsh", "scan", "--step", "30"],
        ["identity", "--kind", "photon", "--trials", "5000", "--seed", "1"],
        ["mermin", "--n", "3"],
        ["mermin", "--n", "3", "--scan", "--step", "30"],
        ["lhv", "--model", "sign", "--samples", "1000", "--seed", "1", "--angles", "0,90,45,-45"],
        ["lhv", "--enumerate"],
        ["oumandel", "--tx", "0.7", "--ty", "0.4", "--grid", "5"],
        ["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", "5", "--correlation"],
        *(["dbb", "--form", form, "--grid", "5"] for form in dbb.FORMS),
        *(["dbb", "--form", form, "--trajectory", "--t1", "0.5", "--dt", "0.05"] for form in dbb.FORMS),
        ["spin", "--steps", "2000"],
    ]),
    (["dbb", "--form", "antisymmetric", "--trajectory", "--start1", "0.2", "--start2", "0.2"], EXIT_NODE),
    (["chsh", "scan", "--step", "50"], EXIT_VALIDATION),
]


@pytest.mark.parametrize("args, code", NO_CYCLES, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_a_command_leaves_no_cyclic_garbage(args, code):
    # run() turns gc off for the whole process: a command that made reference cycles would keep them till exit
    invoke(args)  # warm: the imports and their caches
    gc.collect()
    gc.disable()
    try:
        assert invoke(args).exit_code == code
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestInstalledEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bell_lab", "lhv", "--enumerate"],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == (b"max_s\n"
                               b"# tool=bell-lab version=0.1.0 command=lhv mode=enumerate\n"
                               b"2\n")

    def test_entry_point_makes_no_collections(self):
        # python -m bell_lab in a launcher that counts the collections from the entry point on (cli is imported
        # first: compiling it without a .pyc may collect) and reports them at exit; numpy's import alone made about 30
        launcher = ("import atexit, gc, runpy, sys, bell_lab.cli; ends = []; "
                    "gc.callbacks.append(lambda phase, info: phase == 'stop' and ends.append(info)); "
                    "atexit.register(lambda: print(len(ends), 'numpy.random' in sys.modules, file=sys.stderr)); "
                    "runpy.run_module('bell_lab', run_name='__main__', alter_sys=True)")
        proc = subprocess.run([sys.executable, "-c", launcher, "identity", "--kind", "spin", "--trials", "10",
                               "--seed", "1"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "0 True\n")
        assert proc.stdout.startswith("trials,max_residual\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("args, target", [
        (["lhv", "--enumerate"], "stdout"),
        (["spin", "--steps", "70000"], "stdout"),  # two chunks: the first, over any buffer, is written through
        (["lhv", "--enumerate", "--out", "/dev/full"], "--out /dev/full"),
        (["spin", "--steps", "70000", "--out", "/dev/full"], "--out /dev/full"),
        (["--help"], "stdout"),
        (["--version"], "stdout"),
    ], ids=["stdout", "stdout-chunks", "out", "out-chunks", "help", "version"])
    def test_full_device_gets_exit_1_and_one_error_line(self, buffered, args, target):
        # the CSV write, --out's close or, buffered, the exit's flush of stdout fails with ENOSPC
        # (each printed a traceback; a buffered stdout two, then "Exception ignored", and exited 120;
        # an unbuffered --help or --version "[Errno 28] No space left on device", without the stream)
        env = self.buffered_env() if buffered else {**os.environ, "PYTHONUNBUFFERED": "1"}
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "bell_lab", *args], env=env, timeout=120, text=True,
                                  stdout=full if target == "stdout" else subprocess.PIPE, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stdout or "") == (1, "")
        assert proc.stderr == f"error=1 detail=cannot write {target}: {os.strerror(errno.ENOSPC)}\n"

    def test_reader_that_leaves_early_gets_exit_1_and_no_traceback(self):
        # as | head -1: the command is still writing its first 2**16 rows when the pipe closes
        with subprocess.Popen([sys.executable, "-m", "bell_lab", "spin", "--steps", "200000"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"t,sx,sy,sz,norm_drift\n"
            proc.stdout.close()
            assert (proc.wait(timeout=120), proc.stderr.read()) == (1, b"")

    @staticmethod
    def buffered_env():
        """The environment less PYTHONUNBUFFERED: a pipe's stdout is then block-buffered, as it is by default."""
        return {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}

    def test_buffered_stdout_is_flushed_at_exit(self):
        # the CSV of a short command sits in stdout's buffer until the process ends
        proc = subprocess.run([sys.executable, "-m", "bell_lab", "lhv", "--enumerate"], capture_output=True,
                              env=self.buffered_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == f"max_s\n{META_PREFIX}lhv mode=enumerate\n2\n".encode()

    def test_reader_that_leaves_before_the_flush_gets_exit_1_and_no_traceback(self):
        # the pipe closes while the command imports; the exit's flush of the buffered CSV meets it
        # (the normal exit printed "Exception ignored ... BrokenPipeError" and exited 120)
        with subprocess.Popen([sys.executable, "-m", "bell_lab", "lhv", "--enumerate"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.buffered_env()) as proc:
            proc.stdout.close()
            assert (proc.wait(timeout=120), proc.stderr.read()) == (1, b"")

    def test_profiled_run_prints_its_profile(self):
        # cProfile reports once main has ended: under a profiler the process takes the normal exit
        proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "bell_lab", "lhv", "--enumerate"],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("max_s\n" + META_PREFIX + "lhv mode=enumerate\n2\n")
        assert " function calls " in proc.stdout

    def test_python_i_still_reaches_its_prompt(self):
        # python -i runs its prompt once the module has ended: the process takes the normal exit for it
        proc = subprocess.run([sys.executable, "-i", "-m", "bell_lab", "lhv", "--enumerate"], input="print('prompt')\n",
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout == f"max_s\n{META_PREFIX}lhv mode=enumerate\n2\nprompt\n"

    def test_out_file_is_complete_at_exit(self, tmp_path):
        # two chunks of rows, the file closed before the process ends
        out = tmp_path / "spin.csv"
        proc = subprocess.run([sys.executable, "-m", "bell_lab", "spin", "--steps", "70000", "--out", str(out)],
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert out.read_text(encoding="utf-8") == run_ok(["spin", "--steps", "70000"])

    @pytest.mark.parametrize("error, code", [("ValueError", EXIT_VALIDATION), ("NumericalCheckError", EXIT_NUMERICAL),
                                             ("NodeSingularityError", EXIT_NODE)])
    def test_each_failure_writes_one_stderr_line(self, error, code):
        # the library call raises the error; the process then ends through run() as bell-lab does
        launcher = ("import sys; from bell_lab import cli, errors, lhv\n"
                    "error = getattr(errors, sys.argv[1], ValueError)\n"
                    "def boom(): raise error('boom')\n"
                    "lhv.chsh_deterministic_max = boom\n"
                    "sys.argv[1:] = ['lhv', '--enumerate']\n"
                    "cli.run()")
        proc = subprocess.run([sys.executable, "-c", launcher, error], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"error={code} detail=boom\n")

    def test_in_process_main_does_not_freeze(self):
        # main() leaves the collector as it was: under pytest, a frozen or disabled gc would keep every later
        # test's garbage for good
        before = gc.get_freeze_count()
        run_ok(["lhv", "--enumerate"])
        assert (gc.get_freeze_count(), gc.isenabled()) == (before, True)

    def test_console_script_is_the_entry_point(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: tomli, which pytest depends on there
            import tomli as tomllib
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"bell-lab": "bell_lab.cli:run"}

    @pytest.mark.parametrize("args, detail", [
        # |s|^2 underflows for a nonzero spin, or overflows
        (["--s0=1e-170,1e-170,0"], ": |s|^2 of s=(1e-170, 1e-170, 0.0) is not a normal float"),
        (["--s0=1e200,0,0", "--steps", "2"], ": |s|^2 of s=(1e+200, 0.0, 0.0) is not a normal float"),
        (["--s0=1e160,0,0", "--gyro", "1e200", "--steps", "2"],
         ": |s|^2 of s=(1e+160, 0.0, 0.0) is not a normal float"),
        # the torque overflows in the first step
        (["--s0=1e150,0,0", "--gyro", "1e200", "--steps", "2"],
         " by t=0.002: s0=(1e+150, 0.0, 0.0), b_field=(0.0, 0.0, 1.0), gyro=1e+200"),
    ])
    def test_spin_leaving_float64_prints_one_error_line(self, args, detail):
        # in a process of its own, with every warning an error
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "bell_lab", "spin", *args],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
        assert proc.stderr == f"error=2 detail=spin algebra leaves float64{detail}\n"

    @staticmethod
    def max_rss_mb(args):
        # Linux carries a process's RSS high-water mark across exec, so a
        # command spawned straight from pytest would report at least pytest's
        # RSS; a small launcher process spawns and reaps it instead
        launcher = ("import os, subprocess, sys; "
                    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
                    "_, status, usage = os.wait4(p.pid, 0); "
                    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m", "bell_lab", *args],
                              capture_output=True, text=True, check=True)
        code, kib = map(int, proc.stdout.split())
        assert code == 0
        return kib / 1024.0  # KiB on Linux

    @classmethod
    def numpy_floor_mb(cls):
        # a command's floor, numpy loaded: chsh at one setting loads numpy and two small layer modules.  It
        # reads about 1.4 MB more than lhv --enumerate did while that loaded numpy, so the margins over it
        # are 1.4 MB smaller than they were over lhv --enumerate, and no limit rose
        return cls.max_rss_mb(["chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"])

    def test_lhv_enumerate_memory_is_the_version_floor(self):
        # its one row of Python scalars is written without numpy, about 12 MB of max RSS
        assert self.max_rss_mb(["lhv", "--enumerate"]) <= self.max_rss_mb(["--version"]) + 1.0

    def test_dbb_trajectory_memory_is_the_version_floor(self):
        # stepped, logged and written in Python floats: no numpy, whose import alone reads about 12 MB
        assert self.max_rss_mb(["dbb", "--form", "symmetric", "--trajectory"]) <= self.max_rss_mb(["--version"]) + 1.0

    def test_lhv_memory_does_not_grow_with_samples(self):
        # max RSS of a Monte Carlo run against the import floor
        floor = self.numpy_floor_mb()
        mc = self.max_rss_mb(["lhv", "--model", "sign", "--samples", "2000000", "--seed", "3",
                              "--angles", "0,45,22.5,67.5"])
        assert mc <= floor + 18.6

    def test_mermin_memory_stays_near_the_import_floor(self):
        # <F> for n = 10 needs the 2^10 ket, not the 2^10 x 2^10 operator (16 MB)
        floor = self.numpy_floor_mb()
        assert self.max_rss_mb(["mermin", "--n", "10"]) <= floor + 18.6

    def test_spin_memory_stays_near_the_import_floor(self):
        # rows are formatted and written 2**16 at a time; all 200,001 at once peaked
        # 90 MB over the floor, and the RK4 states kept as tuples 49 MB; as flat
        # doubles 36 MB, and from the closed form, written without copies, 32 MB
        floor = self.numpy_floor_mb()
        assert self.max_rss_mb(["spin", "--steps", "200000"]) <= floor + 43.6

    def test_usage_error_is_one_stderr_line(self):
        proc = subprocess.run([sys.executable, "-m", "bell_lab", "oumandel", "--tx", "0.5"],
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, b"")
        assert proc.stderr == b"error=2 detail=Missing option '--ty'.\n"

    @pytest.mark.parametrize("form, code, detail", [
        ("product", EXIT_NODE, "density below 1e-300 at (-1e+300, -5e+299), t=0.8"),
        ("symmetric", EXIT_VALIDATION, "packet overlap overflows float64: centres -1e+300 and 1e+300 at t=0.0"),
        ("antisymmetric", EXIT_VALIDATION,
         "packet overlap overflows float64: centres -1e+300 and 1e+300 at t=0.0"),
    ])
    def test_packets_far_apart_print_one_error_line(self, form, code, detail):
        # in a process of its own, a numpy overflow warning would reach stderr too
        proc = subprocess.run([sys.executable, "-m", "bell_lab", "dbb", "--form", form, "--center-a=-1e300",
                               "--center-b=1e300", "--grid", "3"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr == f"error={code} detail={detail}\n"

    @pytest.mark.parametrize("args, span", [
        (["--center-a=-1e308", "--center-b=1e308"], "[-1e+308, 1e+308]"),  # hi - lo overflows
        (["--center-a=1e308", "--width-a=1e308"], "[-inf, inf]"),  # lo and hi overflow
        (["--center-a=0", "--center-b=1.5e308"], "[-1.6, 1.5e+308]"),  # x2's half-cell shift overflows
    ])
    def test_grid_span_leaving_float64_prints_one_error_line(self, args, span):
        # in a process of its own, with every warning an error
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "bell_lab", "dbb", "--form", "product", *args,
                               "--grid", "2"], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_VALIDATION, "")
        assert proc.stderr == f"error=2 detail=grid span {span} leaves float64\n"

    def test_out_to_a_pipe(self):
        proc = subprocess.run([sys.executable, "-m", "bell_lab", "lhv", "--enumerate", "--out", "/dev/stdout"],
                              capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == b"max_s\n# tool=bell-lab version=0.1.0 command=lhv mode=enumerate\n2\n"

    def test_root_usage_error_and_bare_command(self):
        bogus = subprocess.run([sys.executable, "-m", "bell_lab", "--bogus"], capture_output=True, timeout=120)
        assert (bogus.returncode, bogus.stdout) == (EXIT_VALIDATION, b"")
        assert bogus.stderr == b"error=2 detail=No such option '--bogus'.\n"
        bare = subprocess.run([sys.executable, "-m", "bell_lab"], capture_output=True, timeout=120)
        assert (bare.returncode, bare.stderr) == (0, b"")
        assert bare.stdout.startswith(b"Usage: ")

    @pytest.mark.parametrize("args", [["--grid", "71"], ["--grid", "51", "--correlation"]])
    def test_oumandel_grid_memory_stays_near_the_import_floor(self, args):
        # the angle axes broadcast as a column and a row; meshgrids cost 50 MB more at 71.  The floor is a
        # command's, numpy loaded: --version and lhv --enumerate load no numpy, so theirs is about 12 MB lower
        floor = self.numpy_floor_mb()
        assert self.max_rss_mb(["oumandel", "--tx", "0.5", "--ty", "0.5", *args]) <= floor + 3.6

    def test_numpy_random_loads_only_for_commands_that_draw(self):
        # numpy.random costs every command about 13 ms of import; only the seeded
        # commands need it.  No command loads dataclasses: the records are not
        # dataclasses; nor click or argparse (about 15 and 3 ms): the command line is
        # parsed from cli's own table.  A bare import bell_lab still puts every layer
        # module in sys.modules, where the benchmark's tracer finds it
        layers = [f"bell_lab.{name}" for name in LAYERS]
        flags = ("'numpy.random' in sys.modules, 'dataclasses' in sys.modules, "
                 "'click' in sys.modules or 'argparse' in sys.modules")
        launcher = ("import sys; import bell_lab; "
                    f"print(all(name in sys.modules for name in {layers!r}), {flags}, "
                    "file=sys.stderr); from bell_lab.cli import main\n"
                    "for args in sys.argv[1:]:\n"
                    "    try:\n"
                    "        main(args.split())\n"
                    "    except SystemExit as exit_:\n"
                    f"        print(args, exit_.code, {flags}, file=sys.stderr)")
        lazy = ["--version", "chsh --alpha 0 --alpha-prime 90 --beta 45 --beta-prime -45",
                "chsh scan --step 45", "mermin --n 3", "lhv --enumerate", "oumandel --tx 0.5 --ty 0.5",
                "dbb --form symmetric --grid 3", "spin --steps 3"]
        drawing = ["identity --kind spin --trials 10 --seed 1",
                   "lhv --model sign --samples 100 --seed 1 --angles 0,45,22.5,67.5"]
        for commands, loaded in ((lazy + drawing[:1], [False] * len(lazy) + [True]), (drawing[1:], [True])):
            proc = subprocess.run([sys.executable, "-c", launcher, *commands], stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
            assert proc.stderr.splitlines() == ["True False False False"] + [
                f"{args} 0 {flag} False False" for args, flag in zip(commands, loaded)]

    def test_numpy_loads_only_for_commands_that_compute(self):
        # numpy's import is about half of a computing command's wall time; --version, any --help, every
        # refusal of the command line, lhv --enumerate, whose one row of Python scalars is written
        # without numpy, and a dbb trajectory, stepped and written in Python floats, end without it.
        # The last command loads it, and spin's CSV
        # writer, which checks a sample of each column for repeats, still no numpy.ma (about 10 ms)
        launcher = ("import sys; from bell_lab.cli import main\n"
                    "for args in sys.argv[1:]:\n"
                    "    try:\n"
                    "        main(args.split())\n"
                    "    except SystemExit as exit_:\n"
                    "        print('ran', repr(args), exit_.code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules, "
                    "file=sys.stderr)")
        cases = [("--version", 0), ("--help", 0), ("chsh scan --help", 0), ("", 0),
                 ("nosuch", 2), ("--bogus", 2), ("mermin --n x", 2), ("dbb --form nope", 2), ("mermin", 2),
                 ("oumandel --tx 0.5 --ty 0.5 --theta1 10 --grid 5", 2),
                 ("lhv --enumerate --out /nonexistent/x.csv", 2), ("chsh scan --step 0", 2), ("mermin --n 11", 2),
                 ("lhv --enumerate", 0), ("dbb --form symmetric --trajectory --t1 0.05", 0)]
        commands = [args for args, _ in cases] + ["spin --steps 2000"]
        proc = subprocess.run([sys.executable, "-c", launcher, *commands], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert [line for line in proc.stderr.splitlines() if line.startswith("ran ")] == [
            f"ran {args!r} {code} False False" for args, code in cases] + ["ran 'spin --steps 2000' 0 True False"]

    @pytest.mark.parametrize("args, ran", LAYERS_RUN, ids=[args for args, _ in LAYERS_RUN])
    def test_a_command_runs_only_its_own_layer_modules(self, args, ran):
        # a registered layer module becomes a plain module when its code runs; type()
        # reads that without the attribute access that would run it
        launcher = ("import sys, types; from bell_lab.cli import main\n"
                    "try:\n"
                    "    main(sys.argv[1:])\n"
                    "except SystemExit as exit_:\n"
                    f"    print(exit_.code, [name for name in {LAYERS!r} "
                    "if type(sys.modules['bell_lab.' + name]) is types.ModuleType], file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", launcher, *args.split()], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.stderr == f"0 {ran}\n"

    def test_public_names_resolve_in_their_layer_module(self, monkeypatch):
        modules = {name: sys.modules[f"bell_lab.{name}"] for name in ("errors", *LAYERS)}
        assert len(set(bell_lab.__all__)) == len(bell_lab.__all__) == 48
        for name in bell_lab.__all__:
            value = getattr(bell_lab, name)
            holders = [layer for layer, module in modules.items() if vars(module).get(name) is value]
            defined_in = getattr(value, "__module__", "").removeprefix("bell_lab.")
            if defined_in not in modules:  # a constant: bound by its own module alone
                (defined_in,) = holders
            assert defined_in in holders, name
        assert not hasattr(bell_lab, "no_such_name")
        # looked up on each access, not cached: a binding replaced in its module shows at once
        monkeypatch.setattr(modules["operators"], "tensor", "replaced")
        assert bell_lab.tensor == "replaced"
        assert set(bell_lab.__all__) <= set(dir(bell_lab))
        namespace = {}
        exec("from bell_lab import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(bell_lab.__all__)
        assert cli._COMMANDS["dbb"][1]["form"][0] == dbb.FORMS

    def test_every_public_name_is_used_by_a_command_a_demo_or_readme(self):
        # the public surface is what a command body, a demo or a README section names
        root = Path(__file__).parents[1]
        texts = [inspect.getsource(body) for body, _ in cli._COMMANDS.values()]
        texts += [path.read_text(encoding="utf-8") for path in sorted(root.glob("demos/*.py"))]
        texts.append((root / "README.md").read_text(encoding="utf-8"))
        assert len(bell_lab.__all__) == 48
        unused = [name for name in bell_lab.__all__ if not any(re.search(rf"\b{name}\b", t) for t in texts)]
        assert unused == []

    @staticmethod
    def after_import(first, value=None):
        # a fresh process imports `first`, then bell_lab and its operators module, which loads numpy;
        # it reports the variable and its thread count
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        code = (f"import json, os; import {first}; import bell_lab; bell_lab.tensor; "
                "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None; "
                "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(proc.stdout)

    def test_openblas_runs_on_one_thread_by_default(self):
        # numpy's OpenBLAS starts a spinning worker thread per core unless told otherwise
        variable, tasks = self.after_import("os")
        assert variable == "1"
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads")
        assert tasks == 1

    def test_a_thread_count_the_user_set_is_kept(self):
        assert self.after_import("os", "2")[0] == "2"

    def test_numpy_imported_first_leaves_the_environment_alone(self):
        # OpenBLAS has read the variable by then, so setting it would change nothing
        assert self.after_import("numpy")[0] is None

    def test_memory_floor_is_not_the_test_process(self):
        # the measurement must not inherit this process's RSS (over 100 MB here)
        ballast = np.ones(12_500_000)
        assert ballast.sum() > 0 and self.max_rss_mb(["lhv", "--enumerate"]) < 90.0
