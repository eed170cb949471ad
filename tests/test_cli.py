import os
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings as hyp_settings, strategies as st

from bell_lab import cli, dbb
from bell_lab.chsh import TSIRELSON, ChshSettings, chsh_value, identity_residual, singlet
from bell_lab.cli import EXIT_NODE, EXIT_NUMERICAL, EXIT_VALIDATION, IDENTITY_CHUNK, MAX_GRID_SIDE, _fmt, main
from bell_lab.dbb import PhysicalConstants, TwoParticleWF, WavePacket, cross_coupling, integrate_trajectory, velocity_2p
from bell_lab.errors import NodeSingularityError, NumericalCheckError
from bell_lab.fock import (
    BeamSplitterSpec,
    coincidence_closed_form,
    coincidence_correlation,
    coincidence_probability,
    ou_mandel_state,
)
from bell_lab.lhv import make_rng, sign_model, simulate_chsh_stats
from bell_lab.operators import _scan_angles

META_PREFIX = "# tool=bell-lab version=0.1.0 command="

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
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr or result.output
    return result.output


def spy(monkeypatch, name):
    """Record the arguments of every call of the cli module's binding ``name``."""
    calls = []
    fn = getattr(cli, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, recording)
    return calls


def reach_fails(monkeypatch, name):
    """Make the cli module's binding ``name`` exit 3, so reaching it is visible."""
    def reached(*args, **kwargs):
        raise NumericalCheckError(f"{name} reached")

    monkeypatch.setattr(cli, name, reached)


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

    @pytest.mark.parametrize("args", COMMAND_MATRIX, ids=lambda a: " ".join(a))
    def test_shape_and_reproducibility(self, args, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        r1 = CliRunner().invoke(main, args + ["--out", str(out1)])
        assert r1.exit_code == 0, r1.stderr or r1.output
        r2 = CliRunner().invoke(main, args + ["--out", str(out2)])
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
        CliRunner().invoke(main, args + ["--out", str(out)])
        assert out.read_text(encoding="utf-8") == stdout_text

    def test_floats_roundtrip_17g(self):
        # 17 significant digits reproduce the computed double exactly
        text = run_ok(["chsh", "--alpha", "0", "--alpha-prime", "90",
                       "--beta", "45", "--beta-prime", "-45"])
        _, _, rows = parse_csv(text)
        expected = chsh_value(
            singlet(), ChshSettings(0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
        ).s
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
        result = CliRunner().invoke(main, ["chsh"])
        assert result.exit_code == 2

    def test_scan_step_out_of_range(self):
        result = CliRunner().invoke(main, ["chsh", "scan", "--step", "50"])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr.startswith("error=2 detail=")

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
        result = CliRunner().invoke(main, ["chsh", "--out", str(out), "scan", "--step", "45", "--out", str(own)])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == "error=2 detail=chsh --out does not apply to 'scan'; give it after 'scan'\n"
        assert not own.exists()
        if earlier is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == earlier


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
        worst = identity_residual(ChshSettings(*angles.T, kind="photon")).max()
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
        monkeypatch.setattr(cli, "make_rng", SpyRng)
        text = run_ok(["identity", "--kind", "spin", "--trials", "8", "--seed", "5"])
        assert draws == [(3, 4), (3, 4), (2, 4)]
        angles = make_rng(5).uniform(0.0, 2.0 * np.pi, size=(8, 4))
        worst = identity_residual(ChshSettings(*angles.T)).max()
        assert parse_csv(text)[2][0] == ["8", _fmt(worst)]

    def test_trials_validation(self):
        result = CliRunner().invoke(main, ["identity", "--kind", "spin",
                                           "--trials", "0", "--seed", "1"])
        assert result.exit_code == 2


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
        assert CliRunner().invoke(main, ["mermin", "--n", "1"]).exit_code == 2
        assert CliRunner().invoke(main, ["mermin", "--n", "11"]).exit_code == 2


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
        settings = ChshSettings(*np.deg2rad([0.0, 45.0, 22.5, 67.5]))
        stats = simulate_chsh_stats(sign_model(), settings, 10000, 3)
        assert float(rows[0][0]) == stats.estimate
        assert float(rows[0][1]) == stats.stderr
        assert abs(stats.estimate) <= 2.0

    def test_incomplete_model_options(self):
        result = CliRunner().invoke(main, ["lhv", "--model", "sign"])
        assert result.exit_code == 2

    def test_bad_angles(self):
        result = CliRunner().invoke(main, ["lhv", "--model", "sign", "--samples", "10",
                                           "--seed", "1", "--angles", "1,2,3"])
        assert result.exit_code == 2


class TestOumandelCommand:
    def test_single_point(self):
        text = run_ok(["oumandel", "--tx", "0.5", "--ty", "0.5",
                       "--theta1", "30", "--theta2", "15"])
        header, _, rows = parse_csv(text)
        assert header == ["theta1", "theta2", "p_numeric", "p_closed_form", "abs_diff"]
        want = coincidence_closed_form(BeamSplitterSpec.equal_split(),
                                       np.deg2rad(30.0), np.deg2rad(15.0))
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
        result = CliRunner().invoke(main, ["oumandel", "--tx", "1.3", "--ty", "0.5"])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr.startswith("error=2 detail=")

    def test_undefined_correlation_is_validation_error(self):
        result = CliRunner().invoke(main, ["oumandel", "--tx", "1", "--ty", "0",
                                           "--correlation"])
        assert result.exit_code == EXIT_VALIDATION

    @pytest.mark.parametrize("ty", ["5e-324", "1e-310"])
    def test_subnormal_coincidence_total_is_refused(self, ty):
        # these totals are subnormal: the ratio printed -1 and -0.25 + 1.2e-14
        result = CliRunner().invoke(main, ["oumandel", "--tx", "1", "--ty", ty, "--theta1", "30",
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
        state = ou_mandel_state(BeamSplitterSpec.from_transmissions(0.7, 0.4))
        thetas = np.deg2rad(np.linspace(0.0, 180.0, 71))
        want = [coincidence_probability(state, t1, thetas) for t1 in thetas]
        assert np.array_equal([float(r[2]) for r in rows], np.concatenate(want))

    def test_correlation_grid_is_one_broadcast_evaluation(self, monkeypatch):
        calls = spy(monkeypatch, "coincidence_correlation")
        _, _, rows = parse_csv(run_ok(["oumandel", "--tx", "0.5", "--ty", "0.5", "--grid", "51",
                                       "--correlation"]))
        assert [(np.shape(t1), np.shape(t2)) for _, t1, t2 in calls] == [((51, 1), (1, 51))]
        state = ou_mandel_state(BeamSplitterSpec.equal_split())
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
        assert max(float(r[4]) for r in rows) < 1e-8

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
        tr = integrate_trajectory(wf, PhysicalConstants(), (-1.5, 1.5), 0.0, 0.5, 0.05)
        assert float(rows[-1][1]) == tr.positions[-1, 0]
        assert float(rows[-1][2]) == tr.positions[-1, 1]

    def test_node_start_exits_four(self):
        result = CliRunner().invoke(main, ["dbb", "--form", "antisymmetric",
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
        result = CliRunner().invoke(main, ["dbb", *args])
        assert result.exit_code == EXIT_NODE
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=4 detail=")
        assert f"({point[0]}" in lines[0] and f", {point[1]}" in lines[0]
        assert "array(" not in lines[0] and "np.float64(" not in lines[0]

    def test_grid_validation(self):
        result = CliRunner().invoke(main, ["dbb", "--form", "product", "--grid", "1"])
        assert result.exit_code == 2

    def test_grid_is_one_broadcast_evaluation(self, monkeypatch):
        velocity, coupling = spy(monkeypatch, "velocity_2p"), spy(monkeypatch, "cross_coupling")
        _, _, rows = parse_csv(run_ok(["dbb", "--form", "symmetric", "--grid", "35"]))
        for calls in (velocity, coupling):
            assert [(np.shape(x1), np.shape(x2)) for _, _, x1, x2, _ in calls] == [((35, 1), (1, 35))]
        # bit for bit what one call per x1 row gives
        wf = TwoParticleWF(WavePacket(center=-1.5, width=0.8, wavenumber=0.6),
                           WavePacket(center=1.5, width=1.1, wavenumber=-0.4), form="symmetric")
        got = np.array([[float(cell) for cell in r] for r in rows])
        xs1, xs2 = got[::35, 0], got[:35, 1]
        c = PhysicalConstants()
        want = [(*velocity_2p(wf, c, x1, xs2, 0.8), cross_coupling(wf, c, x1, xs2, 0.8)) for x1 in xs1]
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
        result = CliRunner().invoke(main, ["dbb", *args])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error=2 detail=packet algebra leaves float64 by t=")

    def test_dt_that_cannot_advance_time_exits_two(self, monkeypatch):
        # t + 0.001 == t at t = 1e20, so the span must be refused before integrating
        monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
        result = CliRunner().invoke(main, ["dbb", "--form", "product", "--trajectory",
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
    monkeypatch.setattr(dbb, "_rk4", lambda *args: pytest.fail("integration started"))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == EXIT_VALIDATION
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error=2 detail=") and "steps exceeds" in lines[0]


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
           stride=st.sampled_from([None, "rows", "columns"]))
    def test_vecdot_norms_bitwise_equal_to_each_row_norm(self, rows, stride):
        # the norm_drift column's norms: random, tiny and huge 3-vectors, contiguous or strided
        spins = np.array(rows)
        if stride == "rows":
            spins = np.repeat(spins, 2, axis=0)[::2]
        elif stride == "columns":
            spins = np.repeat(spins, 2, axis=1)[:, ::2]
        with np.errstate(over="ignore"):  # a huge row overflows to inf on both routes
            got = np.sqrt(np.vecdot(spins, spins))
            want = np.array([np.linalg.norm(row) for row in spins])
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_s0_validation(self):
        result = CliRunner().invoke(main, ["spin", "--s0", "1,0"])
        assert result.exit_code == 2
        result = CliRunner().invoke(main, ["spin", "--s0", "a,b,c"])
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
        assert CliRunner().invoke(main, args + [str(MAX_GRID_SIDE)]).exit_code == EXIT_NUMERICAL
        result = CliRunner().invoke(main, args + [str(MAX_GRID_SIDE + 1)])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == f"error=2 detail=grid of {MAX_GRID_SIDE + 1} points per axis exceeds {MAX_GRID_SIDE}\n"

    @pytest.mark.parametrize("args, target", [
        (["chsh", "scan", "--step"], "tsirelson_scan"),
        (["mermin", "--n", "3", "--scan", "--step"], "mermin_shared_scan"),
    ])
    def test_scan_step_boundary(self, monkeypatch, args, target):
        # the cap counts the angles the scan itself would build
        assert len(_scan_angles(np.deg2rad(float(SCAN_STEPS["at"])))) == MAX_GRID_SIDE
        assert len(_scan_angles(np.deg2rad(float(SCAN_STEPS["over"])))) == MAX_GRID_SIDE + 1
        reach_fails(monkeypatch, target)
        assert CliRunner().invoke(main, args + [SCAN_STEPS["at"]]).exit_code == EXIT_NUMERICAL
        result = CliRunner().invoke(main, args + [SCAN_STEPS["over"]])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr.startswith("error=2 detail=grid of 512") and "exceeds" in result.stderr

    def test_subnormal_scan_step_is_refused_by_the_cap(self, monkeypatch):
        # 2 pi / step overflows to inf, which the cap refuses like any large count
        reach_fails(monkeypatch, "tsirelson_scan")
        result = CliRunner().invoke(main, ["chsh", "scan", "--step", "1e-320"])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == f"error=2 detail=grid of inf points per axis exceeds {MAX_GRID_SIDE}\n"


ERRORS = [
    (NodeSingularityError("hit a node"), EXIT_NODE, "error=4 detail=hit a node"),
    (NumericalCheckError("residual too large"), EXIT_NUMERICAL, "error=3 detail=residual too large"),
    # whitespace collapses so the stderr line stays single-line parsable
    (ValueError("bad   input\nvalue"), EXIT_VALIDATION, "error=2 detail=bad input value"),
    (click.UsageError("needs --flag"), EXIT_VALIDATION, "error=2 detail=needs --flag"),
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
    (["dbb", "--form", "symmetric", "--trajectory"], "integrate_trajectory"),
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

        monkeypatch.setattr(cli, target, boom)
        result = CliRunner().invoke(main, args)
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
         "error=2 detail=x2 must be finite, got nan"),
    ], ids=["trials", "missing-option", "bad-float", "nested-missing-option", "no-such-command", "nan-start"])
    def test_usage_error_gives_one_line(self, args, line):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == line + "\n"

    @pytest.mark.parametrize("args", [["--bogus"], ["--bogus", "lhv", "--enumerate"]],
                             ids=["alone", "before-a-command"])
    def test_root_usage_error_gives_one_line(self, args):
        result = CliRunner().invoke(main, args)
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == "error=2 detail=No such option '--bogus'.\n"

    def test_bare_command_prints_the_help(self):
        bare, help_ = CliRunner().invoke(main, []), CliRunner().invoke(main, ["--help"])
        assert (bare.exit_code, bare.stderr) == (0, "")
        assert bare.stdout == help_.stdout and bare.stdout.startswith("Usage: ")

    def test_out_that_cannot_be_opened_exits_two(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = CliRunner().invoke(main, ["lhv", "--enumerate", "--out", str(out)])
        assert result.exit_code == EXIT_VALIDATION
        assert result.stderr == f"error=2 detail=cannot open --out {out}: No such file or directory\n"

    @pytest.mark.parametrize("args, target", OUT_COMMANDS, ids=lambda v: v if isinstance(v, str) else None)
    def test_out_that_cannot_be_opened_exits_two_before_any_work(self, monkeypatch, tmp_path, args, target):
        reach_fails(monkeypatch, target)
        out = tmp_path / "missing" / "x.csv"
        result = CliRunner().invoke(main, args + ["--out", str(out)])
        assert (result.exit_code, result.stdout) == (EXIT_VALIDATION, "")
        assert result.stderr == f"error=2 detail=cannot open --out {out}: No such file or directory\n"

    @pytest.mark.parametrize("args, target", OUT_COMMANDS, ids=lambda v: v if isinstance(v, str) else None)
    def test_failed_command_leaves_an_existing_out_untouched(self, monkeypatch, tmp_path, args, target):
        reach_fails(monkeypatch, target)
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier,run\n")
        result = CliRunner().invoke(main, args + ["--out", str(out)])
        assert result.exit_code == EXIT_NUMERICAL
        assert out.read_bytes() == b"earlier,run\n"

    def test_out_to_a_device_is_written_without_truncating_it(self):
        run_ok(["lhv", "--enumerate", "--out", os.devnull])

    def test_out_replaces_a_longer_file(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"x" * 10000)
        CliRunner().invoke(main, ["lhv", "--enumerate", "--out", str(out)])
        assert out.read_text(encoding="utf-8") == run_ok(["lhv", "--enumerate"])


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

    def test_lhv_memory_does_not_grow_with_samples(self):
        # max RSS of a Monte Carlo run against the enumerate run's import floor
        floor = self.max_rss_mb(["lhv", "--enumerate"])
        mc = self.max_rss_mb(["lhv", "--model", "sign", "--samples", "2000000", "--seed", "3",
                              "--angles", "0,45,22.5,67.5"])
        assert mc <= floor + 20.0

    def test_mermin_memory_stays_near_the_import_floor(self):
        # <F> for n = 10 needs the 2^10 ket, not the 2^10 x 2^10 operator (16 MB)
        floor = self.max_rss_mb(["lhv", "--enumerate"])
        assert self.max_rss_mb(["mermin", "--n", "10"]) <= floor + 20.0

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
    def test_oumandel_grid_memory_stays_near_the_version_floor(self, args):
        # the angle axes broadcast as a column and a row; meshgrids cost 50 MB more at 71
        floor = self.max_rss_mb(["--version"])
        assert self.max_rss_mb(["oumandel", "--tx", "0.5", "--ty", "0.5", *args]) <= floor + 5.0

    def test_numpy_random_loads_only_for_commands_that_draw(self):
        # numpy.random costs every command about 13 ms of import; only the seeded
        # commands need it.  No command loads dataclasses: the records are not
        # dataclasses.  A bare import bell_lab still loads every layer module,
        # which the benchmark's tracer wraps
        layers = [f"bell_lab.{name}" for name in ("operators", "chsh", "mermin", "lhv", "fock", "dbb")]
        flags = "'numpy.random' in sys.modules, 'dataclasses' in sys.modules"
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
            assert proc.stderr.splitlines() == ["True False False"] + [
                f"{args} 0 {flag} False" for args, flag in zip(commands, loaded)]

    def test_memory_floor_is_not_the_test_process(self):
        # the measurement must not inherit this process's RSS (over 100 MB here)
        ballast = np.ones(12_500_000)
        assert ballast.sum() > 0 and self.max_rss_mb(["lhv", "--enumerate"]) < 90.0
