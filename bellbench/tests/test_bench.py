"""Tests of the benchmark itself, at tiny sizes.

Run with ``python -m pytest bellbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bellbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny_run(workload, seed, trace):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _output(args):
    from bell_lab.cli import main

    _, rc, out, err = run._run_in_process(main, args, None)
    assert rc == 0, err
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    result = _tiny_run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_hold_on_a_second_seed(workload):
    first, second = (workloads.commands(workload, seed, "tiny") for seed in (1, 2))
    assert [c.args for c in first] != [c.args for c in second]
    for cmd in second:
        cmd.check(_output(cmd.args))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_fails_its_check(workload):
    for cmd in workloads.commands(workload, 1, "tiny"):
        out = _output(cmd.args)
        cmd.check(out)
        with pytest.raises(checks.CheckFailed):
            cmd.check(out[:-1])  # truncated
        lines = out.decode("ascii").split("\n")
        cells = lines[2].split(",")
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                continue
            bad = cells[:j] + [repr(value + 1e-3 * (1.0 + abs(value)))] + cells[j + 1:]
            corrupted = "\n".join(lines[:2] + [",".join(bad)] + lines[3:]).encode("ascii")
            with pytest.raises(checks.CheckFailed):
                cmd.check(corrupted)


def test_ledger_fails_bad_exits_checks_and_changed_bytes():
    def check(out):
        if out != b"good\n":
            raise checks.CheckFailed("not good")

    ledger = run.Ledger()
    ledger.record(0, ["a"], 0, b"good\n", "", check)
    ledger.record(0, ["a"], 0, b"good\n", "", check)
    assert (ledger.attempted, ledger.failed) == (2, 0)
    ledger.record(0, ["a"], 0, b"good, but different\n", "", check)
    ledger.record(1, ["b"], 0, b"bad\n", "", check)
    ledger.record(1, ["b"], 0, b"bad\n", "", check)
    ledger.record(2, ["c"], 4, b"", "error=4", check)
    assert (ledger.attempted, ledger.failed) == (6, 4)


def test_tracer_wraps_every_binding_and_restores_it():
    import bell_lab
    from bell_lab import chsh, cli, operators

    original = operators.tensor
    tracer = spans.Tracer(bell_lab)
    tracer.install()
    try:
        assert chsh.tensor is operators.tensor is bell_lab.tensor is not original
        _output(("chsh", "--alpha", "0", "--alpha-prime", "90", "--beta", "45", "--beta-prime", "-45"))
    finally:
        tracer.uninstall()
    assert chsh.tensor is operators.tensor is bell_lab.tensor is original
    assert cli.chsh_value is chsh.chsh_value
    assert operators.MeasurementOp.__post_init__.__name__ == "__post_init__"
    assert tracer.counts["chsh.correlations"] == 4
    assert tracer.counts["operators.kron_calls"] == 4
    assert tracer.counts["operators.ops_validated"] == 8


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bellbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "algebra", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_expectations_name_every_per_layer_metric():
    expected = json.loads((BENCH / "expectations.json").read_text())
    assert set(expected) == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]} | {"failed"}
    for name, entry in expected.items():
        for move in entry["moves"]:
            assert move["metric"] in e2e, name
            assert set(move["workloads"]) <= set(workloads.WORKLOADS), name
        assert set(entry["unchanged_on"]) <= set(workloads.WORKLOADS), name
