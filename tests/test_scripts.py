"""The scripts under scripts/ run end to end against the package in src/."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bicomplex import CHECK_IDS

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_extension_demo_runs():
    done = run_script("extension_demo.py", "--n", "3", "--generators", "2")
    assert done.returncode == 0, done.stderr
    assert "full report JSON:" in done.stdout


def test_run_verification_prints_one_timed_report_per_check():
    done = run_script("run_verification.py", "--trials", "2")
    assert done.returncode == 0, done.stderr
    reports = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(reports) == 18
    assert all("elapsed" in r for r in reports)


# The checks' bounds are registry constants, so --tol is refused too.
@pytest.mark.parametrize("argument", [["--trials", "0"], ["--trials", "2.5"], ["--tol", "1e-9"]])
def test_run_verification_reports_a_bad_argument_as_a_usage_error(argument):
    done = run_script("run_verification.py", *argument)
    assert done.returncode == 2
    assert "error:" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""


def test_microbench_prints_the_table_at_tiny_repetitions(capsys, monkeypatch):
    # The script's one mode needs a second tree: without --against, a usage error.
    done = run_script("microbench.py")
    assert done.returncode == 2 and "--against" in done.stderr and done.stdout == ""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))  # the script sets them on import
    microbench = _script("microbench")
    monkeypatch.setattr(microbench, "ROUNDS", 1)
    monkeypatch.setattr(microbench, "CHECK_TRIALS", 1)
    # Against a second tree, here this one imported again under another name:
    # one measurement, read as JSON and as the table it prints.
    monkeypatch.setattr(sys, "argv", ["microbench.py", "--number", "1", "--against", str(ROOT), "--json"])
    try:
        assert microbench.main() == 0
    finally:  # the second import leaves no module behind for the tests after this one
        for name in [name for name in sys.modules if name.partition(".")[0] == microbench.AGAINST]:
            del sys.modules[name]
    report = json.loads(capsys.readouterr().out)
    assert report["against"] == str(ROOT) and len(report["rows"]) == 1 + 3 * 24 + 18
    assert {row["n"] for row in report["rows"]} == {"-", 2, 8, 64}
    assert all(row["this_us"] > 0.0 and row["against_us"] > 0.0 and row["rounds"] == 1 for row in report["rows"])
    lines = microbench.compare_table(report["rows"]).splitlines()
    assert lines[0] == "| operation | n | this µs | against µs | change | wins |" and len(lines) == 2 + 1 + 3 * 24 + 18
    assert lines[2].startswith("| control | - | ") and lines[-19].startswith("| extend warm | 64 | ")
    assert [line.split(" | ")[0] for line in lines[-18:]] == [f"| check {check_id}" for check_id in CHECK_IDS]
    assert all(line.endswith("/1 |") for line in lines[2:])


def test_bench_pairs_compares_one_pair_of_identical_trees(tmp_path):
    for side in ("parent", "change"):
        tree = tmp_path / side
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "bench", tree / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    done = run_script(
        "bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--pairs", "1", "--seconds", "0", "--label", "tiny", "--out-dir", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert report["workload"] == "reuse" and report["pairs"] == 1 and report["correct"]
    assert report["machine"]["dont_write_bytecode"] is bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    core = report["machine"]["openblas_core"]
    assert core is None or (isinstance(core, str) and core)
    assert report["failed"] == {"parent": [0], "change": [0]}
    assert report["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert list(report["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in report["metrics"].values():
        assert m["parent"]["median"] > 0 and m["change"]["median"] > 0
        assert m["parent_spread"] == 0.0 and m["wins"] in (0, 1)
    assert [r["first"] for r in report["runs"]] == ["parent"]


def _script(name: str):
    """The script scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _script("bench_pairs")


def test_bench_pairs_verdicts_follow_failures_and_spread():
    compare = _bench_pairs().compare
    spec = {"unit": "us", "better": "lower", "bound": 0.25}
    parent = [100.0, 101.0, 102.0, 103.0]
    same = {"parent": 0.01, "change": 0.01}
    clear = compare(spec, parent, [50.0, 51.0, 52.0, 53.0], same)
    assert clear["wins"] == 4 and clear["gain_holds"] and clear["within_bound"] is True
    # a gain does not count when more operations fail than at the parent
    assert not compare(spec, parent, [50.0, 51.0, 52.0, 53.0], {"parent": 0.01, "change": 0.02})["gain_holds"]
    # worse than the bound
    assert compare(spec, parent, [130.0, 131.0, 132.0, 133.0], same)["within_bound"] is False
    # a parent spread wider than the bound cannot tell, unless the runs are apart
    wide = [60.0, 100.0, 140.0, 180.0]
    assert compare(spec, wide, [110.0, 115.0, 120.0, 125.0], same)["within_bound"] == "unresolved"
    assert compare(spec, wide, [10.0, 20.0, 30.0, 40.0], same)["within_bound"] is True
