"""The scripts under scripts/ run end to end against the package in src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argument", [["--trials", "0"], ["--tol", "0"], ["--tol", "nan"]])
def test_run_verification_reports_a_bad_argument_as_a_usage_error(argument):
    done = run_script("run_verification.py", *argument)
    assert done.returncode == 2
    assert "error:" in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""


def test_microbench_prints_the_table_at_tiny_repetitions():
    done = run_script("microbench.py", "--number", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "| operation | n=2 | n=8 | n=64 |"
    assert len(lines) == 13 and all(line.count("|") == 5 for line in lines[:7])
    assert lines[7:10] == ["", "| cold process | median ms |", "|---|---|"]
    assert [line.split(" | ")[0] for line in lines[10:]] == [
        "| `import bicomplex`", "| `python -m bicomplex calc`", "| `python -m bicomplex solve`"
    ]
    assert all(float(line.split(" | ")[1].rstrip(" |")) > 0.0 for line in lines[10:])
