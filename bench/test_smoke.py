"""Smoke test of the benchmark: every workload at tiny size, the traced run,
and each output checker fed one deliberately wrong result.  No timing is
asserted.  Run with ``python -m pytest bench/test_smoke.py`` from the
repository root."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture
def bc():
    # A fresh import per test: the runs below re-import the package, and the
    # package resolves some imports at call time through sys.modules.
    return run.import_program()


@pytest.mark.parametrize("name", run.NAMES)
def test_workload_runs_clean_at_tiny_size(name):
    result, details = run.measure(name, seed=3, seconds=0.0, tiny=True)
    assert result["correct"], details["wrong"]
    assert details["rounds"] == 1
    assert result["attempted"] >= 1
    # The only failure is the known fault kept in oneshot, once per round.
    assert result["failed"] == (1 if name == "oneshot" else 0)
    assert [k for k, _ in run.END_TO_END] == list(result["metrics"])


def test_traced_run_repeats_its_call_counts(bc):
    first, _ = run.trace_run(seed=5, tiny=True)
    second, _ = run.trace_run(seed=5, tiny=True)
    assert first["correct"] and second["correct"]
    assert [name for name, _ in run.per_layer_spec(bc.CHECK_IDS)] == list(first["metrics"])
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert all(v > 0 for v in calls.values()), calls


def test_benchmark_json_names_every_printed_metric(bc):
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec(bc.CHECK_IDS)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


# --- wrong results --------------------------------------------------------------

_NUMBER = re.compile(r"-?\d+\.\d+(?:e-?\d+)?")


def _bump_first_number(text: str) -> str:
    match = _NUMBER.search(text)
    assert match, text
    return text[: match.start()] + repr(float(match.group()) + 0.5) + text[match.end():]


def _wrong(bc, workload, op, out):
    """A deliberately wrong version of a correct output."""
    if isinstance(out, bc.TVector):
        return bc.TVector(out.coeffs + 1e-3)
    if isinstance(out, bc.TMatrix):
        return bc.TMatrix(out.coeffs * 1.01)
    if isinstance(out, bc.Bicomplex):
        return out + bc.Bicomplex(1e-3)
    if isinstance(out, bc.NormReport):
        return dataclasses.replace(out, sup_norm=out.sup_norm * 1.01)
    if isinstance(out, bc.DistanceResult):
        return dataclasses.replace(out, d=out.d + 1e-3)
    if isinstance(out, bc.ExtensionReport):
        return dataclasses.replace(out, extension=out.extension.scale(1.01))
    if isinstance(out, bc.SeparationResult):
        return dataclasses.replace(out, functional=out.functional.scale(1.01))
    if isinstance(out, bc.CheckReport):
        return dataclasses.replace(out, worst_value=out.worst_value + 1.0)
    if isinstance(out, workloads.CliResult):
        if out.stdout:
            return workloads.CliResult(out.returncode, _bump_first_number(out.stdout))
        out = op.call()  # solve --out writes its file anew, and checking consumes it
        written = workload.files["solution_csv"]
        written.write_text(_bump_first_number(written.read_text()))
        return out
    raise AssertionError(f"no wrong result for {type(out).__name__}")


@pytest.mark.parametrize("name", run.NAMES)
def test_each_checker_counts_a_wrong_result_as_failed(bc, name):
    workload = run.make_workload(name, bc, seed=7, tiny=True)
    if name == "cli":
        workload.in_process = True
    seen = set()
    for op in workload.round_ops():
        key = (op.kind, op.n, op.label)
        if key in seen or op.known_fault:
            continue
        seen.add(key)
        out = op.call()
        tally = run.Tally(bc.SingularOperator)
        assert tally.judge([(op, out, None)]) == set(), (key, tally.notes)
        assert tally.judge([(op, _wrong(bc, workload, op, out), None)]) == {0}, key
        assert tally.failed == 1 and tally.wrong == 1, key


def test_known_fault_is_counted_failed_but_not_wrong(bc):
    workload = run.make_workload("oneshot", bc, seed=7, tiny=True)
    [op] = [op for op in workload.round_ops() if op.known_fault]
    with pytest.raises(bc.SingularOperator) as raised:
        op.call()
    tally = run.Tally(bc.SingularOperator)
    assert tally.judge([(op, None, raised.value)]) == {0}
    assert tally.failed == 1 and tally.wrong == 0
    # The operator is well conditioned: every component condition number <= 5.
    assert max(raised.value.condition) <= 5.0


def test_command_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "reuse", "--seed", "1", "--seconds", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] == 200 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "reuse", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
