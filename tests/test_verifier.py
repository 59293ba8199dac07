"""Verification harness: determinism, witness replay, bounds, and dispatch."""

import dataclasses

import numpy as np
import pytest

from bicomplex import (
    CHECK_IDS,
    CheckConfig,
    TMatrix,
    TVector,
    UnknownCheckId,
    all_passed,
    default_config,
    replay_witness,
    run_all,
    run_check,
)
from bicomplex.verifier import CHECKS

SMALL_TRIALS = 25


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_each_check_passes_at_small_trials(check_id):
    report = run_check(default_config(check_id, seed=42, trials=SMALL_TRIALS))
    assert report.passed, f"{check_id}: worst {report.worst_value} > bound {report.bound}"
    assert report.trials_run >= SMALL_TRIALS
    assert report.check_id == check_id


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_witness_replay_reproduces_worst_value(check_id):
    report = run_check(default_config(check_id, seed=7, trials=SMALL_TRIALS))
    replayed = replay_witness(check_id, report.worst_witness)
    assert abs(replayed - report.worst_value) <= 1e-15 * (1 + abs(report.worst_value))


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_reports_are_deterministic_given_seed(check_id):
    first = run_check(default_config(check_id, seed=123, trials=SMALL_TRIALS))
    second = run_check(default_config(check_id, seed=123, trials=SMALL_TRIALS))
    assert dataclasses.replace(first, elapsed=0.0) == dataclasses.replace(second, elapsed=0.0)


def test_different_seeds_give_different_witnesses():
    a = run_check(default_config("submult", seed=1, trials=200))
    b = run_check(default_config("submult", seed=2, trials=200))
    # the forced equality witness may coincide; the sampled inputs must not
    assert a.worst_witness != b.worst_witness or a.worst_value == b.worst_value


# Each check's random stream is selected by its index in this map, so an
# index may never move to another check: that would silently reseed both.
PINNED_STREAMS = {
    "ring-axioms": 0,
    "submult": 1,
    "norm-identity": 2,
    "scalar-homogeneity": 3,
    "translation-invariance": 4,
    "homeomorphism-Ta": 5,
    "homeomorphism-Mlambda": 6,
    "ubp": 7,
    "continuity-bounded": 8,
    "limit-operator": 9,
    "bxy-complete": 10,
    "open-mapping": 11,
    "closed-graph": 12,
    "two-metric": 13,
    "total-family": 14,
    "hahn-banach": 15,
    "norm-sandwich": 16,
    "compose-norm": 17,
}


def test_registry_ids_and_streams_are_unique_and_pinned():
    ids = [check.check_id for check in CHECKS]
    streams = [check.stream for check in CHECKS]
    assert len(set(ids)) == len(ids)
    assert len(set(streams)) == len(streams)
    assert dict(zip(ids, streams)) == PINNED_STREAMS
    assert CHECK_IDS == tuple(PINNED_STREAMS)


def test_unknown_check_id_rejected():
    with pytest.raises(UnknownCheckId):
        default_config("no-such-check")
    with pytest.raises(UnknownCheckId):
        CheckConfig(check_id="no-such-check")
    with pytest.raises(UnknownCheckId):
        replay_witness("no-such-check", {})


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(check_id="submult", trials=0)
    with pytest.raises(ValueError):
        CheckConfig(check_id="submult", tol=0.0)


def test_run_all_shape_and_aggregate():
    reports = run_all(seed=42, trials=SMALL_TRIALS)
    assert len(reports) == 18
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    assert all_passed(reports)


def test_run_all_with_trials_one_is_deterministic():
    first = run_all(seed=5, trials=1)
    second = run_all(seed=5, trials=1)
    assert len(first) == 18
    for a, b in zip(first, second):
        assert a.worst_witness == b.worst_witness
        assert a.worst_value == b.worst_value


def test_run_all_matches_individual_runs():
    combined = run_all(seed=11, trials=SMALL_TRIALS)
    for report in combined:
        single = run_check(default_config(report.check_id, seed=11, trials=SMALL_TRIALS))
        assert single.worst_value == report.worst_value
        assert single.worst_witness == report.worst_witness


def test_submult_witness_is_near_the_idempotent():
    report = run_check(default_config("submult", seed=42, trials=50_000))
    assert report.worst_value >= 1.41
    assert report.worst_value <= report.bound


def test_open_mapping_catches_a_solve_that_ignores_the_second_component(monkeypatch):
    def solve_with_first_component_twice(self, b, tol=None):
        (M1, _), (b1, b2) = self.split(), b.split()
        return TVector.from_split(np.linalg.solve(M1, b1), np.linalg.solve(M1, b2))

    monkeypatch.setattr(TMatrix, "solve", solve_with_first_component_twice)
    report = run_check(default_config("open-mapping", trials=5))
    assert not report.passed
    assert report.worst_witness["part"] == "residual"


def test_report_json_excludes_elapsed_by_default():
    report = run_check(default_config("ring-axioms", seed=1, trials=10))
    payload = report.to_json()
    assert "elapsed" not in payload
    assert payload["check_id"] == "ring-axioms"
    assert set(payload) == {
        "check_id",
        "pass",
        "worst_value",
        "bound",
        "trials_run",
        "worst_witness",
    }
