"""Verification harness: determinism, witness replay, bounds, and dispatch."""

import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from bicomplex import (
    CHECK_IDS,
    E1,
    E2,
    ONE,
    Bicomplex,
    CheckConfig,
    CheckCrashed,
    Submodule,
    TFunctional,
    TMatrix,
    TVector,
    UnknownCheckId,
    all_passed,
    default_config,
    hahn_banach_extend,
    lift_real,
    replay_witness,
    run_all,
    run_check,
)
from bicomplex import _arrays, verifier
from bicomplex._arrays import planes, real_block_matrix
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
    assert replayed == report.worst_value
    # as stored `verify` output is replayed: after a JSON round trip
    stored = json.loads(json.dumps(report.worst_witness))
    assert replay_witness(check_id, stored) == report.worst_value


def _truncated(value):
    """A witness entry with the last float of its first coefficient row dropped."""
    if isinstance(value, dict):  # a matrix
        return {**value, "entries": _truncated(value["entries"])}
    if isinstance(value[0], (list, dict)):
        return [_truncated(value[0]), *value[1:]]
    return value[:-1]


# Witnesses whose entries each decode but do not fit together.
_MISFITS = {
    "closed-graph": lambda w: {"matrix": {"m": 1, "n": 1, "entries": w["x"][:1]}, "x": w["x"][:1], "p": w["p"][:1] * 2},
    "two-metric": lambda w: {**w, "x": w["x"] + w["x"][:1]},
}


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_a_malformed_witness_raises_one_value_error_naming_the_check_and_key(check_id):
    witness = run_check(default_config(check_id, seed=7, trials=SMALL_TRIALS)).worst_witness

    def rejected(bad: dict, key: str):
        with pytest.raises(ValueError, match=re.escape(f"{check_id} witness: {key!r}")):
            replay_witness(check_id, bad)

    for key, value in witness.items():
        rejected({k: v for k, v in witness.items() if k != key}, key)
        if isinstance(value, (list, dict)):
            rejected({**witness, key: _truncated(value)}, key)
    if "part" in witness:
        rejected({**witness, "part": "no-such-part"}, "part")
    if check_id in _MISFITS:
        with pytest.raises(ValueError, match=f"^malformed {check_id} witness: its entries do not fit together$"):
            replay_witness(check_id, _MISFITS[check_id](witness))


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
        CheckConfig("no-such-check", seed=42, trials=1)
    with pytest.raises(UnknownCheckId):
        replay_witness("no-such-check", {})


def test_config_validation(monkeypatch):
    monkeypatch.setattr(verifier, "_run", lambda check, cfg, rng: pytest.fail("a check ran"))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        CheckConfig("submult", seed=42, trials=0)
    # never truncated: a float or a bool is refused before any check runs
    for seed, trials in [(1.7, 2), (1, 2.5), (1, True), (True, 2), (1, 2.0)]:
        with pytest.raises(TypeError, match="must be an integer"):
            run_check(default_config("ubp", seed=seed, trials=trials))
        with pytest.raises(TypeError, match="must be an integer"):
            run_all(seed=seed, trials=trials)
    assert CheckConfig("ubp", seed=np.uint64(2**64 - 1), trials=np.int32(3)).trials == 3


def test_a_seed_outside_64_bits_is_refused_before_any_check_runs(monkeypatch):
    # Each seed names its own stream: -1 and 2^64 would otherwise wrap onto
    # 2^64 - 1 and 0.
    run = verifier._run
    monkeypatch.setattr(verifier, "_run", lambda check, cfg, rng: pytest.fail("a check ran"))
    for seed in (-1, 2**64, -(2**64) + 5):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            CheckConfig("ubp", seed=seed, trials=3)
        with pytest.raises(ValueError, match="seed must be in"):
            run_all(seed=seed, trials=3)
    monkeypatch.setattr(verifier, "_run", run)
    top = run_check(default_config("ubp", seed=2**64 - 1, trials=3))
    assert top.to_json() == run_check(default_config("ubp", seed=np.uint64(2**64 - 1), trials=3)).to_json()
    assert top.worst_witness != run_check(default_config("ubp", seed=0, trials=3)).worst_witness


def test_config_has_no_defaults_to_fall_back_on():
    # default_config is the one constructor with defaults: the registry's.
    with pytest.raises(TypeError):
        CheckConfig("submult")
    assert default_config("submult") == CheckConfig("submult", seed=42, trials=1_000_000)


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
    assert report.worst_value <= report.bound == 1e-12 + SQRT2


def test_open_mapping_catches_a_solve_that_ignores_the_second_component(monkeypatch):
    # The check solves through the kernel TMatrix.solve calls, so a fault
    # there reaches both; the residual and the realified solve each see it.
    def solve_with_first_component_twice(H, Hinv, V):
        return (Hinv[0] @ V[..., None])[..., 0]

    T, b = TMatrix.from_hat(np.eye(2), 2 * np.eye(2)), TVector.basis(2, 0)
    monkeypatch.setattr(_arrays, "solve_pair", solve_with_first_component_twice)
    assert (T.apply(T.solve(b)) - b).norm() > 0.1
    report = run_check(default_config("open-mapping", trials=5))
    assert not report.passed
    for part in ("residual", "real-solve"):
        assert replay_witness("open-mapping", dict(report.worst_witness, part=part)) > report.bound, part


def test_open_mapping_catches_a_hat_fault_that_both_sides_of_the_residual_share(monkeypatch):
    # Solve and apply both read the operator's hat stack; with its second
    # component replaced by the first, T x = y still holds in the wrong
    # operator, and only the realified solve, which never splits, sees it.
    apply_pair, solve_pair = _arrays.apply_pair, _arrays.solve_pair

    def first_twice(H):
        return np.stack([H[0], H[0]])

    monkeypatch.setattr(_arrays, "apply_pair", lambda H, V: apply_pair(first_twice(H), V))
    monkeypatch.setattr(_arrays, "solve_pair", lambda H, Hinv, V: solve_pair(first_twice(H), first_twice(Hinv), V))
    report = run_check(default_config("open-mapping", trials=5))
    assert not report.passed
    assert report.worst_witness["part"] == "real-solve"
    assert replay_witness("open-mapping", dict(report.worst_witness, part="residual")) <= 1e-15


def test_open_mapping_inverts_through_the_operator_layer(monkeypatch):
    # The check refuses or inverts each operator with TMatrix.invert, so a
    # wrong inverse there fails it: solve's two refinement steps do not
    # repair an inverse of the wrong component.
    invert = TMatrix.invert

    def first_inverse_twice(self):
        M1inv = invert(self).split()[0]
        return TMatrix.from_hat(M1inv, M1inv)

    monkeypatch.setattr(TMatrix, "invert", first_inverse_twice)
    assert not run_check(default_config("open-mapping", trials=8)).passed


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


# --- the stacked checks against the per-object API ---------------------------------
#
# The operator checks evaluate their trials as stacked batches.  These
# reference oracles evaluate one witness through TMatrix and TVector methods,
# one object at a time, as the checks did before they were batched; the
# batched values must equal them bit for bit.

SQRT2 = float(np.sqrt(2.0))


def _ubp_value(family, x):
    bound = max(T.norms().sup_norm for T in family)
    worst = -np.inf
    for T in family:
        lhs = T.apply(x).norm()
        rhs = SQRT2 * bound * x.norm()
        worst = max(worst, (lhs - rhs) / (1.0 + rhs))
    return float(worst)


def _unit_ball_attainment_value(T):
    report = T.norms()
    M1, M2 = T.split()
    M = M1 if report.s1 >= report.s2 else M2
    _, _, vh = np.linalg.svd(M)
    v = np.conj(vh[0])
    if report.s1 >= report.s2:
        x = TVector.from_split(SQRT2 * v, np.zeros_like(v))
    else:
        x = TVector.from_split(np.zeros_like(v), SQRT2 * v)
    reached = T.apply(x).norm()
    target = SQRT2 * report.sup_norm
    return abs(reached - target) / (1.0 + target)


def _no_exceed_value(T, x):
    rhs = SQRT2 * T.bound_constant() * x.norm()
    return float((T.apply(x).norm() - rhs) / (1.0 + rhs))


def _limit_operator_value(T, E):
    target = T.norms().sup_norm
    liminf_est = min((T + E.scale(1.0 / n)).norms().sup_norm for n in range(21, 41))
    return float((target - SQRT2 * liminf_est) / (1.0 + target))


def _bxy_complete_value(T, E):
    idem_e = E.norms().idem_norm
    idem_t = T.norms().idem_norm
    worst = -np.inf
    terms = {k: T + E.scale(2.0 ** (1 - k)) for k in (1, 5, 10, 20, 45)}
    for j in terms:
        for k in terms:
            if j >= k:
                continue
            measured = (terms[j] - terms[k]).norms().idem_norm
            bound = abs(2.0 ** (1 - j) - 2.0 ** (1 - k)) * idem_e
            worst = max(worst, (measured - bound) / (1.0 + idem_e))
    worst = max(worst, (T - terms[45]).norms().idem_norm / (1.0 + idem_t))
    for Tk in terms.values():
        drift = abs(Tk.norms().idem_norm - idem_t)
        allowance = (Tk - T).norms().idem_norm
        worst = max(worst, (drift - allowance) / (1.0 + idem_t))
    return float(worst)


def _open_mapping_value(part, T, y):
    x = T.solve(y)
    if part == "unit-ball":
        return float(x.norm() - 1.0)
    if part == "real-solve":
        real = TVector(np.linalg.solve(real_block_matrix(T.coeffs), y.coeffs.reshape(-1)).reshape(y.n, 4))
        return float((x - real).norm() / (1.0 + real.norm()))
    return float((T.apply(x) - y).norm() / (1.0 + y.norm()))


def _closed_graph_value(T, x, p):
    y_limit = T.apply(x + p.scale(2.0**-40))
    at_x = T.apply(x)
    return float((at_x - y_limit).norm() / (1.0 + at_x.norm()))


def _two_metric_value(W, x, y):
    sv1, sv2 = W.component_singular_values()
    c_lo = min(float(sv1[-1]), float(sv2[-1]))
    c_hi = max(float(sv1[0]), float(sv2[0]))
    rho1 = (x - y).norm()
    rho2 = W.apply(x - y).norm()
    return float(max(c_lo * rho1 - rho2, rho2 - c_hi * rho1) / (1.0 + rho1))


def _norm_sandwich_value(part, T):
    if part == "sandwich":
        r = T.norms()
        return float(max(r.sup_norm - r.idem_norm, r.idem_norm - SQRT2 * r.sup_norm) / (1.0 + r.sup_norm))
    M1, M2 = T.split()
    if part == "left-attain":
        r = TMatrix.from_hat(M1, np.zeros_like(M2)).norms()
        return float(abs(r.sup_norm - r.idem_norm) / (1.0 + r.sup_norm))
    r = TMatrix.from_hat(M1, M1).norms()
    return float(abs(r.idem_norm - SQRT2 * r.sup_norm) / (1.0 + r.sup_norm))


def _compose_norm_value(A, B):
    ra, rb, rab = A.norms(), B.norms(), (A @ B).norms()
    worst = -np.inf
    for prod, a, b in ((rab.sup_norm, ra.sup_norm, rb.sup_norm), (rab.idem_norm, ra.idem_norm, rb.idem_norm)):
        bound = SQRT2 * a * b
        worst = max(worst, (prod - bound) / (1.0 + bound))
    return float(worst)


def _hahn_banach_value(w):
    Y = Submodule(w["n"], [TVector.from_json(g) for g in w["generators"]])
    report = hahn_banach_extend(TFunctional(TVector.from_json(w["ystar"])), Y)
    worst = report.restriction_error / (1.0 + report.y_norms.idem_norm)
    for yc, xc in zip(report.y_component_norms, report.x_component_norms):
        worst = max(worst, abs(xc - yc) / (1.0 + yc))
    ext = report.extension
    lifted = lift_real(ext.real_parts()[0])
    worst = max(worst, (lifted.coeffs - ext.coeffs).norm() / (1.0 + ext.coeffs.norm()))
    scalar, x = Bicomplex(*w["w"]), TVector.from_json(w["x"])
    lhs, rhs = ext(x.scale(scalar)), scalar * ext(x)
    return float(max(worst, (lhs - rhs).norm() / (1.0 + rhs.norm())))


def _continuity_oracle(w):
    T = TMatrix.from_json(w["matrix"])
    if w["part"] == "attain":
        return _unit_ball_attainment_value(T)
    return _no_exceed_value(T, TVector.from_json(w["x"]))


# The streamed scalar and vector checks evaluate coefficient planes.  Their
# oracles take one witness through Bicomplex and TVector arithmetic, so a
# slip in the plane layout cannot hide behind a replay that shares it.
# norm-identity and homeomorphism-Mlambda have none: they take moduli and
# reciprocals of complex hat components with numpy, which round otherwise
# than Python's abs() and complex division in IdempotentForm.norm and
# Bicomplex.inverse for about a third and a quarter of random components.
# At seed 1, norm-identity's witness scores 2.5e-16 and IdempotentForm.norm
# gives 8.4e-17.


def _coefficient_deviation(u, v):
    return max(abs(p - q) for p, q in zip(u.coeffs, v.coeffs))


def _ring_axioms_value(w):
    if w["part"] == "idempotent-identities":
        return max(
            _coefficient_deviation(E1 * E1, E1),
            _coefficient_deviation(E2 * E2, E2),
            _coefficient_deviation(E1 * E2, Bicomplex()),
            _coefficient_deviation(E1 + E2, ONE),
        )
    s, t, u = (Bicomplex(*w[name]) for name in "stu")
    sides = {
        "mul-associative": ((s * t) * u, s * (t * u)),
        "mul-commutative": (s * t, t * s),
        "distributive": (s * (t + u), s * t + s * u),
        "add-associative": ((s + t) + u, s + (t + u)),
    }
    return _coefficient_deviation(*sides[w["part"]])


def _submult_value(w):
    s, t = Bicomplex(*w["s"]), Bicomplex(*w["t"])
    return (s * t).norm() / (s.norm() * t.norm())


def _scalar_homogeneity_value(w):
    alpha, x = Bicomplex(*w["alpha"]), TVector(w["x"])
    ns, na, nx = x.scale(alpha).norm(), alpha.norm(), x.norm()
    if w["part"] == "complex-exact":
        return abs(ns - na * nx) / (1.0 + na * nx)
    if w["part"] == "ring-bound":
        return (ns - SQRT2 * na * nx) / (1.0 + SQRT2 * na * nx)
    return abs((ns / (na * nx) if na * nx > 0.0 else SQRT2) - SQRT2)


def _translation_value(w):
    x, y, a = (TVector(w[name]) for name in "xya")
    if w["part"] == "metric-shift":
        before = (x - y).norm()
        return abs(((x + a) - (y + a)).norm() - before) / (1.0 + before)
    return abs(x.norm() - (x - TVector.zero(x.n)).norm())


def _ta_value(w):
    a, x, y = (TVector(w[name]) for name in "axy")
    if w["part"] == "isometry":
        before = (x - y).norm()
        return abs(((a + x) - (a + y)).norm() - before) / (1.0 + before)
    return (((x + a) - a) - x).norm() / (1.0 + x.norm() + a.norm())


ORACLES = {
    "ubp": lambda w: _ubp_value([TMatrix.from_json(m) for m in w["family"]], TVector.from_json(w["x"])),
    "continuity-bounded": _continuity_oracle,
    "limit-operator": lambda w: _limit_operator_value(TMatrix.from_json(w["t"]), TMatrix.from_json(w["e"])),
    "bxy-complete": lambda w: _bxy_complete_value(TMatrix.from_json(w["t"]), TMatrix.from_json(w["e"])),
    "open-mapping": lambda w: _open_mapping_value(
        w["part"], TMatrix.from_json(w["matrix"]), TVector.from_json(w["y"])
    ),
    "closed-graph": lambda w: _closed_graph_value(
        TMatrix.from_json(w["matrix"]), TVector.from_json(w["x"]), TVector.from_json(w["p"])
    ),
    "two-metric": lambda w: _two_metric_value(
        TMatrix.from_json(w["w_matrix"]), TVector.from_json(w["x"]), TVector.from_json(w["y"])
    ),
    "norm-sandwich": lambda w: _norm_sandwich_value(w["part"], TMatrix.from_json(w["matrix"])),
    "compose-norm": lambda w: _compose_norm_value(TMatrix.from_json(w["a"]), TMatrix.from_json(w["b"])),
    "hahn-banach": _hahn_banach_value,
    "ring-axioms": _ring_axioms_value,
    "submult": _submult_value,
    "scalar-homogeneity": _scalar_homogeneity_value,
    "translation-invariance": _translation_value,
    "homeomorphism-Ta": _ta_value,
}


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("check_id", sorted(ORACLES))
def test_batched_check_equals_the_per_object_oracle(check_id, seed):
    report = run_check(default_config(check_id, seed=seed))
    oracle = ORACLES[check_id](report.worst_witness)
    assert replay_witness(check_id, report.worst_witness) == oracle
    assert report.worst_value == oracle


def _failing_batched_checks():
    reports = [run_check(default_config(check_id, trials=20)) for check_id in sorted(ORACLES)]
    return {r.check_id for r in reports if not r.passed}


def _hahn_banach_witness(rng, generators):
    n = generators[0].n
    return {
        "n": n,
        "generators": [g.to_json() for g in generators],
        "ystar": rng.uniform(-1.0, 1.0, (n, 4)).tolist(),
        "w": rng.uniform(-1.0, 1.0, 4).tolist(),
        "x": rng.uniform(-1.0, 1.0, (n, 4)).tolist(),
    }


def test_hahn_banach_cuts_dependent_generators_to_rank_as_submodule_does():
    # Two trials of one shape (n, count) = (4, 3) evaluated as one stack: the
    # first spans 3 dimensions in each component; in the second, the second
    # generator repeats the first in component 1 only, so the bases there
    # have ranks (2, 3).
    rng = np.random.default_rng(5)
    full = [TVector(rng.uniform(-1.0, 1.0, (4, 4))) for _ in range(3)]
    g1, g3 = TVector(rng.uniform(-1.0, 1.0, (4, 4))), TVector(rng.uniform(-1.0, 1.0, (4, 4)))
    g2 = TVector.from_split(3.0 * g1.split()[0], rng.standard_normal(4) + 1j * rng.standard_normal(4))
    dependent = [g1, g2, g3]
    assert (Submodule(4, dependent).dim1, Submodule(4, dependent).dim2) == (2, 3)
    witnesses = [_hahn_banach_witness(rng, gens) for gens in (full, dependent)]
    stacked = [np.array([w[key] for w in witnesses]) for key in ("generators", "ystar", "w", "x")]
    values = verifier._hahn_banach_group(*stacked)
    oracles = [_hahn_banach_value(w) for w in witnesses]
    assert values.tolist() == oracles
    assert [replay_witness("hahn-banach", w) for w in witnesses] == oracles
    assert max(oracles) <= 1e-10


def test_a_riesz_kernel_that_ignores_the_second_component_fails_hahn_banach(monkeypatch):
    riesz_extension = _arrays.riesz_extension

    def first_basis_twice(B1, B2, C):
        return riesz_extension(B1, B1, C)

    monkeypatch.setattr(_arrays, "riesz_extension", first_basis_twice)
    assert "hahn-banach" in _failing_batched_checks()


def test_a_singular_value_kernel_that_ignores_m2_fails_verify(monkeypatch):
    def first_component_twice(H):
        sv1 = np.linalg.svd(H[0], compute_uv=False)
        return np.stack([sv1, sv1])

    monkeypatch.setattr(_arrays, "pair_singular_values", first_component_twice)
    assert _failing_batched_checks()


def test_an_apply_kernel_that_drops_m2_fails_verify(monkeypatch):
    def first_matrix_on_both(H, V):
        return (H[0] @ V[..., None])[..., 0]

    monkeypatch.setattr(_arrays, "apply_pair", first_matrix_on_both)
    assert _failing_batched_checks()


def test_an_exception_escaping_a_check_is_raised_as_check_crashed(monkeypatch):
    def shape_bug(H):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(_arrays, "pair_singular_values", shape_bug)
    with pytest.raises(CheckCrashed) as info:
        run_all(trials=2)
    assert info.value.check_id == "ubp"
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value) == "ValueError: operands could not be broadcast together"


#: The checks that draw and evaluate their inputs in blocks of at most
#: verifier._BLOCK_ELEMENTS floats in the widest column.
BLOCKED_CHECKS = (
    "ring-axioms",
    "submult",
    "norm-identity",
    "scalar-homogeneity",
    "translation-invariance",
    "homeomorphism-Ta",
    "homeomorphism-Mlambda",
    "total-family",
)

#: The checks that draw their trials in chunks of verifier._CHUNK_TRIALS.
CHUNKED_CHECKS = tuple(check_id for check_id in CHECK_IDS if check_id not in BLOCKED_CHECKS)


@pytest.mark.parametrize("trials", [1, 23])
@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_evaluating_in_blocks_does_not_change_a_report(check_id, trials, monkeypatch):
    # One runner serves every check: the operator checks' blocks are chunks of
    # trials, the others' blocks of rows.
    whole = run_check(default_config(check_id, seed=3, trials=trials))
    monkeypatch.setattr(verifier, "_CHUNK_TRIALS", 4)
    # 6 rows of a scalar column, 3 of a vector of T^2, 2 of T^3, 1 from T^4 up
    monkeypatch.setattr(verifier, "_BLOCK_ELEMENTS", 24)
    blocked = run_check(default_config(check_id, seed=3, trials=trials))
    assert blocked.to_json() == whole.to_json()
    assert replay_witness(check_id, blocked.worst_witness) == blocked.worst_value


def test_chunked_checks_over_two_chunks_are_pinned_bit_for_bit():
    # 1100 trials make a chunk of 1024 and one of 76.  The digest keeps the
    # witnesses' key order of the per-check runners that the one runner
    # replaced; it was re-taken when vector norms came to add their entries in
    # turn.
    reports = [run_check(default_config(check_id, seed=5, trials=1100)) for check_id in CHUNKED_CHECKS]
    assert [replay_witness(r.check_id, r.worst_witness) for r in reports] == [r.worst_value for r in reports]
    payload = json.dumps([r.to_json() for r in reports])
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "26a67a6f776ae104a66c7c5993bc62c5f9e6c4cbd8deda82eb17382dd5a42ca2"
    )


#: The streamed checks pinned over many blocks below; total-family, which
#: draws 400 trials by default, is pinned by the CLI digests.
PLANE_CHECKS = BLOCKED_CHECKS[:-1]


def test_streamed_checks_over_many_blocks_are_pinned_bit_for_bit():
    # At 40 000 trials every dimension spans several blocks.  The digest was
    # taken from the row-major evaluation the plane layout replaced.
    reports = [run_check(default_config(check_id, seed=5, trials=40_000)) for check_id in PLANE_CHECKS]
    assert [replay_witness(r.check_id, r.worst_witness) for r in reports] == [r.worst_value for r in reports]
    payload = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "74cda248ec33131e63ad5a088281e90d2c69d40d74859c6fefbac00dff7921bb"
    )


@pytest.mark.parametrize("check_id, draws", [("submult", 2), ("ring-axioms", 3)])
def test_blocked_checks_hold_little_beyond_their_draws(check_id, draws):
    # Drawn whole, each input would be (trials, 4) float64.  Drawn and
    # evaluated in blocks, the check holds less than those draws plus a few
    # MiB of temporaries.
    trials = 250_000
    tracemalloc.start()
    try:
        run_check(default_config(check_id, seed=1, trials=trials))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= draws * trials * 4 * 8 + 8 * 2**20


@pytest.mark.parametrize("check_id", BLOCKED_CHECKS)
def test_streamed_checks_hold_the_same_memory_at_four_times_the_trials(check_id):
    # 40 000 trials give every dimension more than one full block.  Drawn
    # whole, the inputs made the peak grow about fourfold.
    run_check(default_config(check_id, seed=1, trials=9))
    peaks = []
    for trials in (40_000, 160_000):
        tracemalloc.start()
        try:
            run_check(default_config(check_id, seed=1, trials=trials))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


@pytest.mark.parametrize("values, columns, kept", [(verifier._submult_values, 2, 2), (verifier._ring_axiom_values, 3, 3)])
def test_a_full_scalar_block_is_evaluated_in_place(values, columns, kept):
    # The product kernel writes into its output through one scratch plane and
    # the norm kernels square into one array, so a block of scalar planes
    # (4, rows) holds its output and at most `kept` block-sized arrays beside
    # it: submult the product and its squares, ring-axioms two products and a
    # sum.  Kernels that make one temporary per term, as the allocating ones
    # did, hold at least half a block more.
    rows = verifier._BLOCK_ELEMENTS // 4
    rng = np.random.default_rng(8)
    block = [planes(rng.uniform(-1.0, 1.0, (rows, 4))) for _ in range(columns)]
    values(*block)
    tracemalloc.start()
    try:
        out = values(*block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(np.asarray(v).nbytes for v in (out.values() if isinstance(out, dict) else [out]))
    assert peak <= output + kept * block[0].nbytes + 4096


#: Column shapes of one stream: a scalar, a T row and a vector of T^3.
STREAMED_SHAPES = ((), (4,), (3, 4))


@pytest.mark.parametrize("count", [1, 4095, 4097, 12500])
def test_streamed_blocks_are_the_rows_of_the_whole_draws(count):
    # Both streams first draw a small integer, which leaves half of a 64-bit
    # draw buffered; drawing the columns whole keeps it.
    whole_rng, rng = np.random.default_rng([5, count]), np.random.default_rng([5, count])
    assert whole_rng.integers(0, 10) == rng.integers(0, 10)
    whole = [whole_rng.uniform(-1.0, 1.0, (count, *shape)) for shape in STREAMED_SHAPES]
    blocks = [[column.copy() for column in block] for block in verifier._streamed(rng, count, *STREAMED_SHAPES)]
    rows = verifier._BLOCK_ELEMENTS // 12  # the widest column holds 12 floats a row
    assert [len(block[0]) for block in blocks[:-1]] == [rows] * (len(blocks) - 1)
    for c, column in enumerate(whole):
        assert np.array_equal(np.concatenate([block[c] for block in blocks]), column)
    assert rng.integers(0, 10, 5).tolist() == whole_rng.integers(0, 10, 5).tolist()
    assert rng.uniform() == whole_rng.uniform()


#: Parts of one check, each a list of blocks of values: a tie across the
#: first two parts, a NaN in the third after a larger value, and another NaN.
FOLDED_PARTS = (
    [np.array([0.5, 2.0]), np.array([2.0, 1.0])],
    [np.array([2.0, 0.1]), np.array([1.5])],
    [np.array([7.0, 3.0]), np.array([1.0, np.nan, np.nan])],
    [np.array([np.nan])],
)


@pytest.mark.parametrize("parts", [FOLDED_PARTS[:2], FOLDED_PARTS[1:3], FOLDED_PARTS[::-1], FOLDED_PARTS])
def test_folding_parts_in_order_equals_updating_part_by_part(parts):
    def updated(best, p, part):
        for b, values in enumerate(part):
            best.update(values, lambda k: {"part": p, "block": b, "row": k})
        return best

    one = verifier._Best()
    one.update(1.0, lambda k: {"part": "first"})
    folded = verifier._Best()
    folded.update(1.0, lambda k: {"part": "first"})
    for p, part in enumerate(parts):
        updated(one, p, part)
    folded.merge(*(updated(verifier._Best(), p, part) for p, part in enumerate(parts)))
    assert folded.witness == one.witness
    np.testing.assert_array_equal(folded.value, one.value)


def test_the_first_nan_is_the_worst_value():
    best = verifier._Best()
    best.update(np.array([0.5, 2.0]), lambda k: {"call": 1, "k": k})
    best.update(np.array([1.0, np.nan, 3.0, np.nan]), lambda k: {"call": 2, "k": k})
    best.update(np.array([9.0, np.nan]), lambda k: {"call": 3, "k": k})
    assert np.isnan(best.value)
    assert best.witness == {"call": 2, "k": 1}


def test_a_nan_trial_fails_verify_and_hides_no_violation(monkeypatch):
    # In each stack of closed-graph trials the first value becomes NaN and
    # the last one exceeds the bound.
    vector_norms = _arrays.vector_norms

    def nan_first_and_off_last(C):
        norms = vector_norms(C).copy()
        norms[-1] += 1.0
        norms[0] = np.nan
        return norms

    monkeypatch.setattr(_arrays, "vector_norms", nan_first_and_off_last)
    report = run_check(default_config("closed-graph", trials=20))
    assert not report.passed
    assert np.isnan(report.worst_value)
    assert report.worst_witness
