"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with -s to see the lines; the whole module stays
well under a minute on a commodity machine."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bicomplex import (
    E1,
    E2,
    J,
    ONE,
    Bicomplex,
    NullConeVector,
    SingularOperator,
    TFunctional,
    TMatrix,
    TVector,
    Submodule,
    hahn_banach_extend,
    lift_real,
    norming_functional,
    sampled_sup_norm,
)
from bicomplex._arrays import hat_merge, hat_split, mul4, norm4

SQRT2 = math.sqrt(2.0)


def report(number: int, ok: bool, label: str):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_idempotent_identities_exact():
    ok = (
        E1 * E1 == E1
        and E2 * E2 == E2
        and E1 * E2 == Bicomplex()
        and E1 + E2 == ONE
    )
    report(1, ok, "idempotent identities hold exactly (zero tolerance)")


def test_criterion_02_norm_representation_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    W = rng.uniform(-1.0, 1.0, (1_000_000, 4))
    norms = norm4(W)
    h1, h2 = hat_split(W)
    idem = np.sqrt((np.abs(h1) ** 2 + np.abs(h2) ** 2) / 2.0)
    worst = float(np.max(np.abs(norms - idem) / (1.0 + norms)))
    elapsed = time.perf_counter() - start
    # tie the vectorized path to the public scalar API on a subsample
    agree = all(
        abs(Bicomplex(*row).norm() - Bicomplex(*row).to_idempotent().norm())
        <= 1e-12 * (1 + Bicomplex(*row).norm())
        for row in W[:: len(W) // 500]
    )
    ok = worst <= 1e-12 and elapsed <= 5.0 and agree
    report(2, ok, f"norm identity over 1e6 scalars (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_submultiplicativity():
    rng = np.random.default_rng(3033)
    S = rng.uniform(-1.0, 1.0, (1_000_000, 4))
    T = rng.uniform(-1.0, 1.0, (1_000_000, 4))
    denom = norm4(S) * norm4(T)
    keep = denom > 0
    ratios = norm4(mul4(S[keep], T[keep])) / denom[keep]
    max_ratio = float(np.max(ratios))
    witness_ratio = (E1 * E1).norm() / (E1.norm() * E1.norm())
    ok = max_ratio <= SQRT2 + 1e-12 and abs(witness_ratio - SQRT2) <= 1e-14
    report(3, ok, f"submultiplicativity over 1e6 pairs (max {max_ratio:.15f}, e1 witness {witness_ratio:.15f})")


def test_criterion_04_inverse_correctness():
    rng = np.random.default_rng(4044)
    need = 100_000
    rows = np.empty((need, 4))
    filled = 0
    while filled < need:
        cand = rng.uniform(-1.0, 1.0, (need - filled, 4))
        h1, h2 = hat_split(cand)
        good = cand[(np.abs(h1) >= 1e-3) & (np.abs(h2) >= 1e-3)]
        rows[filled : filled + len(good)] = good
        filled += len(good)
    h1, h2 = hat_split(rows)
    inverses = hat_merge(1.0 / h1, 1.0 / h2)
    residual = norm4(mul4(rows, inverses) - np.array([1.0, 0.0, 0.0, 0.0]))
    m1, m2 = np.abs(h1), np.abs(h2)
    kappa = np.maximum(m1, m2) / np.minimum(m1, m2)
    worst = float(np.max(residual / kappa))
    sample_ok = all(
        (Bicomplex(*row) * Bicomplex(*row).inverse() - ONE).norm()
        <= 1e-10 * Bicomplex(*row).condition()
        for row in rows[:200]
    )
    ok = worst <= 1e-10 and sample_ok
    report(4, ok, f"inverse residual over 1e5 nonsingular scalars (worst/kappa {worst:.2e})")


def test_criterion_05_operator_norm_sandwich_and_oracle():
    rng = np.random.default_rng(5055)
    worst_sandwich = 0.0
    matrices = []
    for _ in range(1000):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        T = TMatrix(rng.uniform(-1.0, 1.0, (m, n, 4)))
        matrices.append(T)
        r = T.norms()
        worst_sandwich = max(
            worst_sandwich, r.sup_norm - r.idem_norm, r.idem_norm - SQRT2 * r.sup_norm
        )
    oracle_ok = True
    lo_margin = 1.0
    for idx in range(0, 1000, 42):  # 24-matrix subsample at the full budget
        T = matrices[idx]
        closed = T.norms().sup_norm
        estimate = sampled_sup_norm(T, samples=100_000, seed=idx, refine_steps=60)
        oracle_ok &= estimate <= closed + 1e-9
        if closed > 0:
            lo_margin = min(lo_margin, estimate / closed)
    oracle_ok &= lo_margin >= 0.98
    ok = worst_sandwich <= 1e-10 and oracle_ok
    report(
        5,
        ok,
        f"norm sandwich over 1e3 matrices (worst gap {worst_sandwich:.2e}), "
        f"1e5-vector sphere oracle within [{lo_margin:.4f}, 1] of sup_norm",
    )


def test_criterion_06_bound_constant_contract():
    rng = np.random.default_rng(6066)
    worst_excess = -np.inf
    tight_ok = True
    for trial in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        T = TMatrix(rng.uniform(-1.0, 1.0, (m, n, 4)))
        limit = SQRT2 * T.bound_constant()
        M1, M2 = T.split()
        X = rng.uniform(-1.0, 1.0, (200, n, 4))
        v1, v2 = hat_split(X)
        y1 = v1 @ M1.T
        y2 = v2 @ M2.T
        out_norm = np.sqrt((np.sum(np.abs(y1) ** 2, -1) + np.sum(np.abs(y2) ** 2, -1)) / 2)
        in_norm = np.sqrt(np.sum(X * X, axis=(-2, -1)))
        worst_excess = max(worst_excess, float(np.max(out_norm - limit * in_norm)))
        reached = SQRT2 * sampled_sup_norm(T, samples=2000, seed=trial, refine_steps=80)
        tight_ok &= reached >= 0.98 * limit
    ok = worst_excess <= 1e-10 and tight_ok
    report(6, ok, f"|Tx| <= sqrt(2)*sup_norm*|x| over 1e4 pairs (worst excess {worst_excess:.2e}), tight within 2%")


def test_criterion_07_composition_inequality():
    rng = np.random.default_rng(7077)
    worst = -np.inf
    for _ in range(1000):
        m, k, n = (int(v) for v in rng.integers(1, 9, 3))
        A = TMatrix(rng.uniform(-1.0, 1.0, (m, k, 4)))
        B = TMatrix(rng.uniform(-1.0, 1.0, (k, n, 4)))
        ra, rb, rab = A.norms(), B.norms(), (A @ B).norms()
        worst = max(
            worst,
            rab.sup_norm - SQRT2 * ra.sup_norm * rb.sup_norm,
            rab.idem_norm - SQRT2 * ra.idem_norm * rb.idem_norm,
        )
    ok = worst <= 1e-10
    report(7, ok, f"composition inequality both norms over 1e3 products (worst excess {worst:.2e})")


def test_criterion_08_linear_solve():
    rng = np.random.default_rng(8088)
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 17))
        comps = []
        for _ in range(2):
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            comps.append(q1 @ np.diag(rng.uniform(0.4, 2.0, n)) @ q2.conj().T)
        T = TMatrix.from_hat(comps[0], comps[1])
        b = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
        x = T.solve(b)
        worst = max(worst, (T.apply(x) - b).norm() / max(1.0, b.norm()))
    raised = False
    try:
        TMatrix.scalar(4, E1).invert()
    except SingularOperator as exc:
        raised = exc.components == (2,)
    ok = worst <= 1e-9 and raised
    report(8, ok, f"solve residual <= 1e-9 up to n=16 (worst {worst:.2e}); invert(e1*I) raises SingularOperator")


def test_criterion_09_hahn_banach_pipeline():
    rng = np.random.default_rng(9099)
    worst_restriction = 0.0
    worst_norm_eq = 0.0
    worst_linearity = 0.0
    worst_roundtrip = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        count = int(rng.integers(1, n + 1))
        Y = Submodule(n, [TVector(rng.uniform(-1, 1, (n, 4))) for _ in range(count)])
        ystar = TFunctional(TVector(rng.uniform(-1, 1, (n, 4))))
        rep = hahn_banach_extend(ystar, Y)
        worst_restriction = max(
            worst_restriction, rep.restriction_error / (1 + rep.y_norms.idem_norm)
        )
        for yc, xc in zip(rep.y_component_norms, rep.x_component_norms):
            worst_norm_eq = max(worst_norm_eq, abs(yc - xc) / (1 + yc))
        ext = rep.extension
        w = Bicomplex(*rng.uniform(-1, 1, 4))
        x = TVector(rng.uniform(-1, 1, (n, 4)))
        lhs = ext(x.scale(w))
        rhs = w * ext(x)
        worst_linearity = max(worst_linearity, (lhs - rhs).norm() / (1 + rhs.norm()))
        lifted = lift_real(ext.real_parts()[0])
        worst_roundtrip = max(
            worst_roundtrip,
            (lifted.coeffs - ext.coeffs).norm() / (1 + ext.coeffs.norm()),
        )
    ok = (
        worst_restriction <= 1e-10
        and worst_norm_eq <= 1e-10
        and worst_linearity <= 1e-12
        and worst_roundtrip <= 1e-12
    )
    report(
        9,
        ok,
        "hahn-banach over 200 instances (restriction "
        f"{worst_restriction:.2e}, norm-eq {worst_norm_eq:.2e}, "
        f"linearity {worst_linearity:.2e}, round trip {worst_roundtrip:.2e})",
    )


def test_criterion_10_limit_operator_bound():
    rng = np.random.default_rng(1010)
    worst = -np.inf
    for _ in range(60):
        n = int(rng.integers(1, 9))
        T = TMatrix(rng.uniform(-1, 1, (n, n, 4)))
        E = TMatrix(rng.uniform(-1, 1, (n, n, 4)))
        sup_t = T.norms().sup_norm
        sup_e = E.norms().sup_norm
        if sup_e > 0:
            E = E.scale(0.5 * (sup_t + 1e-3) / sup_e)
        tail = [(T + E.scale(1.0 / k)).norms().sup_norm for k in range(21, 41)]
        worst = max(worst, sup_t - SQRT2 * min(tail))
    ok = worst <= 1e-10
    report(10, ok, f"limit-operator bound on constructed sequences (worst {worst:.2e})")


def test_criterion_11_norming_functional_null_cone_behavior():
    rng = np.random.default_rng(1111)
    worst_eval = 0.0
    worst_norm = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        v1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v2 *= np.linalg.norm(v1) / np.linalg.norm(v2)
        x = TVector.from_split(v1, v2)
        r = norming_functional(x)
        worst_eval = max(worst_eval, (r.value - Bicomplex(x.norm())).norm())
        worst_norm = max(worst_norm, abs(r.norms.idem_norm - 1.0))
    raised = 0
    for vec in (
        TVector.from_scalars([E1]),
        TVector.from_scalars([E2, Bicomplex()]).scale(E2),
        TVector.from_scalars([Bicomplex(0.3, -0.2, 0.4, 0.5)]).scale(E1),
    ):
        with pytest.raises(NullConeVector):
            norming_functional(vec)
        raised += 1
    ok = worst_eval <= 1e-10 and worst_norm <= 1e-10 and raised == 3
    report(
        11,
        ok,
        f"norming functional: balanced eval/|x| gap {worst_eval:.2e}, idem-1 {worst_norm:.2e}; "
        "null-cone vectors raise NullConeVector (documented deviation)",
    )


def test_criterion_12_full_verify_suite_deterministic():
    cmd = [sys.executable, "-m", "bicomplex", "verify", "--all", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    lines = first.stdout.decode().strip().splitlines()
    all_pass = all(json.loads(line)["pass"] for line in lines)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and len(lines) == 18
        and all_pass
        and first.stdout == second.stdout
    )
    report(12, ok, f"verify --all --seed 42: exit 0, {len(lines)} pass reports, byte-deterministic")
