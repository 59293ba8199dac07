"""Operator layer: application, composition, splitting, the two norms,
determinants, inversion, and solving."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomplex import (
    E1,
    E2,
    J,
    ONE,
    Bicomplex,
    DimensionMismatch,
    NotSquare,
    SingularOperator,
    TMatrix,
    TVector,
    sampled_sup_norm,
)

SQRT2 = math.sqrt(2.0)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def matrices(m: int, n: int):
    return st.lists(
        st.lists(st.lists(coeff, min_size=4, max_size=4), min_size=n, max_size=n),
        min_size=m,
        max_size=m,
    ).map(TMatrix)


def vectors(n: int):
    return st.lists(
        st.lists(coeff, min_size=4, max_size=4), min_size=n, max_size=n
    ).map(TVector)


def apply_oracle(T: TMatrix, x: TVector) -> TVector:
    """Brute-force application: per-entry scalar products, accumulated with
    plain coefficient expansion (no hat shortcut)."""
    rows = []
    for i in range(T.m):
        acc = Bicomplex()
        for k in range(T.n):
            acc = acc + T[i, k] * x[k]
        rows.append(acc)
    return TVector.from_scalars(rows)


def random_conditioned(rng, n, lo=0.4, hi=2.0) -> TMatrix:
    comps = []
    for _ in range(2):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        comps.append(q1 @ np.diag(rng.uniform(lo, hi, n)) @ q2.conj().T)
    return TMatrix.from_hat(comps[0], comps[1])


def test_apply_examples():
    x = TVector.from_scalars([Bicomplex(0.1, 0.2, 0.3, 0.4), J])
    one_ulp = np.finfo(np.float64).eps * (1.0 + np.max(np.abs(x.coeffs)))
    assert np.max(np.abs(TMatrix.identity(2).apply(x).coeffs - x.coeffs)) <= one_ulp
    scaled = TMatrix.scalar(2, E1).apply(x)
    want = x.scale(E1)
    assert np.max(np.abs(scaled.coeffs - want.coeffs)) <= 1e-15
    with pytest.raises(DimensionMismatch):
        TMatrix.identity(3).apply(x)


@given(matrices(3, 3), vectors(3))
@settings(max_examples=100)
def test_apply_matches_expansion_oracle(T, x):
    got = T.apply(x)
    want = apply_oracle(T, x)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * (1 + x.norm())


@given(matrices(3, 3), vectors(3))
@settings(max_examples=100)
def test_apply_acts_componentwise(T, x):
    M1, M2 = T.split()
    v1, v2 = x.split()
    y1, y2 = T.apply(x).split()
    scale = 1 + x.norm()
    assert np.max(np.abs(y1 - M1 @ v1)) <= 1e-12 * scale
    assert np.max(np.abs(y2 - M2 @ v2)) <= 1e-12 * scale


def test_compose_examples():
    A = TMatrix.scalar(2, E1)
    B = TMatrix.scalar(2, E2)
    assert np.max(np.abs((A @ B).coeffs)) == 0.0
    C = TMatrix.from_rows([[ONE, J], [E1, E2]])
    assert TMatrix.identity(2) @ C == C
    with pytest.raises(DimensionMismatch):
        TMatrix.identity(2) @ TMatrix.identity(3)


def test_split_merge_examples():
    M1, M2 = TMatrix.scalar(2, J).split()
    assert np.array_equal(M1, np.eye(2))
    assert np.array_equal(M2, -np.eye(2))
    M1, M2 = TMatrix.scalar(2, E1).split()
    assert np.array_equal(M1, np.eye(2))
    assert np.max(np.abs(M2)) == 0.0


@given(matrices(2, 3))
def test_split_merge_round_trip(T):
    back = TMatrix.from_hat(*T.split())
    one_ulp = np.finfo(np.float64).eps * (1.0 + np.max(np.abs(T.coeffs)))
    assert np.max(np.abs(back.coeffs - T.coeffs)) <= one_ulp


@given(matrices(2, 2), matrices(2, 2))
@settings(max_examples=50)
def test_compose_is_componentwise_product(A, B):
    (A1, A2), (B1, B2), (C1, C2) = A.split(), B.split(), (A @ B).split()
    scale = 1 + np.max(np.abs(A.coeffs)) * np.max(np.abs(B.coeffs))
    assert np.max(np.abs(C1 - A1 @ B1)) <= 1e-12 * scale
    assert np.max(np.abs(C2 - A2 @ B2)) <= 1e-12 * scale


def test_norm_examples():
    r = TMatrix.identity(1).norms()
    assert r.sup_norm == pytest.approx(1 / SQRT2, rel=1e-15)
    assert r.idem_norm == pytest.approx(1.0, rel=1e-15)

    r = TMatrix.scalar(2, E1).norms()
    assert r.s1 == pytest.approx(1.0, rel=1e-14) and r.s2 == pytest.approx(0.0, abs=1e-14)
    assert r.sup_norm == pytest.approx(1 / SQRT2, rel=1e-14)
    assert r.idem_norm == pytest.approx(1 / SQRT2, rel=1e-14)

    r = TMatrix.zeros(3, 2).norms()
    assert r.sup_norm == r.idem_norm == r.s1 == r.s2 == 0.0


def test_norm_report_invariants():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, n = rng.integers(1, 9, 2)
        r = TMatrix(rng.uniform(-1, 1, (int(m), int(n), 4))).norms()
        assert r.sup_norm == pytest.approx(max(r.s1, r.s2) / SQRT2, rel=1e-14)
        assert r.idem_norm == pytest.approx(math.sqrt((r.s1**2 + r.s2**2) / 2), rel=1e-14)
        assert r.sup_norm <= r.idem_norm <= SQRT2 * r.sup_norm + 1e-10


def test_norm_sandwich_attained_on_both_sides():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    one_sided = TMatrix.from_hat(M, np.zeros_like(M)).norms()
    assert one_sided.sup_norm == pytest.approx(one_sided.idem_norm, rel=1e-12)
    balanced = TMatrix.from_hat(M, M).norms()
    assert balanced.idem_norm == pytest.approx(SQRT2 * balanced.sup_norm, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_operator_norms_do_not_overflow():
    r = TMatrix.scalar(1, Bicomplex(1e200)).norms()
    assert r.idem_norm == pytest.approx(1e200, rel=1e-15)
    assert r.sup_norm <= r.idem_norm <= SQRT2 * r.sup_norm


#: Hat components of a fixed 2x2 operator.  Scaled to component norms near
#: 1e-8 or 1e8, and then by 1e-150 ... 1e150, s1^2 + s2^2 leaves the range of
#: normal floats at one end or the other.
_FIXED_HATS = (np.array([[3.0, 1j], [0.5, 2.0]]), np.array([[1.0, 0.0], [2j, -1.0]]))


@pytest.mark.parametrize("size", [1e-8, 1e8])
@given(st.integers(-150, 150).map(lambda e: 10.0 ** e))
@example(alpha=1e-150)
@example(alpha=1e150)
def test_operator_norms_are_homogeneous_at_every_magnitude(size, alpha):
    T = TMatrix.from_hat(*_FIXED_HATS).scale(size)
    want = alpha * T.norms().idem_norm
    assert T.scale(alpha).norms().idem_norm == pytest.approx(want, rel=1e-12, abs=0.0)


def test_sampling_oracle_validates_sup_norm():
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        T = TMatrix(rng.uniform(-1, 1, (m, n, 4)))
        closed_form = T.norms().sup_norm
        estimate = sampled_sup_norm(T, samples=20_000, seed=trial, refine_steps=60)
        assert estimate <= closed_form + 1e-9
        assert estimate >= 0.98 * closed_form


def test_bound_constant_examples():
    assert TMatrix.identity(1).bound_constant() == pytest.approx(1 / SQRT2, rel=1e-15)
    assert TMatrix.zeros(2, 2).bound_constant() == 0.0
    assert TMatrix.scalar(2, E1).bound_constant() == pytest.approx(1 / SQRT2, rel=1e-14)


def test_bound_constant_contract_and_tightness():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(1, 9))
        T = TMatrix(rng.uniform(-1, 1, (n, n, 4)))
        limit = SQRT2 * T.bound_constant()
        best_ratio = 0.0
        for _ in range(200):
            x = TVector(rng.uniform(-1, 1, (n, 4)))
            if x.norm() == 0.0:
                continue
            ratio = T.apply(x).norm() / x.norm()
            assert ratio <= limit + 1e-10
            best_ratio = max(best_ratio, ratio)
        # ratio maximization via the sampling oracle reaches the bound
        refined = sampled_sup_norm(T, samples=2000, seed=trial, refine_steps=80) * SQRT2
        assert refined >= 0.98 * limit
        # the e1-scaled identity attains the bound exactly at x = e1*g
        Me1 = TMatrix.scalar(n, E1)
        g = TVector(rng.uniform(-1, 1, (n, 4))).scale(E1)
        if g.norm() > 1e-6:
            attained = Me1.apply(g).norm() / g.norm()
            assert attained == pytest.approx(SQRT2 * Me1.bound_constant(), rel=1e-12)


def test_det_examples():
    assert TMatrix.identity(3).det() == ONE
    assert TMatrix.scalar(2, E1).det() == E1
    with pytest.raises(NotSquare):
        TMatrix.zeros(2, 3).det()


@given(matrices(3, 3), matrices(3, 3))
@settings(max_examples=50)
def test_det_is_multiplicative(A, B):
    lhs = (A @ B).det()
    rhs = A.det() * B.det()
    assert (lhs - rhs).norm() <= 1e-10 * (1 + rhs.norm())


def test_solve_scalar_example():
    T = TMatrix.scalar(1, Bicomplex.from_idempotent(2, 1))
    b = TVector.from_scalars([ONE])
    assert T.solve(b) == TVector.from_scalars([Bicomplex(0.75, 0, 0, -0.25)])


def test_invert_rejects_null_cone_multiplier():
    with pytest.raises(SingularOperator) as exc:
        TMatrix.scalar(3, E1).invert()
    assert exc.value.components == (2,)
    with pytest.raises(SingularOperator) as exc:
        TMatrix.scalar(3, E2).invert()
    assert exc.value.components == (1,)
    with pytest.raises(SingularOperator):
        TMatrix.scalar(2, Bicomplex()).solve(TVector.zero(2))


def test_solve_residuals_well_conditioned():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 17))
        T = random_conditioned(rng, n)
        b = TVector(rng.uniform(-1, 1, (n, 4)))
        x = T.solve(b)
        assert (T.apply(x) - b).norm() <= 1e-9 * max(1.0, b.norm())


def test_invert_round_trip_and_agreement_with_solve():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        T = random_conditioned(rng, n)
        Tinv = T.invert()
        again = Tinv.invert()
        assert np.max(np.abs(again.coeffs - T.coeffs)) <= 1e-9 * (1 + np.max(np.abs(T.coeffs)))
        b = TVector(rng.uniform(-1, 1, (n, 4)))
        assert (T.solve(b) - Tinv.apply(b)).norm() <= 1e-9 * (1 + b.norm())


def test_composition_norm_inequality_both_variants():
    rng = np.random.default_rng(29)
    for _ in range(100):
        m, k, n = (int(v) for v in rng.integers(1, 5, 3))
        A = TMatrix(rng.uniform(-1, 1, (m, k, 4)))
        B = TMatrix(rng.uniform(-1, 1, (k, n, 4)))
        ra, rb, rab = A.norms(), B.norms(), (A @ B).norms()
        assert rab.sup_norm <= SQRT2 * ra.sup_norm * rb.sup_norm + 1e-10
        assert rab.idem_norm <= SQRT2 * ra.idem_norm * rb.idem_norm + 1e-10


def test_bijective_operator_maps_balls_onto_balls():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        T = random_conditioned(rng, n)
        sv1, sv2 = T.component_singular_values()
        inner_radius = min(float(sv1[-1]), float(sv2[-1]))
        for _ in range(20):
            y = TVector(rng.uniform(-1, 1, (n, 4)))
            if y.norm() == 0.0:
                continue
            y = y.scale(0.999 * inner_radius * float(rng.uniform(0, 1)) / y.norm())
            x = T.solve(y)
            assert x.norm() <= 1.0 + 1e-9


def test_matrix_json_round_trip():
    T = TMatrix.from_rows([[ONE, J, E1], [E2, Bicomplex(0.1, -2e-7, 3.5, -0.25), ONE]])
    back = TMatrix.from_json(T.to_json())
    assert back == T
    with pytest.raises(ValueError):
        TMatrix.from_json({"m": 2, "n": 2, "entries": [[1, 0, 0, 0]]})


def test_from_hat_requires_matching_shapes():
    with pytest.raises(DimensionMismatch):
        TMatrix.from_hat(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        TMatrix.from_hat(np.ones(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        TMatrix.identity(2) + TMatrix.identity(3)


def test_split_singular_values_and_det_are_computed_once_and_read_only():
    T = random_conditioned(np.random.default_rng(37), 3)
    assert T.split() is T.split()
    assert T.component_singular_values() is T.component_singular_values()
    assert T.det() is T.det()
    M1, M2 = T.split()
    sv1, sv2 = T.component_singular_values()
    for arr in (M1, M2, sv1, sv2):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_warm_operator_gives_the_results_of_a_fresh_one():
    rng = np.random.default_rng(41)
    C = random_conditioned(rng, 4).coeffs
    b = TVector(rng.uniform(-1, 1, (4, 4)))

    def outputs(operator):
        return {
            "apply": operator().apply(b).coeffs,
            "solve": operator().solve(b).coeffs,
            "norms": np.array(list(operator().norms().to_json().values())),
            "invert": operator().invert().coeffs,
            "det": np.array(operator().det().coeffs),
        }

    warm = TMatrix(C)
    warm.norms(), warm.det(), warm.solve(b)
    fresh, warmed = outputs(lambda: TMatrix(C)), outputs(lambda: warm)
    for name in fresh:
        assert np.array_equal(fresh[name], warmed[name]), name


def test_solve_decides_each_tolerance_afresh():
    T = TMatrix.scalar(2, Bicomplex.from_idempotent(0.1, 1.0))
    b = TVector.basis(2, 0)
    with pytest.raises(SingularOperator) as exc:
        T.solve(b, tol=0.5)
    assert exc.value.components == (1,)
    assert (T.apply(T.solve(b)) - b).norm() <= 1e-15
    with pytest.raises(SingularOperator):
        T.solve(b, tol=0.5)


def test_repeated_solves_run_the_svds_and_determinants_once(monkeypatch):
    calls = {"svd": 0, "det": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    rng = np.random.default_rng(43)
    T = random_conditioned(rng, 5)
    for _ in range(10):
        T.solve(TVector(rng.uniform(-1, 1, (5, 4))))
    assert calls == {"svd": 2, "det": 2}


def test_condition_examples():
    assert TMatrix.identity(3).condition() == (1.0, 1.0)
    assert TMatrix.scalar(2, Bicomplex.from_idempotent(4, 1)).condition() == (1.0, 1.0)
    assert TMatrix.scalar(2, E1).condition() == (1.0, math.inf)
