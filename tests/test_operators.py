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
)
from bicomplex import operators
from bicomplex._floats import null_floor
from bicomplex.operators import refusal
from oracles import sampled_sup_norm

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
    C = TMatrix(np.array([[ONE.coeffs, J.coeffs], [E1.coeffs, E2.coeffs]]))
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


def test_scaling_by_a_non_real_scalar_commutes_with_apply():
    # Every part of w is nonzero, so a slip in any one of them shows.
    rng = np.random.default_rng(21)
    T = TMatrix(rng.uniform(-1, 1, (3, 2, 4)))
    x = TVector(rng.uniform(-1, 1, (2, 4)))
    w = Bicomplex(0.3, -0.7, 0.5, 1.1)
    scaled = T.scale(w)
    assert np.max(np.abs(scaled.apply(x).coeffs - T.apply(x).scale(w).coeffs)) <= 1e-14
    assert np.max(np.abs(scaled.coeffs - TMatrix.scalar(3, w).compose(T).coeffs)) <= 1e-14
    assert w * T == scaled


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
    assert TMatrix.identity(1).norms().sup_norm == pytest.approx(1 / SQRT2, rel=1e-15)
    assert TMatrix.zeros(2, 2).norms().sup_norm == 0.0
    assert TMatrix.scalar(2, E1).norms().sup_norm == pytest.approx(1 / SQRT2, rel=1e-14)


def test_bound_constant_contract_and_tightness():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(1, 9))
        T = TMatrix(rng.uniform(-1, 1, (n, n, 4)))
        limit = SQRT2 * T.norms().sup_norm
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
            assert attained == pytest.approx(SQRT2 * Me1.norms().sup_norm, rel=1e-12)


def test_det_examples():
    assert TMatrix.identity(3).det() == ONE
    assert TMatrix.scalar(2, E1).det() == E1
    for call in (TMatrix.det, TMatrix.invert, lambda T: T.solve(TVector.zero(2))):
        with pytest.raises(NotSquare):
            call(TMatrix.zeros(2, 3))


def test_a_determinant_float64_cannot_hold_raises_overflow_without_a_warning():
    # Pytest turns a RuntimeWarning from np.linalg.det into an error.
    T = TMatrix.scalar(8, 2.0**200)
    with pytest.raises(OverflowError, match="slogdet"):
        T.det()
    assert T.solve(TVector.basis(8, 0)) == TVector.basis(8, 0).scale(2.0**-200)
    assert T.invert() == TMatrix.scalar(8, 2.0**-200)


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
    with pytest.raises(DimensionMismatch, match="right-hand side dimension 2 != 1"):
        T.solve(TVector.zero(2))


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
    T = TMatrix(np.array([[ONE.coeffs, J.coeffs, E1.coeffs], [E2.coeffs, (0.1, -2e-7, 3.5, -0.25), ONE.coeffs]]))
    back = TMatrix.from_json(T.to_json())
    assert back == T
    with pytest.raises(ValueError):
        TMatrix.from_json({"m": 2, "n": 2, "entries": [[1, 0, 0, 0]]})
    for m, n in ((-1, -1), (0, 1), (1, 0)):  # m * n entries alone let (-1, -1) reach reshape
        with pytest.raises(ValueError, match=f"m and n must be at least 1, got m={m}, n={n}"):
            TMatrix.from_json({"m": m, "n": n, "entries": [[1, 0, 0, 0]]})
    for m in (1.9, True, None):  # int() read 1.9 and True as 1
        with pytest.raises(TypeError, match="dimension must be an integer"):
            TMatrix.from_json({"m": m, "n": 1, "entries": [[1, 0, 0, 0]]})
    assert TMatrix.from_json({"m": np.int64(1), "n": 1, "entries": [[1, 0, 0, 0]]}).shape == (1, 1)


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


def test_split_components_are_contiguous_and_read_only():
    # A strided component would send matmul to numpy's own loop, which rounds
    # differently from BLAS.
    rng = np.random.default_rng(47)
    T = random_conditioned(rng, 4)
    x = TVector(rng.uniform(-1, 1, (4, 4)))
    objects = [T, T @ T, T.invert(), x, T.apply(x), T.solve(x), TVector.from_split(*x.split())]
    for obj in objects:
        for component in obj.split():
            assert component.flags.c_contiguous, obj
            with pytest.raises(ValueError):
                component[0] = 0


def test_built_results_do_not_alias_the_caller_arrays():
    rng = np.random.default_rng(53)
    M1, M2 = rng.standard_normal((2, 3, 3)) + 0j
    T = TMatrix.from_hat(M1, M2)
    x = TVector.from_split(M1[0], M2[0])
    before = T.coeffs.copy(), x.coeffs.copy()
    M1[0, 0] = 99.0
    assert np.array_equal(T.coeffs, before[0]) and np.array_equal(x.coeffs, before[1])
    assert not T.coeffs.flags.writeable and not x.coeffs.flags.writeable


def test_built_results_are_still_checked_finite_and_nonempty():
    with pytest.raises(ValueError):
        TVector.from_split(np.array([np.inf + 0j]), np.array([0j]))
    with pytest.raises(ValueError):
        TMatrix.from_hat(np.full((1, 1), np.nan + 0j), np.ones((1, 1)))
    with pytest.raises(ValueError):
        TVector.from_split(np.zeros(0, complex), np.zeros(0, complex))
    with pytest.raises(ValueError):
        TMatrix.from_hat(np.zeros((0, 2), complex), np.zeros((0, 2), complex))
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        TMatrix.scalar(1, 1e300).apply(TVector([[1e300, 0.0, 0.0, 0.0]]))


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

    # Either of solve and invert may build the cached inverse the other uses.
    for warm_up in (lambda T: T.invert(), lambda T: T.solve(b)):
        warm = TMatrix(C)
        warm.norms(), warm.det(), warm_up(warm)
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


def test_solve_rejects_a_nan_tol_and_keeps_no_decision_for_it():
    T = TMatrix.identity(2)
    for _ in range(3):
        with pytest.raises(ValueError, match="nonnegative"):
            T.solve(TVector.basis(2, 0), tol=math.nan)
    assert T._refusals == {}


def _hats_with_spectra(rng, n, s1, s2):
    """Hat components U diag(s_k) V^H with random unitary U, V."""
    comps = []
    for s in (s1, s2):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        comps.append((q1 * s) @ q2.conj().T)
    return comps


def test_solve_and_invert_do_not_depend_on_a_large_scale():
    # Past about 2^128, det(2^k T) overflows float64 at n = 8; the decision is
    # relative there, so it and the solution scale exactly.
    rng = np.random.default_rng(45)
    M1, M2 = _hats_with_spectra(rng, 8, rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8))
    b = TVector(rng.uniform(-1, 1, (8, 4)))
    x, inverse = TMatrix.from_hat(M1, M2).solve(b), TMatrix.from_hat(M1, M2).invert()
    for k in range(0, 601, 5):
        T = TMatrix.from_hat(M1 * 2.0**k, M2 * 2.0**k)
        assert np.allclose(T.solve(TVector(b.coeffs * 2.0**k)).coeffs, x.coeffs, rtol=1e-12, atol=0.0)
        assert np.allclose(T.invert().coeffs * 2.0**k, inverse.coeffs, rtol=1e-12, atol=0.0)


def test_a_determinant_refusal_does_not_depend_on_a_large_scale():
    # Both components have condition number 1, but det M2 / det M1 = 1e-16.
    rng = np.random.default_rng(46)
    M1, M2 = _hats_with_spectra(rng, 8, np.ones(8), np.full(8, 1e-2))
    for k in range(0, 601, 25):
        T = TMatrix.from_hat(M1 * 2.0**k, M2 * 2.0**k)
        for attempt in (lambda: T.solve(TVector.basis(8, 0)), T.invert):
            with pytest.raises(SingularOperator) as exc:
                attempt()
            assert exc.value.components == (2,)


def _count_linalg(monkeypatch, names):
    """Count the calls of each np.linalg function in `names`, in one dict."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def test_repeated_solves_run_the_inverse_once_and_no_determinant_or_svd(monkeypatch):
    # The inverse certifies the condition number and, with the Frobenius
    # norms, the determinant, so accepting takes no SVD and no determinant;
    # solves and invert share the cached inverse and factor nothing more.
    calls = _count_linalg(monkeypatch, ("svd", "det", "inv", "solve"))
    rng = np.random.default_rng(43)
    T = random_conditioned(rng, 5)
    for _ in range(10):
        T.solve(TVector(rng.uniform(-1, 1, (5, 4))))
    T.invert()
    assert calls == {"svd": 0, "det": 0, "inv": 1, "solve": 0}
    T.norms()
    T.condition()
    assert calls == {"svd": 1, "det": 0, "inv": 1, "solve": 0}


def test_a_small_operator_is_refused_before_any_inverse_is_built(monkeypatch):
    # At scale 0.02, a component's determinant is at most (0.04)^8 and its
    # AM-GM bound (||M||_F / sqrt(n))^n is below tol = 1e-12: the guard
    # refuses it on its determinant, with one SVD for the arguments.
    calls = _count_linalg(monkeypatch, ("svd", "det", "inv", "solve"))
    M1, M2 = random_conditioned(np.random.default_rng(49), 8).split()
    T = TMatrix.from_hat(0.02 * M1, 0.02 * M2)
    for attempt in (lambda: T.solve(TVector.basis(8, 0)), T.invert):
        with pytest.raises(SingularOperator) as exc:
            attempt()
        assert exc.value.components == (1, 2) and max(exc.value.condition) <= 5.0
    assert calls == {"svd": 1, "det": 1, "inv": 0, "solve": 0}


def test_the_exact_test_decides_on_the_determinant_pair():
    # Merged into one bicomplex scalar, the determinants (2^60, 1) would lose
    # the second component: the exact test (tol = 0) accepts the operator,
    # and the relative floor at tol = 1e-12 (2^60 * 1e-12 > 1) refuses it.
    b = TVector([[1.0, 0.0, 0.0, 0.0]])
    x = TMatrix.from_hat([[2.0**60]], [[1.0]]).solve(b, tol=0.0)
    assert x.split().tolist() == [[2.0**-60], [1.0]]
    with pytest.raises(SingularOperator) as exc:
        TMatrix.from_hat([[2.0**60]], [[1.0]]).solve(b, tol=1e-12)
    assert exc.value.components == (2,) and exc.value.condition == (1.0, 1.0)


def test_scalars_and_operators_decide_the_null_cone_on_one_floor():
    # tol puts the floor on a hat magnitude m_k through either size the floor
    # was once taken from, sqrt(2)|w| or hypot(|h1|, |h2|), so the decision
    # turns on rounding: a scalar and the 1 x 1 operator with hat components
    # (h1, h2) must round it alike.
    rng = np.random.default_rng(2)
    for coeffs, scale in zip(rng.uniform(-1.0, 1.0, (2000, 4)), 2.0 ** rng.integers(-8, 9, 2000)):
        w = Bicomplex(*(coeffs * scale))
        form = w.to_idempotent()
        m = abs(form.h1), abs(form.h2)
        for size in (SQRT2 * w.norm(), math.hypot(*m)):
            for tol in (mk / max(1.0, size) for mk in m):
                why = refusal(np.array([[m[0]], [m[1]]]), (form.h1, form.h2), tol)
                assert w.classify(tol).vanishing_components == (() if why is None else tuple(why[0]))


def test_an_operator_refused_for_its_condition_alone_keeps_no_inverse(monkeypatch):
    # Singular values from 10^6.5 down to 10^-6.5: condition number 1e13 and
    # determinant modulus 1, far from the determinant floor.  The certificate
    # builds the inverse and cannot accept; the SVD refuses, and the inverse
    # is dropped.
    calls = _count_linalg(monkeypatch, ("svd", "inv"))
    s = np.logspace(6.5, -6.5, 8)
    T = TMatrix.from_hat(*_hats_with_spectra(np.random.default_rng(48), 8, s, s))
    assert not T.det().classify().is_singular
    for attempt in (lambda: T.solve(TVector.basis(8, 0)), T.invert):
        with pytest.raises(SingularOperator) as exc:
            attempt()
        assert exc.value.components == (1, 2)
    assert T._inverse is None
    assert calls == {"svd": 1, "inv": 1}


def test_a_refused_operator_builds_no_inverse(monkeypatch):
    inverses = []
    monkeypatch.setattr(np.linalg, "inv", lambda *args: inverses.append(args))
    T = TMatrix.scalar(2, E1)
    for call in (lambda: T.solve(TVector.basis(2, 0)), T.invert):
        with pytest.raises(SingularOperator):
            call()
    assert inverses == []


def _wilkinson(n):
    """The matrix of partial pivoting's worst growth factor, 2^(n-1): ones on
    the diagonal and in the last column, -1 below the diagonal."""
    W = np.eye(n) - np.tril(np.ones((n, n)), -1)
    W[:, -1] = 1.0
    return W


# log10 of a condition number, half the draws within a decade of the limit.
_LOG_KAPPA = st.one_of(st.floats(0.0, 16.0), st.floats(11.0, 13.0))


def _spectrum(rng, n, log_kappa):
    """n singular values from 10^(log_kappa/2) down to 10^(-log_kappa/2), the
    rest random and in pairs whose product is 1: condition number
    10^log_kappa, determinant modulus 1."""
    u = rng.uniform(0.0, 0.5, n // 2)
    u[:1] = 0.0
    logs = np.sort(np.concatenate([u, 1.0 - u, [0.5] * (n % 2)]))
    return 10.0 ** ((logs - 0.5) * log_kappa)


@st.composite
def _square_operators(draw):
    """Hat components (M1, M2) of one square operator, a right-hand side and
    a tol.  Each component has a prescribed spectrum (_spectrum) and its own
    scale, whose determinant ratio 2^(j1 - j2), up to 2^600, crosses the
    null-cone test; M2 may instead be rank deficient or have a zero row, M1
    may be the Wilkinson matrix times a spectrum (a column scaling, which
    keeps its pivots), or both may have equal singular values with |det M2|
    at the guard's threshold, to rounding, where the AM-GM bounds on the
    determinants are tight.  All but the last are then scaled by 2^k."""
    n = draw(st.integers(0, 39).map(lambda i: 64 if i < 2 else 128 if i == 2 else 1 + i % 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spectra"] * 5 + ["rank-deficient", "zero-row", "wilkinson"] + ["threshold"] * 2))
    if kind == "threshold":
        tol = draw(st.sampled_from([1e-12, 1e-4]))
        d1 = 2.0 ** draw(st.integers(-8, 60))
        d2 = tol * max(1.0, d1 / math.sqrt(1.0 - tol * tol)) * (1.0 + draw(st.integers(-2, 2)) * n * 2.0**-52)
        M1, M2 = _hats_with_spectra(rng, n, np.full(n, d1 ** (1 / n)), np.full(n, d2 ** (1 / n)))
        return M1, M2, TVector(rng.uniform(-1.0, 1.0, (n, 4))), tol
    spectra = [_spectrum(rng, n, draw(_LOG_KAPPA)) for _ in range(2)]
    if kind == "rank-deficient":
        spectra[1][n - draw(st.integers(1, n)):] = 0.0
    M1, M2 = _hats_with_spectra(rng, n, *spectra)
    if kind == "zero-row":
        M2[draw(st.integers(0, n - 1))] = 0.0
    if kind == "wilkinson":
        M1 = _wilkinson(n) * spectra[0] / 2.0 ** ((n - 1) / n)
    k = draw(st.one_of(st.integers(-498, 498), st.integers(-8, 8)))
    shift = st.one_of(st.integers(-48, 48), st.integers(-300, 300))
    M1, M2 = (M * 2.0 ** (k + draw(shift) / n) for M in (M1, M2))
    b = TVector(rng.uniform(-1.0, 1.0, (n, 4)) * 2.0**k)
    return M1, M2, b, draw(st.sampled_from([1e-12, 0.0, 1e-4]))


@settings(max_examples=400, deadline=None)
@given(_square_operators())
def test_solve_decides_as_the_svd_guard_does_and_gives_the_same_bits(case):
    # The certificate accepts without an SVD or, mostly, a determinant; it
    # must accept exactly what the guard on the singular values and the
    # determinant pair accepts, and build the same inverse.
    M1, M2, b, tol = case
    twin = TMatrix.from_hat(M1, M2)
    expected = refusal(twin.component_singular_values(), twin._guard_det(), tol)
    fresh, warm = TMatrix.from_hat(M1, M2), TMatrix.from_hat(M1, M2)
    warm.norms()
    outcomes = []
    for T in (fresh, warm):
        try:
            outcomes.append(T.solve(b, tol).coeffs.tobytes())
        except SingularOperator as exc:
            outcomes.append((exc.components, exc.smallest, exc.condition))
    if expected is None:
        assert isinstance(outcomes[0], bytes)
    else:
        assert outcomes[0] == tuple(map(tuple, expected))
    assert outcomes[0] == outcomes[1]


def _with_one_small_singular_value(rng, n, kappa):
    """Hat components U diag(1, ..., 1, 1/kappa) V^H: condition number kappa,
    determinant modulus 1/kappa, far above the determinant floor."""
    s = np.ones(n)
    s[-1] = 1.0 / kappa
    return TMatrix.from_hat(*_hats_with_spectra(rng, n, s, s))


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e11])
@pytest.mark.parametrize("n", [8, 64])
def test_solve_has_the_backward_error_of_an_lu_solve(n, kappa):
    # b = T v with v along each component's top right singular vector: the
    # right-hand side on which an unrefined inverse-apply errs most.
    rng = np.random.default_rng([n, int(math.log10(kappa))])
    T = _with_one_small_singular_value(rng, n, kappa)
    tops = [np.linalg.svd(M)[2][0].conj() for M in T.split()]
    b = T.apply(TVector.from_split(*tops))
    x = T.solve(b)
    for M, xk, bk in zip(T.split(), x.split(), b.split()):
        backward = np.linalg.norm(M @ xk - bk) / (np.linalg.norm(M, 2) * np.linalg.norm(xk))
        assert backward <= 1e-13


def test_repeated_solves_classify_the_determinant_once_per_tolerance(monkeypatch):
    # Singular values from 10^3 down to 10^-3 in pairs: |det M_k| = 1, but its
    # AM-GM lower bound is about 1e-21, so the certificate falls back to the
    # determinant pair, once per tol.
    calls = []
    vanishing = operators.vanishing

    def counted(m1, m2, threshold):
        calls.append(threshold)
        return vanishing(m1, m2, threshold)

    monkeypatch.setattr(operators, "vanishing", counted)
    s = np.logspace(3, -3, 8)
    T = TMatrix.from_hat(*_hats_with_spectra(np.random.default_rng(44), 8, s, s))
    rng = np.random.default_rng(44)
    for _ in range(10):
        T.solve(TVector(rng.uniform(-1, 1, (8, 4))))
    T.invert()
    floors = [null_floor(*map(abs, T._component_dets()), tol) for tol in (1e-12, 1e-6)]
    assert calls == floors[:1]
    T.solve(TVector.basis(8, 0), tol=1e-6)
    T.solve(TVector.basis(8, 1), tol=1e-6)
    assert calls == floors
    assert T._singular_values is None


def test_a_refused_operator_raises_the_same_refusal_every_time():
    T = TMatrix.scalar(3, Bicomplex.from_idempotent(0.0, 2.0))
    b = TVector.basis(3, 0)
    raised = []
    for _ in range(3):
        for attempt in (lambda: T.solve(b), T.invert):
            with pytest.raises(SingularOperator) as exc:
                attempt()
            raised.append(exc.value)
    assert len({id(e) for e in raised}) == len(raised)
    first = raised[0]
    assert first.components == (1,) and first.smallest == (0.0, 2.0) and first.condition == (math.inf, 1.0)
    def fields(e):
        return e.args, e.components, e.smallest, e.condition

    assert all(fields(e) == fields(first) for e in raised[1:])


def test_condition_examples():
    assert TMatrix.identity(3).condition() == (1.0, 1.0)
    assert TMatrix.scalar(2, Bicomplex.from_idempotent(4, 1)).condition() == (1.0, 1.0)
    assert TMatrix.scalar(2, E1).condition() == (1.0, math.inf)
