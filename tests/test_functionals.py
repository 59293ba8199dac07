"""Functionals layer: evaluation, real-part decomposition, lifting,
extension with norm preservation, separation, and norming."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomplex import (
    E1,
    E2,
    IOTA1,
    IOTA2,
    J,
    ONE,
    Bicomplex,
    ComponentInNullDistance,
    DimensionMismatch,
    InconsistentFunctional,
    NullConeVector,
    RealLinearFunctional,
    Submodule,
    TFunctional,
    TMatrix,
    TVector,
    hahn_banach_extend,
    lift_real,
    norming_functional,
    separating_functional,
)

SQRT2 = math.sqrt(2.0)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
scalars = st.builds(Bicomplex, coeff, coeff, coeff, coeff)


def vectors(n: int):
    return st.lists(
        st.lists(coeff, min_size=4, max_size=4), min_size=n, max_size=n
    ).map(TVector)


def functionals(n: int):
    return vectors(n).map(TFunctional)


def test_eval_examples():
    f = TFunctional.coordinate(3, 1)
    assert f(TVector.basis(3, 1)) == ONE
    assert f(TVector.basis(3, 0)) == Bicomplex()
    with pytest.raises(DimensionMismatch):
        f(TVector.basis(2, 0))


@given(vectors(3))
def test_ideal_functionals_land_in_the_ideal(x):
    f = TFunctional.coordinate(3, 0).scale(E1)
    value = f(x)
    # values of e1-scaled functionals have no second hat component
    assert abs(value.to_idempotent().h2) <= 1e-14 * (1 + x.norm())


@given(scalars, functionals(3), vectors(3))
@settings(max_examples=150)
def test_eval_is_ring_homogeneous(w, f, x):
    lhs = f(x.scale(w))
    rhs = w * f(x)
    assert (lhs - rhs).norm() <= 1e-12 * (1 + rhs.norm())


@given(functionals(3), vectors(3), vectors(3))
def test_eval_is_additive(f, x, y):
    lhs = f(x + y)
    rhs = f(x) + f(y)
    assert (lhs - rhs).norm() <= 1e-12 * (1 + rhs.norm())


def test_real_parts_examples():
    f = TFunctional.coordinate(1, 0)
    f1, f2, f3, f4 = f.real_parts()
    w = TVector.from_scalars([Bicomplex(0.3, -0.7, 0.2, 0.9)])
    assert f1(w) == 0.3
    assert f2(w) == -0.7
    assert f3(w) == 0.2
    assert f4(w) == 0.9

    g = TFunctional.coordinate(1, 0).scale(IOTA1)
    g1 = g.real_parts()[0]
    assert g1(w) == 0.7  # extracts -b


@given(functionals(2), vectors(2))
@settings(max_examples=150)
def test_real_parts_reassemble_the_value(f, y):
    f1, f2, f3, f4 = f.real_parts()
    value = f(y)
    assembled = Bicomplex(f1(y), f2(y), f3(y), f4(y))
    assert (value - assembled).norm() <= 1e-12 * (1 + value.norm())


@given(functionals(2), vectors(2))
@settings(max_examples=150)
def test_component_relations(f, y):
    f1, f2, f3, f4 = f.real_parts()
    tol = 1e-12 * (1 + y.norm())
    assert abs(f2(y) + f1(y.scale(IOTA1))) <= tol
    assert abs(f3(y) + f1(y.scale(IOTA2))) <= tol
    assert abs(f4(y) - f1(y.scale(J))) <= tol


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_functional_norms_equal_those_of_its_one_row_operator(n):
    coeffs = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 4))
    as_functional = TFunctional(TVector(coeffs)).norms()
    as_operator = TMatrix(coeffs[None]).norms()
    for field in ("sup_norm", "idem_norm", "s1", "s2"):
        expected = getattr(as_operator, field)
        assert getattr(as_functional, field) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_lift_real_examples():
    # the a-extracting functional lifts to the identity functional
    F1 = RealLinearFunctional([[1.0, 0.0, 0.0, 0.0]])
    lifted = lift_real(F1)
    assert lifted.coeffs == TVector.from_scalars([ONE])
    w = TVector.from_scalars([Bicomplex(0.3, -0.7, 0.2, 0.9)])
    assert (lifted(w) - w[0]).norm() <= 2.3e-16 * (1 + w.norm())

    assert lift_real(RealLinearFunctional.zero(3)).coeffs == TVector.zero(3)


@given(functionals(3))
def test_lift_round_trip_is_exact(g):
    assert lift_real(g.real_parts()[0]) == g


@given(st.lists(st.lists(coeff, min_size=4, max_size=4), min_size=2, max_size=2), vectors(2))
@settings(max_examples=150)
def test_lift_satisfies_the_four_term_formula(rows, x):
    F1 = RealLinearFunctional(rows)
    lifted = lift_real(F1)
    want = (
        Bicomplex(F1(x))
        - IOTA1 * F1(x.scale(IOTA1))
        - IOTA2 * F1(x.scale(IOTA2))
        + J * F1(x.scale(J))
    )
    assert (lifted(x) - want).norm() <= 1e-12 * (1 + want.norm())


@given(st.lists(st.lists(coeff, min_size=4, max_size=4), min_size=2, max_size=2), vectors(2))
@settings(max_examples=100)
def test_lift_is_ring_linear(rows, x):
    lifted = lift_real(RealLinearFunctional(rows))
    for unit in (IOTA1, IOTA2, J):
        lhs = lifted(x.scale(unit))
        rhs = unit * lifted(x)
        assert (lhs - rhs).norm() <= 1e-12 * (1 + rhs.norm())


def test_hahn_banach_full_space_is_identity():
    ystar = TFunctional(TVector.from_scalars([Bicomplex(0.1, 0.2, 0.3, 0.4), J]))
    report = hahn_banach_extend(ystar, Submodule.full(2))
    assert np.max(np.abs(report.extension.coeffs.coeffs - ystar.coeffs.coeffs)) <= 1e-12
    assert report.restriction_error <= 1e-12


def test_hahn_banach_axis_example():
    Y = Submodule.span(TVector.basis(2, 0))
    ystar = TFunctional.coordinate(2, 0)
    report = hahn_banach_extend(ystar, Y)
    assert np.max(np.abs(report.extension.coeffs.coeffs - ystar.coeffs.coeffs)) <= 1e-12
    assert report.y_component_norms == pytest.approx(report.x_component_norms, abs=1e-12)
    assert report.y_norms.idem_norm == pytest.approx(1.0, abs=1e-12)


def test_hahn_banach_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        count = int(rng.integers(1, n + 1))
        Y = Submodule(n, [TVector(rng.uniform(-1, 1, (n, 4))) for _ in range(count)])
        ystar = TFunctional(TVector(rng.uniform(-1, 1, (n, 4))))
        report = hahn_banach_extend(ystar, Y)
        scale = 1 + report.y_norms.idem_norm
        assert report.restriction_error <= 1e-10 * scale
        for yc, xc in zip(report.y_component_norms, report.x_component_norms):
            assert abs(yc - xc) <= 1e-10 * (1 + yc)
        assert abs(report.y_norms.idem_norm - report.x_norms.idem_norm) <= 1e-10 * scale
        # restriction agreement on sampled submodule points
        for _ in range(10):
            y = Y.project(TVector(rng.uniform(-1, 1, (n, 4))))
            diff = report.extension(y) - ystar(y)
            assert diff.norm() <= 1e-10 * (1 + ystar(y).norm())


def test_from_generator_values_consistent_case():
    g = TVector.from_scalars([ONE, J])
    Y = Submodule.span(g)
    target = Bicomplex(0.5, 0.25, -0.75, 1.0)
    f = TFunctional.from_generator_values(Y, [target])
    assert (f(g) - target).norm() <= 1e-12


def test_from_generator_values_inconsistent_case():
    g = TVector.from_scalars([ONE, J])
    Y = Submodule(2, [g, g.scale(Bicomplex(2.0))])
    # f(g) = 1 forces f(2g) = 2, so prescribing 3 is inconsistent
    with pytest.raises(InconsistentFunctional):
        TFunctional.from_generator_values(Y, [ONE, Bicomplex(3.0)])
    # consistent values pass through hahn_banach_extend
    report = hahn_banach_extend([ONE, Bicomplex(2.0)], Y)
    assert (report.extension(g) - ONE).norm() <= 1e-10


def test_separating_functional_examples():
    f = separating_functional(TVector.from_scalars([ONE]), Submodule.zero(1))
    assert (f.functional(TVector.from_scalars([ONE])) - ONE).norm() <= 1e-12
    assert f.norms.idem_norm == pytest.approx(1.0, abs=1e-12)

    Y = Submodule.span(TVector.basis(2, 0))
    x = TVector.basis(2, 1)
    result = separating_functional(x, Y)
    assert result.d == pytest.approx(1.0, abs=1e-12)
    assert (result.functional(x) - ONE).norm() <= 1e-10
    assert result.norms.idem_norm == pytest.approx(1.0, abs=1e-10)
    assert result.claimed_norm == pytest.approx(1.0, abs=1e-10)


def test_separating_functional_annihilates_submodule():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        Y = Submodule(n, [TVector(rng.uniform(-1, 1, (n, 4)))])
        x = TVector(rng.uniform(-1, 1, (n, 4)))
        try:
            result = separating_functional(x, Y)
        except ComponentInNullDistance:
            continue
        assert (result.functional(x) - ONE).norm() <= 1e-10 * (1 + 1 / min(result.d1, result.d2))
        for _ in range(10):
            y = Y.project(TVector(rng.uniform(-1, 1, (n, 4))))
            assert result.functional(y).norm() <= 1e-10 * (1 + y.norm() / min(result.d1, result.d2))


def test_separating_functional_null_distance_component():
    # x = e1*g against the zero submodule: second component distance vanishes
    x = TVector.from_scalars([Bicomplex(0.4, -0.3, 0.2, 0.6)]).scale(E1)
    with pytest.raises(ComponentInNullDistance) as exc:
        separating_functional(x, Submodule.zero(1))
    assert exc.value.components == (2,)


def test_norming_functional_examples():
    r = norming_functional(TVector.from_scalars([ONE]))
    assert (r.value - ONE).norm() <= 1e-12
    assert r.norms.idem_norm == pytest.approx(1.0, abs=1e-12)

    x = TVector.from_scalars([J])
    r = norming_functional(x)
    assert np.max(np.abs(r.functional.coeffs.coeffs - np.array([[0.0, 0.0, 0.0, 1.0]]))) <= 1e-15
    assert (r.value - Bicomplex(x.norm())).norm() <= 1e-12
    assert r.norms.idem_norm == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(NullConeVector) as exc:
        norming_functional(TVector.from_scalars([E1]))
    assert exc.value.components == (2,)


def test_norming_functional_balanced_vectors():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        v1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v2 *= np.linalg.norm(v1) / np.linalg.norm(v2)
        x = TVector.from_split(v1, v2)
        r = norming_functional(x)
        assert r.balanced
        assert (r.value - Bicomplex(x.norm())).norm() <= 1e-10 * (1 + x.norm())
        assert abs(r.norms.idem_norm - 1.0) <= 1e-10


def test_norming_functional_unbalanced_reports_measured_norms():
    x = TVector.from_split(np.array([2.0 + 0j]), np.array([1.0 + 0j]))
    r = norming_functional(x)
    assert not r.balanced
    assert (r.value - Bicomplex(x.norm())).norm() <= 1e-12
    # achieved norms are reported, not forced to 1
    assert r.norms.idem_norm != pytest.approx(1.0, abs=1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_component_norms_are_scale_safe(scale):
    x = TVector([[scale, 0, 0, 0], [0, 0, 0, 0]])
    exact = pytest.approx((scale, scale), rel=1e-15, abs=0.0)
    result = Submodule(2, [TVector.basis(2, 1)]).distance_to(x)
    assert (result.d1, result.d2) == exact
    assert result.d == pytest.approx(scale, rel=1e-15, abs=0.0)
    f = TFunctional(x)
    assert f.component_norms() == exact
    assert f.restricted_component_norms(Submodule.full(2)) == exact


@pytest.mark.filterwarnings("error")
def test_norming_functional_does_not_overflow():
    r = norming_functional(TVector([[1e200, 0, 0, 0], [0, 0, 0, 0]]))
    assert r.value.coeffs == pytest.approx((1e200, 0, 0, 0), rel=1e-15, abs=0.0)
    assert r.norms.idem_norm == pytest.approx(1.0, rel=1e-15, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_separating_functional_does_not_overflow():
    x = TVector([[0, 0, 0, 0], [1e200, 0, 0, 0]])
    result = separating_functional(x, Submodule(2, [TVector.basis(2, 0)]))
    assert (result.d1, result.d2) == pytest.approx((1e200, 1e200), rel=1e-15, abs=0.0)
    assert result.functional(x).coeffs == pytest.approx((1, 0, 0, 0), rel=1e-15, abs=0.0)
    assert result.functional(TVector.basis(2, 0)).coeffs == (0, 0, 0, 0)
    assert result.norms.idem_norm == pytest.approx(1e-200, rel=1e-15, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extension_from_generator_values_is_scale_safe(scale):
    report = hahn_banach_extend([Bicomplex(scale)], Submodule(2, [TVector.basis(2, 0)]))
    value = report.extension(TVector.basis(2, 0))
    assert value.coeffs == pytest.approx((scale, 0, 0, 0), rel=1e-15, abs=0.0)
    assert report.extension(TVector.basis(2, 1)).coeffs == (0, 0, 0, 0)
    exact = pytest.approx((scale, scale), rel=1e-15, abs=0.0)
    assert report.y_component_norms == exact
    assert report.x_component_norms == exact
    assert report.restriction_error == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extension_restriction_error_is_scale_safe(scale):
    Y = Submodule(2, [TVector([[1, 0, 0, 0], [0.3, 0.2, 0, 0.1]])])
    coeffs = np.array([[0.7, 0.1, 0, 0], [0.2, 0, 0.3, 0]])
    unit = hahn_banach_extend(TFunctional(TVector(coeffs)), Y)
    report = hahn_banach_extend(TFunctional(TVector(coeffs * scale)), Y)
    assert report.restriction_error <= 1e-15 * report.y_norms.idem_norm
    exact = pytest.approx(tuple(scale * v for v in unit.y_component_norms), rel=1e-15, abs=0.0)
    assert report.y_component_norms == exact
    assert report.x_component_norms == exact
    probe = TVector([[0.5, -0.25, 0.125, 1.0], [-1.0, 0.75, 0.0, 0.5]])
    assert report.extension(probe).coeffs == pytest.approx(
        tuple(scale * v for v in unit.extension(probe).coeffs), rel=1e-14, abs=0.0
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_null_cone_decisions_hold_at_extreme_scales(scale):
    x = TVector([[0, 0, 0, 0], [scale, 0, 0, 0]])
    result = separating_functional(x, Submodule(2, [TVector.basis(2, 0)]))
    assert result.functional(x).coeffs == pytest.approx((1, 0, 0, 0), rel=1e-15, abs=0.0)
    r = norming_functional(x)
    assert r.value.coeffs == pytest.approx((scale, 0, 0, 0), rel=1e-15, abs=0.0)
    with pytest.raises(NullConeVector):
        norming_functional(x.scale(E1))
    with pytest.raises(ComponentInNullDistance):
        separating_functional(x.scale(E1), Submodule.zero(2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_norming_balance_is_relative_to_the_vector(scale):
    assert norming_functional(TVector.from_split(np.array([scale + 0j]), np.array([scale + 0j]))).balanced
    assert not norming_functional(TVector.from_split(np.array([2 * scale + 0j]), np.array([scale + 0j]))).balanced


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_generator_value_consistency_is_relative_to_the_values(scale):
    g = TVector.from_scalars([ONE, J])
    Y = Submodule(2, [g, g.scale(Bicomplex(2.0))])
    with pytest.raises(InconsistentFunctional):
        TFunctional.from_generator_values(Y, [Bicomplex(scale), Bicomplex(3 * scale)])
    f = TFunctional.from_generator_values(Y, [Bicomplex(scale), Bicomplex(2 * scale)])
    assert f(g).coeffs == pytest.approx((scale, 0, 0, 0), rel=1e-14, abs=0.0)


# Entries are 0 or at least 1e-100 in magnitude, so that multiplying by 2^k
# with |k| <= 498 (about 1e-150 to 1e150) is exact.
normal_coeff = coeff.filter(lambda v: v == 0.0 or abs(v) >= 1e-100)
normal_rows = st.lists(st.lists(normal_coeff, min_size=4, max_size=4), min_size=3, max_size=3).map(TVector)
powers_of_two = st.integers(-498, 498).map(lambda k: 2.0**k)


def _refused(fn, *args):
    """The components fn refuses, or () when it succeeds."""
    try:
        fn(*args)
    except (ComponentInNullDistance, NullConeVector) as exc:
        return exc.components
    return ()


@given(st.one_of(normal_rows, normal_rows.map(lambda x: x.scale(E1))), powers_of_two)
@settings(max_examples=60)
def test_null_cone_decisions_are_invariant_under_scaling(x, c):
    Y = Submodule.span(TVector.basis(3, 0))
    scaled = TVector(x.coeffs * c)
    assert _refused(separating_functional, scaled, Y) == _refused(separating_functional, x, Y)
    assert _refused(norming_functional, scaled) == _refused(norming_functional, x)


def _balanced(x):
    """Whether norming_functional finds x balanced, or None when it refuses x."""
    try:
        return norming_functional(x).balanced
    except NullConeVector:
        return None


# Rows with c = d = 0 have equal hat components, so they are balanced.
@given(st.one_of(normal_rows, normal_rows.map(lambda x: TVector(x.coeffs * [1, 1, 0, 0]))), powers_of_two)
@settings(max_examples=60)
def test_norming_balance_is_invariant_under_scaling(x, c):
    assert _balanced(TVector(x.coeffs * c)) == _balanced(x)


def _consistent(Y, values) -> bool:
    try:
        TFunctional.from_generator_values(Y, values)
    except InconsistentFunctional:
        return False
    return True


@given(
    st.lists(normal_coeff, min_size=4, max_size=4),
    st.one_of(st.none(), st.lists(normal_coeff, min_size=4, max_size=4)),
    powers_of_two,
)
@settings(max_examples=60)
def test_generator_value_consistency_is_invariant_under_scaling(a, b, c):
    g = TVector.from_scalars([ONE, J])
    Y = Submodule(2, [g, g.scale(Bicomplex(2.0))])
    # b of None prescribes the consistent value f(2g) = 2 f(g)
    values = np.array([a, np.multiply(a, 2.0) if b is None else b])
    assert _consistent(Y, [Bicomplex(*v) for v in values * c]) == _consistent(Y, [Bicomplex(*v) for v in values])


def test_dual_space_completeness_shadow():
    # a Cauchy sequence of functionals converges in the idempotent norm
    rng = np.random.default_rng(43)
    base = TFunctional(TVector(rng.uniform(-1, 1, (4, 4))))
    bump = TFunctional(TVector(rng.uniform(-1, 1, (4, 4))))
    terms = [base + bump.scale(2.0 ** -k) for k in range(1, 46)]
    norms = [(t - base).norms().idem_norm for t in terms]
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 1e-10
    tail = (terms[-1] - base).norms().idem_norm
    assert abs(terms[-1].norms().idem_norm - base.norms().idem_norm) <= tail + 1e-12


def test_functional_json_round_trip_and_validation():
    f = TFunctional(TVector.from_scalars([Bicomplex(0.5, -0.25, 0.125, -1.0), J]))
    assert TFunctional.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        TFunctional.from_json({"n": 3, "coeffs": f.coeffs.to_json()})


def test_extension_report_json_round_trips_the_extension():
    Y = Submodule.span(TVector.from_scalars([ONE, J]))
    report = hahn_banach_extend(TFunctional.coordinate(2, 1), Y)
    payload = report.to_json()
    back = TFunctional.from_json(payload["extension"])
    assert back == report.extension
