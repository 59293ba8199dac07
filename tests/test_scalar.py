"""Scalar layer: ring arithmetic, norms, idempotent decomposition,
singularity classification, and inversion."""

import copy
import math
import pickle
import warnings

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
    ZERO,
    Bicomplex,
    IdempotentForm,
    SingularElement,
    SingularityReport,
    TVector,
)
from bicomplex._arrays import hat_merge, mul4, real_block_matrix

SQRT2 = math.sqrt(2.0)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
scalars = st.builds(Bicomplex, coeff, coeff, coeff, coeff)


# --- independent oracle: multiplication via the basis product table ----------

# basis order (1, i1, i2, j); table[p][q] = (index, sign) of basis_p * basis_q
_BASIS_TABLE = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 0): (2, 1), (2, 1): (3, 1), (2, 2): (0, -1), (2, 3): (1, -1),
    (3, 0): (3, 1), (3, 1): (2, -1), (3, 2): (1, -1), (3, 3): (0, 1),
}


def mul_oracle(w: Bicomplex, v: Bicomplex) -> Bicomplex:
    out = [0.0, 0.0, 0.0, 0.0]
    wc, vc = w.coeffs, v.coeffs
    for p in range(4):
        for q in range(4):
            idx, sign = _BASIS_TABLE[(p, q)]
            out[idx] += sign * wc[p] * vc[q]
    return Bicomplex(*out)


#: Coefficients and hat components wide in magnitude, yet with finite products.
wide = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False)
wide_complex = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)


@given(st.lists(wide, min_size=4, max_size=4), st.lists(wide, min_size=4, max_size=4))
def test_scalar_product_is_the_array_product_to_the_bit(w, v):
    assert (Bicomplex(*w) * Bicomplex(*v)).coeffs == tuple(mul4(np.array(w), np.array(v)))


@given(wide_complex, wide_complex)
def test_from_idempotent_is_hat_merge_to_the_bit(h1, h2):
    assert Bicomplex.from_idempotent(h1, h2).coeffs == tuple(hat_merge(h1, h2))


def test_idempotent_identities_exact():
    assert E1 * E1 == E1
    assert E2 * E2 == E2
    assert E1 * E2 == ZERO
    assert E1 + E2 == ONE
    assert J * J == ONE


def test_unit_squares():
    assert IOTA1 * IOTA1 == -ONE
    assert IOTA2 * IOTA2 == -ONE
    assert IOTA1 * IOTA2 == J


def test_constructor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Bicomplex(float("nan"))
    with pytest.raises(ValueError):
        Bicomplex(0.0, float("inf"))


@given(scalars, scalars)
def test_mul_matches_basis_table_oracle(w, v):
    got = w * v
    want = mul_oracle(w, v)
    assert max(abs(g - e) for g, e in zip(got.coeffs, want.coeffs)) <= 1e-15


@given(scalars, scalars, scalars)
@settings(max_examples=200)
def test_ring_axioms(s, t, u):
    per_coeff = lambda x, y: max(abs(a - b) for a, b in zip(x.coeffs, y.coeffs))
    assert per_coeff((s * t) * u, s * (t * u)) <= 1e-13
    assert per_coeff(s * t, t * s) <= 1e-13
    assert per_coeff(s * (t + u), s * t + s * u) <= 1e-13
    assert per_coeff((s + t) + u, s + (t + u)) <= 1e-13


def test_idempotent_examples():
    assert J.to_idempotent() == IdempotentForm(1 + 0j, -1 + 0j)
    assert E1.to_idempotent() == IdempotentForm(1 + 0j, 0j)


def test_idempotent_round_trip_is_tight():
    w = Bicomplex(0.1, 0.7, -0.3, 0.9)
    back = w.to_idempotent().to_bicomplex()
    one_ulp = 2.3e-16 * (1 + max(abs(v) for v in w.coeffs))
    assert max(abs(a - b) for a, b in zip(w.coeffs, back.coeffs)) <= one_ulp


def test_hat_components_multiply_componentwise_example():
    w = ONE + IOTA2
    v = J
    left = (w * v).to_idempotent()
    hw, hv = w.to_idempotent(), v.to_idempotent()
    assert left.h1 == hw.h1 * hv.h1 == 1 - 1j
    assert left.h2 == hw.h2 * hv.h2 == -1 - 1j
    assert hw * hv == left


@given(scalars, scalars)
def test_hat_components_multiply_componentwise(w, v):
    left = (w * v).to_idempotent()
    hw, hv = w.to_idempotent(), v.to_idempotent()
    assert abs(left.h1 - hw.h1 * hv.h1) <= 1e-13
    assert abs(left.h2 - hw.h2 * hv.h2) <= 1e-13


def test_norm_values():
    assert Bicomplex(1, 1, 1, 1).norm() == 2.0
    assert E1.norm() == pytest.approx(1 / SQRT2, rel=1e-15)
    assert E2.norm() == pytest.approx(1 / SQRT2, rel=1e-15)
    assert ZERO.norm() == 0.0


def test_norm_idem_values():
    assert IdempotentForm(1, 0).norm() == pytest.approx(1 / SQRT2, rel=1e-15)
    assert IdempotentForm(1, 1).norm() == pytest.approx(1.0, rel=1e-15)
    assert IdempotentForm(3, 4).norm() == pytest.approx(math.sqrt(12.5), rel=1e-15)


#: Coefficients of magnitude 1e-300 to 1e300, as a unit-sized value and a
#: power-of-ten scale, so that scaling loses no digits to underflow.
unit_coeff = st.one_of(st.just(0.0), st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
magnitudes = st.integers(-300, 300).map(lambda e: 10.0 ** e)


@pytest.mark.filterwarnings("error")
def test_norms_do_not_overflow_or_underflow():
    w = Bicomplex(1e200, 0, 0, 0)
    assert w.norm() == 1e200
    assert w.to_idempotent().norm() == pytest.approx(1e200, rel=1e-15)
    assert w.classify().vanishing_components == ()
    assert Bicomplex(1e-200, 0, 0, 0).norm() == 1e-200
    assert IdempotentForm(1e-200, 0).norm() == pytest.approx(1e-200 / SQRT2, rel=1e-15)


@given(st.builds(Bicomplex, unit_coeff, unit_coeff, unit_coeff, unit_coeff), magnitudes)
def test_norms_are_homogeneous_at_every_magnitude(w, alpha):
    scaled = Bicomplex(*(alpha * c for c in w.coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm, idem_norm = scaled.norm(), scaled.to_idempotent().norm()
    assert math.isfinite(norm)
    assert norm == pytest.approx(alpha * w.norm(), rel=1e-12, abs=0.0)
    assert idem_norm == pytest.approx(alpha * w.norm(), rel=1e-12, abs=0.0)


@given(scalars)
def test_norm_identity(w):
    assert abs(w.norm() - w.to_idempotent().norm()) <= 1e-12 * (1 + w.norm())


@given(scalars, scalars)
def test_submultiplicative(s, t):
    assert (s * t).norm() <= SQRT2 * s.norm() * t.norm() + 1e-12


def test_submultiplicative_bound_attained_at_e1():
    ratio = (E1 * E1).norm() / (E1.norm() * E1.norm())
    assert abs(ratio - SQRT2) <= 1e-14


def test_classify_examples():
    r = E1.classify(0.0)
    assert r.is_singular and r.vanishing_components == (2,)
    assert not ONE.classify(0.0).is_singular
    r = (ONE + J).classify(0.0)
    assert r.is_singular and r.vanishing_components == (2,)
    assert ZERO.classify(0.0).vanishing_components == (1, 2)


def test_classify_rejects_negative_tol():
    with pytest.raises(ValueError):
        ONE.classify(-1.0)


def test_classify_and_inverse_reject_a_nan_tol():
    # e1 is on the null cone: a NaN threshold would report it non-singular.
    for w in (ONE, E1):
        with pytest.raises(ValueError, match="nonnegative"):
            w.classify(math.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            w.inverse(math.nan)


def real_system_singular_values(w: Bicomplex) -> np.ndarray:
    """Oracle: the 4x4 real system for w*x = 1; its solvability margin is
    its smallest singular value."""
    R = real_block_matrix(np.array(w.coeffs).reshape(1, 1, 4))
    return np.linalg.svd(R, compute_uv=False)


@given(scalars)
@settings(max_examples=200)
def test_solvability_margin_is_smallest_hat_magnitude(w):
    s = real_system_singular_values(w)
    m1, m2 = w.classify(0.0).magnitudes
    scale = 1.0 + max(m1, m2)
    assert abs(s[0] - max(m1, m2)) <= 1e-12 * scale
    assert abs(s[-1] - min(m1, m2)) <= 1e-12 * scale


def test_singular_scalars_give_unsolvable_systems():
    for w in (E1, E2, J * E1, ZERO, Bicomplex(1, 0, 0, 1)):
        assert w.classify(0.0).is_singular
        s = real_system_singular_values(w)
        assert s[-1] <= 1e-12 * max(1.0, s[0])


@given(scalars)
@settings(max_examples=200)
def test_nonsingular_scalars_give_solvable_systems(w):
    report = w.classify(0.0)
    if min(report.magnitudes) < 1e-3:
        return
    s = real_system_singular_values(w)
    assert s[-1] > 1e-4
    assert not report.is_singular


def test_inverse_examples():
    w = Bicomplex.from_idempotent(2, 1)
    assert w.inverse() == Bicomplex(0.75, 0.0, 0.0, -0.25)
    assert J.inverse() == J
    with pytest.raises(SingularElement) as exc:
        E1.inverse()
    assert exc.value.report.vanishing_components == (2,)


@given(scalars)
@settings(max_examples=300)
def test_inverse_correctness(w):
    report = w.classify(0.0)
    if min(report.magnitudes) < 1e-3:
        return
    residual = (w * w.inverse() - ONE).norm()
    assert residual <= 1e-10 * w.condition()


def test_text_round_trip():
    w = Bicomplex(0.1, -2.5e-3, 3.0, -4.125)
    assert Bicomplex.from_text(w.to_text()) == w
    assert Bicomplex.from_text("1e-3 0 0 0") == Bicomplex(0.001)
    with pytest.raises(ValueError):
        Bicomplex.from_text("1 2 3")


def test_json_round_trip():
    w = Bicomplex(0.1, 0.2, 0.3, 0.4)
    assert Bicomplex.from_json(w.to_json()) == w
    with pytest.raises(ValueError):
        Bicomplex.from_json([1, 2, 3])


def test_coerce():
    assert Bicomplex.coerce(2) == Bicomplex(2.0)
    assert Bicomplex.coerce(1 + 2j) == Bicomplex(1.0, 2.0)
    assert Bicomplex.coerce(E1) is E1
    assert 1 - E1 == E2 and 1j - ONE == Bicomplex(-1.0, 1.0)  # __rsub__ coerces the number
    with pytest.raises(TypeError):
        Bicomplex.coerce("nope")


@pytest.mark.parametrize(
    "number, value",
    [(np.int64(2), 2.0), (np.uint8(3), 3.0), (np.float32(0.5), 0.5), (np.float16(-0.25), -0.25),
     (np.complex64(1.5 - 2j), 1.5 - 2j), (True, 1.0), (False, 0.0)],
)
def test_numpy_numbers_and_bools_act_as_the_python_number(number, value):
    assert Bicomplex.coerce(number) == Bicomplex.coerce(value)
    w = Bicomplex(0.5, -1.0, 2.0, 0.25)
    for product in (w * number, number * w):
        assert type(product) is Bicomplex and product == w * value
    x = TVector([[1.0, -2.0, 0.5, 3.0], [0.0, 1.0, -1.0, 2.0]])
    for scaled in (x.scale(number), number * x):
        assert type(scaled) is TVector and scaled == x.scale(value)


@given(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_idempotent_form_norm_matches_reconstruction(h1, h2):
    form = IdempotentForm(h1, h2)
    rebuilt = form.to_bicomplex().norm()
    assert abs(form.norm() - rebuilt) <= 1e-12 * (1 + rebuilt)


# --- immutable value objects ------------------------------------------------

FROZEN = [
    Bicomplex(1.0, -2.0, 0.5, 3.0),
    IdempotentForm(1 + 2j, -0.5j),
    SingularityReport(True, (2,), (1.5, 0.0)),
]


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_values_survive_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_values_refuse_assignment_and_deletion(value):
    field = value._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before


def test_signed_zeros_are_one_value():
    assert Bicomplex(0.0) == Bicomplex(-0.0)
    assert hash(Bicomplex(0.0)) == hash(Bicomplex(-0.0))


def test_frozen_values_of_different_classes_differ():
    class Subclass(IdempotentForm):
        __slots__ = ()

    # Equal fields, different classes.
    assert Subclass(1.0, 2.0) != IdempotentForm(1.0, 2.0)
    assert IdempotentForm(1.0, 2.0) != Subclass(1.0, 2.0)
    assert IdempotentForm(1.0, 2.0) != SingularityReport(1.0, 2.0, 3.0)
    assert Bicomplex(1.0, 2.0, 3.0, 4.0) != SingularityReport(1.0, 2.0, 3.0)
    assert Bicomplex(1.0, 2.0, 0.0, 0.0) != IdempotentForm(1.0, 2.0)
    assert Bicomplex(1.0) != (1.0, 0.0, 0.0, 0.0)
