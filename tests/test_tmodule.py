"""Module layer: vectors in T^n, norms, idempotent splitting, submodules,
and distances."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicomplex import (
    E1,
    E2,
    J,
    ONE,
    Bicomplex,
    DimensionMismatch,
    RealLinearFunctional,
    Submodule,
    TMatrix,
    TVector,
)

SQRT2 = math.sqrt(2.0)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
scalars = st.builds(Bicomplex, coeff, coeff, coeff, coeff)


def vectors(n: int):
    return st.lists(
        st.lists(coeff, min_size=4, max_size=4), min_size=n, max_size=n
    ).map(TVector)


def test_vector_construction_and_access():
    x = TVector.from_scalars([E1, J])
    assert x.n == 2 and len(x) == 2
    assert x[0] == E1 and x[1] == J
    with pytest.raises(ValueError):
        TVector(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        TVector([[1.0, float("nan"), 0.0, 0.0]])


def test_add_and_dimension_mismatch():
    x = TVector.from_scalars([ONE, J])
    y = TVector.from_scalars([J, ONE])
    assert (x + y)[0] == ONE + J
    with pytest.raises(DimensionMismatch):
        x + TVector.from_scalars([ONE])


@given(vectors(3))
def test_partition_of_unity_scaling(x):
    recombined = x.scale(E1) + x.scale(E2)
    assert np.allclose(recombined.coeffs, x.coeffs, atol=1e-15, rtol=0)


def test_scalar_matrix_examples():
    x = TVector.from_scalars([ONE])
    assert x.scale(J) == TVector.from_scalars([J])
    y = TVector.from_scalars([Bicomplex(0.3, -0.4, 0.5, 0.9)])
    collapsed = y.scale(E2).scale(E1)
    assert np.max(np.abs(collapsed.coeffs)) == 0.0


@given(scalars, vectors(2), vectors(2))
def test_scale_distributes(w, x, y):
    lhs = (x + y).scale(w)
    rhs = x.scale(w) + y.scale(w)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13


def test_split_examples():
    v1, v2 = TVector.from_scalars([J, J]).split()
    assert np.array_equal(v1, np.array([1 + 0j, 1 + 0j]))
    assert np.array_equal(v2, np.array([-1 + 0j, -1 + 0j]))
    x = TVector.from_scalars([Bicomplex(0.2, 0.6, -0.1, 0.4), J])
    _, ideal2 = x.scale(E1).split()
    assert np.max(np.abs(ideal2)) == 0.0


def test_split_is_computed_once_and_read_only():
    x = TVector.from_scalars([Bicomplex(0.2, 0.6, -0.1, 0.4), J])
    pair = x.split()
    assert x.split() is pair
    for arr in pair:
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize(
    "cls, shape", [(TVector, (2, 4)), (TMatrix, (2, 3, 4)), (RealLinearFunctional, (2, 4))]
)
def test_coefficients_are_a_read_only_copy(cls, shape):
    source = np.arange(float(np.prod(shape))).reshape(shape)
    obj = cls(source)
    source[0] = -1.0
    assert np.array_equal(obj.coeffs, np.arange(float(np.prod(shape))).reshape(shape))
    with pytest.raises(ValueError):
        obj.coeffs[0] = 0.0


@given(vectors(4))
def test_merge_after_split_round_trip(x):
    back = TVector.from_split(*x.split())
    one_ulp = np.finfo(np.float64).eps * (1.0 + np.max(np.abs(x.coeffs)))
    assert np.max(np.abs(back.coeffs - x.coeffs)) <= one_ulp


@given(vectors(3))
def test_split_respects_scaling(x):
    w = Bicomplex(0.3, -0.2, 0.7, 0.1)
    hw = w.to_idempotent()
    s1, s2 = x.scale(w).split()
    v1, v2 = x.split()
    assert np.max(np.abs(s1 - hw.h1 * v1)) <= 1e-13
    assert np.max(np.abs(s2 - hw.h2 * v2)) <= 1e-13


def test_vec_norm_examples():
    assert TVector.from_scalars([E1, E2]).norm() == pytest.approx(1.0, rel=1e-15)
    assert TVector.from_scalars([Bicomplex(1, 1, 1, 1)]).norm() == 2.0


@given(vectors(3))
def test_norm_component_identity(x):
    v1, v2 = x.split()
    via_components = math.sqrt((np.linalg.norm(v1) ** 2 + np.linalg.norm(v2) ** 2) / 2.0)
    assert abs(x.norm() - via_components) <= 1e-12 * (1 + x.norm())


@pytest.mark.filterwarnings("error")
def test_norm_does_not_overflow_or_underflow():
    assert TVector([[1e200, 0, 0, 0]]).norm() == 1e200
    assert TVector([[1e-200, 0, 0, 0]]).norm() == 1e-200
    assert TVector.zero(3).norm() == 0.0


#: Coefficients of magnitude 1e-300 to 1e300, as unit-sized values and a
#: power-of-ten scale, so that scaling loses no digits to underflow.
unit_coeff = st.one_of(st.just(0.0), st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
unit_vectors = st.lists(st.lists(unit_coeff, min_size=4, max_size=4), min_size=3, max_size=3).map(
    np.array
)
magnitudes = st.integers(-300, 300).map(lambda e: 10.0 ** e)


@given(unit_vectors, magnitudes)
def test_norm_is_homogeneous_at_every_magnitude(coeffs, alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = TVector(alpha * coeffs).norm()
    assert math.isfinite(scaled)
    assert scaled == pytest.approx(alpha * TVector(coeffs).norm(), rel=1e-12, abs=0.0)


@given(vectors(3))
def test_complex_scalars_scale_norms_exactly(x):
    alpha = complex(0.6, -0.8)
    scaled = x.scale(alpha)
    assert abs(scaled.norm() - abs(alpha) * x.norm()) <= 1e-12 * (1 + x.norm())


@given(scalars, vectors(3))
def test_ring_scalars_scale_norms_with_sqrt2(w, x):
    assert x.scale(w).norm() <= SQRT2 * w.norm() * x.norm() + 1e-12


def test_ring_scaling_bound_attained():
    g = TVector.from_scalars([Bicomplex(0.3, -0.4, 0.2, 0.9), ONE])
    x = g.scale(E1)
    ratio = x.scale(E1).norm() / (E1.norm() * x.norm())
    assert abs(ratio - SQRT2) <= 1e-14


def test_submodule_bases_are_orthonormal():
    gens = [
        TVector.from_scalars([ONE, J, E1]),
        TVector.from_scalars([E2, ONE, Bicomplex(0.1, 0.2, 0.3, 0.4)]),
    ]
    Y = Submodule(3, gens)
    for B in (Y.basis1, Y.basis2):
        gram = B.conj().T @ B
        assert np.max(np.abs(gram - np.eye(B.shape[1]))) <= 1e-12


def test_submodule_component_dims_can_differ():
    g = TVector.from_scalars([ONE, J]).scale(E1)
    Y = Submodule.span(g)
    assert Y.dim1 == 1 and Y.dim2 == 0


def test_distance_examples():
    Y = Submodule.span(TVector.basis(2, 0))
    x = TVector.basis(2, 1)
    result = Y.distance_to(x)
    assert result.d == pytest.approx(1.0, abs=1e-12)
    assert result.d1 == pytest.approx(1.0, abs=1e-12)
    assert result.d2 == pytest.approx(1.0, abs=1e-12)

    inside = TVector.from_scalars([Bicomplex(0.2, -0.7, 0.3, 0.1), Bicomplex()])
    r = Y.distance_to(inside)
    assert r.d <= 1e-12
    assert np.max(np.abs(r.projection.coeffs - inside.coeffs)) <= 1e-12

    zero_sub = Submodule.zero(2)
    assert zero_sub.distance_to(x).d == pytest.approx(x.norm(), rel=1e-15)


def grid_distance_oracle(x: TVector, g: TVector, lo=-2.0, hi=2.0) -> float:
    """Brute-force distance from x to the multiples w*g over a refined grid
    of the four real coefficients of w."""
    best = math.inf
    centers = (0.0, 0.0, 0.0, 0.0)
    width = hi - lo
    for _ in range(4):
        axes = [np.linspace(c - width / 2, c + width / 2, 9) for c in centers]
        for a in axes[0]:
            for b in axes[1]:
                for c in axes[2]:
                    for d in axes[3]:
                        dist = (x - g.scale(Bicomplex(a, b, c, d))).norm()
                        if dist < best:
                            best = dist
                            found = (a, b, c, d)
        centers = found
        width /= 4.0
    return best


def test_distance_matches_grid_oracle():
    g = TVector.basis(2, 0)
    x = TVector.basis(2, 1)
    assert abs(Submodule.span(g).distance_to(x).d - grid_distance_oracle(x, g)) <= 1e-2

    g2 = TVector.from_scalars([ONE, J])
    x2 = TVector.from_scalars([Bicomplex(0.5), Bicomplex(0.25, 0.5)])
    lib = Submodule.span(g2).distance_to(x2).d
    assert abs(lib - grid_distance_oracle(x2, g2)) <= 1e-2


@given(vectors(3))
@settings(max_examples=50)
def test_projection_is_idempotent(x):
    Y = Submodule.span(
        TVector.from_scalars([ONE, J, E1]), TVector.from_scalars([E2, ONE, J])
    )
    result = Y.distance_to(x)
    assert Y.distance_to(result.projection).d <= 1e-12 * (1 + x.norm())


def test_in_span_examples():
    g = TVector.from_scalars([Bicomplex(0.4, 0.1, -0.2, 0.8), ONE])
    Y = Submodule.span(g)
    assert Y.contains(g.scale(E1))
    assert not Y.contains(TVector.from_scalars([Bicomplex(), ONE + J]))

    full = Submodule.full(3)
    probe = TVector.from_scalars([J, E1, Bicomplex(0.1, 0.2, 0.3, 0.4)])
    assert full.contains(probe)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_span_membership_is_relative_to_the_vector(scale):
    g = TVector.from_scalars([Bicomplex(0.4, 0.1, -0.2, 0.8), ONE])
    Y = Submodule.span(g)
    assert Y.contains(TVector(g.scale(E1).coeffs * scale))
    assert not Y.contains(TVector(TVector.from_scalars([Bicomplex(), ONE + J]).coeffs * scale))


# Entries are 0 or at least 1e-100 in magnitude, so that multiplying by 2^k
# with |k| <= 498 (about 1e-150 to 1e150) is exact.
normal_coeff = coeff.filter(lambda v: v == 0.0 or abs(v) >= 1e-100)
powers_of_two = st.integers(-498, 498).map(lambda k: 2.0**k)


@given(st.lists(st.lists(normal_coeff, min_size=4, max_size=4), min_size=3, max_size=3), powers_of_two)
@settings(max_examples=60)
def test_span_membership_is_invariant_under_scaling(rows, c):
    Y = Submodule.span(TVector.from_scalars([ONE, J, E1]), TVector.from_scalars([E2, ONE, J]))
    x = TVector(rows)
    for v in (x, Y.project(x)):
        assert Y.contains(TVector(v.coeffs * c)) == Y.contains(v)


def test_vector_json_and_csv_round_trip():
    x = TVector.from_scalars([Bicomplex(0.1, -2.5e-7, 3.0, -4.125), J])
    assert TVector.from_json(x.to_json()) == x
    assert TVector.from_csv(x.to_csv()) == x


def test_submodule_json_round_trip():
    Y = Submodule(2, [TVector.from_scalars([ONE, J])])
    back = Submodule.from_json(Y.to_json())
    assert back.n == 2
    assert np.allclose(np.abs(back.basis1.conj().T @ Y.basis1), 1.0)
    for n in (2.7, 2.0, True):
        with pytest.raises(TypeError, match="dimension must be an integer"):
            Submodule(n, [])
    with pytest.raises(ValueError, match="ambient dimension must be at least 1"):
        Submodule(0, [])
    with pytest.raises(TypeError, match="generators must be TVector instances"):
        Submodule(2, [np.zeros((2, 4))])
    with pytest.raises(ValueError, match="needs at least one generator"):
        Submodule.span()
    with pytest.raises(ValueError, match="declared dimension 3 != generator length 2"):
        Submodule.from_json({"n": 3, "generators": Y.to_json()["generators"]})


def test_from_split_requires_matching_shapes():
    with pytest.raises(DimensionMismatch):
        TVector.from_split(np.array([1 + 0j]), np.array([1 + 0j, 2 + 0j]))
    with pytest.raises(DimensionMismatch):
        Submodule(3, [TVector.zero(2)])
    with pytest.raises(DimensionMismatch):
        Submodule.full(2).distance_to(TVector.zero(3))
