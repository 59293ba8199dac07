"""The shared kernels of `_arrays`: the hat split and merge, and the
stacked LAPACK and BLAS calls that TMatrix and the verifier make over both
hat components at once."""

import itertools
import math
import re

import numpy as np
import pytest

from bicomplex import Bicomplex, NormReport, TMatrix, TVector, _arrays, verifier
from bicomplex._arrays import hat_merge, hat_split, mul4, planes, vec_norm4
from bicomplex._floats import MUL_TERMS, merge_parts, mul_parts

#: Powers of two from the subnormals to the top of the range, and 1e+-300.
SCALES = [2.0**k for k in (-1074, -1070, -1050, -1022, -997, -530, -1, 0, 1, 997, 1022, 1023)]
SCALES += [1e-300, 1e-160, 1e300]

SHAPES = [(4,), (1, 4), (7, 4), (3, 5, 4), (2, 3, 4, 4), (0, 4), (3, 0, 4)]


def _elementwise_split(C):
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    H = np.empty((2,) + C.shape[:-1], dtype=np.complex128)
    H.real[0], H.imag[0] = a + d, b - c
    H.real[1], H.imag[1] = a - d, b + c
    return H


@pytest.mark.parametrize("scale", SCALES)
def test_hat_split_is_the_elementwise_formula(scale):
    rng = np.random.default_rng(1)
    for shape in SHAPES:
        C = rng.uniform(-1.0, 1.0, shape) * scale
        with np.errstate(over="ignore"):
            H, want = hat_split(C), _elementwise_split(C)
        assert H.shape == (2,) + shape[:-1] and H.flags.c_contiguous
        assert np.array_equal(H.view(np.float64), want.view(np.float64)), shape
        assert np.array_equal(np.signbit(H.view(np.float64)), np.signbit(want.view(np.float64))), shape


def test_hat_split_keeps_signed_zeros_and_infinities():
    C = np.array(list(itertools.product([0.0, -0.0, 1.0, np.inf], repeat=4)))
    with np.errstate(invalid="ignore"):
        H, want = hat_split(C).view(np.float64), _elementwise_split(C).view(np.float64)
    assert np.array_equal(H, want, equal_nan=True)
    assert np.array_equal(np.signbit(H), np.signbit(want))


def test_hat_split_of_a_non_contiguous_input_is_the_elementwise_formula():
    # Values with signed zeros, so a sum that rounded to +0.0 where the
    # formula gives -0.0 would show.
    rng = np.random.default_rng(3)
    C = rng.choice([0.0, -0.0, 1.0, -1.5, 2.0**-1074, -(2.0**1000)], size=(3, 5, 6, 4))
    inputs = {
        "transposed": np.swapaxes(C, 0, 2),
        "sliced": C[:, 1:4, ::2],
        "generator stack": np.array(list(C[0])).swapaxes(0, 1),
        "Fortran order": np.asfortranarray(C),
        "scalar": np.ascontiguousarray(C[0, 0, 0]),
        "strided scalar": C[0, 0, :, 1],
        "strided rows": C[0, :, 2],
    }
    for name, X in inputs.items():
        H, want = hat_split(X).view(np.float64), _elementwise_split(X).view(np.float64)
        assert hat_split(X).shape == (2,) + X.shape[:-1] and hat_split(X).flags.c_contiguous, name
        assert np.array_equal(H, want) and np.array_equal(np.signbit(H), np.signbit(want)), name


@pytest.mark.parametrize("scale", SCALES)
def test_hat_merge_is_merge_parts(scale):
    rng = np.random.default_rng(2)
    for shape in SHAPES:
        h1, h2 = (rng.uniform(-1.0, 1.0, (2,) + shape[:-1] + (2,)) * scale).view(np.complex128)[..., 0]
        with np.errstate(over="ignore"):
            C, want = hat_merge(h1, h2), np.stack(merge_parts(h1, h2), axis=-1)
        assert C.shape == shape and C.flags.c_contiguous
        assert np.array_equal(C, want) and np.array_equal(np.signbit(C), np.signbit(want)), shape


def _stacks(n: int, seed: int):
    rng = np.random.default_rng([n, seed])
    H, B = rng.standard_normal((2, 2, n, n)) + 1j * rng.standard_normal((2, 2, n, n))
    b = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return H, B, b


def _per_component(fn, *stacks):
    return np.stack([fn(*(s[k] for s in stacks)) for k in range(2)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_stacked_lapack_and_blas_calls_equal_per_component_calls(n):
    for seed in range(2 if n == 64 else 6):
        H, B, b = _stacks(n, seed)
        assert np.array_equal(
            _arrays.pair_singular_values(H), _per_component(lambda M: np.linalg.svd(M, compute_uv=False), H)
        )
        assert np.array_equal(np.linalg.det(H), _per_component(np.linalg.det, H))
        assert np.array_equal(np.linalg.solve(H, b[..., None])[..., 0], _per_component(np.linalg.solve, H, b))
        assert np.array_equal(np.linalg.inv(H), _per_component(np.linalg.inv, H))
        assert np.array_equal(H @ B, _per_component(np.matmul, H, B))
        assert np.array_equal(
            _arrays.apply_pair(H, b), _per_component(lambda M, v: (M @ v[:, None])[:, 0], H, b)
        )


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _each(fn, *stacks):
    """fn applied to each matrix of same-shape stacks (G, ...), restacked."""
    return np.stack([fn(*args) for args in zip(*stacks)])


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_factorizations_equal_per_matrix_calls(n):
    # The verifier builds, bases and solves its trials in stacks; their bits
    # are those of one call per matrix only while these hold.
    rng = np.random.default_rng([n, 11])
    A = _complex(rng, (25, n, n))
    assert np.array_equal(np.linalg.qr(A)[0], _each(lambda M: np.linalg.qr(M)[0], A))
    for g in range(1, n + 1):
        M = _complex(rng, (25, n, g))
        u, s, vh = np.linalg.svd(M, full_matrices=False)
        for t, (ut, st, vt) in enumerate(zip(u, s, vh)):
            want = np.linalg.svd(M[t], full_matrices=False)
            assert np.array_equal(ut, want[0]) and np.array_equal(st, want[1]) and np.array_equal(vt, want[2])
    Y = _complex(rng, (25, 5, n))
    X = np.linalg.solve(A[:, None], Y[..., None])[..., 0]
    assert np.array_equal(X, _each(lambda M, ys: _each(lambda y: np.linalg.solve(M, y[:, None])[:, 0], ys), A, Y))


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_solve_equals_per_object_solves(n):
    # open-mapping solves G operators x k right-hand sides in one broadcast
    # solve_pair call, and its witness replay solves one: both must be
    # TMatrix.solve's bits.
    rng = np.random.default_rng([n, 14])
    C = rng.uniform(-1.0, 1.0, (6, n, n, 4))
    C[..., 0] += 3.0 * np.eye(n)
    Y = rng.uniform(-1.0, 1.0, (6, 5, n, 4))
    H = hat_split(C)
    X = hat_merge(*_arrays.solve_pair(H[:, :, None], np.linalg.inv(H)[:, :, None], hat_split(Y)))
    for c, ys, xs in zip(C, Y, X):
        T = TMatrix(c)
        for y, x in zip(ys, xs):
            assert np.array_equal(T.solve(TVector(y)).coeffs, x)


def test_real_block_matrix_of_a_stack_realifies_each_operator():
    rng = np.random.default_rng(15)
    C = rng.uniform(-1.0, 1.0, (2, 3, 4, 5, 4))
    x = rng.uniform(-1.0, 1.0, (5, 4))
    R = _arrays.real_block_matrix(C)
    assert R.shape == (2, 3, 16, 20)
    for index in np.ndindex(2, 3):
        assert np.array_equal(R[index], _arrays.real_block_matrix(C[index]))
        Tx = TMatrix(C[index]).apply(TVector(x)).coeffs
        assert np.allclose(R[index] @ x.reshape(-1), Tx.reshape(-1), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_row_by_column_products_equal_1d_dots(n):
    rng = np.random.default_rng([n, 12])
    C, V = _complex(rng, (2, 40, n))
    assert np.array_equal((C[:, None, :] @ V[:, :, None])[:, 0, 0], _each(lambda c, v: c @ v, C, V))
    assert np.array_equal(_arrays.dots(C, V), _each(lambda c, v: c @ v, C, V))
    assert np.array_equal(_each(_arrays.dots, C, V), _each(lambda c, v: c @ v, C, V))
    assert np.array_equal(np.array(_arrays.pair_norms(C, V)), [_each(np.linalg.norm, U) for U in (C, V)])
    assert _arrays.pair_norms(C[0], V[0]) == (np.linalg.norm(C[0]), np.linalg.norm(V[0]))
    assert type(_arrays.pair_norms(C[0], V[0])[0]) is float


def test_pair_norms_do_not_overflow_or_vanish():
    for scale in (1e-200, 1e200):
        u = np.full((3, 2), scale * (3 + 4j))
        norms, _ = _arrays.pair_norms(u, u)
        assert np.allclose(norms / scale, 5 * np.sqrt(2), rtol=1e-15)
        assert _arrays.pair_norms(u[0], u[0])[0] == norms[0]


@pytest.mark.parametrize("scale", [1e170, 1e-170, 1e300, 1e-300, 0.0])
def test_a_vector_pair_norm_has_the_bits_of_the_stacked_one(scale):
    # The squares overflow or leave the normal range at every scale but 1:
    # both paths then recompute with scaling.
    rng = np.random.default_rng(14)
    for n in (1, 3, 8):
        U = _complex(rng, (2, 1, n)) * scale
        stacked = _arrays.pair_norms(*U)
        vector = _arrays.pair_norms(*U[:, 0])
        assert [type(v) for v in vector] == [float, float]
        assert vector == (stacked[0][0], stacked[1][0]), n


def test_norm_report_has_the_bits_of_the_stacked_operator_norms():
    values = [0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf]
    for s1, s2 in itertools.product(values, repeat=2):
        sup, idem = _arrays.operator_norms(np.array([s1]), np.array([s2]))
        for report in (NormReport.of(s1, s2), NormReport.of(np.float64(s1), np.float64(s2))):
            got = np.array([report.sup_norm, report.idem_norm])
            assert np.array_equal(_bits(got), _bits(np.concatenate([sup, idem]))), (s1, s2)
            assert type(report.sup_norm) is float and type(report.idem_norm) is float


def test_frozen_coeffs_accepts_entries_whose_squares_overflow_and_rejects_the_rest():
    for huge in (1e200, -1e200, 1.7e308):
        arr = _arrays.frozen_coeffs([[huge, 0.0, 0.0, 1.0], [huge, huge, huge, huge]], 2, "vector")
        assert arr[0, 0] == huge and not arr.flags.writeable
    for bad in (math.nan, math.inf, -math.inf):
        for row in ([bad, 0.0, 0.0, 1.0], [bad, 1e200, 0.0, 0.0]):
            with pytest.raises(ValueError, match="finite"):
                _arrays.frozen_coeffs([row], 2, "vector")


def test_frozen_coeffs_names_the_shape_it_expects():
    for ndim in (2, 3, 4):
        shape = "(" + "..., " * (ndim - 1) + "4)"
        with pytest.raises(ValueError, match=re.escape(f"point: expected shape {shape}, got (1, 3)")):
            _arrays.frozen_coeffs([[1.0, 2.0, 3.0]], ndim, "point")
    with pytest.raises(ValueError, match=re.escape("matrix: expected shape (..., ..., 4), got (1, 3)")):
        TMatrix([[1, 2, 3]])


def test_orthonormal_columns_cuts_each_matrix_of_a_stack_to_its_rank():
    rng = np.random.default_rng(13)
    M = _complex(rng, (3, 5, 3))
    M[1, :, 2] = 2.0 * M[1, :, 0]
    M[2] = 0.0
    u, ranks = _arrays.orthonormal_columns(M)
    assert ranks.tolist() == [3, 2, 0]
    for t in range(3):
        ut, rt = _arrays.orthonormal_columns(M[t])
        assert rt == ranks[t] and np.array_equal(ut, u[t])
    u, ranks = _arrays.orthonormal_columns(np.zeros((2, 4, 0), dtype=np.complex128))
    assert u.shape == (2, 4, 0) and ranks.tolist() == [0, 0]


# --- coefficient planes -------------------------------------------------------
#
# The scalar and vector checks evaluate coefficient planes (4, ..., rows).
# Each plane kernel must give the bits of the coefficient kernel it stands
# for.

PLANE_ROWS = (1, 7, 4097)


def _magnitudes(rng, shape, top=500):
    """Floats of either sign and magnitude 2^k, |k| <= top, where the order of
    a sum matters; about a tenth are +0.0 and a tenth -0.0."""
    x = rng.uniform(1.0, 2.0, shape) * 2.0 ** rng.integers(-top, top + 1, shape) * rng.choice([-1.0, 1.0], shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def _row_scaled(rng, shape, top=250):
    """Rows of floats of one magnitude 2^k each, |k| <= top, whose sums round."""
    return rng.uniform(-2.0, 2.0, shape) * 2.0 ** rng.integers(-top, top + 1, shape[:1] + (1,) * (len(shape) - 1))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_vec_norm4_adds_in_the_order_it_documents():
    # Each entry's a*a + b*b + c*c + d*d, then the entries in turn, in Python
    # floats: a vector alone, and each row of a stack.
    rng = np.random.default_rng(23)
    for n in range(1, 65):
        X = np.concatenate([_magnitudes(rng, (3, n, 4), top=250), _row_scaled(rng, (3, n, 4))])
        expected = []
        for row in X.tolist():
            total = 0.0
            for a, b, c, d in row:
                total += a * a + b * b + c * c + d * d
            expected.append(math.sqrt(total))
        assert vec_norm4(X).tolist() == expected, n
        assert [float(vec_norm4(x)) for x in X] == expected, n


def test_a_vector_norm_has_the_bits_of_the_stacked_norms():
    rng = np.random.default_rng(24)
    for n in range(1, 65):
        X = _magnitudes(rng, (5, n, 4))
        stacked = _arrays.vector_norms(X)
        assert np.array_equal(_bits([TVector(x).norm() for x in X]), _bits(stacked)), n
        assert np.array_equal(_bits(_arrays.vector_norms(planes(X).T)), _bits(stacked)), n


def test_collapse_on_one_row_planes_has_the_bits_of_the_coefficient_layout():
    # A witness replays on the planes of a stack of one row.  The check's
    # singular multipliers leave a dead component of a few bits, whose sum
    # is exact in any order; any multiplier L tests the order.
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        X = _row_scaled(rng, (7, n, 4))
        for component, L in ((1, _row_scaled(rng, (7, 4))), (2, _row_scaled(rng, (7, 4)))):
            block = verifier._mlambda_values("collapse", component, planes(L), planes(X))["collapse"]
            for k in range(len(X)):
                one = verifier._mlambda_values("collapse", component, planes(L[k : k + 1]), planes(X[k : k + 1]))
                dead = hat_split(mul4(L[k], X[k]))[component - 1]
                coefficients = math.sqrt(_arrays.add_in_turn(np.abs(dead) ** 2)) / (1.0 + float(vec_norm4(X[k])))
                assert one["collapse"].tolist() == [block[k]] == [coefficients], (n, k)


@pytest.mark.parametrize("rows", PLANE_ROWS)
def test_plane_kernels_give_the_bits_of_the_coefficient_kernels(rows):
    rng = np.random.default_rng([rows, 22])
    S = _magnitudes(rng, (rows, 4))
    assert np.array_equal(_bits(_arrays.plane_norm4(planes(S))), _bits(vec_norm4(S[:, None])))
    for n in range(1, 9):
        X = _magnitudes(rng, (rows, n, 4))
        assert np.array_equal(_bits(_arrays.plane_vec_norm4(planes(X))), _bits(vec_norm4(X))), n
        # a scalar plane (4, rows) broadcast against vector planes (4, n, rows)
        product = _arrays.plane_mul4(planes(S), planes(X))
        assert np.array_equal(_bits(product.T), _bits(mul4(S[:, None], X))), n
        H = _arrays.plane_hat_split(planes(X))
        assert np.array_equal(_bits(H), _bits(np.moveaxis(hat_split(X), 1, -1))), n
        assert np.array_equal(_bits(_arrays.plane_hat_merge(*H).T), _bits(hat_merge(*hat_split(X)))), n


class _Terms:
    """A coefficient u_k, v_l, or a sum of signed products u_k v_l as mul_parts
    forms it: each later product must join the sum alone, added in turn."""

    def __init__(self, side=None, index=None, terms=()):
        self.side, self.index, self.terms = side, index, terms

    def __mul__(self, other):
        assert (self.side, other.side) == ("u", "v")
        return _Terms(terms=((1, self.index, other.index),))

    def _then(self, sign, other):
        ((one, k, l),) = other.terms
        return _Terms(terms=self.terms + ((sign * one, k, l),))

    def __add__(self, other):
        return self._then(1, other)

    def __sub__(self, other):
        return self._then(-1, other)


def test_mul_terms_are_the_terms_of_mul_parts_in_its_order():
    u = [_Terms("u", k) for k in range(4)]
    v = [_Terms("v", l) for l in range(4)]
    assert tuple(part.terms for part in mul_parts(*u, *v)) == MUL_TERMS


#: Coefficients whose products vanish to signed zeros, fall to subnormals,
#: overflow to +-inf and give inf - inf = NaN, and whose sums round.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-160, -1.5e-162,
           1.0, -1.0, 3.0, 0.1, -0.7, 1.0 / 3.0, 2.0**-27, 1.0 + 2.0**-52, -1e154, 1.5e154, 1e300, -1e300,
           1.7976931348623157e308]


def _ubits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_plane_kernels_keep_the_bits_of_special_values():
    rng = np.random.default_rng(26)
    S, T = rng.choice(SPECIAL, (2, 4097, 4))
    X = rng.choice(SPECIAL, (4097, 3, 4))
    H = rng.choice(SPECIAL, (2, 3, 4097)) + 1j * rng.choice(SPECIAL, (2, 3, 4097))
    with np.errstate(all="ignore"):
        product = _arrays.plane_mul4(planes(S), planes(T))
        assert np.array_equal(_ubits(product.T), _ubits(mul4(S, T)))
        assert np.array_equal(_ubits(product.T), _ubits([mul_parts(*s, *t) for s, t in zip(S.tolist(), T.tolist())]))
        vectors = _arrays.plane_mul4(planes(S), planes(X))
        assert np.array_equal(_ubits(vectors.T), _ubits(mul4(S[:, None], X)))
        norms = _arrays.plane_norm4(planes(S))
        assert np.array_equal(_ubits(norms), _ubits(vec_norm4(S[:, None])))
        assert np.array_equal(_ubits(_arrays.checked_norms(norms, S)), _ubits([Bicomplex(*s).norm() for s in S]))
        assert np.array_equal(_ubits(_arrays.plane_vec_norm4(planes(X))), _ubits(vec_norm4(X)))
        assert np.array_equal(_ubits(_arrays.plane_hat_merge(*H).T), _ubits(hat_merge(H[0].T, H[1].T)))
    assert np.isnan(product).any() and np.isinf(product).any() and (_ubits(product) == _ubits(-0.0)).any()
    for s, t, row in zip(S, T, product.T):
        if np.isfinite(row).all():
            w = Bicomplex(*s) * Bicomplex(*t)
            assert _ubits([w.a, w.b, w.c, w.d]).tolist() == _ubits(row).tolist()
        else:
            with pytest.raises(ValueError):
                Bicomplex(*s) * Bicomplex(*t)


def _dropped(P, zeros):
    """The planes of P as plane_mul4 takes them, None for each index in zeros."""
    return [None if k in zeros else p for k, p in enumerate(P)]


def _assert_same_but_zero_signs(sparse, dense):
    """Equal bits wherever dense is not a zero, equal magnitudes everywhere."""
    nonzero = dense != 0.0
    assert np.array_equal(_ubits(sparse[nonzero]), _ubits(dense[nonzero]))
    assert np.array_equal(_ubits(np.abs(sparse)), _ubits(np.abs(dense)))


# The scalar patterns scalar-homogeneity leaves out: c = d = 0 for a complex
# multiplier, b = c = 0 for e1.
@pytest.mark.parametrize("zeros", [(2, 3), (1, 2)], ids=["complex", "e1"])
def test_plane_mul4_with_none_planes_keeps_the_bits_of_dense_zero_planes(zeros):
    rng = np.random.default_rng([27, *zeros])
    draws = [lambda shape: _magnitudes(rng, shape), lambda shape: rng.choice(SPECIAL, shape)]
    with np.errstate(all="ignore"):
        for draw in draws:
            S, T, X = draw((4097, 4)), draw((4097, 4)), draw((4097, 3, 4))
            S[:, list(zeros)] = rng.choice([0.0, -0.0], (4097, len(zeros)))
            for V in (planes(T), planes(X)):
                dense = _arrays.plane_mul4(planes(S), V)
                sparse = _arrays.plane_mul4(_dropped(planes(S), zeros), V)
                _assert_same_but_zero_signs(sparse, dense)
                assert np.array_equal(_ubits(_arrays.plane_norm4(sparse)), _ubits(_arrays.plane_norm4(dense)))
            assert np.array_equal(_ubits(_arrays.plane_vec_norm4(sparse)), _ubits(_arrays.plane_vec_norm4(dense)))


def test_plane_mul4_leaves_out_any_zero_planes_of_the_scalars():
    # Every pattern of known zeros on the scalar side, times scalar and
    # vector planes: where a coefficient's first term is left out, the first
    # kept one starts its sum with its sign.
    rng = np.random.default_rng(28)
    for size in range(1, 4):
        for zeros in itertools.combinations(range(4), size):
            S, T, X = _magnitudes(rng, (257, 4)), _magnitudes(rng, (257, 4)), _magnitudes(rng, (257, 2, 4))
            S[:, list(zeros)] = 0.0
            for V in (planes(T), planes(X)):
                dense = _arrays.plane_mul4(planes(S), V)
                _assert_same_but_zero_signs(_arrays.plane_mul4(_dropped(planes(S), zeros), V), dense)
