"""The shared kernels of `_arrays`: the hat split and merge, and the
stacked LAPACK and BLAS calls that TMatrix and the verifier make over both
hat components at once."""

import itertools

import numpy as np
import pytest

from bicomplex import _arrays
from bicomplex._arrays import hat_merge, hat_split
from bicomplex._floats import merge_parts

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
        assert np.array_equal(_arrays.compose_pair(H, B), _per_component(np.matmul, H, B))
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
