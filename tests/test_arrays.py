"""The shared kernels of `_arrays`: the hat split and merge, and the
stacked LAPACK and BLAS calls that TMatrix and the verifier make over both
hat components at once."""

import itertools

import numpy as np
import pytest

from bicomplex import _arrays
from bicomplex._arrays import hat_merge, hat_split, merge_parts

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
