"""Low-level float64 kernels shared by the scalar, vector, and operator layers.

Everything in the package is backed by the four real coefficients
(a, b, c, d) of w = a + b*i1 + c*i2 + d*j, stored along the trailing axis
of a numpy array.  The idempotent ("hat") coordinates

    h1 = (a + d) + (b - c)*i,    h2 = (a - d) + (b + c)*i

diagonalize multiplication: products act componentwise on (h1, h2).
Keeping these kernels in one place guarantees that every code path,
including the verification harness and its witness replays, rounds
identically.
"""

from __future__ import annotations

import math
import sys

import numpy as np

SQRT2 = float(np.sqrt(2.0))

#: A norm taken as the square root of a plain sum of squares is exact to
#: rounding only in [NORM_FLOOR, inf): above, the sum overflowed; below, it
#: fell under the smallest normal float and lost digits or vanished.  Norms
#: outside that range are recomputed with scaling.
NORM_FLOOR = math.sqrt(sys.float_info.min)


def frozen_coeffs(data, ndim: int, what: str) -> np.ndarray:
    """A read-only float64 copy of `data`, checked to have `ndim` axes with
    trailing axis 4 and finite entries.  The copy keeps later writes to
    `data` from reaching the per-object caches built on it."""
    arr = np.array(data, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != 4:
        raise ValueError(f"{what}: expected shape {'(...,' * (ndim - 1)}4{')' * (ndim - 1)}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: coefficients must be finite")
    arr.setflags(write=False)
    return arr


def hat_split(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (..., 4) -> complex hat components (h1, h2), each (...)."""
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    return (a + d) + 1j * (b - c), (a - d) + 1j * (b + c)


def merge_parts(h1, h2) -> tuple:
    """Coefficients (a, b, c, d) of h1*e1 + h2*e2, for complex scalars and
    complex arrays alike."""
    return (
        0.5 * (h1.real + h2.real),
        0.5 * (h1.imag + h2.imag),
        0.5 * (h2.imag - h1.imag),
        0.5 * (h1.real - h2.real),
    )


def hat_merge(h1, h2) -> np.ndarray:
    """Inverse of hat_split; exact up to one rounding per coefficient."""
    h1 = np.asarray(h1, dtype=np.complex128)
    h2 = np.asarray(h2, dtype=np.complex128)
    return np.stack(merge_parts(h1, h2), axis=-1)


def mul_parts(au, bu, cu, du, av, bv, cv, dv) -> tuple:
    """Coefficients of the product (au + bu*i1 + cu*i2 + du*j)(av + ... + dv*j),
    expanded over the real basis with i1^2 = i2^2 = -1 and j^2 = +1.  Floats
    and arrays go through the same terms in the same order, so they round
    alike."""
    return (
        au * av - bu * bv - cu * cv + du * dv,
        au * bv + bu * av - cu * dv - du * cv,
        au * cv + cu * av - bu * dv - du * bv,
        au * dv + du * av + bu * cv + cu * bv,
    )


def mul4(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Bilinear product of coefficient arrays (mul_parts over the trailing
    axis).  Broadcasts like numpy arithmetic."""
    return np.stack(
        mul_parts(
            U[..., 0], U[..., 1], U[..., 2], U[..., 3], V[..., 0], V[..., 1], V[..., 2], V[..., 3]
        ),
        axis=-1,
    )


def checked_norm(plain: float, parts) -> float:
    """`plain`, the square root of the plain sum of squares of `parts`, when it
    lies in [NORM_FLOOR, inf) where it is exact to rounding; otherwise the norm
    of `parts` recomputed with scaling (math.hypot over every real and
    imaginary part)."""
    if NORM_FLOOR <= plain < math.inf:
        return plain
    return math.hypot(*np.ravel(parts).view(np.float64))


def pair_norms(u1: np.ndarray, u2: np.ndarray) -> tuple[float, float]:
    """Euclidean norms of two complex component arrays: np.linalg.norm, with
    the scaled fallback of checked_norm where its sum over- or underflows."""
    with np.errstate(over="ignore"):
        n1, n2 = float(np.linalg.norm(u1)), float(np.linalg.norm(u2))
    return checked_norm(n1, u1), checked_norm(n2, u2)


def qmean(x: float, y: float) -> float:
    """Quadratic mean sqrt((x*x + y*y) / 2) of two magnitudes, with the scaled
    fallback of checked_norm.  Pass Python floats: numpy scalars warn when
    x*x overflows."""
    return checked_norm(math.sqrt((x * x + y * y) / 2.0), (x / SQRT2, y / SQRT2))


def operator_norms(s1, s2) -> tuple[np.ndarray, np.ndarray]:
    """Both operator norms (sup_norm, idem_norm) = (max(s1, s2) / sqrt(2),
    qmean(s1, s2)) from the largest component singular values s1, s2 of one
    operator or, elementwise, of a stack of operators."""
    with np.errstate(over="ignore"):
        idem = np.sqrt((s1 * s1 + s2 * s2) / 2.0)
    outside = ~((idem >= NORM_FLOOR) & (idem < math.inf))
    if np.count_nonzero(outside):
        s1, s2, idem = np.asarray(s1), np.asarray(s2), np.array(idem)
        idem[outside] = [qmean(float(x), float(y)) for x, y in zip(s1[outside], s2[outside])]
    return np.maximum(s1, s2) / SQRT2, idem


def norm4(C: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing coefficient axis: (..., 4) -> (...).
    One pass over the four coefficients, summed in the order np.sum takes."""
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    return np.sqrt(a * a + b * b + c * c + d * d)


def vec_norm4(C: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing (entries, 4) axes: (..., n, 4) -> (...)."""
    return np.sqrt(np.sum(C * C, axis=(-2, -1)))


def vector_norms(C: np.ndarray) -> np.ndarray:
    """Norms of a stack of vectors (..., n, 4): vec_norm4, with the scaled
    fallback of checked_norm wherever its sum over- or underflows, as
    TVector.norm takes them one at a time."""
    with np.errstate(over="ignore"):
        norms = vec_norm4(C)
    outside = ~((norms >= NORM_FLOOR) & (norms < math.inf))
    if not np.count_nonzero(outside):
        return norms
    norms = norms.copy()
    norms[outside] = [checked_norm(float(p), c) for p, c in zip(norms[outside], C[outside])]
    return norms


def pair_singular_values(M1: np.ndarray, M2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values, in descending order, of the hat components (M1, M2) of
    one operator (m, n) or of a stack of operators (..., m, n)."""
    return np.linalg.svd(M1, compute_uv=False), np.linalg.svd(M2, compute_uv=False)


def apply_pair(M1, M2, v1, v2) -> tuple[np.ndarray, np.ndarray]:
    """Hat components (M1 v1, M2 v2) of an operator applied to a vector, for
    one pair ((m, n), (n,)) or for stacks ((..., m, n), (..., n)) that
    broadcast."""
    return (M1 @ v1[..., None])[..., 0], (M2 @ v2[..., None])[..., 0]


def compose_pair(A1, A2, B1, B2) -> tuple[np.ndarray, np.ndarray]:
    """Hat components (A1 B1, A2 B2) of the composition A after B, for one
    pair of operators or for stacks of them."""
    return A1 @ B1, A2 @ B2


def unit_multiples(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient arrays of (i1*C, i2*C, j*C).  Pure sign shuffles, exact."""
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    i1c = np.stack([-b, a, -d, c], axis=-1)
    i2c = np.stack([-c, -d, a, b], axis=-1)
    jc = np.stack([d, -c, -b, a], axis=-1)
    return i1c, i2c, jc


def real_block_matrix(C: np.ndarray) -> np.ndarray:
    """Realify an (m, n, 4) operator into the (4m, 4n) matrix acting on the
    stacked real coefficients.  Used by sampling oracles; deliberately avoids
    the hat decomposition so it is an independent evaluation path."""
    m, n = C.shape[0], C.shape[1]
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    block = np.empty((m, 4, n, 4), dtype=np.float64)
    block[:, 0, :, 0] = a
    block[:, 0, :, 1] = -b
    block[:, 0, :, 2] = -c
    block[:, 0, :, 3] = d
    block[:, 1, :, 0] = b
    block[:, 1, :, 1] = a
    block[:, 1, :, 2] = -d
    block[:, 1, :, 3] = -c
    block[:, 2, :, 0] = c
    block[:, 2, :, 1] = -d
    block[:, 2, :, 2] = a
    block[:, 2, :, 3] = -b
    block[:, 3, :, 0] = d
    block[:, 3, :, 1] = c
    block[:, 3, :, 2] = b
    block[:, 3, :, 3] = a
    return block.reshape(4 * m, 4 * n)


def orthonormal_columns(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of M via SVD, with the relative
    rank cutoff max(shape) * machine eps."""
    if M.size == 0:
        return M.reshape(M.shape[0], 0)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    cutoff = max(M.shape) * np.finfo(np.float64).eps * s[0]
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def fmt17(v: float) -> str:
    """Format a float at up to 17 significant digits (lossless round trip).
    Negative zero is normalized so output is canonical."""
    return format(float(v) + 0.0, ".17g")
