"""Low-level float64 array kernels shared by the vector and operator layers,
on the float formulas of _floats that the scalar layer uses.

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

import numpy as np

from ._floats import NORM_FLOOR, SQRT2, checked_norm, mul_parts, qmean


def frozen_coeffs(data, ndim: int, what: str, copy: bool = True) -> np.ndarray:
    """A read-only float64 copy of `data`, checked to have `ndim` nonempty
    axes, the last of length 4, and finite entries.  The copy keeps later
    writes to `data` from reaching the per-object caches built on it; pass
    copy=False only for a fresh float64 array that nothing else holds."""
    arr = np.array(data, dtype=np.float64) if copy else np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != 4:
        raise ValueError(f"{what}: expected shape {'(...,' * (ndim - 1)}4{')' * (ndim - 1)}, got {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what}: every dimension must be at least 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what}: coefficients must be finite")
    arr.setflags(write=False)
    return arr


def hat_split(C: np.ndarray) -> np.ndarray:
    """Coefficients (..., 4) -> the C-contiguous stack (2, ...) of complex hat
    components; it unpacks as h1, h2."""
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    H = np.empty((2,) + C.shape[:-1], dtype=np.complex128)
    np.add(a, d, out=H.real[0, ...])
    np.subtract(b, c, out=H.imag[0, ...])
    np.subtract(a, d, out=H.real[1, ...])
    np.add(b, c, out=H.imag[1, ...])
    return H


def hat_merge(h1, h2) -> np.ndarray:
    """Inverse of hat_split: merge_parts' sums written into one fresh
    (..., 4) array, with the same bits.  Writing them in place takes about
    half the time of stacking merge_parts' four results at n = 8, and a third
    for large stacks."""
    h1 = np.asarray(h1, dtype=np.complex128)
    h2 = np.asarray(h2, dtype=np.complex128)
    C = np.empty(np.broadcast_shapes(h1.shape, h2.shape) + (4,))
    np.add(h1.real, h2.real, out=C[..., 0])
    np.add(h1.imag, h2.imag, out=C[..., 1])
    np.subtract(h2.imag, h1.imag, out=C[..., 2])
    np.subtract(h1.real, h2.real, out=C[..., 3])
    C *= 0.5
    return C


def mul4(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Bilinear product of coefficient arrays (mul_parts over the trailing
    axis).  Broadcasts like numpy arithmetic."""
    return np.stack(
        mul_parts(
            U[..., 0], U[..., 1], U[..., 2], U[..., 3], V[..., 0], V[..., 1], V[..., 2], V[..., 3]
        ),
        axis=-1,
    )


def checked_norms(plain: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """checked_norm over a stack: the norms `plain` (...) of `parts` (..., ...),
    each recomputed from its own parts where it falls outside [NORM_FLOOR, inf)."""
    outside = ~((plain >= NORM_FLOOR) & (plain < math.inf))
    if not np.count_nonzero(outside):
        return plain
    plain = np.array(plain)
    rows = zip(plain[outside], parts[outside])
    plain[outside] = [checked_norm(float(p), np.ravel(c).view(np.float64)) for p, c in rows]
    return plain


def dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Dot products sum_k u_k v_k over the last axis of two vectors (n,) or
    stacks (..., n), which broadcast.  Each is the BLAS dot of the 1-D u @ v."""
    if U.ndim == V.ndim == 1:
        return U.dot(V)
    return (U[..., None, :] @ V[..., :, None])[..., 0, 0]


def pair_norms(u1: np.ndarray, u2: np.ndarray) -> tuple:
    """Euclidean norms over the last axis of two complex component arrays
    (..., n): the sums of squares np.linalg.norm takes of one vector, with
    checked_norm's scaled fallback.  Floats for vectors, arrays for stacks."""
    us = [np.ascontiguousarray(u, dtype=np.complex128) for u in (u1, u2)]
    with np.errstate(over="ignore"):
        plain = [np.sqrt(dots(u.real, u.real) + dots(u.imag, u.imag)) for u in us]
    return tuple(checked_norm(float(p), u.view(np.float64)) if u.ndim == 1 else checked_norms(p, u)
                 for p, u in zip(plain, us))


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
    """Norms of a stack of vectors (..., n, 4), as TVector.norm takes them one
    at a time: vec_norm4 with checked_norm's scaled fallback."""
    with np.errstate(over="ignore"):
        return checked_norms(vec_norm4(C), C)


def scalar_norms(C: np.ndarray) -> np.ndarray:
    """Norms of a stack of scalars (..., 4), as Bicomplex.norm takes them one at
    a time: norm4 with checked_norm's scaled fallback."""
    with np.errstate(over="ignore"):
        return checked_norms(norm4(C), C)


def pair_singular_values(H: np.ndarray) -> np.ndarray:
    """Singular values (2, ..., k), in descending order, of a hat stack
    (2, m, n) of one operator or (2, ..., m, n) of a stack of operators."""
    return np.linalg.svd(H, compute_uv=False)


def apply_pair(H: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Hat stack (2, ..., m) of operators applied to vectors, from the hat
    stacks of the operators (2, ..., m, n) and vectors (2, ..., n), which
    broadcast."""
    return (H @ V[..., None])[..., 0]


def solve_pair(H: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Hat stack (2, ..., n) of the solutions x of T x = v, from the hat stacks
    of the operators (2, ..., n, n) and right-hand sides (2, ..., n), which
    broadcast.  Each right-hand side is its own LAPACK gesv."""
    return np.linalg.solve(H, V[..., None])[..., 0]


def compose_pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Hat stack of the composition A after B, from the hat stacks of one
    pair of operators or of stacks of them."""
    return A @ B


def unit_multiples(C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient arrays of (i1*C, i2*C, j*C).  Pure sign shuffles, exact."""
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    i1c = np.stack([-b, a, -d, c], axis=-1)
    i2c = np.stack([-c, -d, a, b], axis=-1)
    jc = np.stack([d, -c, -b, a], axis=-1)
    return i1c, i2c, jc


def lift_rows(rho: np.ndarray) -> np.ndarray:
    """Coefficients (..., n, 4) of the T-linear functional lifted from the
    real-linear one with rows rho (..., n, 4): the signs (r0, -r1, -r2, r3)."""
    return np.stack([rho[..., 0], -rho[..., 1], -rho[..., 2], rho[..., 3]], axis=-1)


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


def orthonormal_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the column spaces of M (m, g) or of a stack
    (..., m, g), from one SVD: the left singular vectors (..., m, min(m, g))
    and the ranks (...), cut at max(m, g) * eps * (largest singular value).
    A matrix's basis is its first `rank` columns."""
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    cutoff = max(M.shape[-2:]) * np.finfo(np.float64).eps * s[..., :1]
    return u, np.count_nonzero(s > cutoff, axis=-1)


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for a matrix and a vector, or for stacks of them: BLAS gemv."""
    return A @ v if v.ndim == 1 else (A @ v[..., None])[..., 0]


def restrict_pair(B1: np.ndarray, B2: np.ndarray, C: np.ndarray) -> tuple:
    """Coordinates B_k^H conj(c_k) (..., r_k), whose lengths are the norms of
    the functionals with coefficient hat stack C (2, ..., n) restricted to the
    spans of the orthonormal bases B1, B2 (..., n, r_k), of differing ranks."""
    return _matvec(B1.conj().swapaxes(-1, -2), C[0].conj()), _matvec(B2.conj().swapaxes(-1, -2), C[1].conj())


def riesz_extension(B1: np.ndarray, B2: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Hat stack (2, ..., n) of the minimal-norm extensions conj(B_k B_k^H
    conj(c_k)), the conjugated Riesz vectors, of the functionals restricted as
    in restrict_pair."""
    R1, R2 = restrict_pair(B1, B2, C)
    return np.conj([_matvec(B1, R1), _matvec(B2, R2)])
