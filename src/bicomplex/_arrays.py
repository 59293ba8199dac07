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
import operator

import numpy as np

from ._floats import EPS, NORM_FLOOR, SQRT2, checked_norm, merge_parts, mul_parts, qmean


def dimension(value) -> int:
    """`value` as a dimension: an integer, never a bool or a float truncated."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"a dimension must be an integer, got {value!r}")
    return operator.index(value)


def frozen_coeffs(data, ndim: int, what: str, copy: bool = True) -> np.ndarray:
    """A read-only float64 copy of `data`, checked to have `ndim` nonempty
    axes, the last of length 4, and finite entries: the sum of squares, one
    BLAS dot, is below inf, or else np.isfinite holds, as it does for entries
    whose squares overflow.  The copy keeps later writes to `data` from
    reaching the per-object caches built on it; pass copy=False only for a
    fresh float64 array that nothing else holds."""
    arr = np.array(data, dtype=np.float64) if copy else np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != 4:
        raise ValueError(f"{what}: expected shape {'(...,' * (ndim - 1)}4{')' * (ndim - 1)}, got {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what}: every dimension must be at least 1, got {arr.shape}")
    if not np.vdot(arr, arr) < math.inf and not np.isfinite(arr).all():
        raise ValueError(f"{what}: coefficients must be finite")
    arr.setflags(write=False)
    return arr


def frozen_hat(H: np.ndarray, ndim: int, what: str) -> tuple:
    """(C, H): the fresh hat stack H (2, ...) of `ndim` axes, made read-only,
    and None for coefficients merged on first read; or, when the squares of
    its parts sum to inf or NaN in one BLAS dot (a part above about 2^511 or
    not finite), the coefficients merged now, which frozen_coeffs checks
    finite.  Parts below 2^1023 merge finite: each is half a sum of two."""
    if H.ndim != ndim or H.shape[0] != 2 or H.size == 0:
        raise ValueError(f"{what}: expected a nonempty hat stack of {ndim} axes (2, ...), got {H.shape}")
    H.setflags(write=False)
    if np.vdot(H, H).real < math.inf:
        return None, H
    with np.errstate(over="ignore", invalid="ignore"):
        return frozen_coeffs(hat_merge(*H), ndim, what, copy=False), H


class FrozenArrays:
    """Base of the classes held as read-only coefficients `_coeffs` (..., 4) or
    as the read-only hat stack `_split` (2, ...) they merge from on first read.
    A pickled or copied object gets its arrays back read-only."""

    __slots__ = ()

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = hat_merge(*self._split)
            self._coeffs.setflags(write=False)
        return self._coeffs

    def __setstate__(self, state):
        for name, value in state[1].items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            setattr(self, name, value)


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
    qmean(s1, s2)), elementwise, from the largest component singular values
    s1, s2 of a stack of operators; NormReport.of gives one operator's, with
    the same bits, in Python floats."""
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


# Coefficient planes (4, ..., rows) hold a stack of `rows` scalars (4, rows)
# or vectors (4, n, rows) with the row axis last, so that each pass of the
# kernels below is one long contiguous loop; row by row, they give the bits
# of the kernels above.


def planes(C: np.ndarray) -> np.ndarray:
    """The contiguous coefficient planes of a stack (rows, 4) or (rows, n, 4);
    row k is planes(C).T[k]."""
    return np.ascontiguousarray(C.T)


def _coefficients_last(P: np.ndarray) -> np.ndarray:
    """Planes (4, ..., rows) viewed as the (..., rows, 4) the kernels above take."""
    return P.transpose(*range(1, P.ndim), 0)


def plane_hat_split(P: np.ndarray) -> np.ndarray:
    """hat_split on planes: (4, ..., rows) -> the hat stack (2, ..., rows)."""
    return hat_split(_coefficients_last(P))


def plane_hat_merge(h1, h2) -> np.ndarray:
    """hat_merge into planes (4, ..., rows): merge_parts' sums, the same bits."""
    return np.array(merge_parts(h1, h2))


def plane_mul4(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """mul4 on planes, which broadcast: scalars (4, rows) times vectors (4, n, rows)."""
    return np.array(mul_parts(*U, *V))


def plane_norm4(P: np.ndarray) -> np.ndarray:
    """norm4 on planes: (4, ..., rows) -> (..., rows)."""
    return norm4(_coefficients_last(P))


def plane_vec_norm4(P: np.ndarray) -> np.ndarray:
    """vec_norm4 on vector planes: (4, n, rows) -> (rows,), the squares summed
    in the order np.sum takes a vector's (n, 4) squares."""
    return np.sqrt(rowsum((P * P).swapaxes(0, 1)))


def rowsum(Q: np.ndarray) -> np.ndarray:
    """Sums over every axis of Q (..., rows) but the last, each equal bit for
    bit to np.sum over the same m <= 128 floats in one contiguous row, in C
    order.  numpy's pairwise summation adds fewer than 8 in turn from 0.0;
    from 8 to 128 it adds them into 8 strided partial sums, combines those
    pairwise as a tree and adds the last m % 8 in turn.  (Longer rows it halves
    first.)  Each index of Q's first axis must hold a divisor of 8 floats, as
    in (m, rows) and (n, 4, rows)."""
    rows = Q.shape[-1]
    m = Q.size // rows
    if m < 8:
        return Q.reshape(-1, rows).sum(axis=0)
    group, k = m // len(Q), m - m % 8
    r = Q[: k // group].reshape(k // 8, 8 // group, *Q.shape[1:]).sum(axis=0).reshape(8, rows)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]  # (r0 + r1) + (r2 + r3) and (r4 + r5) + (r6 + r7)
    total = r[0] + r[1]
    for q in Q[k // group :].reshape(-1, rows):
        total += q
    return total


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


def solve_pair(H: np.ndarray, Hinv: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Hat stack (2, ..., n) of the solutions x of T x = v, from the hat stacks
    of the operators (2, ..., n, n), of their inverses and of the right-hand
    sides (2, ..., n), which broadcast: the inverse-apply x = Hinv v, then two
    steps of iterative refinement x += Hinv (v - H x), all matvecs, no
    factorization.  Each matvec rounds as it does for one operator and one
    right-hand side, so a stacked solve equals the per-object ones bit for bit.

    The inverse-apply alone leaves a backward error |H x - v| / (|H| |x|) of
    ~kappa eps, one step ~kappa^2 eps^2 (4e-10 at kappa = 1e11), and two bring
    it back to an LU solve's O(eps) below the solve guard's condition limit."""
    V = V[..., None]
    X = Hinv @ V
    X += Hinv @ (V - H @ X)
    X += Hinv @ (V - H @ X)
    return X[..., 0]


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
    """Realify an (m, n, 4) operator, or a stack (..., m, n, 4), into the
    (..., 4m, 4n) matrix acting on the stacked real coefficients x.reshape(4n).
    Used by independent oracles; deliberately avoids the hat decomposition so
    it is an independent evaluation path."""
    m, n = C.shape[-3], C.shape[-2]
    a, b, c, d = C[..., 0], C[..., 1], C[..., 2], C[..., 3]
    block = np.empty(C.shape[:-3] + (m, 4, n, 4), dtype=np.float64)
    for row, entries in enumerate(((a, -b, -c, d), (b, a, -d, -c), (c, -d, a, -b), (d, c, b, a))):
        for col, entry in enumerate(entries):
            block[..., :, row, :, col] = entry
    return block.reshape(C.shape[:-3] + (4 * m, 4 * n))


def orthonormal_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the column spaces of M (m, g) or of a stack
    (..., m, g), from one SVD: the left singular vectors (..., m, min(m, g))
    and the ranks (...), cut at max(m, g) * eps * (largest singular value).
    A matrix's basis is its first `rank` columns."""
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    cutoff = max(M.shape[-2:]) * EPS * s[..., :1]
    return u, (s > cutoff).sum(-1)


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for a matrix and a vector, or for stacks of them: BLAS gemv."""
    return A @ v if v.ndim == 1 else (A @ v[..., None])[..., 0]


def restrict_pair(B1: np.ndarray, B2: np.ndarray, C: np.ndarray) -> tuple:
    """Coordinates B_k^H conj(c_k) (..., r_k), whose lengths are the norms of
    the functionals with coefficient hat stack C (2, ..., n) restricted to the
    spans of the orthonormal bases B1, B2 (..., n, r_k), of differing ranks."""
    return _matvec(B1.conj().swapaxes(-1, -2), C[0].conj()), _matvec(B2.conj().swapaxes(-1, -2), C[1].conj())


def riesz_extension(B1: np.ndarray, B2: np.ndarray, R: tuple) -> np.ndarray:
    """Hat stack (2, ..., n) of the minimal-norm extensions conj(B_k r_k), the
    conjugated Riesz vectors, of the functionals whose restrictions to the
    spans of B1, B2 have the coordinates R = (r1, r2) of restrict_pair."""
    return np.conj([_matvec(B1, R[0]), _matvec(B2, R[1])])
