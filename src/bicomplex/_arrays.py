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

import functools
import math
import operator

import numpy as np

from ._floats import EPS, MUL_TERMS, NORM_FLOOR, SQRT2, checked_norm, mul_parts, qmean


def integer(value, what: str = "a dimension") -> int:
    """`value` as an integer, never a bool or a float truncated; `what`
    names it in the error."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def frozen_coeffs(data, ndim: int, what: str) -> np.ndarray:
    """A read-only float64 copy of `data`, checked to have `ndim` nonempty
    axes, the last of length 4, and finite entries: the sum of squares, one
    BLAS dot, is below inf, or else np.isfinite holds, as it does for entries
    whose squares overflow.  The copy keeps later writes to `data` from
    reaching the per-object caches built on it."""
    arr = np.array(data, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != 4:
        raise ValueError(f"{what}: expected shape ({'..., ' * (ndim - 1)}4), got {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{what}: every dimension must be at least 1, got {arr.shape}")
    if not np.vdot(arr, arr) < math.inf and not np.isfinite(arr).all():
        raise ValueError(f"{what}: coefficients must be finite")
    arr.setflags(write=False)
    return arr


def hat_split(C: np.ndarray) -> np.ndarray:
    """Coefficients (..., 4) -> the C-contiguous stack (2, ...) of complex hat
    components; it unpacks as h1, h2.  A C-contiguous stack is read as one
    (k, 4) view, so each sum is one 1-D loop; other inputs are read in place."""
    Q = C.reshape(-1, 4) if C.ndim > 2 and C.flags.c_contiguous else C
    H = np.empty((2,) + Q.shape[:-1], dtype=np.complex128)
    R, I = H.real, H.imag
    a, b, c, d = Q[..., 0], Q[..., 1], Q[..., 2], Q[..., 3]
    np.add(a, d, R[0, ...])
    np.subtract(b, c, I[0, ...])
    np.subtract(a, d, R[1, ...])
    np.add(b, c, I[1, ...])
    return H if Q is C else H.reshape((2,) + C.shape[:-1])


def _merge_into(C: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """merge_parts' sums of complex arrays written into the coefficients
    (..., 4) of C, with the same bits.  Writing them in place takes about half
    the time of stacking merge_parts' four results at n = 8, and a third for
    large stacks."""
    np.add(h1.real, h2.real, out=C[..., 0])
    np.add(h1.imag, h2.imag, out=C[..., 1])
    np.subtract(h2.imag, h1.imag, out=C[..., 2])
    np.subtract(h1.real, h2.real, out=C[..., 3])
    C *= 0.5
    return C


def hat_merge(h1, h2) -> np.ndarray:
    """Inverse of hat_split: the coefficients (..., 4) of h1*e1 + h2*e2."""
    h1 = np.asarray(h1, dtype=np.complex128)
    h2 = np.asarray(h2, dtype=np.complex128)
    return _merge_into(np.empty(np.broadcast_shapes(h1.shape, h2.shape) + (4,)), h1, h2)


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
    """Dot products sum_k u_k v_k over the last axis of two stacks (..., n),
    which broadcast, as row-by-column matrix products; each has the bits of
    the 1-D u @ v."""
    return (U[..., None, :] @ V[..., :, None])[..., 0, 0]


def pair_norms(u1: np.ndarray, u2: np.ndarray) -> tuple:
    """Euclidean norms over the last axis of two complex component arrays
    (..., n): the sums of squares np.linalg.norm takes of one vector, with
    checked_norm's scaled fallback.  Floats for vectors, arrays for stacks."""
    us = [np.ascontiguousarray(u, dtype=np.complex128) for u in (u1, u2)]
    if us[0].ndim == 1:  # a vector's two BLAS dots, added as Python floats; np.vdot never warns
        return tuple([checked_norm(math.sqrt(float(np.vdot(u.real, u.real)) + float(np.vdot(u.imag, u.imag))),
                                   u.view(np.float64)) for u in us])
    with np.errstate(over="ignore"):
        plain = [np.sqrt(dots(u.real, u.real) + dots(u.imag, u.imag)) for u in us]
    return tuple([checked_norms(p, u) for p, u in zip(plain, us)])


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


def add_in_turn(s: np.ndarray) -> np.ndarray:
    """s[..., 0] + s[..., 1] + ... + s[..., n-1], added in turn: (..., n) -> (...).
    One vector's terms take one C loop of np.add.accumulate, whose order numpy
    documents; a stack's take n passes over all its rows, into one array."""
    if s.ndim == 1:
        return np.add.accumulate(s)[-1]
    total = s[..., 0]
    for k in range(1, s.shape[-1]):
        total = np.add(total, s[..., k], out=None if k == 1 else total)
    return total


def vec_norm4(C: np.ndarray) -> np.ndarray:
    """Euclidean norm over the trailing (entries, 4) axes: (..., n, 4) -> (...):
    each entry's a*a + b*b + c*c + d*d, then the entries, added in turn: an order
    the package owns, so every layout gives the same bits on any numpy."""
    Q = C * C
    return np.sqrt(add_in_turn(Q[..., 0] + Q[..., 1] + Q[..., 2] + Q[..., 3]))


# Coefficient planes (4, ..., rows) hold a stack of `rows` scalars (4, rows)
# or vectors (4, n, rows) with the row axis last, so that each pass of the
# kernels below is one long contiguous loop; row by row, they give the bits
# of the kernels above.  plane_mul4 also takes scalar planes as a list with
# None for each plane known to be zero, and leaves its terms out.


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
    """hat_merge of complex arrays (..., rows) into planes (4, ..., rows), the same bits."""
    P = np.empty((4,) + np.broadcast(h1, h2).shape)
    _merge_into(_coefficients_last(P), h1, h2)
    return P


#: The ufunc that joins a term of MUL_TERMS with its sign to the sum before it.
_JOIN = {1: np.add, -1: np.subtract}


@functools.cache
def _kept_terms(given: tuple) -> tuple:
    """MUL_TERMS without the terms of the planes u_k not given."""
    return tuple(tuple((sign, k, l) for sign, k, l in terms if given[k]) for terms in MUL_TERMS)


def plane_mul4(U, V) -> np.ndarray:
    """mul4 on planes, which broadcast: scalars (4, rows) times vectors
    (4, n, rows).  Each coefficient is summed in place in its plane of the
    output, term by term in MUL_TERMS' order, through one scratch plane.

    U may be a sequence of four planes in which None stands for a plane known
    to be zero, not all four: the terms it enters are left out, and the others
    keep MUL_TERMS' order, the first kept one starting the sum with its sign.
    A left-out term is a signed zero, and adding one leaves any nonzero sum as
    it is, so every coefficient keeps its bits except, where it is zero, its
    sign, which no norm sees."""
    u, v = list(U), list(V)
    table = _kept_terms(tuple(p is not None for p in u))
    (_, k, l), *_ = table[0]
    P = np.empty((4,) + np.broadcast(u[k], v[l]).shape)
    term = np.empty(P.shape[1:])
    for out, ((sign, k, l), *rest) in zip(P, table):
        np.multiply(u[k], v[l], out)
        if sign < 0:
            np.negative(out, out)
        for sign, k, l in rest:
            _JOIN[sign](out, np.multiply(u[k], v[l], term), out)
    return P


def _plane_squares(P: np.ndarray) -> np.ndarray:
    """Each entry's a*a + b*b + c*c + d*d over planes (4, ..., rows): the
    planes squared into one array, then added in turn into its first."""
    Q = P * P
    for k in (1, 2, 3):
        Q[0] += Q[k]
    return Q[0]


def plane_norm4(P: np.ndarray) -> np.ndarray:
    """Each scalar's norm on planes, vec_norm4 of one entry: (4, ..., rows) -> (..., rows)."""
    return np.sqrt(_plane_squares(P))


def plane_vec_norm4(P: np.ndarray) -> np.ndarray:
    """vec_norm4 on vector planes: (4, n, rows) -> (rows,)."""
    return np.sqrt(add_in_turn(_plane_squares(P).T))


def vector_norms(C: np.ndarray) -> np.ndarray:
    """Norms of a stack of vectors (..., n, 4), each with the bits of
    TVector.norm: vec_norm4 with checked_norm's scaled fallback."""
    with np.errstate(over="ignore"):
        return checked_norms(vec_norm4(C), C)


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
