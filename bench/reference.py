"""Reference computations made apart from the program, and the output checkers.

Nothing here imports ``bicomplex``.  Scalar products come from the
multiplication table of the real basis (1, i1, i2, j); an m-by-n operator
becomes the 4m-by-4n real block matrix of left multiplications; a submodule
becomes a real orthonormal basis of the span of its generators' ring
multiples.  Every checker takes plain arrays or the program's result objects
and returns True for a correct output, False for a wrong one.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance of every comparison.  Correct outputs of the
#: well-conditioned inputs the workloads use are good to ~1e-14; a wrong
#: output is off by O(1).
TOL = 1e-9

SQRT2 = math.sqrt(2.0)
ONE = np.array([1.0, 0.0, 0.0, 0.0])
E1 = np.array([0.5, 0.0, 0.0, 0.5])
E2 = np.array([0.5, 0.0, 0.0, -0.5])

# basis[p] * basis[q] = sign * basis[r] over (1, i1, i2, j), from
# i1^2 = i2^2 = -1, j = i1*i2 and commutativity.
_PRODUCTS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (1, 3), (2, 2): (-1, 0), (2, 3): (-1, 1),
    (3, 0): (1, 3), (3, 1): (-1, 2), (3, 2): (-1, 1), (3, 3): (1, 0),
}
_BASIS_MATRICES = np.zeros((4, 4, 4))
for (_p, _q), (_sign, _r) in _PRODUCTS.items():
    _BASIS_MATRICES[_p, _r, _q] = _sign


def left_mul(w) -> np.ndarray:
    """The real 4x4 matrix of z -> w*z, for coefficients w of shape (..., 4)."""
    return np.tensordot(np.asarray(w, dtype=np.float64), _BASIS_MATRICES, axes=([-1], [0]))


def product(w, z) -> np.ndarray:
    return left_mul(w) @ np.asarray(z, dtype=np.float64)


def block_matrix(C) -> np.ndarray:
    """An (m, n, 4) operator as the (4m, 4n) real matrix on stacked coefficients."""
    C = np.asarray(C, dtype=np.float64)
    m, n = C.shape[0], C.shape[1]
    return left_mul(C).transpose(0, 2, 1, 3).reshape(4 * m, 4 * n)


def functional_matrix(coeffs) -> np.ndarray:
    """f(x) = sum_k c_k x_k as a 4 x 4n real matrix."""
    return block_matrix(np.asarray(coeffs, dtype=np.float64)[None, :, :])


def span_basis(generators) -> np.ndarray:
    """Real orthonormal basis (columns) of the span of the ring multiples of
    the generators, each an (n, 4) coefficient array."""
    cols = [
        (np.asarray(g, dtype=np.float64) @ _BASIS_MATRICES[p].T).reshape(-1)
        for g in generators
        for p in range(4)
    ]
    u, s, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]


def _close(value, target, scale) -> bool:
    diff = np.asarray(value, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return bool(np.all(np.isfinite(diff))) and float(np.linalg.norm(diff)) <= TOL * (1.0 + scale)


def _fro(A) -> float:
    return float(np.linalg.norm(A))


# --- scalars -----------------------------------------------------------------


def check_product(w, z, out) -> bool:
    return _close(out, product(w, z), _fro(w) * _fro(z))


def check_inverse(w, out) -> bool:
    return _close(product(w, out), ONE, _fro(w) * _fro(out))


# --- operators ---------------------------------------------------------------


def check_apply(R, x, y) -> bool:
    return _close(np.reshape(y, -1), R @ np.reshape(x, -1), _fro(R) * _fro(x))


def check_solve(R, b, x) -> bool:
    x = np.reshape(x, -1)
    return _close(R @ x, np.reshape(b, -1), _fro(R) * _fro(x) + _fro(b))


def check_compose(RA, RB, C) -> bool:
    return _close(block_matrix(C), RA @ RB, _fro(RA) * _fro(RB))


def check_invert(R, Cinv) -> bool:
    Rinv = block_matrix(Cinv)
    return _close(Rinv @ R, np.eye(R.shape[0]), _fro(Rinv) * _fro(R))


def check_norms(singular_values, sup_norm, idem_norm, s1, s2) -> bool:
    """`singular_values` are those of the block matrix, largest first; each
    component singular value appears among them twice."""
    smax = float(singular_values[0])
    rel = TOL * (1.0 + smax)
    on_spectrum = all(float(np.min(np.abs(singular_values - s))) <= rel for s in (s1, s2))
    return (
        on_spectrum
        and abs(max(s1, s2) - smax) <= rel
        and abs(sup_norm - smax / SQRT2) <= rel
        and abs(idem_norm - math.sqrt((s1 * s1 + s2 * s2) / 2.0)) <= rel
        and sup_norm <= idem_norm + rel
        and idem_norm <= SQRT2 * sup_norm + rel
    )


# --- submodules and functionals ----------------------------------------------


def check_distance(Q, x, d, projection) -> bool:
    v = np.reshape(x, -1)
    p = Q @ (Q.T @ v)
    scale = _fro(v)
    return _close(d, np.linalg.norm(v - p), scale) and _close(np.reshape(projection, -1), p, scale)


def _pair_of(values) -> list[float]:
    """Distinct values of a spectrum [a, a, b, b] (largest first) as [a, b]."""
    return [float(values[0]), float(values[2])]


def check_extension(generators, Q, f_coeffs, ext_coeffs, y_component_norms, x_component_norms) -> bool:
    """The extension agrees with f on every generator and keeps the component
    norms of f restricted to the submodule."""
    Rf = functional_matrix(f_coeffs)
    Re = functional_matrix(ext_coeffs)
    scale = _fro(Rf)
    agrees = all(_close(Re @ np.reshape(g, -1), Rf @ np.reshape(g, -1), scale * _fro(g)) for g in generators)
    restricted = _pair_of(np.linalg.svd(Rf @ Q @ Q.T, compute_uv=False))
    kept = _pair_of(np.linalg.svd(Re, compute_uv=False))
    return (
        agrees
        and _close(kept, restricted, scale)
        and _close(sorted(y_component_norms, reverse=True), restricted, scale)
        and _close(sorted(x_component_norms, reverse=True), restricted, scale)
    )


def check_separation(generators, Q, x, f_coeffs, d) -> bool:
    """f vanishes on the submodule, f(x) = 1, and d is the distance of x to it."""
    Rf = functional_matrix(f_coeffs)
    v = np.reshape(x, -1)
    scale = _fro(Rf) * (1.0 + _fro(v))
    vanishes = all(_close(Rf @ np.reshape(g, -1), np.zeros(4), scale * _fro(g)) for g in generators)
    return (
        vanishes
        and _close(Rf @ v, ONE, scale)
        and _close(d, np.linalg.norm(v - Q @ (Q.T @ v)), _fro(v))
    )


def check_decomposition(w, h1, h2, magnitudes) -> bool:
    """w = h1*e1 + h2*e2 with h1, h2 complex in i1, and the magnitudes are |h1|, |h2|."""
    c1 = np.array([h1.real, h1.imag, 0.0, 0.0])
    c2 = np.array([h2.real, h2.imag, 0.0, 0.0])
    rebuilt = product(c1, E1) + product(c2, E2)
    return _close(rebuilt, w, _fro(w)) and _close(magnitudes, [abs(h1), abs(h2)], _fro(w))
