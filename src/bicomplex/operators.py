"""T-linear operators T^n -> T^m as bicomplex matrices.

An operator splits entrywise into two complex matrices (M1, M2) acting on
the component vectors of the argument, so application, composition,
determinants, and inversion reduce to componentwise complex linear algebra.
Two operator norms are exposed side by side:

    sup_norm  = max(s1, s2) / sqrt(2)        (scaled unit-ball supremum)
    idem_norm = sqrt((s1^2 + s2^2) / 2)      (aggregate of component norms)

where s1, s2 are the largest singular values of M1, M2.  They differ in
general and satisfy sup_norm <= idem_norm <= sqrt(2) * sup_norm, so both are
reported rather than silently preferring one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _arrays
from ._arrays import hat_merge, hat_split, real_block_matrix
from ._floats import SQRT2
from .errors import DimensionMismatch, NotSquare, SingularOperator
from .scalar import Bicomplex, DEFAULT_SINGULAR_TOL
from .tmodule import TVector

#: Hat components whose condition number exceeds this are rejected by
#: solve/invert; proximity to the null cone is the dominant numerical hazard.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class NormReport:
    """Both operator norms plus the component singular values they come from."""

    sup_norm: float
    idem_norm: float
    s1: float
    s2: float

    @classmethod
    def of(cls, s1: float, s2: float) -> "NormReport":
        """Both norms from the component norms s1, s2."""
        sup_norm, idem_norm = _arrays.operator_norms(s1, s2)
        return cls(
            sup_norm=float(sup_norm),
            idem_norm=float(idem_norm),
            s1=float(s1),
            s2=float(s2),
        )

    def to_json(self) -> dict:
        return {
            "sup_norm": self.sup_norm,
            "idem_norm": self.idem_norm,
            "s1": self.s1,
            "s2": self.s2,
        }


def _condition(sv) -> tuple[float, float]:
    """Condition numbers (k1, k2) from descending component singular values (2, n)."""
    return tuple(float("inf") if s[-1] == 0.0 else float(s[0] / s[-1]) for s in sv)


def refusal(sv, det: Bicomplex, tol: float):
    """The SingularOperator arguments with which solve and invert refuse a
    square operator of component singular values sv (2, n) and determinant det
    at `tol`, or None: a component is refused when det vanishes in it at `tol`
    or its condition number exceeds CONDITION_LIMIT."""
    condition = _condition(sv)
    bad = set(det.classify(tol).vanishing_components)
    bad.update(k for k, cond in enumerate(condition, start=1) if cond > CONDITION_LIMIT)
    return (sorted(bad), (float(sv[0, -1]), float(sv[1, -1])), condition) if bad else None


class TMatrix:
    """An m-by-n matrix of bicomplex entries, stored as an (m, n, 4) array.

    The coefficients are frozen, so the hat split, the component singular
    values and the determinant are computed from them once, on first use,
    and kept for the life of the object.  split() returns the hat split as
    one read-only stack (2, m, n) that unpacks as the component matrices
    M1, M2, so each method below is one numpy call over both components.
    """

    __slots__ = ("_coeffs", "_split", "_singular_values", "_det", "_refusals")

    def __init__(self, coeffs):
        self._coeffs = _arrays.frozen_coeffs(coeffs, 3, "matrix")
        self._split = None
        self._singular_values = None
        self._det = None
        self._refusals = {}

    # construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "TMatrix":
        data = [[Bicomplex.coerce(v).coeffs for v in row] for row in rows]
        return cls(np.array(data, dtype=np.float64))

    @classmethod
    def from_hat(cls, M1, M2) -> "TMatrix":
        M1, M2 = np.asarray(M1), np.asarray(M2)
        if M1.shape != M2.shape or M1.ndim != 2:
            raise DimensionMismatch("component matrices must be 2-d with equal shapes")
        T = cls.__new__(cls)  # hat_merge's fresh array needs no defensive copy
        T._coeffs = _arrays.frozen_coeffs(hat_merge(M1, M2), 3, "matrix", copy=False)
        T._split = None
        T._singular_values = None
        T._det = None
        T._refusals = {}
        return T

    @classmethod
    def identity(cls, n: int) -> "TMatrix":
        coeffs = np.zeros((n, n, 4))
        coeffs[np.arange(n), np.arange(n), 0] = 1.0
        return cls(coeffs)

    @classmethod
    def zeros(cls, m: int, n: int) -> "TMatrix":
        return cls(np.zeros((m, n, 4)))

    @classmethod
    def scalar(cls, n: int, w) -> "TMatrix":
        """The multiplication operator x -> w*x on T^n."""
        w = Bicomplex.coerce(w)
        coeffs = np.zeros((n, n, 4))
        coeffs[np.arange(n), np.arange(n), :] = w.coeffs
        return cls(coeffs)

    # views ----------------------------------------------------------------

    @property
    def m(self) -> int:
        return self._coeffs.shape[0]

    @property
    def n(self) -> int:
        return self._coeffs.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def __getitem__(self, key: tuple[int, int]) -> Bicomplex:
        i, k = key
        return Bicomplex(*self._coeffs[i, k])

    def split(self) -> np.ndarray:
        if self._split is None:
            self._split = hat_split(self._coeffs)
            self._split.setflags(write=False)
        return self._split

    def __eq__(self, other) -> bool:
        return isinstance(other, TMatrix) and np.array_equal(self._coeffs, other._coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TMatrix(m={self.m}, n={self.n})"

    # algebra ----------------------------------------------------------------

    def __add__(self, other: "TMatrix") -> "TMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"matrix shapes differ: {self.shape} vs {other.shape}")
        return TMatrix(self._coeffs + other._coeffs)

    def __sub__(self, other: "TMatrix") -> "TMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"matrix shapes differ: {self.shape} vs {other.shape}")
        return TMatrix(self._coeffs - other._coeffs)

    def __neg__(self) -> "TMatrix":
        return TMatrix(-self._coeffs)

    def scale(self, w) -> "TMatrix":
        w = Bicomplex.coerce(w)
        wrow = np.array(w.coeffs, dtype=np.float64)
        return TMatrix(_arrays.mul4(wrow, self._coeffs))

    def __rmul__(self, w) -> "TMatrix":
        if isinstance(w, (Bicomplex, int, float, complex)):
            return self.scale(w)
        return NotImplemented

    def apply(self, x: TVector) -> TVector:
        """Matrix-vector product over the ring; acts componentwise on the
        hat coordinates."""
        if x.n != self.n:
            raise DimensionMismatch(f"operator takes dimension {self.n}, got {x.n}")
        return TVector.from_split(*_arrays.apply_pair(self.split(), x.split()))

    __call__ = apply

    def compose(self, other: "TMatrix") -> "TMatrix":
        """Composition self after other; hat components multiply componentwise."""
        if self.n != other.m:
            raise DimensionMismatch(f"inner dimensions differ: {self.n} vs {other.m}")
        return TMatrix.from_hat(*_arrays.compose_pair(self.split(), other.split()))

    __matmul__ = compose

    # norms --------------------------------------------------------------------

    def component_singular_values(self) -> np.ndarray:
        """Singular values of M1 and M2, in descending order: one read-only
        stack (2, min(m, n)) that unpacks as sv1, sv2."""
        if self._singular_values is None:
            self._singular_values = _arrays.pair_singular_values(self.split())
            self._singular_values.setflags(write=False)
        return self._singular_values

    def condition(self) -> tuple[float, float]:
        """Condition numbers (k1, k2) of M1 and M2: largest over smallest
        singular value, inf when that is zero."""
        return _condition(self.component_singular_values())

    def norms(self) -> NormReport:
        """Both operator norms from the largest component singular values."""
        sv1, sv2 = self.component_singular_values()
        return NormReport.of(sv1[0], sv2[0])

    def bound_constant(self) -> float:
        """The least M with |Tx| <= sqrt(2) * M * |x| for every x; coincides
        with sup_norm since sup |Tx| / |x| = max(s1, s2)."""
        return self.norms().sup_norm

    # inversion ------------------------------------------------------------------

    def det(self) -> Bicomplex:
        """Determinant assembled from the component determinants; the operator
        is invertible over the ring exactly when this scalar is nonsingular."""
        if self.m != self.n:
            raise NotSquare(f"determinant needs a square matrix, got {self.m}x{self.n}")
        if self._det is None:
            d1, d2 = np.linalg.det(self.split())
            self._det = Bicomplex.from_idempotent(complex(d1), complex(d2))
        return self._det

    def _invertibility_guard(self, tol: float):
        """Raise the refusal of solve and invert at `tol`, decided on the first
        call with that tol and kept with the singular values."""
        if self.m != self.n:
            raise NotSquare(f"inversion needs a square matrix, got {self.m}x{self.n}")
        if tol not in self._refusals:
            self._refusals[tol] = refusal(self.component_singular_values(), self.det(), tol)
        if self._refusals[tol] is not None:
            raise SingularOperator(*self._refusals[tol])

    def solve(self, b: TVector, tol: float = DEFAULT_SINGULAR_TOL) -> TVector:
        """Solve T x = b by solving the two complex component systems."""
        if b.n != self.m:
            raise DimensionMismatch(f"right-hand side dimension {b.n} != {self.m}")
        self._invertibility_guard(tol)
        return TVector.from_split(*_arrays.solve_pair(self.split(), b.split()))

    def invert(self) -> "TMatrix":
        """The inverse operator, with hat components M1^-1, M2^-1."""
        self._invertibility_guard(DEFAULT_SINGULAR_TOL)
        return TMatrix.from_hat(*np.linalg.inv(self.split()))

    # file form --------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "entries": self._coeffs.reshape(self.m * self.n, 4).tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "TMatrix":
        m, n = int(data["m"]), int(data["n"])
        entries = np.array(data["entries"], dtype=np.float64)
        if entries.shape != (m * n, 4):
            raise ValueError(f"expected {m * n} entries of 4 reals, got shape {entries.shape}")
        return cls(entries.reshape(m, n, 4))


def sampled_sup_norm(T: TMatrix, samples: int = 4096, seed: int = 0, refine_steps: int = 0) -> float:
    """Estimate sup over the unit sphere of |Tx| / sqrt(2) by random sampling.

    Works through the real block form of the operator, never through the hat
    decomposition, so it is an independent evaluation path for the closed-form
    norm.  Directions are drawn uniformly on the coefficient sphere; the best
    candidate is optionally sharpened by power iteration on R^T R.  Every
    evaluation is a genuine unit-vector ratio, so the estimate can only
    approach the true supremum from below.
    """
    R = real_block_matrix(T.coeffs)
    dim = R.shape[1]
    rng = np.random.default_rng(seed)
    best = 0.0
    best_x = None
    remaining = int(samples)
    while remaining > 0:
        batch = min(remaining, 200_000)
        X = rng.standard_normal((batch, dim))
        lengths = np.linalg.norm(X, axis=1)
        lengths[lengths == 0.0] = 1.0
        X /= lengths[:, None]
        values = np.linalg.norm(X @ R.T, axis=1)
        k = int(np.argmax(values))
        if values[k] > best:
            best = float(values[k])
            best_x = X[k].copy()
        remaining -= batch
    if refine_steps > 0 and best_x is not None:
        x = best_x
        for _ in range(refine_steps):
            y = R @ x
            z = R.T @ y
            length = np.linalg.norm(z)
            if length == 0.0:
                break
            x = z / length
            best = max(best, float(np.linalg.norm(R @ x)))
    return best / SQRT2
