"""Finite free modules over the bicomplex ring: vectors, norms and metrics,
idempotent splitting, submodules, and bounded-set diagnostics.

A vector in T^n splits entrywise into two complex coordinate vectors
(v1, v2); module operations act componentwise there, so a submodule is
represented by the pair of complex subspaces spanned by its generators'
components.  Submodules need not be free (e.g. the multiples of e1*g), which
is why the component-pair representation is canonical here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _arrays
from ._arrays import hat_merge, hat_split, vec_norm4
from .errors import DimensionMismatch, EmptyCollection
from .scalar import Bicomplex


class TVector:
    """An element of T^n, stored as an (n, 4) array of real coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        self._coeffs = _arrays.freeze(_arrays.as_coeffs(coeffs, 2, "vector"))
        if self._coeffs.shape[0] < 1:
            raise ValueError("vector dimension must be at least 1")

    # construction ---------------------------------------------------------

    @classmethod
    def from_scalars(cls, scalars) -> "TVector":
        rows = [Bicomplex.coerce(s).coeffs for s in scalars]
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def from_split(cls, v1, v2) -> "TVector":
        v1 = np.asarray(v1, dtype=np.complex128)
        v2 = np.asarray(v2, dtype=np.complex128)
        if v1.shape != v2.shape or v1.ndim != 1:
            raise DimensionMismatch("component vectors must be 1-d and equal length")
        return cls(hat_merge(v1, v2))

    @classmethod
    def zero(cls, n: int) -> "TVector":
        return cls(np.zeros((n, 4)))

    @classmethod
    def basis(cls, n: int, k: int) -> "TVector":
        coeffs = np.zeros((n, 4))
        coeffs[k, 0] = 1.0
        return cls(coeffs)

    # views ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._coeffs.shape[0]

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> Bicomplex:
        return Bicomplex(*self._coeffs[k])

    def split(self) -> "IdempotentVectorPair":
        h1, h2 = hat_split(self._coeffs)
        return IdempotentVectorPair(h1, h2)

    # module operations ------------------------------------------------------

    def _check_dim(self, other: "TVector"):
        if self.n != other.n:
            raise DimensionMismatch(f"vector dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other: "TVector") -> "TVector":
        self._check_dim(other)
        return TVector(self._coeffs + other._coeffs)

    def __sub__(self, other: "TVector") -> "TVector":
        self._check_dim(other)
        return TVector(self._coeffs - other._coeffs)

    def __neg__(self) -> "TVector":
        return TVector(-self._coeffs)

    def scale(self, w) -> "TVector":
        """Entrywise product with a scalar from the ring (or a subring)."""
        w = Bicomplex.coerce(w)
        wrow = np.array(w.coeffs, dtype=np.float64)
        return TVector(_arrays.mul4(wrow, self._coeffs))

    def __rmul__(self, w) -> "TVector":
        if isinstance(w, (Bicomplex, int, float, complex)):
            return self.scale(w)
        return NotImplemented

    def norm(self) -> float:
        """Euclidean norm over the 4n real coefficients; equals
        sqrt((|v1|^2 + |v2|^2) / 2) in component coordinates."""
        return float(vec_norm4(self._coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, TVector) and np.array_equal(self._coeffs, other._coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TVector({self._coeffs.tolist()!r})"

    # file forms -------------------------------------------------------------

    def to_json(self) -> list[list[float]]:
        return self._coeffs.tolist()

    @classmethod
    def from_json(cls, data) -> "TVector":
        return cls(np.array(data, dtype=np.float64))

    def to_csv(self) -> str:
        from ._arrays import fmt17

        return "\n".join(",".join(fmt17(v) for v in row) for row in self._coeffs)

    @classmethod
    def from_csv(cls, text: str) -> "TVector":
        rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
        return cls(np.array([[float(v) for v in row] for row in rows]))


@dataclass(frozen=True)
class IdempotentVectorPair:
    """The two complex coordinate vectors of a split vector."""

    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        for name in ("v1", "v2"):
            arr = np.array(getattr(self, name), dtype=np.complex128, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.v1.shape != self.v2.shape:
            raise DimensionMismatch("component vectors must have equal length")

    @property
    def n(self) -> int:
        return self.v1.shape[0]

    def merge(self) -> TVector:
        return TVector(hat_merge(self.v1, self.v2))


@dataclass(frozen=True)
class FMetricPoint:
    """A vector tagged with its F-norm |x| = rho(x, 0) under the
    coefficient-Euclidean metric (translation invariant by construction)."""

    vector: TVector
    fnorm: float

    @classmethod
    def at(cls, x: TVector) -> "FMetricPoint":
        return cls(x, x.norm())


def f_metric(x: TVector, y: TVector) -> float:
    """Translation-invariant metric rho(x, y) = |x - y|."""
    return (x - y).norm()


def product_metric(p: tuple[TVector, TVector], q: tuple[TVector, TVector]) -> float:
    """Metric |x - x'| + |y - y'| on the product module."""
    x, y = p
    xp, yp = q
    return f_metric(x, xp) + f_metric(y, yp)


@dataclass(frozen=True)
class DistanceResult:
    """Distance from a vector to a submodule, broken down per component.

    d1, d2 are the complex-subspace distances; d = sqrt((d1^2 + d2^2) / 2)
    and projection is the unique norm-minimizing element of the submodule.
    """

    d: float
    d1: float
    d2: float
    projection: TVector


class Submodule:
    """A submodule of T^n given by generators, represented canonically by
    orthonormal bases (Y1, Y2) of the two complex component subspaces.

    A submodule generated by countably many vectors is separable: scalar
    combinations with rational coefficients are dense in it.  At finite
    dimension this is automatic, so it is recorded here as documentation
    rather than as an operation.
    """

    def __init__(self, n: int, generators, rank_tol: float | None = None):
        self._n = int(n)
        if self._n < 1:
            raise ValueError("ambient dimension must be at least 1")
        gens = list(generators)
        for g in gens:
            if not isinstance(g, TVector):
                raise TypeError("generators must be TVector instances")
            if g.n != self._n:
                raise DimensionMismatch(f"generator dimension {g.n} != ambient {self._n}")
        self._generators = tuple(gens)
        G1, G2 = self.generator_matrices()
        self._basis1 = _arrays.orthonormal_columns(G1, rank_tol)
        self._basis2 = _arrays.orthonormal_columns(G2, rank_tol)
        self._basis1.setflags(write=False)
        self._basis2.setflags(write=False)

    @classmethod
    def zero(cls, n: int) -> "Submodule":
        return cls(n, [])

    @classmethod
    def full(cls, n: int) -> "Submodule":
        return cls(n, [TVector.basis(n, k) for k in range(n)])

    @classmethod
    def span(cls, *generators: TVector) -> "Submodule":
        gens = list(generators)
        if not gens:
            raise ValueError("span() needs at least one generator; use Submodule.zero")
        return cls(gens[0].n, gens)

    @property
    def n(self) -> int:
        return self._n

    @property
    def generators(self) -> tuple[TVector, ...]:
        return self._generators

    @property
    def basis1(self) -> np.ndarray:
        return self._basis1

    @property
    def basis2(self) -> np.ndarray:
        return self._basis2

    @property
    def dim1(self) -> int:
        return self._basis1.shape[1]

    @property
    def dim2(self) -> int:
        return self._basis2.shape[1]

    def generator_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Component matrices (G1, G2), one column per generator, from a single
        hat split of the stacked generator coefficients."""
        if self._generators:
            stacked = np.stack([g.coeffs for g in self._generators], axis=1)
        else:
            stacked = np.zeros((self._n, 0, 4))
        return hat_split(stacked)

    def is_fundamental(self) -> bool:
        """True when the generators span all of T^n (both component spaces full)."""
        return self.dim1 == self._n and self.dim2 == self._n

    # geometry ---------------------------------------------------------------

    def project(self, x: TVector) -> TVector:
        return self.distance_to(x).projection

    def distance_to(self, x: TVector) -> DistanceResult:
        if x.n != self._n:
            raise DimensionMismatch(f"vector dimension {x.n} != ambient {self._n}")
        pair = x.split()
        p1 = self._basis1 @ (self._basis1.conj().T @ pair.v1)
        p2 = self._basis2 @ (self._basis2.conj().T @ pair.v2)
        d1 = float(np.linalg.norm(pair.v1 - p1))
        d2 = float(np.linalg.norm(pair.v2 - p2))
        d = float(np.sqrt((d1 * d1 + d2 * d2) / 2.0))
        return DistanceResult(d, d1, d2, TVector.from_split(p1, p2))

    def contains(self, x: TVector, tol: float = 1e-10) -> bool:
        """Span membership: distance at most tol * (1 + |x|)."""
        return self.distance_to(x).d <= tol * (1.0 + x.norm())

    def real_span_basis(self) -> np.ndarray:
        """Orthonormal basis (as columns, shape (4n, r)) of the real subspace
        of R^{4n} swept out by ring multiples of the generators."""
        if not self._generators:
            return np.zeros((4 * self._n, 0))
        cols = []
        for g in self._generators:
            C = g.coeffs
            i1c, i2c, jc = _arrays.unit_multiples(C)
            for multiple in (C, i1c, i2c, jc):
                cols.append(multiple.reshape(-1))
        return _arrays.orthonormal_columns(np.column_stack(cols))

    # file form ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self._n, "generators": [g.to_json() for g in self._generators]}

    @classmethod
    def from_json(cls, data) -> "Submodule":
        return cls(data["n"], [TVector.from_json(g) for g in data["generators"]])

    def __repr__(self) -> str:
        return f"Submodule(n={self._n}, dims=({self.dim1}, {self.dim2}), generators={len(self._generators)})"


def in_span(x: TVector, Y: Submodule, tol: float = 1e-10) -> bool:
    return Y.contains(x, tol)


def bounded_sup(points) -> float:
    """Supremum of |x| over a finite collection; the boundedness certificate
    for finite samples."""
    sup = None
    for x in points:
        value = x.norm()
        sup = value if sup is None else max(sup, value)
    if sup is None:
        raise EmptyCollection("bounded_sup needs at least one vector")
    return sup
