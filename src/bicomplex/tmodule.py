"""Finite free modules over the bicomplex ring: vectors, norms, idempotent
splitting, and submodules.

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
from ._arrays import hat_split, pair_norms, vec_norm4
from ._floats import checked_norm, fmt17, qmean
from .errors import DimensionMismatch
from .scalar import Bicomplex

#: Relative tolerance of span membership (Submodule.contains) and of the
#: consistency of prescribed generator values.
SPAN_TOL = 1e-10


class TVector(_arrays.FrozenArrays):
    """An element of T^n, held as its read-only (n, 4) real coefficients or
    its read-only hat stack (2, n), whichever it was built from; the other
    form is computed on first use and kept.  A vector built from a hat stack
    (from_split, and the results of apply, solve, distance_to and the
    functionals) merges its coefficients only when they are read, so chained
    operations never merge.  split() unpacks as the component vectors v1, v2.
    """

    __slots__ = ("_coeffs", "_split")

    def __init__(self, coeffs):
        self._coeffs = _arrays.frozen_coeffs(coeffs, 2, "vector")
        self._split = None

    @classmethod
    def _of_hat(cls, H: np.ndarray) -> "TVector":
        """The vector of the fresh hat stack H (2, n), kept without a copy."""
        x = cls.__new__(cls)
        x._coeffs, x._split = _arrays.frozen_hat(H, 2, "vector")
        return x

    # construction ---------------------------------------------------------

    @classmethod
    def from_scalars(cls, scalars) -> "TVector":
        rows = [Bicomplex.coerce(s).coeffs for s in scalars]
        return cls(np.array(rows, dtype=np.float64))

    @classmethod
    def from_split(cls, v1, v2) -> "TVector":
        v1, v2 = np.asarray(v1), np.asarray(v2)
        if v1.shape != v2.shape or v1.ndim != 1:
            raise DimensionMismatch("component vectors must be 1-d and equal length")
        return cls._of_hat(np.array((v1, v2), dtype=np.complex128))

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
        return len(self._coeffs) if self._split is None else self._split.shape[1]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k: int) -> Bicomplex:
        return Bicomplex(*self.coeffs[k])

    def split(self) -> np.ndarray:
        if self._split is None:
            self._split = hat_split(self._coeffs)
            self._split.setflags(write=False)
        return self._split

    # module operations ------------------------------------------------------

    def _check_dim(self, other: "TVector"):
        if self.n != other.n:
            raise DimensionMismatch(f"vector dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other: "TVector") -> "TVector":
        self._check_dim(other)
        return TVector(self.coeffs + other.coeffs)

    def __sub__(self, other: "TVector") -> "TVector":
        self._check_dim(other)
        return TVector(self.coeffs - other.coeffs)

    def __neg__(self) -> "TVector":
        return TVector(-self.coeffs)

    def scale(self, w) -> "TVector":
        """Entrywise product with a scalar from the ring (or a subring)."""
        w = Bicomplex.coerce(w)
        wrow = np.array(w.coeffs, dtype=np.float64)
        return TVector(_arrays.mul4(wrow, self.coeffs))

    def __rmul__(self, w) -> "TVector":
        if isinstance(w, (Bicomplex, int, float, complex)):
            return self.scale(w)
        return NotImplemented

    def norm(self) -> float:
        """Euclidean norm over the 4n real coefficients; equals
        sqrt((|v1|^2 + |v2|^2) / 2) in component coordinates."""
        C = self.coeffs
        with np.errstate(over="ignore"):
            return checked_norm(float(vec_norm4(C)), C.flat)

    def __eq__(self, other) -> bool:
        return isinstance(other, TVector) and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TVector({self.coeffs.tolist()!r})"

    # file forms -------------------------------------------------------------

    def to_json(self) -> list[list[float]]:
        return self.coeffs.tolist()

    @classmethod
    def from_json(cls, data) -> "TVector":
        return cls(np.array(data, dtype=np.float64))

    def to_csv(self) -> str:
        return "\n".join(",".join(fmt17(v) for v in row) for row in self.coeffs)

    @classmethod
    def from_csv(cls, text: str) -> "TVector":
        rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
        return cls(np.array([[float(v) for v in row] for row in rows]))


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

    def __init__(self, n: int, generators):
        self._n = _arrays.dimension(n)
        if self._n < 1:
            raise ValueError("ambient dimension must be at least 1")
        gens = list(generators)
        for g in gens:
            if not isinstance(g, TVector):
                raise TypeError("generators must be TVector instances")
            if g.n != self._n:
                raise DimensionMismatch(f"generator dimension {g.n} != ambient {self._n}")
        self._generators = tuple(gens)
        U, ranks = _arrays.orthonormal_columns(self.generator_matrices())
        U.setflags(write=False)
        self._basis1 = U[0, :, : ranks[0]]
        self._basis2 = U[1, :, : ranks[1]]

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

    # geometry ---------------------------------------------------------------

    def project(self, x: TVector) -> TVector:
        return self.distance_to(x).projection

    def distance_to(self, x: TVector) -> DistanceResult:
        if x.n != self._n:
            raise DimensionMismatch(f"vector dimension {x.n} != ambient {self._n}")
        V = x.split()
        P = np.array((self._basis1 @ (self._basis1.conj().T @ V[0]),
                      self._basis2 @ (self._basis2.conj().T @ V[1])))
        d1, d2 = pair_norms(*(V - P))
        return DistanceResult(qmean(d1, d2), d1, d2, TVector._of_hat(P))

    def contains(self, x: TVector) -> bool:
        """Span membership: distance at most SPAN_TOL * |x|."""
        return self.distance_to(x).d <= SPAN_TOL * x.norm()

    # file form ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self._n, "generators": [g.to_json() for g in self._generators]}

    @classmethod
    def from_json(cls, data) -> "Submodule":
        return cls(data["n"], [TVector.from_json(g) for g in data["generators"]])

    def __repr__(self) -> str:
        return f"Submodule(n={self._n}, dims=({self.dim1}, {self.dim2}), generators={len(self._generators)})"

