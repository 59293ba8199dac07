"""T-linear functionals, their real-part decomposition, and the constructive
Hahn-Banach extension pipeline with its separation and norming corollaries.

Every T-linear functional on T^n is backed by a coefficient vector c with
f(x) = sum_k c_k * x_k, so its hat components are complex row vectors acting
bilinearly on the split coordinates.  Extension from a submodule is made
constructive: per component, the restricted functional is represented by a
Riesz vector inside the component subspace, and the minimal-norm extension
keeps exactly that vector.  Component norms are therefore preserved by
construction.

The separation and norming corollaries are implemented only where they are
attainable: when a hat component of the target vanishes (null-cone inputs),
the functional value is confined to an ideal and can never equal the
required positive real number, so those inputs raise instead of silently
returning something off-contract.  Achieved norms are always reported next
to the nominal values rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _arrays
from ._arrays import hat_merge
from .errors import (
    ComponentInNullDistance,
    DimensionMismatch,
    InconsistentFunctional,
    NullConeVector,
)
from .operators import NormReport
from .scalar import Bicomplex
from .tmodule import Submodule, TVector


class TFunctional:
    """A T-linear map T^n -> T represented by its coefficient vector."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: TVector):
        if not isinstance(coeffs, TVector):
            coeffs = TVector(coeffs)
        self._coeffs = coeffs

    # construction ---------------------------------------------------------

    @classmethod
    def coordinate(cls, n: int, k: int) -> "TFunctional":
        return cls(TVector.basis(n, k))

    @classmethod
    def zero(cls, n: int) -> "TFunctional":
        return cls(TVector.zero(n))

    @classmethod
    def from_generator_values(
        cls, Y: Submodule, values: Sequence[Bicomplex], tol: float = 1e-10
    ) -> "TFunctional":
        """Least-squares functional with prescribed values on the generators.

        Raises InconsistentFunctional when the values disagree on dependent
        generators beyond tol (no T-linear functional can interpolate them).
        """
        gens = Y.generators
        if len(values) != len(gens):
            raise DimensionMismatch(f"{len(gens)} generators but {len(values)} values")
        if not gens:
            return cls.zero(Y.n)
        values = [Bicomplex.coerce(v) for v in values]
        G1, G2 = Y.generator_matrices()
        t1 = np.array([v.to_idempotent().h1 for v in values])
        t2 = np.array([v.to_idempotent().h2 for v in values])
        rows = []
        scale = 1.0 + max(float(np.linalg.norm(t1)), float(np.linalg.norm(t2)))
        for G, t, k in ((G1, t1, 1), (G2, t2, 2)):
            c, *_ = np.linalg.lstsq(G.T, t, rcond=None)
            residual = float(np.linalg.norm(G.T @ c - t))
            if residual > tol * scale:
                raise InconsistentFunctional(
                    f"values on dependent generators disagree in component {k} "
                    f"(residual {residual:.3e})"
                )
            rows.append(c)
        return cls(TVector.from_split(rows[0], rows[1]))

    # views ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._coeffs.n

    @property
    def coeffs(self) -> TVector:
        return self._coeffs

    def hat_rows(self) -> tuple[np.ndarray, np.ndarray]:
        pair = self._coeffs.split()
        return pair.v1, pair.v2

    def __call__(self, x: TVector) -> Bicomplex:
        """Evaluate sum_k c_k * x_k over the ring."""
        if x.n != self.n:
            raise DimensionMismatch(f"functional takes dimension {self.n}, got {x.n}")
        c1, c2 = self.hat_rows()
        pair = x.split()
        return Bicomplex.from_idempotent(complex(c1 @ pair.v1), complex(c2 @ pair.v2))

    # algebra ----------------------------------------------------------------

    def __add__(self, other: "TFunctional") -> "TFunctional":
        return TFunctional(self._coeffs + other._coeffs)

    def __sub__(self, other: "TFunctional") -> "TFunctional":
        return TFunctional(self._coeffs - other._coeffs)

    def scale(self, w) -> "TFunctional":
        return TFunctional(self._coeffs.scale(w))

    def __eq__(self, other) -> bool:
        return isinstance(other, TFunctional) and self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"TFunctional(n={self.n})"

    # norms ------------------------------------------------------------------

    def component_norms(self) -> tuple[float, float]:
        c1, c2 = self.hat_rows()
        return float(np.linalg.norm(c1)), float(np.linalg.norm(c2))

    def norms(self) -> NormReport:
        """Operator norms of the functional viewed as a 1-by-n operator."""
        return NormReport.of(*self.component_norms())

    def restricted_component_norms(self, Y: Submodule) -> tuple[float, float]:
        """Norms of the restrictions to the component subspaces of Y."""
        c1, c2 = self.hat_rows()
        r1 = Y.basis1.conj().T @ np.conj(c1)
        r2 = Y.basis2.conj().T @ np.conj(c2)
        return float(np.linalg.norm(r1)), float(np.linalg.norm(r2))

    # real decomposition -------------------------------------------------------

    def real_parts(self) -> tuple["RealLinearFunctional", ...]:
        """The four real-linear coordinate functionals f1..f4 with
        f(x) = f1(x) + i1*f2(x) + i2*f3(x) + j*f4(x)."""
        C = self._coeffs.coeffs
        a, b, c, d = C[:, 0], C[:, 1], C[:, 2], C[:, 3]
        f1 = np.stack([a, -b, -c, d], axis=-1)
        f2 = np.stack([b, a, -d, -c], axis=-1)
        f3 = np.stack([c, -d, a, -b], axis=-1)
        f4 = np.stack([d, c, b, a], axis=-1)
        return tuple(RealLinearFunctional(rows) for rows in (f1, f2, f3, f4))

    # file form ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": self._coeffs.to_json()}

    @classmethod
    def from_json(cls, data) -> "TFunctional":
        f = cls(TVector.from_json(data["coeffs"]))
        if "n" in data and int(data["n"]) != f.n:
            raise ValueError(f"declared dimension {data['n']} != coefficient length {f.n}")
        return f


class RealLinearFunctional:
    """An R-linear map on the 4n real coordinates of T^n."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        self._coeffs = _arrays.freeze(_arrays.as_coeffs(coeffs, 2, "real functional"))

    @classmethod
    def zero(cls, n: int) -> "RealLinearFunctional":
        return cls(np.zeros((n, 4)))

    @property
    def n(self) -> int:
        return self._coeffs.shape[0]

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def __call__(self, x: TVector) -> float:
        if x.n != self.n:
            raise DimensionMismatch(f"functional takes dimension {self.n}, got {x.n}")
        return float(np.sum(self._coeffs * x.coeffs))

    def dual_norm(self) -> float:
        """Euclidean dual norm (coefficient norm)."""
        return float(np.linalg.norm(self._coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, RealLinearFunctional) and np.array_equal(
            self._coeffs, other._coeffs
        )

    __hash__ = None


def lift_real(F1: RealLinearFunctional) -> TFunctional:
    """Rebuild a T-linear functional from a real-linear one via

        x*(x) = F1(x) - i1*F1(i1 x) - i2*F1(i2 x) + j*F1(j x).

    On coefficient rows this is the sign pattern (r0, -r1, -r2, r3), so the
    round trip through the f1 part of a functional is exact.
    """
    rho = F1.coeffs
    coeffs = np.stack([rho[:, 0], -rho[:, 1], -rho[:, 2], rho[:, 3]], axis=-1)
    return TFunctional(TVector(coeffs))


def extend_real(f1: RealLinearFunctional, Y: Submodule) -> RealLinearFunctional:
    """Extend a real-linear functional off the real span of Y by composing
    with the orthogonal projection onto that span.

    The extension agrees with f1 on Y and its dual norm equals the dual norm
    of the restriction of f1 to Y (the minimal-norm extension, realizing the
    sublinear bound |F1(x)| <= |f1| * |x|).
    """
    if f1.n != Y.n:
        raise DimensionMismatch(f"functional dimension {f1.n} != ambient {Y.n}")
    B = Y.real_span_basis()
    flat = f1.coeffs.reshape(-1)
    projected = B @ (B.T @ flat)
    return RealLinearFunctional(projected.reshape(Y.n, 4))


@dataclass(frozen=True)
class ExtensionReport:
    """Result of extending a functional from a submodule to the ambient space."""

    extension: TFunctional
    restriction_error: float
    y_component_norms: tuple[float, float]
    x_component_norms: tuple[float, float]
    y_norms: NormReport
    x_norms: NormReport

    def to_json(self) -> dict:
        return {
            "extension": self.extension.to_json(),
            "restriction_error": self.restriction_error,
            "y_component_norms": list(self.y_component_norms),
            "x_component_norms": list(self.x_component_norms),
            "y_norms": self.y_norms.to_json(),
            "x_norms": self.x_norms.to_json(),
        }


def hahn_banach_extend(ystar, Y: Submodule, tol: float = 1e-10) -> ExtensionReport:
    """Extend a functional given on a submodule to the whole space, preserving
    each component norm.

    `ystar` is either a TFunctional on the ambient space (only its restriction
    to Y matters) or a sequence of prescribed values on Y's generators, in
    which case inconsistent values raise InconsistentFunctional.

    Per component the restriction is represented by its Riesz vector inside
    the component subspace; the extension keeps that vector, so its component
    norms equal those of the restriction and the aggregate norms agree.
    """
    if not isinstance(ystar, TFunctional):
        ystar = TFunctional.from_generator_values(Y, ystar, tol)
    if ystar.n != Y.n:
        raise DimensionMismatch(f"functional dimension {ystar.n} != ambient {Y.n}")
    c1, c2 = ystar.hat_rows()
    riesz = []
    for B, c in ((Y.basis1, c1), (Y.basis2, c2)):
        riesz.append(B @ (B.conj().T @ np.conj(c)))
    e1 = np.conj(riesz[0])
    e2 = np.conj(riesz[1])
    extension = TFunctional(TVector(hat_merge(e1, e2)))

    # Restriction error as an exact operator norm on Y: project the
    # coefficient difference back onto the component subspaces.
    err = 0.0
    for B, old, new in ((Y.basis1, c1, e1), (Y.basis2, c2, e2)):
        diff = np.conj(new - old)
        err = max(err, float(np.linalg.norm(B.conj().T @ diff)))

    y_comp = ystar.restricted_component_norms(Y)
    x_comp = extension.component_norms()
    return ExtensionReport(
        extension=extension,
        restriction_error=err,
        y_component_norms=y_comp,
        x_component_norms=x_comp,
        y_norms=NormReport.of(*y_comp),
        x_norms=NormReport.of(*x_comp),
    )


@dataclass(frozen=True)
class SeparationResult:
    """A functional annihilating a submodule and equal to 1 at the target."""

    functional: TFunctional
    norms: NormReport
    claimed_norm: float
    d: float
    d1: float
    d2: float


def separating_functional(x: TVector, Y: Submodule, tol: float = 1e-12) -> SeparationResult:
    """Build f with f|_Y = 0 and f(x) = 1 from the projection residuals.

    Requires both component distances positive: if d_k = 0 the value f(x)
    lies in an ideal and can never equal 1, so ComponentInNullDistance is
    raised (a strictly stronger hypothesis than d > 0 alone).
    """
    result = Y.distance_to(x)
    threshold = tol * (1.0 + x.norm())
    bad = [k for k, dk in ((1, result.d1), (2, result.d2)) if dk <= threshold]
    if bad:
        raise ComponentInNullDistance(bad, (result.d1, result.d2))
    pair = x.split()
    proj = result.projection.split()
    res1 = pair.v1 - proj.v1
    res2 = pair.v2 - proj.v2
    c1 = np.conj(res1) / (result.d1 * result.d1)
    c2 = np.conj(res2) / (result.d2 * result.d2)
    functional = TFunctional(TVector(hat_merge(c1, c2)))
    return SeparationResult(
        functional=functional,
        norms=functional.norms(),
        claimed_norm=1.0 / result.d,
        d=result.d,
        d1=result.d1,
        d2=result.d2,
    )


@dataclass(frozen=True)
class NormingResult:
    """A functional achieving f(x) = |x| as a real scalar, with its norms."""

    functional: TFunctional
    value: Bicomplex
    norms: NormReport
    balanced: bool


def norming_functional(x: TVector, tol: float = 1e-12) -> NormingResult:
    """Build f with f(x) = |x| (a positive real) and report its norms.

    The aggregate norm equals 1 exactly when the component magnitudes of x
    are balanced; otherwise the achieved norms are reported as measured.
    Null-cone vectors raise NullConeVector since f(x) would be confined to
    an ideal.
    """
    pair = x.split()
    n1 = float(np.linalg.norm(pair.v1))
    n2 = float(np.linalg.norm(pair.v2))
    threshold = tol * (1.0 + x.norm())
    bad = [k for k, nk in ((1, n1), (2, n2)) if nk <= threshold]
    if bad:
        raise NullConeVector(bad)
    target = x.norm()
    c1 = np.conj(pair.v1) * (target / (n1 * n1))
    c2 = np.conj(pair.v2) * (target / (n2 * n2))
    functional = TFunctional(TVector(hat_merge(c1, c2)))
    return NormingResult(
        functional=functional,
        value=functional(x),
        norms=functional.norms(),
        balanced=abs(n1 - n2) <= 1e-12 * (1.0 + max(n1, n2)),
    )


class DualityGap(NamedTuple):
    sup_estimate: float
    gap: float


def duality_gap(x: TVector, trials: int = 10_000, seed: int = 0) -> DualityGap:
    """Estimate sup over sampled unit-idem-norm functionals of |f(x)| and the
    gap to |x|.  A measurement, never an assertion: for unbalanced x the
    sampled supremum can exceed |x| (it tends to max_k |v_k|).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if x.norm() == 0.0:
        return DualityGap(0.0, 0.0)
    pair = x.split()
    rng = np.random.default_rng(seed)
    n = x.n
    C1 = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    C2 = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    scale = np.sqrt(
        (np.sum(np.abs(C1) ** 2, axis=1) + np.sum(np.abs(C2) ** 2, axis=1)) / 2.0
    )
    scale[scale == 0.0] = 1.0
    e1 = C1 @ pair.v1
    e2 = C2 @ pair.v2
    values = np.sqrt((np.abs(e1) ** 2 + np.abs(e2) ** 2) / 2.0) / scale
    sup = float(np.max(values))
    return DualityGap(sup, x.norm() - sup)
