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
from typing import Sequence

import numpy as np

from . import _arrays
from ._arrays import hat_split, pair_norms, unit_multiples
from ._floats import SINGULAR_TOL, vanishing
from .errors import (
    ComponentInNullDistance,
    DimensionMismatch,
    InconsistentFunctional,
    NullConeVector,
)
from .operators import NormReport
from .scalar import Bicomplex
from .tmodule import SPAN_TOL, Submodule, TVector


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
    def from_generator_values(cls, Y: Submodule, values: Sequence[Bicomplex]) -> "TFunctional":
        """Least-squares functional with prescribed values on the generators.

        Raises InconsistentFunctional when the values disagree on dependent
        generators beyond SPAN_TOL, relative to their size (no T-linear
        functional can interpolate them).
        """
        gens = Y.generators
        if len(values) != len(gens):
            raise DimensionMismatch(f"{len(gens)} generators but {len(values)} values")
        if not gens:
            return cls(TVector.zero(Y.n))
        G1, G2 = Y.generator_matrices()
        t1, t2 = hat_split(np.array([Bicomplex.coerce(v).coeffs for v in values]))
        c1, *_ = np.linalg.lstsq(G1.T, t1, rcond=None)
        c2, *_ = np.linalg.lstsq(G2.T, t2, rcond=None)
        threshold = SPAN_TOL * max(pair_norms(t1, t2))
        residuals = pair_norms(G1.T @ c1 - t1, G2.T @ c2 - t2)
        for k, residual in enumerate(residuals, start=1):
            if residual > threshold:
                raise InconsistentFunctional(
                    f"values on dependent generators disagree in component {k} "
                    f"(residual {residual:.3e})"
                )
        return cls(TVector.from_split(c1, c2))

    # views ----------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._coeffs.n

    @property
    def coeffs(self) -> TVector:
        return self._coeffs

    def __call__(self, x: TVector) -> Bicomplex:
        """Evaluate sum_k c_k * x_k over the ring."""
        if x.n != self.n:
            raise DimensionMismatch(f"functional takes dimension {self.n}, got {x.n}")
        z1, z2 = _arrays.dots(self._coeffs.split(), x.split())
        return Bicomplex.from_idempotent(complex(z1), complex(z2))

    # algebra ----------------------------------------------------------------

    def __add__(self, other: "TFunctional") -> "TFunctional":
        if not isinstance(other, TFunctional):
            return NotImplemented
        return TFunctional(self._coeffs + other._coeffs)

    def __sub__(self, other: "TFunctional") -> "TFunctional":
        if not isinstance(other, TFunctional):
            return NotImplemented
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
        return pair_norms(*self._coeffs.split())

    def norms(self) -> NormReport:
        """Operator norms of the functional viewed as a 1-by-n operator."""
        return NormReport.of(*self.component_norms())

    def restricted_component_norms(self, Y: Submodule) -> tuple[float, float]:
        """Norms of the restrictions to the component subspaces of Y."""
        return pair_norms(*_arrays.restrict_pair(Y.basis1, Y.basis2, self._coeffs.split()))

    # real decomposition -------------------------------------------------------

    def real_parts(self) -> tuple["RealLinearFunctional", ...]:
        """The four real-linear coordinate functionals f1..f4 with
        f(x) = f1(x) + i1*f2(x) + i2*f3(x) + j*f4(x)."""
        # With each entry of x written as sum_m x_m * u_m over the units
        # u = (1, i1, i2, j), f(x) = sum x_m * (u_m * C): row m of f_k is
        # coefficient k of u_m * C.
        C = self._coeffs.coeffs
        multiples = np.stack([C, *unit_multiples(C)], axis=-1)
        return tuple(RealLinearFunctional(multiples[:, k, :]) for k in range(4))

    # file form ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": self._coeffs.to_json()}

    @classmethod
    def from_json(cls, data) -> "TFunctional":
        f = cls(TVector.from_json(data["coeffs"]))
        if "n" in data and _arrays.integer(data["n"], "n: a dimension") != f.n:
            raise ValueError(f"declared dimension {data['n']} != coefficient length {f.n}")
        return f


class RealLinearFunctional:
    """An R-linear map on the 4n real coordinates of T^n."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        self._coeffs = _arrays.frozen_coeffs(coeffs, 2, "real functional")

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
    return TFunctional(TVector(_arrays.lift_rows(F1.coeffs)))


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


def hahn_banach_extend(ystar, Y: Submodule) -> ExtensionReport:
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
        ystar = TFunctional.from_generator_values(Y, ystar)
    if ystar.n != Y.n:
        raise DimensionMismatch(f"functional dimension {ystar.n} != ambient {Y.n}")
    C = ystar.coeffs.split()
    R = _arrays.restrict_pair(Y.basis1, Y.basis2, C)
    E = _arrays.riesz_extension(Y.basis1, Y.basis2, R)
    extension = TFunctional(TVector._of_hat(E))

    # Restriction error as an exact operator norm on Y: project the
    # coefficient difference back onto the component subspaces.
    err = max(pair_norms(*_arrays.restrict_pair(Y.basis1, Y.basis2, E - C)))

    y_comp = pair_norms(*R)
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


def separating_functional(x: TVector, Y: Submodule) -> SeparationResult:
    """Build f with f|_Y = 0 and f(x) = 1 from the projection residuals.

    Requires both component distances positive: if d_k = 0 the value f(x)
    lies in an ideal and can never equal 1, so ComponentInNullDistance is
    raised (a strictly stronger hypothesis than d > 0 alone).
    """
    result = Y.distance_to(x)
    bad = vanishing(result.d1, result.d2, SINGULAR_TOL * x.norm())
    if bad:
        raise ComponentInNullDistance(bad, (result.d1, result.d2))
    d = np.array([[result.d1], [result.d2]])
    functional = TFunctional(TVector.from_split(*np.conj(x.split() - result.projection.split()) / d / d))
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


def norming_functional(x: TVector) -> NormingResult:
    """Build f with f(x) = |x| (a positive real) and report its norms.

    The aggregate norm equals 1 exactly when the component magnitudes of x
    are balanced; otherwise the achieved norms are reported as measured.
    Null-cone vectors raise NullConeVector since f(x) would be confined to
    an ideal.
    """
    H = x.split()
    n1, n2 = pair_norms(*H)
    bad = vanishing(n1, n2, SINGULAR_TOL * x.norm())
    if bad:
        raise NullConeVector(bad)
    n = np.array([[n1], [n2]])
    functional = TFunctional(TVector.from_split(*np.conj(H) * (x.norm() / n / n)))
    return NormingResult(
        functional=functional,
        value=functional(x),
        norms=functional.norms(),
        balanced=abs(n1 - n2) <= 1e-12 * max(n1, n2),
    )

