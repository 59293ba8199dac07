"""Bicomplex scalars: exact ring arithmetic, norms, idempotent decomposition,
singularity detection, and inversion.

A bicomplex number is w = a + b*i1 + c*i2 + d*j where i1, i2 are independent
imaginary units (i1^2 = i2^2 = -1) and j = i1*i2 satisfies j^2 = +1.
Equivalently w = z1 + i2*z2 with z1 = a + b*i1 and z2 = c + d*i1 complex in
i1.  The canonical storage is the four real coefficients; the idempotent
form (h1, h2) with h1 = z1 - z2*i1 and h2 = z1 + z2*i1 is derived on demand.

The ring has zero divisors: w is invertible exactly when both hat components
are nonzero.  Scalars with a vanishing hat component form the null cone, the
union of the two principal ideals generated by e1 = (1+j)/2 and e2 = (1-j)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._floats import SQRT2, checked_norm, fmt17, merge_parts, mul_parts, qmean
from .errors import SingularElement

#: Default relative tolerance for singularity classification, scaled by the
#: hat-coordinate magnitude sqrt(2)*|w|.  Zero selects the exact test.
DEFAULT_SINGULAR_TOL = 1e-12


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"coefficient {name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class IdempotentForm:
    """Hat coordinates (h1, h2) of a scalar in the e1/e2 basis.

    Multiplication of scalars is componentwise multiplication here, which is
    what makes the null cone and inversion transparent.
    """

    h1: complex
    h2: complex

    def to_bicomplex(self) -> "Bicomplex":
        return Bicomplex.from_idempotent(self.h1, self.h2)

    def norm(self) -> float:
        """Modulus computed in hat coordinates: sqrt((|h1|^2 + |h2|^2) / 2)."""
        return qmean(abs(self.h1), abs(self.h2))

    def __mul__(self, other: "IdempotentForm") -> "IdempotentForm":
        return IdempotentForm(self.h1 * other.h1, self.h2 * other.h2)


@dataclass(frozen=True)
class SingularityReport:
    """Outcome of the null-cone test for one scalar."""

    is_singular: bool
    vanishing_components: tuple[int, ...]
    magnitudes: tuple[float, float]


@dataclass(frozen=True)
class Bicomplex:
    """An immutable bicomplex scalar with real coefficients (a, b, c, d)."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _require_finite(self.a, "a"))
        object.__setattr__(self, "b", _require_finite(self.b, "b"))
        object.__setattr__(self, "c", _require_finite(self.c, "c"))
        object.__setattr__(self, "d", _require_finite(self.d, "d"))

    # construction ---------------------------------------------------------

    @classmethod
    def from_idempotent(cls, h1: complex, h2: complex) -> "Bicomplex":
        """Inverse of to_idempotent: z1 = (h1+h2)/2, z2 = i1*(h1-h2)/2."""
        return cls(*merge_parts(complex(h1), complex(h2)))

    @classmethod
    def from_real(cls, value: float) -> "Bicomplex":
        return cls(float(value), 0.0, 0.0, 0.0)

    @classmethod
    def from_complex(cls, z: complex) -> "Bicomplex":
        """Embed an i1-complex scalar (b holds the imaginary part)."""
        z = complex(z)
        return cls(z.real, z.imag, 0.0, 0.0)

    @classmethod
    def coerce(cls, value) -> "Bicomplex":
        if isinstance(value, Bicomplex):
            return value
        if isinstance(value, complex):
            return cls.from_complex(value)
        if isinstance(value, (int, float)):
            return cls.from_real(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as a bicomplex scalar")

    # views ----------------------------------------------------------------

    @property
    def z1(self) -> complex:
        return complex(self.a, self.b)

    @property
    def z2(self) -> complex:
        return complex(self.c, self.d)

    @property
    def coeffs(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def to_idempotent(self) -> IdempotentForm:
        """Hat coordinates h1 = z1 - z2*i1, h2 = z1 + z2*i1."""
        return IdempotentForm(
            complex(self.a + self.d, self.b - self.c),
            complex(self.a - self.d, self.b + self.c),
        )

    # ring operations ------------------------------------------------------

    def __add__(self, other) -> "Bicomplex":
        other = Bicomplex.coerce(other)
        return Bicomplex(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other) -> "Bicomplex":
        other = Bicomplex.coerce(other)
        return Bicomplex(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __rsub__(self, other) -> "Bicomplex":
        return Bicomplex.coerce(other) - self

    def __neg__(self) -> "Bicomplex":
        return Bicomplex(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if not isinstance(other, (Bicomplex, int, float, complex)):
            return NotImplemented
        o = Bicomplex.coerce(other)
        return Bicomplex(*mul_parts(self.a, self.b, self.c, self.d, o.a, o.b, o.c, o.d))

    __rmul__ = __mul__

    # norms and singularity ------------------------------------------------

    def norm(self) -> float:
        """Coefficient norm sqrt(a^2 + b^2 + c^2 + d^2)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return checked_norm(math.sqrt(a * a + b * b + c * c + d * d), (a, b, c, d))

    __abs__ = norm

    def classify(self, tol: float = DEFAULT_SINGULAR_TOL) -> SingularityReport:
        """Null-cone test: component k vanishes when |h_k| <= tol * max(1, sqrt(2)|w|).

        tol = 0 selects the exact comparison.
        """
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        form = self.to_idempotent()
        m1, m2 = abs(form.h1), abs(form.h2)
        threshold = tol * max(1.0, SQRT2 * self.norm())
        vanishing = tuple(k for k, m in ((1, m1), (2, m2)) if m <= threshold)
        return SingularityReport(bool(vanishing), vanishing, (m1, m2))

    def inverse(self, tol: float = DEFAULT_SINGULAR_TOL) -> "Bicomplex":
        """Multiplicative inverse via componentwise reciprocals of the hat form.

        Raises SingularElement when a hat component vanishes at the given
        tolerance; near the null cone the result grows like 1/|h_k|.
        """
        report = self.classify(tol)
        if report.is_singular:
            raise SingularElement(report)
        form = self.to_idempotent()
        return Bicomplex.from_idempotent(1.0 / form.h1, 1.0 / form.h2)

    def condition(self) -> float:
        """Hat-component magnitude spread max|h_k| / min|h_k| (inf on the cone)."""
        form = self.to_idempotent()
        m1, m2 = abs(form.h1), abs(form.h2)
        lo, hi = min(m1, m2), max(m1, m2)
        return math.inf if lo == 0.0 else hi / lo

    # text and JSON forms ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Bicomplex":
        """Parse the literal form "a b c d" (scientific notation accepted)."""
        parts = text.split()
        if len(parts) != 4:
            raise ValueError(f'expected four reals "a b c d", got {text!r}')
        return cls(*(float(p) for p in parts))

    def to_text(self) -> str:
        return " ".join(fmt17(v) for v in self.coeffs)

    @classmethod
    def from_json(cls, data) -> "Bicomplex":
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError(f"expected a JSON array [a, b, c, d], got {data!r}")
        return cls(*(float(v) for v in data))

    def to_json(self) -> list[float]:
        return [self.a, self.b, self.c, self.d]

    def __repr__(self) -> str:
        return f"Bicomplex({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


ZERO = Bicomplex()
ONE = Bicomplex(1.0)
IOTA1 = Bicomplex(0.0, 1.0)
IOTA2 = Bicomplex(0.0, 0.0, 1.0)
J = Bicomplex(0.0, 0.0, 0.0, 1.0)
E1 = Bicomplex(0.5, 0.0, 0.0, 0.5)
E2 = Bicomplex(0.5, 0.0, 0.0, -0.5)
