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
import numbers

# SINGULAR_TOL, the tolerance of classify, is exported from here.
from ._floats import SINGULAR_TOL, checked_norm, fmt17, merge_parts, mul_parts, null_floor, qmean, spread, vanishing
from .errors import SingularElement


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"coefficient {name} must be finite, got {value!r}")
    return value


class _Frozen:
    """Immutable value objects over the __slots__ named in _fields: equal when
    their class and fields are, hashed and shown by their fields, as frozen
    dataclasses are, without importing dataclasses (the scalar commands start
    without it)."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return (type(self), self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class IdempotentForm(_Frozen):
    """Hat coordinates (h1, h2) of a scalar in the e1/e2 basis.

    Multiplication of scalars is componentwise multiplication here, which is
    what makes the null cone and inversion transparent.
    """

    __slots__ = _fields = ("h1", "h2")

    def __init__(self, h1: complex, h2: complex):
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    def to_bicomplex(self) -> "Bicomplex":
        return Bicomplex.from_idempotent(self.h1, self.h2)

    def norm(self) -> float:
        """Modulus computed in hat coordinates: sqrt((|h1|^2 + |h2|^2) / 2)."""
        return qmean(abs(self.h1), abs(self.h2))

    def __mul__(self, other: "IdempotentForm") -> "IdempotentForm":
        return IdempotentForm(self.h1 * other.h1, self.h2 * other.h2)


class SingularityReport(_Frozen):
    """Outcome of the null-cone test for one scalar."""

    __slots__ = _fields = ("is_singular", "vanishing_components", "magnitudes")

    def __init__(self, is_singular: bool, vanishing_components: tuple[int, ...], magnitudes: tuple[float, float]):
        object.__setattr__(self, "is_singular", is_singular)
        object.__setattr__(self, "vanishing_components", vanishing_components)
        object.__setattr__(self, "magnitudes", magnitudes)


class Bicomplex(_Frozen):
    """An immutable bicomplex scalar with real coefficients (a, b, c, d)."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: float = 0.0, b: float = 0.0, c: float = 0.0, d: float = 0.0):
        object.__setattr__(self, "a", _require_finite(a, "a"))
        object.__setattr__(self, "b", _require_finite(b, "b"))
        object.__setattr__(self, "c", _require_finite(c, "c"))
        object.__setattr__(self, "d", _require_finite(d, "d"))

    # construction ---------------------------------------------------------

    @classmethod
    def from_idempotent(cls, h1: complex, h2: complex) -> "Bicomplex":
        """Inverse of to_idempotent: z1 = (h1+h2)/2, z2 = i1*(h1-h2)/2."""
        return cls(*merge_parts(complex(h1), complex(h2)))

    @classmethod
    def coerce(cls, value) -> "Bicomplex":
        """`value` as a scalar; a number of numpy's counts as the Python number
        it equals, and an i1-complex one keeps its imaginary part in b."""
        if isinstance(value, Bicomplex):
            return value
        if isinstance(value, numbers.Complex):
            z = complex(value)
            return cls(z.real, z.imag)
        raise TypeError(f"cannot interpret {type(value).__name__} as a bicomplex scalar")

    # views ----------------------------------------------------------------

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
        if not isinstance(other, (Bicomplex, numbers.Complex)):
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

    def classify(self) -> SingularityReport:
        """Null-cone test: component k vanishes when |h_k| is at most
        null_floor(|h1|, |h2|)."""
        form = self.to_idempotent()
        m1, m2 = abs(form.h1), abs(form.h2)
        components = vanishing(m1, m2, null_floor(m1, m2))
        return SingularityReport(bool(components), components, (m1, m2))

    def inverse(self) -> "Bicomplex":
        """Multiplicative inverse via componentwise reciprocals of the hat form.

        Raises SingularElement when a hat component vanishes (classify); near
        the null cone the result grows like 1/|h_k|.
        """
        report = self.classify()
        if report.is_singular:
            raise SingularElement(report)
        form = self.to_idempotent()
        return Bicomplex.from_idempotent(1.0 / form.h1, 1.0 / form.h2)

    def condition(self) -> float:
        """Hat-component magnitude spread max|h_k| / min|h_k| (inf on the cone)."""
        form = self.to_idempotent()
        m1, m2 = abs(form.h1), abs(form.h2)
        return spread(max(m1, m2), min(m1, m2))

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
