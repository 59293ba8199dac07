"""Float formulas shared by the scalar layer and the array kernels.  No numpy
is imported here, so the scalar commands start without it.  Arrays round as
scalars do by taking MUL_TERMS through _arrays.plane_mul4, mul_parts through
_arrays.mul4, and merge_parts' sums written out in _arrays._merge_into."""

import math
import sys

SQRT2 = math.sqrt(2.0)

#: The gap between 1 and the next float64, twice the unit roundoff.
EPS = sys.float_info.epsilon

#: A norm taken as the square root of a plain sum of squares is exact to
#: rounding only in [NORM_FLOOR, inf): above, the sum overflowed; below, it
#: fell under the smallest normal float and lost digits or vanished.  Norms
#: outside that range are recomputed with scaling.
NORM_FLOOR = math.sqrt(sys.float_info.min)


def merge_parts(h1, h2) -> tuple:
    """Coefficients (a, b, c, d) of h1*e1 + h2*e2, for complex scalars and
    complex arrays alike."""
    return (
        0.5 * (h1.real + h2.real),
        0.5 * (h1.imag + h2.imag),
        0.5 * (h2.imag - h1.imag),
        0.5 * (h1.real - h2.real),
    )


def mul_parts(au, bu, cu, du, av, bv, cv, dv) -> tuple:
    """Coefficients of the product (au + bu*i1 + cu*i2 + du*j)(av + ... + dv*j),
    expanded over the real basis with i1^2 = i2^2 = -1 and j^2 = +1.  Floats
    and arrays go through the same terms in the same order, so they round
    alike."""
    return (
        au * av - bu * bv - cu * cv + du * dv,
        au * bv + bu * av - cu * dv - du * cv,
        au * cv + cu * av - bu * dv - du * bv,
        au * dv + du * av + bu * cv + cu * bv,
    )


#: mul_parts' terms in its order, for kernels that write the product in place:
#: per coefficient, the terms (sign, k, l) of sign * u_k * v_l, with u, v the
#: coefficients (a, b, c, d); the first (always +1) starts the sum, and each
#: later one is added or subtracted in turn.
MUL_TERMS = (
    ((1, 0, 0), (-1, 1, 1), (-1, 2, 2), (1, 3, 3)),
    ((1, 0, 1), (1, 1, 0), (-1, 2, 3), (-1, 3, 2)),
    ((1, 0, 2), (1, 2, 0), (-1, 1, 3), (-1, 3, 1)),
    ((1, 0, 3), (1, 3, 0), (1, 1, 2), (1, 2, 1)),
)


def checked_norm(plain: float, parts) -> float:
    """`plain`, the square root of the plain sum of squares of the floats
    `parts`, when it lies in [NORM_FLOOR, inf) where it is exact to rounding;
    otherwise the norm of `parts` recomputed with scaling (math.hypot).  Pass
    an array's real and imaginary parts, np.ravel(parts).view(np.float64)."""
    if NORM_FLOOR <= plain < math.inf:
        return plain
    return math.hypot(*parts)


def qmean(x: float, y: float) -> float:
    """Quadratic mean sqrt((x*x + y*y) / 2) of two magnitudes, with the scaled
    fallback of checked_norm.  Pass Python floats: numpy scalars warn when
    x*x overflows."""
    return checked_norm(math.sqrt((x * x + y * y) / 2.0), (x / SQRT2, y / SQRT2))


#: The tolerance of the null-cone test, fixed as the other tolerances are.
SINGULAR_TOL = 1e-12


def null_floor(m1: float, m2: float) -> float:
    """The null-cone floor of the hat magnitudes m1, m2 of a scalar, or of an
    operator's determinant: a component at or below it vanishes."""
    return SINGULAR_TOL * max(1.0, math.hypot(m1, m2))


def vanishing(m1: float, m2: float, threshold: float) -> tuple:
    """The components k with m_k <= threshold."""
    return tuple(k for k, m in ((1, m1), (2, m2)) if m <= threshold)


def spread(hi: float, lo: float) -> float:
    """The condition number hi / lo: inf when lo is zero."""
    return math.inf if lo == 0.0 else hi / lo


def fmt17(v: float) -> str:
    """Format a float at up to 17 significant digits (lossless round trip).
    Negative zero is normalized so output is canonical."""
    return format(float(v) + 0.0, ".17g")
