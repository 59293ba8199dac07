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

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _arrays
from ._arrays import hat_split
from ._floats import EPS, NORM_FLOOR, SQRT2, null_floor, qmean, spread, vanishing
from .errors import DimensionMismatch, NotSquare, SingularOperator
from .scalar import Bicomplex, DEFAULT_SINGULAR_TOL
from .tmodule import TVector

#: Hat components whose condition number exceeds this are rejected by
#: solve/invert; proximity to the null cone is the dominant numerical hazard.
#: Most operators are accepted without an SVD or a determinant, by the
#: Frobenius bound ||M||_F ||M^-1||_F <= CONDITION_LIMIT / 2 on the inverse
#: solve needs anyway and AM-GM bounds on |det M| from the same two norms
#: (TMatrix._certify); the SVD decides the rest and every refusal.
#: solve applies the cached inverse and refines twice (_arrays.solve_pair):
#: the inverse alone leaves a backward error that grows like kappa * eps,
#: ~1e-6 near this limit, and two refinement steps bring it back to an LU
#: solve's O(eps) for every operator below it.
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
        """Both norms from the component norms s1, s2, in Python floats with
        the bits of _arrays.operator_norms."""
        s1, s2 = float(s1), float(s2)
        return cls(sup_norm=max(s1, s2) / SQRT2, idem_norm=qmean(s1, s2), s1=s1, s2=s2)

    def to_json(self) -> dict:
        return {
            "sup_norm": self.sup_norm,
            "idem_norm": self.idem_norm,
            "s1": self.s1,
            "s2": self.s2,
        }


def _condition(sv) -> tuple[float, float]:
    """Condition numbers (k1, k2) from descending component singular values (2, n)."""
    return tuple(spread(float(s[0]), float(s[-1])) for s in sv)


def _det_fits(s: float, n: int) -> bool:
    """Whether float64 holds the determinant of an n x n matrix whose largest
    singular value is at most s: its modulus is at most s^n <= 2^1000."""
    return s <= 2.0 ** (1000 / n)


def _frobenius_norms(H: np.ndarray) -> tuple[float, float]:
    """Frobenius norms of the two C-contiguous components of a hat stack
    (2, n, n), one real dot each: inf past float64's range or at an infinite
    entry, NaN at a NaN entry, and inexact below NORM_FLOOR, where the squares
    underflow.  A BLAS dot raises no floating-point warning."""
    R = H.view(np.float64)
    return math.sqrt(np.vdot(R[0], R[0])), math.sqrt(np.vdot(R[1], R[1]))


def _det_margin(n: int, kappa: float) -> float:
    """How far, in logs, a computed n x n determinant and the AM-GM bound
    (sqrt(n) / ||M^-1||_F)^n on a computed inverse may each stray from their
    exact values, for ||M||_F ||M^-1||_F <= kappa: LU and the inverse err by
    about n eps kappa in each of the n factors, and numpy's det, which sums
    n logarithms of at most 745 in modulus, by about n * 745 eps."""
    return 8.0 * EPS * n * (n * kappa + 1000.0)


def refusal(sv, dets, tol: float):
    """The SingularOperator arguments with which solve and invert refuse a
    square operator of component singular values sv (2, n) and component
    determinants dets = (d1, d2) at `tol`, or None: a component is refused
    when |d_k| is at most null_floor (on the pair: merged into one Bicomplex,
    a component 2^53 times smaller is lost) or its condition number exceeds
    CONDITION_LIMIT."""
    condition = _condition(sv)
    m1, m2 = abs(dets[0]), abs(dets[1])
    bad = set(vanishing(m1, m2, null_floor(m1, m2, tol)))
    bad.update(k for k, cond in enumerate(condition, start=1) if cond > CONDITION_LIMIT)
    return (sorted(bad), (float(sv[0, -1]), float(sv[1, -1])), condition) if bad else None


class TMatrix(_arrays.FrozenArrays):
    """An m-by-n matrix of bicomplex entries, held as its read-only (m, n, 4)
    real coefficients or its read-only hat stack (2, m, n), whichever it was
    built from (from_hat, compose and invert build from a hat stack); the
    other form is computed on first use and kept, as are the component
    singular values, the determinant, the decision of solve and invert for
    each tol and, once that decision accepts the operator, the inverse hat
    stack.  Accepting takes no SVD, and mostly no determinant, when the
    inverse certifies the operator (_certify); a refused operator keeps no
    inverse.  split() unpacks
    as the component matrices M1, M2, so each method below is one numpy call
    over both.
    """

    __slots__ = ("_coeffs", "_split", "_singular_values", "_dets", "_det", "_refusals", "_inverse")

    def __init__(self, coeffs):
        self._start(_arrays.frozen_coeffs(coeffs, 3, "matrix"), None)

    def _start(self, coeffs, split):
        """Hold the frozen `coeffs` or hat stack `split`, every cache empty."""
        self._coeffs = coeffs
        self._split = split
        self._singular_values = None
        self._dets = None
        self._det = None
        self._refusals = {}
        self._inverse = None

    # construction ---------------------------------------------------------

    @classmethod
    def from_hat(cls, M1, M2) -> "TMatrix":
        M1, M2 = np.asarray(M1), np.asarray(M2)
        if M1.shape != M2.shape or M1.ndim != 2:
            raise DimensionMismatch("component matrices must be 2-d with equal shapes")
        return cls._of_hat(np.array((M1, M2), dtype=np.complex128))

    @classmethod
    def _of_hat(cls, H: np.ndarray) -> "TMatrix":
        """The matrix of the fresh hat stack H (2, m, n), kept without a copy."""
        T = cls.__new__(cls)
        T._start(*_arrays.frozen_hat(H, 3, "matrix"))
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
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._coeffs.shape[:2] if self._split is None else self._split.shape[1:]

    def __getitem__(self, key: tuple[int, int]) -> Bicomplex:
        i, k = key
        return Bicomplex(*self.coeffs[i, k])

    def split(self) -> np.ndarray:
        if self._split is None:
            self._split = hat_split(self._coeffs)
            self._split.setflags(write=False)
        return self._split

    def __eq__(self, other) -> bool:
        return isinstance(other, TMatrix) and np.array_equal(self.coeffs, other.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"TMatrix(m={self.m}, n={self.n})"

    # algebra ----------------------------------------------------------------

    def __add__(self, other: "TMatrix") -> "TMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"matrix shapes differ: {self.shape} vs {other.shape}")
        return TMatrix(self.coeffs + other.coeffs)

    def __sub__(self, other: "TMatrix") -> "TMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"matrix shapes differ: {self.shape} vs {other.shape}")
        return TMatrix(self.coeffs - other.coeffs)

    def __neg__(self) -> "TMatrix":
        return TMatrix(-self.coeffs)

    def scale(self, w) -> "TMatrix":
        w = Bicomplex.coerce(w)
        wrow = np.array(w.coeffs, dtype=np.float64)
        return TMatrix(_arrays.mul4(wrow, self.coeffs))

    def __rmul__(self, w) -> "TMatrix":
        if isinstance(w, (Bicomplex, int, float, complex)):
            return self.scale(w)
        return NotImplemented

    def apply(self, x: TVector) -> TVector:
        """Matrix-vector product over the ring; acts componentwise on the
        hat coordinates."""
        if x.n != self.n:
            raise DimensionMismatch(f"operator takes dimension {self.n}, got {x.n}")
        return TVector._of_hat(_arrays.apply_pair(self.split(), x.split()))

    __call__ = apply

    def compose(self, other: "TMatrix") -> "TMatrix":
        """Composition self after other; hat components multiply componentwise."""
        if self.n != other.m:
            raise DimensionMismatch(f"inner dimensions differ: {self.n} vs {other.m}")
        return TMatrix._of_hat(_arrays.compose_pair(self.split(), other.split()))

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

    # inversion ------------------------------------------------------------------

    def det(self) -> Bicomplex:
        """Determinant assembled from the component determinants; the operator
        is invertible over the ring exactly when this scalar is nonsingular.
        OverflowError when float64 cannot hold it."""
        if self.m != self.n:
            raise NotSquare(f"determinant needs a square matrix, got {self.m}x{self.n}")
        if self._det is None:
            with np.errstate(over="ignore", invalid="ignore"):
                dets = tuple(map(complex, np.linalg.det(self.split())))
            if not all(map(cmath.isfinite, dets)):
                raise OverflowError("determinant overflows float64; solve and invert decide through slogdet")
            self._dets = dets
            self._det = Bicomplex.from_idempotent(*dets)
        return self._det

    def _component_dets(self) -> tuple:
        """The component determinants (d1, d2) that det() merges."""
        self.det()
        return self._dets

    def _guard_det(self) -> tuple:
        """_component_dets(), unless float64 may not hold them (the largest
        singular value s has s^n > 2^1000): then both divided by the larger
        modulus, from np.linalg.slogdet.  A null-cone test of determinants of
        modulus at least 1 is relative, so the division keeps the decision."""
        sv = self.component_singular_values()
        if _det_fits(max(sv[0, 0], sv[1, 0]), self.n):
            return self._component_dets()
        sign, logdet = np.linalg.slogdet(self.split())
        return tuple(sign * np.exp(logdet - max(logdet.max(), 0.0)))

    def _certify(self, tol: float) -> tuple:
        """(inverse, accepted): a sufficient test that solve and invert accept
        the square operator at `tol`, made from the inverse they need anyway.
        Both Frobenius norms F_k must lie in [NORM_FLOOR, 2^(1000/n)], so that
        the guard's determinants are det()'s.  By AM-GM on the singular
        values, (sqrt(n) / ||M_k^-1||_F)^n <= |det M_k| <= (F_k / sqrt(n))^n.
        An upper bound below tol, the least the guard's threshold can be,
        leaves the decision to the guard before any inverse is built.
        Otherwise np.linalg.inv must succeed, each ||M_k^-1||_F be at least
        NORM_FLOOR, and F_k ||M_k^-1||_F, which bounds the condition number
        from above, at most CONDITION_LIMIT / 2 (the computed inverse and the
        SVD's condition number each err by about n eps kappa, 4e-3 at n = 64).
        Then each lower bound, shrunk by exp(-2 _det_margin), must exceed the
        smallest normal float and the guard's threshold null_floor taken at
        the upper bounds, which the norms' range keeps below 2^1000; where one
        does not, det() decides on the pair the guard tests.  So the test
        never accepts what the guard refuses.  `inverse` is the kept inverse
        or the one built on the way, else None; a NaN or inf norm fails its
        comparison."""
        inverse = self._inverse
        n = self.n
        norms = _frobenius_norms(self.split())
        if not all(NORM_FLOOR <= f and _det_fits(f, n) for f in norms):
            return inverse, False
        upper = [(f / math.sqrt(n)) ** n for f in norms]
        if min(upper) < tol:
            return inverse, False
        if inverse is None:
            try:
                inverse = np.linalg.inv(self.split())
            except np.linalg.LinAlgError:
                return None, False
        inverse_norms = _frobenius_norms(inverse)
        if not all(NORM_FLOOR <= g and f * g <= CONDITION_LIMIT / 2 for f, g in zip(norms, inverse_norms)):
            return inverse, False
        margin = _det_margin(n, max(f * g for f, g in zip(norms, inverse_norms)))
        lower = min((math.sqrt(n) / g) ** n for g in inverse_norms)
        if lower * math.exp(-2.0 * margin) > max(null_floor(*upper, tol), sys.float_info.min):
            return inverse, True
        d1, d2 = map(abs, self._component_dets())
        return inverse, not vanishing(d1, d2, null_floor(d1, d2, tol))

    def _inverse_split(self, tol: float) -> np.ndarray:
        """The read-only inverse hat stack (2, n, n), which unpacks as M1^-1,
        M2^-1; raises the refusal of solve and invert at `tol` instead.  The
        first call with a tol decides, and the decision is kept: _certify
        accepts most operators; refusal, on the singular values and
        _guard_det, decides the rest and gives every refusal its arguments.
        The inverse is kept once a decision accepts, never for a refusal.
        A negative or NaN tol raises ValueError and keeps no decision."""
        if self.m != self.n:
            raise NotSquare(f"inversion needs a square matrix, got {self.m}x{self.n}")
        if tol not in self._refusals:
            if not tol >= 0:
                raise ValueError("tol must be nonnegative")
            inverse, accepted = self._certify(tol)
            self._refusals[tol] = None if accepted else refusal(self.component_singular_values(), self._guard_det(), tol)
            if self._refusals[tol] is None:
                self._inverse = np.linalg.inv(self.split()) if inverse is None else inverse
                self._inverse.setflags(write=False)
        if self._refusals[tol] is not None:
            raise SingularOperator(*self._refusals[tol])
        return self._inverse

    def solve(self, b: TVector, tol: float = DEFAULT_SINGULAR_TOL) -> TVector:
        """Solve T x = b in the two complex component systems: the cached
        inverse applied to b, then two steps of iterative refinement
        (_arrays.solve_pair), so a warm solve factors nothing."""
        if b.n != self.m:
            raise DimensionMismatch(f"right-hand side dimension {b.n} != {self.m}")
        Hinv = self._inverse_split(tol)
        return TVector._of_hat(_arrays.solve_pair(self.split(), Hinv, b.split()))

    def invert(self) -> "TMatrix":
        """The inverse operator, with hat components M1^-1, M2^-1."""
        return TMatrix._of_hat(self._inverse_split(DEFAULT_SINGULAR_TOL))

    # file form --------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "entries": self.coeffs.reshape(self.m * self.n, 4).tolist(),
        }

    @classmethod
    def from_json(cls, data) -> "TMatrix":
        m, n = _arrays.dimension(data["m"]), _arrays.dimension(data["n"])
        entries = np.array(data["entries"], dtype=np.float64)
        if entries.shape != (m * n, 4):
            raise ValueError(f"expected {m * n} entries of 4 reals, got shape {entries.shape}")
        return cls(entries.reshape(m, n, 4))
