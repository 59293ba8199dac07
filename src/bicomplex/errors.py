"""Exception types raised across the package."""

from __future__ import annotations


class BicomplexError(Exception):
    """Base class for all domain errors."""


class SingularElement(BicomplexError):
    """Inversion was attempted on a scalar with a vanishing hat component."""

    def __init__(self, report):
        self.report = report
        which = ", ".join(str(k) for k in report.vanishing_components)
        super().__init__(f"scalar is singular (vanishing hat component(s): {which})")


class DimensionMismatch(BicomplexError):
    """Operands have incompatible dimensions."""


class NotSquare(BicomplexError):
    """A square matrix was required."""


class SingularOperator(BicomplexError):
    """A hat component of the operator is rank deficient or too ill-conditioned.

    This is exactly the failure mode of multiplication by a null-cone scalar:
    the corresponding component map is not onto.
    """

    def __init__(self, components, smallest, condition):
        self.components = tuple(components)
        self.smallest = tuple(smallest)
        self.condition = tuple(condition)
        which = ", ".join(str(k) for k in self.components)
        super().__init__(f"operator hat component(s) {which} not invertible")


class InconsistentFunctional(BicomplexError):
    """Prescribed functional values disagree on dependent generators."""


class ComponentInNullDistance(BicomplexError):
    """A hat-component distance to the submodule is zero, so no separating
    functional can reach the value 1 (it would land in the null cone)."""

    def __init__(self, components, distances):
        self.components = tuple(components)
        self.distances = tuple(distances)
        which = ", ".join(str(k) for k in self.components)
        super().__init__(f"component distance(s) {which} vanish; separation value 1 unreachable")


class NullConeVector(BicomplexError):
    """A hat component of the vector vanishes, so functional values at it are
    confined to an ideal and cannot equal its positive norm."""

    def __init__(self, components):
        self.components = tuple(components)
        which = ", ".join(str(k) for k in self.components)
        super().__init__(f"vector hat component(s) {which} vanish")


class UnknownCheckId(BicomplexError):
    """The verifier was asked for a check id it does not define."""


class CheckCrashed(RuntimeError):
    """An exception escaped a verification check: a fault of the program,
    not a failed check.  The exception raised is the __cause__."""

    def __init__(self, check_id: str, cause: BaseException):
        self.check_id = check_id
        super().__init__(f"{type(cause).__name__}: {cause}")
