"""Bicomplex numbers, finite free modules over them, T-linear operators with
their two norms, constructive Hahn-Banach extension, and a seeded
property-verification harness with a CLI front end."""

from .errors import (
    BicomplexError,
    ComponentInNullDistance,
    DimensionMismatch,
    InconsistentFunctional,
    NotSquare,
    NullConeVector,
    SingularElement,
    SingularOperator,
    UnknownCheckId,
)
from .functionals import (
    ExtensionReport,
    NormingResult,
    RealLinearFunctional,
    SeparationResult,
    TFunctional,
    hahn_banach_extend,
    lift_real,
    norming_functional,
    separating_functional,
)
from .operators import NormReport, TMatrix, sampled_sup_norm
from .scalar import (
    DEFAULT_SINGULAR_TOL,
    E1,
    E2,
    IOTA1,
    IOTA2,
    J,
    ONE,
    ZERO,
    Bicomplex,
    IdempotentForm,
    SingularityReport,
)
from .tmodule import DistanceResult, Submodule, TVector
from .verifier import (
    CHECK_IDS,
    CheckConfig,
    CheckReport,
    all_passed,
    default_config,
    replay_witness,
    run_all,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "Bicomplex",
    "BicomplexError",
    "CHECK_IDS",
    "CheckConfig",
    "CheckReport",
    "ComponentInNullDistance",
    "DEFAULT_SINGULAR_TOL",
    "DimensionMismatch",
    "DistanceResult",
    "E1",
    "E2",
    "ExtensionReport",
    "IOTA1",
    "IOTA2",
    "IdempotentForm",
    "InconsistentFunctional",
    "J",
    "NormReport",
    "NormingResult",
    "NotSquare",
    "NullConeVector",
    "ONE",
    "RealLinearFunctional",
    "SeparationResult",
    "SingularElement",
    "SingularOperator",
    "SingularityReport",
    "Submodule",
    "TFunctional",
    "TMatrix",
    "TVector",
    "UnknownCheckId",
    "ZERO",
    "all_passed",
    "default_config",
    "hahn_banach_extend",
    "lift_real",
    "norming_functional",
    "replay_witness",
    "run_all",
    "run_check",
    "sampled_sup_norm",
    "separating_functional",
]
