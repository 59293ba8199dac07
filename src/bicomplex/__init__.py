"""Bicomplex numbers, finite free modules over them, T-linear operators with
their two norms, constructive Hahn-Banach extension, and a seeded
property-verification harness with a CLI front end.

Every public name is imported from its module on first access (PEP 562) and
then kept in the package namespace, so a program loads only the modules it
uses.
"""

import importlib

__version__ = "0.1.0"

#: The module that defines each public name: the package's one list of them.
_HOMES = {
    name: module
    for module, names in {
        "errors": "BicomplexError CheckCrashed ComponentInNullDistance DimensionMismatch InconsistentFunctional"
        " NotSquare NullConeVector SingularElement SingularOperator UnknownCheckId",
        "functionals": "ExtensionReport NormingResult RealLinearFunctional SeparationResult TFunctional"
        " hahn_banach_extend lift_real norming_functional separating_functional",
        "operators": "NormReport TMatrix",
        "scalar": "DEFAULT_SINGULAR_TOL E1 E2 IOTA1 IOTA2 J ONE ZERO Bicomplex IdempotentForm SingularityReport",
        "tmodule": "DistanceResult Submodule TVector",
        "verifier": "CHECK_IDS CheckConfig CheckReport all_passed default_config replay_witness run_all run_check",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
