"""The package's public surface: the exact set of exported names and of the
values a caller can set."""

import argparse
import inspect

import bicomplex
from bicomplex import cli

PUBLIC = [
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

#: Names that were public once and were deleted for want of a caller.  The
#: two hat-pair wrapper classes went too; split() returns a plain tuple.
DELETED = [
    "DualityGap",
    "EmptyCollection",
    "FMetricPoint",
    "Hyperbolic",
    "bounded_sup",
    "duality_gap",
    "extend_real",
    "f_metric",
    "in_span",
    "product_metric",
]

#: Every settable value: each defaulted parameter of an exported function, of
#: a public method or __init__ of an exported class, and each CLI option.  A
#: setting that no caller varies is a constant instead, so a new entry here
#: needs a caller that sets it to something other than the default.
SETTINGS = [
    "Bicomplex.__init__(a)",
    "Bicomplex.__init__(b)",
    "Bicomplex.__init__(c)",
    "Bicomplex.__init__(d)",
    "Bicomplex.classify(tol)",
    "Bicomplex.inverse(tol)",
    "CheckConfig.__init__(seed)",
    "CheckConfig.__init__(tol)",
    "CheckConfig.__init__(trials)",
    "TMatrix.solve(tol)",
    "cli calc --tol",
    "cli decompose --tol",
    "cli extend --out",
    "cli norm --out",
    "cli solve --format",
    "cli solve --out",
    "cli solve --tol",
    "cli verify --all",
    "cli verify --check",
    "cli verify --out",
    "cli verify --seed",
    "cli verify --tol",
    "cli verify --trials",
    "default_config(seed)",
    "default_config(tol)",
    "default_config(trials)",
    "run_all(seed)",
    "run_all(tol)",
    "run_all(trials)",
    "sampled_sup_norm(refine_steps)",
    "sampled_sup_norm(samples)",
    "sampled_sup_norm(seed)",
]


def _defaulted(qualname, fn):
    return [
        f"{qualname}({p.name})"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]


def _settings():
    found = []
    for name in bicomplex.__all__:
        obj = getattr(bicomplex, name)
        if inspect.isfunction(obj):
            found += _defaulted(name, obj)
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member):
                    found += _defaulted(f"{name}.{attr}", member)
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            found += [f"cli {command} {opt}" for opt in action.option_strings if opt not in ("-h", "--help")]
    return sorted(found)


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(PUBLIC)
    assert bicomplex.__all__ == PUBLIC


def test_every_export_resolves_once():
    assert len(set(bicomplex.__all__)) == len(bicomplex.__all__)
    for name in bicomplex.__all__:
        assert getattr(bicomplex, name, None) is not None, name


def test_deleted_names_are_not_exported():
    for name in DELETED:
        assert name not in bicomplex.__all__
        assert not hasattr(bicomplex, name), name
    assert not [name for name in dir(bicomplex) if name.endswith("Pair")]


def test_settings_are_the_pinned_sorted_list():
    assert SETTINGS == sorted(SETTINGS)
    assert _settings() == SETTINGS
