"""The package's public surface: the exact set of exported names."""

import bicomplex

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
