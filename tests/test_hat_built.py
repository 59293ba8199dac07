"""Objects built from a hat stack: from_split, from_hat and the results of
apply, solve, compose, invert, distance_to and the functionals keep the stack
as their split() and merge the coefficients only when they are read."""

import copy
import operator
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicomplex import (
    Bicomplex,
    DimensionMismatch,
    Submodule,
    TFunctional,
    TMatrix,
    TVector,
    _arrays,
    default_config,
    hahn_banach_extend,
    norming_functional,
    run_check,
)
from bicomplex._arrays import hat_merge

# --- construction at every magnitude ---------------------------------------------

parts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def hat_stacks(draw):
    """A hat stack (2, n) or (2, m, n) of parts in [-2, 2] scaled by 2^k, |k| <= 1100."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    count = 4 * int(np.prod(shape))
    real = np.array(draw(st.lists(parts, min_size=count, max_size=count)))
    with np.errstate(over="ignore"):
        real = np.ldexp(real, draw(st.integers(-1100, 1100)))
    return real.reshape([2, *shape, 2]).view(np.complex128)[..., 0]


def _build(H):
    return TVector.from_split(*H) if H.ndim == 2 else TMatrix.from_hat(*H)


@given(hat_stacks())
@settings(max_examples=300)
@example(np.array([[2.0**1023], [2.0**1023]], dtype=complex))  # parts at the limit, merge overflows
@example(np.array([[2.0**1023], [0.0]], dtype=complex))  # parts at the limit, merge finite
@example(np.array([[np.inf], [-np.inf]], dtype=complex))
@example(np.full((2, 1, 1), np.nan, dtype=complex))
def test_a_hat_built_object_merges_as_an_eager_merge_would(H):
    with np.errstate(over="ignore", invalid="ignore"):
        eager = hat_merge(*H)
    if not np.isfinite(eager).all():
        with pytest.raises(ValueError):
            _build(H)
        return
    built = _build(H)
    assert built.coeffs.tobytes() == eager.tobytes()
    assert built.split().tobytes() == H.tobytes()


# --- behaviour of hat-built objects ---------------------------------------------


def _hats(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))


def _vector_pair():
    """A vector built from a hat stack, and one built from its coefficients."""
    H = _hats((3,))
    return TVector.from_split(*H), TVector(hat_merge(*H))


def _matrix_pair():
    H = _hats((2, 3))
    return TMatrix.from_hat(*H), TMatrix(hat_merge(*H))


PAIRS = [_vector_pair, _matrix_pair]


@pytest.fixture
def merges(monkeypatch):
    """The argument tuples of the hat_merge calls made while the test runs."""
    calls = []
    merge = _arrays.hat_merge

    def counted(*args):
        calls.append(args)
        return merge(*args)

    monkeypatch.setattr(_arrays, "hat_merge", counted)
    return calls


@pytest.fixture
def splits(monkeypatch):
    """The shapes of the arrays hat_split is called on while the test runs,
    through whichever module's binding of it a caller uses (the verifier's
    is loaded by this file's import of run_check)."""
    calls = []
    split = _arrays.hat_split

    def counted(C):
        calls.append(C.shape)
        return split(C)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bicomplex" and vars(module).get("hat_split") is split:
            monkeypatch.setattr(module, "hat_split", counted)
    return calls


@pytest.mark.parametrize("pair", PAIRS)
def test_equality_and_repr_are_those_of_the_coefficient_built_object(pair):
    hat_built, coefficient_built = pair()
    assert hat_built == coefficient_built and coefficient_built == hat_built
    assert repr(hat_built) == repr(coefficient_built)
    assert hat_built != pair()[1].scale(2.0)


@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))])
def test_copies_keep_the_value_the_split_and_the_read_only_flags(pair, round_trip):
    for obj in pair():
        split = obj.split()
        again = round_trip(obj)
        assert again == obj and type(again) is type(obj)
        assert again.split().tobytes() == split.tobytes()
        for arr in (again.split(), again.coeffs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("pair", PAIRS)
def test_sizes_and_split_do_not_merge(pair, merges):
    hat_built, coefficient_built = pair()
    merges.clear()
    sizes = ("n", "m", "shape") if isinstance(hat_built, TMatrix) else ("n",)
    for name in sizes:
        assert getattr(hat_built, name) == getattr(coefficient_built, name)
    assert hat_built.split() is hat_built.split()
    assert len(merges) == 0
    assert hat_built.coeffs is hat_built.coeffs
    assert len(merges) == 1
    for arr in (hat_built.split(), hat_built.coeffs):
        assert not arr.flags.writeable


@pytest.mark.parametrize("built", [0, 1], ids=["hat", "coefficients"])
@pytest.mark.parametrize("pair", PAIRS)
def test_vectors_and_matrices_share_one_elementwise_algebra(pair, built):
    x = pair()[built]
    kind = type(x)
    y = kind(x.coeffs[::-1] + 1.0)
    assert (-x).coeffs.tobytes() == (-x.coeffs).tobytes()
    assert -x == x.scale(-1) and type(-x) is kind
    assert x - y == x + (-y)
    w = Bicomplex(0.5, -1.5, 2.0, 0.75)
    assert w * x == x.scale(w) and type(w * x) is kind
    other_kind = TMatrix(x.coeffs[None]) if kind is TVector else TVector(x.coeffs[0])
    for other in (x.coeffs, 3, other_kind):
        assert (x == other) is False and (x != other) is True
        # a foreign operand, the object's own coefficient array included
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    with pytest.raises(TypeError):
        np.ones(x.coeffs.shape[0]) * x
    assert np.float64(2.0) * x == x.scale(2.0)  # a numpy float is a float, not an array
    assert (other_kind == x) is False
    with pytest.raises(TypeError):
        hash(x)
    longer = kind(np.zeros(x.coeffs.shape[:-2] + (x.coeffs.shape[-2] + 1, 4)))
    for op in (kind.__add__, kind.__sub__):
        with pytest.raises(DimensionMismatch):
            op(x, longer)
        with pytest.raises(DimensionMismatch):
            op(longer, x)


def _operators(n=6, seed=3):
    rng = np.random.default_rng(seed)
    T, S = (TMatrix.from_hat(*_hats((n, n), seed + k)) + TMatrix.scalar(n, 4.0) for k in (0, 1))
    return T, S, TVector(rng.uniform(-1.0, 1.0, (n, 4)))


def test_chained_operations_never_merge(merges):
    T, S, b = _operators()
    Y = Submodule(6, [TVector.basis(6, 0), b])
    merges.clear()
    T.compose(S).apply(b)
    T.apply(T.solve(b))
    T.invert().apply(Y.project(b))
    hahn_banach_extend(TFunctional(T.apply(b)), Y).extension.norms()
    assert merges == []


def _close(a, b, rel=1e-14):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= rel * np.linalg.norm(b)


def _through_coeffs(obj):
    """obj rebuilt from its coefficients, as every result was before."""
    return type(obj)(obj.coeffs)


def test_chains_agree_with_the_coefficient_built_path():
    T, S, b = _operators()
    assert _close(T.compose(S).apply(b).coeffs, _through_coeffs(T.compose(S)).apply(b).coeffs)
    assert _close(T.apply(T.solve(b)).coeffs, T.apply(_through_coeffs(T.solve(b))).coeffs)
    assert _close(T.apply(T.solve(b)).coeffs, b.coeffs, rel=1e-13)
    Y = Submodule(6, [TVector.basis(6, 0), b])
    report = hahn_banach_extend(TFunctional(T.apply(b)), Y)
    rebuilt = TFunctional(_through_coeffs(report.extension.coeffs))
    assert report.x_component_norms == pytest.approx(rebuilt.component_norms(), rel=1e-14, abs=0.0)
    x = T.apply(TVector.basis(6, 2))
    assert norming_functional(x).value.coeffs == pytest.approx(
        norming_functional(_through_coeffs(x)).value.coeffs, rel=1e-14, abs=1e-14 * x.norm()
    )


def test_each_object_built_from_coefficients_is_split_once_per_operation(splits):
    rng = np.random.default_rng(5)
    A, B = (rng.uniform(-1.0, 1.0, (8, 8, 4)) for _ in range(2))
    x, f = (rng.uniform(-1.0, 1.0, (8, 4)) for _ in range(2))
    gens = [TVector(g) for g in rng.uniform(-1.0, 1.0, (3, 8, 4))]
    counts = {}
    for name, operation in [
        ("apply", lambda: TMatrix(A).apply(TVector(x))),
        ("compose", lambda: TMatrix(A).compose(TMatrix(B))),
        ("submodule", lambda: Submodule(8, gens)),
        ("distance_to", lambda: Y.distance_to(TVector(x))),
        ("extend", lambda: hahn_banach_extend(TFunctional(TVector(f)), Y)),
        ("restricted norms", lambda: TFunctional(TVector(f)).restricted_component_norms(Y)),
    ]:
        Y = Submodule(8, gens)
        splits.clear()
        operation()
        counts[name] = len(splits)
    assert counts == {"apply": 2, "compose": 2, "submodule": 1, "distance_to": 1, "extend": 1, "restricted norms": 1}


def test_open_mapping_splits_each_group_once_whatever_its_trials(splits):
    # Each group of operators of one size is split once, as a stack, and
    # each trial is inverted from that split: no trial splits again.
    counts = []
    for trials in (40, 150):
        splits.clear()
        assert run_check(default_config("open-mapping", trials=trials)).passed
        assert all(len(shape) == 4 for shape in splits)  # stacks (G, ., n, 4) only
        counts.append(len(splits))
    assert counts[0] == counts[1] == 32


@pytest.fixture
def hat_calls(monkeypatch):
    """The names, hat_split or hat_merge, of the calls made while the test
    runs, through whichever module's binding of either a caller uses."""
    calls = []

    def counted(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    for name in ("hat_split", "hat_merge"):
        fn = getattr(_arrays, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] == "bicomplex" and vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    return calls


def test_the_operator_norm_checks_split_each_operand_once(hat_calls):
    # At seed 42 the 400 trials of norm-sandwich and of compose-norm meet all
    # 64 operator shapes (m, n), and continuity-bounded's 200 trials 63 of
    # them.  norm-sandwich splits each shape group once and hands its
    # attaining operators (M1, 0) and (M1, M1) on as hat stacks; compose-norm
    # splits each left and each right operand shape once and takes the
    # products and all three norms from those splits; continuity-bounded
    # splits each group's operators and points, and merges the two images.
    counts = {}
    for check_id in ("norm-sandwich", "compose-norm", "continuity-bounded"):
        hat_calls.clear()
        assert run_check(default_config(check_id, seed=42)).passed
        counts[check_id] = (hat_calls.count("hat_split"), hat_calls.count("hat_merge"))
    assert counts == {"norm-sandwich": (64, 0), "compose-norm": (2 * 64, 0), "continuity-bounded": (2 * 63, 2 * 63)}
