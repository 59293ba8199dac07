"""Randomized, seeded property suites over the scalar, module, operator, and
functional layers.

Each check draws its inputs from a stream derived from the seed and the
stream index pinned in its registry record, evaluates a violation measure
through the same kernels the library uses, and reports the worst value
together with a witness, the inputs that produced it.  Replaying a witness
re-evaluates it through the same kernels, so reports are reproducible bit
for bit given the seed (timing aside).

No check asserts more than the finite-dimensional truth of the statement it
exercises: quantities that are only measured (never guaranteed) live in the
functionals module, not here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import _arrays
from ._arrays import hat_merge, hat_split, mul4, norm4, vec_norm4
from ._floats import SQRT2
from .errors import CheckCrashed, SingularOperator, UnknownCheckId
from .functionals import TFunctional, hahn_banach_extend, lift_real
from .operators import TMatrix, refusal
from .scalar import DEFAULT_SINGULAR_TOL, Bicomplex
from .tmodule import Submodule, TVector


@dataclass(frozen=True)
class CheckConfig:
    """Fully resolved configuration for one check run."""

    check_id: str
    seed: int = 42
    trials: int = 1
    tol: float = 1e-10

    def __post_init__(self):
        _check(self.check_id)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: pass iff worst_value is within the bound."""

    check_id: str
    passed: bool
    worst_value: float
    bound: float
    worst_witness: dict
    trials_run: int
    elapsed: float

    def to_json(self) -> dict:
        """The report without `elapsed`, so the serialized form is deterministic."""
        return {
            "check_id": self.check_id,
            "pass": self.passed,
            "worst_value": self.worst_value,
            "bound": self.bound,
            "trials_run": self.trials_run,
            "worst_witness": self.worst_witness,
        }


def default_config(
    check_id: str, seed: int = 42, trials: int | None = None, tol: float | None = None
) -> CheckConfig:
    """Configuration with the per-check default trial count and tolerance."""
    check = _check(check_id)
    return CheckConfig(
        check_id=check_id,
        seed=seed,
        trials=check.trials if trials is None else trials,
        tol=check.tol if tol is None else tol,
    )


class _Best:
    """Accumulates the worst (largest) violation and its witness.  A NaN is
    worse than any number: the first one seen is kept, so it fails the check."""

    def __init__(self):
        self.value = -np.inf
        self.witness: dict = {}

    def update(self, values, make_witness: Callable[[int], dict]):
        """Record the first NaN of `values` (an array or one float), else the
        first of its largest if that beats the worst so far; only then build
        its witness, make_witness(index)."""
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if values.size == 0 or np.isnan(self.value):
            return
        nan = np.isnan(values)
        k = int(np.argmax(nan)) if nan.any() else int(np.argmax(values))
        v = float(values[k])
        if np.isnan(v) or v > self.value:
            self.value = v
            self.witness = make_witness(k)


#: The dimensions n every check draws its inputs from.
DIMS = range(1, 9)


def _random_dim(rng) -> int:
    return int(rng.integers(DIMS.start, DIMS.stop))


def _dim_schedule(trials: int) -> list[tuple[int, int]]:
    """Spread trials over DIMS, at least one per dimension."""
    sizes = list(DIMS)
    base = max(1, trials // len(sizes))
    schedule = [(n, base) for n in sizes]
    assigned = base * len(sizes)
    if assigned < trials:
        n, cnt = schedule[-1]
        schedule[-1] = (n, cnt + trials - assigned)
    return schedule


def _uniform4(rng, count: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (count, 4))


def _uniform_vectors(rng, count: int, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (count, n, 4))


def _conditioned_draws(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one bijective operator on T^n: per hat component, its
    singular values in [0.4, 2] (2, n) and two complex Gaussian matrices
    (2, 2, n, n) whose Q factors are its singular vectors."""
    spectra, gaussians = [], []
    for _ in range(2):
        spectra.append(rng.uniform(0.4, 2.0, n))
        gaussians.append([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)])
    return np.array(spectra), np.array(gaussians)


def _conditioned_matrices(S, A) -> np.ndarray:
    """Coefficients (G, n, n, 4) of the operators with hat components
    U diag(s) V^H, from the draws S (G, 2, n) and A (G, 2, 2, n, n) of
    _conditioned_draws: one stacked QR for every U and V."""
    Q = np.linalg.qr(A)[0]
    M = Q[:, :, 0] @ (S[..., None] * np.eye(S.shape[-1])) @ np.conj(Q[:, :, 1]).swapaxes(-1, -2)
    return hat_merge(M[:, 0], M[:, 1])


def _nonsingular_scalars(rng, count: int) -> np.ndarray:
    """Scalars whose hat components both have modulus at least 1e-3."""
    out = np.empty((count, 4))
    filled = 0
    while filled < count:
        cand = rng.uniform(-1.0, 1.0, (count - filled, 4))
        h1, h2 = hat_split(cand)
        ok = (np.abs(h1) >= 1e-3) & (np.abs(h2) >= 1e-3)
        good = cand[ok]
        out[filled : filled + good.shape[0]] = good
        filled += good.shape[0]
    return out


def _hat_norm(C: np.ndarray) -> np.ndarray:
    h1, h2 = hat_split(C)
    return np.sqrt((np.abs(h1) ** 2 + np.abs(h2) ** 2) / 2.0)


_E1_ROW = np.array([0.5, 0.0, 0.0, 0.5])
_IDENTITY_SCALAR = np.array([1.0, 0.0, 0.0, 0.0])

#: Leading rows a scalar or vector check evaluates together.  Its value
#: function makes dozens of elementwise passes; over blocks this size their
#: temporaries stay in cache instead of spanning the whole draw.
_BLOCK_ROWS = 4096


def _blocked(fn, *arrays) -> np.ndarray:
    """fn(*arrays) for a fn whose row k depends on row k of each array only,
    evaluated over successive blocks of _BLOCK_ROWS rows: the same bits, with
    temporaries that do not grow with the row count."""
    blocks = range(0, len(arrays[0]), _BLOCK_ROWS)
    return np.concatenate([fn(*(a[i : i + _BLOCK_ROWS] for a in arrays)) for i in blocks])


# --- ring-axioms -------------------------------------------------------------


def _idempotent_identity_violation() -> float:
    e1 = _E1_ROW
    e2 = np.array([0.5, 0.0, 0.0, -0.5])
    devs = [
        np.max(np.abs(mul4(e1, e1) - e1)),
        np.max(np.abs(mul4(e2, e2) - e2)),
        np.max(np.abs(mul4(e1, e2))),
        np.max(np.abs(e1 + e2 - _IDENTITY_SCALAR)),
    ]
    return float(max(devs))


def _ring_axiom_values(part: str, S, T, U) -> np.ndarray:
    if part == "mul-associative":
        return np.max(np.abs(mul4(mul4(S, T), U) - mul4(S, mul4(T, U))), axis=-1)
    if part == "mul-commutative":
        return np.max(np.abs(mul4(S, T) - mul4(T, S)), axis=-1)
    if part == "distributive":
        return np.max(np.abs(mul4(S, T + U) - (mul4(S, T) + mul4(S, U))), axis=-1)
    if part == "add-associative":
        return np.max(np.abs((S + T) + U - (S + (T + U))), axis=-1)
    raise ValueError(f"unknown ring axiom part {part!r}")


def _run_ring_axioms(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    best.update(_idempotent_identity_violation(), lambda k: {"part": "idempotent-identities"})
    S = _uniform4(rng, cfg.trials)
    T = _uniform4(rng, cfg.trials)
    U = _uniform4(rng, cfg.trials)
    for part in ("mul-associative", "mul-commutative", "distributive", "add-associative"):
        best.update(
            _blocked(partial(_ring_axiom_values, part), S, T, U),
            lambda k, part=part: {
                "part": part,
                "s": S[k].tolist(),
                "t": T[k].tolist(),
                "u": U[k].tolist(),
            },
        )
    return best, cfg.trials


def _replay_ring_axioms(witness: dict) -> float:
    if witness["part"] == "idempotent-identities":
        return _idempotent_identity_violation()
    S = np.array([witness["s"]])
    T = np.array([witness["t"]])
    U = np.array([witness["u"]])
    return float(_ring_axiom_values(witness["part"], S, T, U)[0])


# --- submult -----------------------------------------------------------------


def _submult_values(S, T) -> np.ndarray:
    denom = norm4(S) * norm4(T)
    denom = np.where(denom == 0.0, 1.0, denom)
    return norm4(mul4(S, T)) / denom


def _run_submult(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    S = _uniform4(rng, cfg.trials)
    T = _uniform4(rng, cfg.trials)
    best.update(_blocked(_submult_values, S, T), lambda k: {"s": S[k].tolist(), "t": T[k].tolist()})
    # e1 * e1 = e1 attains the bound sqrt(2)
    best.update(
        _submult_values(_E1_ROW[None], _E1_ROW[None]), lambda k: {"s": _E1_ROW.tolist(), "t": _E1_ROW.tolist()}
    )
    return best, cfg.trials + 1


def _replay_submult(witness: dict) -> float:
    return float(_submult_values(np.array([witness["s"]]), np.array([witness["t"]]))[0])


# --- norm-identity -----------------------------------------------------------


def _norm_identity_values(W) -> np.ndarray:
    n = norm4(W)
    return np.abs(n - _hat_norm(W)) / (1.0 + n)


def _run_norm_identity(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    W = _uniform4(rng, cfg.trials)
    best.update(_blocked(_norm_identity_values, W), lambda k: {"w": W[k].tolist()})
    return best, cfg.trials


def _replay_norm_identity(witness: dict) -> float:
    return float(_norm_identity_values(np.array([witness["w"]]))[0])


# --- scalar-homogeneity --------------------------------------------------------


def _homogeneity_values(part: str, A, X, nx=None) -> np.ndarray:
    # A: (N, 4) scalar coefficients, X: (N, n, 4) vectors, nx: their norms
    scaled = mul4(A[:, None, :], X)
    nx = vec_norm4(X) if nx is None else nx
    na = norm4(A)
    ns = vec_norm4(scaled)
    if part == "complex-exact":
        return np.abs(ns - na * nx) / (1.0 + na * nx)
    if part == "ring-bound":
        return (ns - SQRT2 * na * nx) / (1.0 + SQRT2 * na * nx)
    if part == "attainment":
        denom = na * nx
        ratio = np.where(denom > 0.0, ns / np.where(denom == 0.0, 1.0, denom), SQRT2)
        return np.abs(ratio - SQRT2)
    raise ValueError(f"unknown homogeneity part {part!r}")


def _shared_vector_values(A_complex, W, X) -> np.ndarray:
    """(N, 2): complex-exact at A_complex and ring-bound at W, which scale the
    same vectors X, so the norms of X are taken once for both."""
    nx = vec_norm4(X)
    return np.stack(
        [_homogeneity_values("complex-exact", A_complex, X, nx), _homogeneity_values("ring-bound", W, X, nx)],
        axis=-1,
    )


def _run_scalar_homogeneity(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    total = 0
    for n, count in _dim_schedule(cfg.trials):
        X = _uniform_vectors(rng, count, n)
        z = rng.uniform(-1.0, 1.0, (count, 2))
        A_complex = np.zeros((count, 4))
        A_complex[:, :2] = z
        W = _uniform4(rng, count)
        G = _uniform_vectors(rng, count, n)
        X_ideal = mul4(_E1_ROW, G)
        A_e1 = np.broadcast_to(_E1_ROW, (count, 4))
        shared = _blocked(_shared_vector_values, A_complex, W, X)
        for part, A, V, values in (
            ("complex-exact", A_complex, X, shared[:, 0]),
            ("ring-bound", W, X, shared[:, 1]),
            ("attainment", A_e1, X_ideal, _blocked(partial(_homogeneity_values, "attainment"), A_e1, X_ideal)),
        ):
            best.update(
                values,
                lambda k, part=part, A=A, V=V: {
                    "part": part,
                    "alpha": A[k].tolist(),
                    "x": V[k].tolist(),
                },
            )
        total += count
    return best, total


def _replay_scalar_homogeneity(witness: dict) -> float:
    A = np.array([witness["alpha"]])
    X = np.array([witness["x"]])
    return float(_homogeneity_values(witness["part"], A, X)[0])


# --- translation-invariance ----------------------------------------------------


def _translation_values(part: str, X, Y, A) -> np.ndarray:
    if part == "metric-shift":
        before = vec_norm4(X - Y)
        after = vec_norm4((X + A) - (Y + A))
        return np.abs(after - before) / (1.0 + before)
    if part == "fnorm-definition":
        fnorm = vec_norm4(X)
        at_zero = vec_norm4(X - np.zeros_like(X))
        return np.abs(fnorm - at_zero)
    raise ValueError(f"unknown translation-invariance part {part!r}")


def _run_translation_invariance(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    total = 0
    for n, count in _dim_schedule(cfg.trials):
        X = _uniform_vectors(rng, count, n)
        Y = _uniform_vectors(rng, count, n)
        A = _uniform_vectors(rng, count, n)
        for part in ("metric-shift", "fnorm-definition"):
            best.update(
                _blocked(partial(_translation_values, part), X, Y, A),
                lambda k, part=part: {
                    "part": part,
                    "x": X[k].tolist(),
                    "y": Y[k].tolist(),
                    "a": A[k].tolist(),
                },
            )
        total += count
    return best, total


def _replay_translation_invariance(witness: dict) -> float:
    return float(
        _translation_values(
            witness["part"],
            np.array([witness["x"]]),
            np.array([witness["y"]]),
            np.array([witness["a"]]),
        )[0]
    )


# --- homeomorphism-Ta ------------------------------------------------------------


def _ta_values(part: str, A, X, Y) -> np.ndarray:
    if part == "isometry":
        before = vec_norm4(X - Y)
        after = vec_norm4((A + X) - (A + Y))
        return np.abs(after - before) / (1.0 + before)
    if part == "roundtrip":
        back = (X + A) - A
        return vec_norm4(back - X) / (1.0 + vec_norm4(X) + vec_norm4(A))
    raise ValueError(f"unknown translation part {part!r}")


def _run_homeomorphism_ta(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    total = 0
    for n, count in _dim_schedule(cfg.trials):
        A = _uniform_vectors(rng, count, n)
        X = _uniform_vectors(rng, count, n)
        Y = _uniform_vectors(rng, count, n)
        for part in ("isometry", "roundtrip"):
            best.update(
                _blocked(partial(_ta_values, part), A, X, Y),
                lambda k, part=part: {
                    "part": part,
                    "a": A[k].tolist(),
                    "x": X[k].tolist(),
                    "y": Y[k].tolist(),
                },
            )
        total += count
    return best, total


def _replay_homeomorphism_ta(witness: dict) -> float:
    return float(
        _ta_values(
            witness["part"],
            np.array([witness["a"]]),
            np.array([witness["x"]]),
            np.array([witness["y"]]),
        )[0]
    )


# --- homeomorphism-Mlambda ---------------------------------------------------------


def _mlambda_values(part: str, L, X, component: int = 2) -> np.ndarray:
    if part == "roundtrip":
        h1, h2 = hat_split(L)
        Linv = hat_merge(1.0 / h1, 1.0 / h2)
        back = mul4(Linv[:, None, :], mul4(L[:, None, :], X))
        return vec_norm4(back - X) / (1.0 + vec_norm4(X))
    if part == "collapse":
        scaled = mul4(L[:, None, :], X)
        h1, h2 = hat_split(scaled)
        dead = h1 if component == 1 else h2
        return np.sqrt(np.sum(np.abs(dead) ** 2, axis=-1)) / (1.0 + vec_norm4(X))
    raise ValueError(f"unknown multiplication part {part!r}")


def _run_homeomorphism_mlambda(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    total = 0
    for n, count in _dim_schedule(cfg.trials):
        L = _nonsingular_scalars(rng, count)
        X = _uniform_vectors(rng, count, n)
        best.update(
            _blocked(partial(_mlambda_values, "roundtrip"), L, X),
            lambda k: {"part": "roundtrip", "lam": L[k].tolist(), "x": X[k].tolist()},
        )
        # singular multipliers with an exactly vanishing hat component
        h = rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
        zeros = np.zeros_like(h)
        for component, Ls in ((1, hat_merge(zeros, h)), (2, hat_merge(h, zeros))):
            best.update(
                _blocked(partial(_mlambda_values, "collapse", component=component), Ls, X),
                lambda k, component=component, Ls=Ls: {
                    "part": "collapse",
                    "component": component,
                    "lam": Ls[k].tolist(),
                    "x": X[k].tolist(),
                },
            )
        total += count
    return best, total


def _replay_homeomorphism_mlambda(witness: dict) -> float:
    return float(
        _mlambda_values(
            witness["part"],
            np.array([witness["lam"]]),
            np.array([witness["x"]]),
            witness.get("component", 2),
        )[0]
    )


# --- stacked operator evaluation ---------------------------------------------------
#
# The operator checks draw each trial's inputs in turn (one draw of shape
# (k, ...) takes the stream's values in the order of k draws of shape (...)),
# then evaluate a chunk of up to _CHUNK_TRIALS trials together.  Trials whose
# arrays share their shapes are stacked and run through the library's kernels
# (_arrays.pair_singular_values, operator_norms, apply_pair, compose_pair,
# solve_pair, vector_norms; for hahn-banach orthonormal_columns,
# restrict_pair, riesz_extension, pair_norms and dots) in one call each: the
# kernels TMatrix, TVector, Submodule and TFunctional call for a single
# object.  Stacked LAPACK and BLAS calls round each matrix as a single call
# does, so the values are those of the per-object methods, bit for bit,
# whatever the chunk and stack sizes.  Each replay evaluates a stack of one
# through the same function, except hahn-banach's, which goes through the
# per-object API.

#: Trials drawn and evaluated together, so that memory does not grow with
#: the trial count.
_CHUNK_TRIALS = 1024


def _chunks(trials: int):
    """Sizes of the successive chunks that `trials` trials are drawn in."""
    for start in range(0, trials, _CHUNK_TRIALS):
        yield min(_CHUNK_TRIALS, trials - start)


def _grouped(fn, *columns) -> list:
    """fn applied to the trials grouped by the shapes of their arrays.

    columns[c][t] is trial t's array for fn's argument c.  The arrays of each
    group are stacked along a new leading axis, the groups run in sorted shape
    order, and the rows of fn's result come back in trial order."""
    groups: dict = {}
    for t, arrays in enumerate(zip(*columns)):
        groups.setdefault(tuple(a.shape for a in arrays), []).append(t)
    rows = [None] * len(columns[0])
    for shape in sorted(groups):
        trials = groups[shape]
        stacked = [np.stack([column[t] for t in trials]) for column in columns]
        for t, row in zip(trials, fn(*stacked)):
            rows[t] = row
    return rows


def _split_norms(H):
    """(sup_norm, idem_norm) of operators given by their hat stack
    (2, ..., m, n), as TMatrix.norms computes them."""
    s1, s2 = _arrays.pair_singular_values(H)
    return _arrays.operator_norms(s1[..., 0], s2[..., 0])


def _norms(C):
    """(sup_norm, idem_norm) of a stack of operator coefficients (..., m, n, 4)."""
    return _split_norms(hat_split(C))


def _apply(H, X):
    """Coefficients of T.apply(x), for T given by its hat stack (2, ..., m, n)
    and x by coefficients (..., n, 4); the stacks broadcast."""
    return hat_merge(*_arrays.apply_pair(H, hat_split(X)))


# --- ubp ---------------------------------------------------------------------

_FAMILY_SIZE = 5
_UBP_POINTS = 10


def _ubp_group(F, X):
    """Families F (G, 5, n, n, 4) and points X (G, k, n, 4) -> (G, k): the
    largest excess of |T x| over sqrt(2) * (max sup_norm) * |x| in each family."""
    H = hat_split(F)
    bound = np.max(_split_norms(H)[0], axis=-1)
    lhs = _arrays.vector_norms(_apply(H[:, :, None], X[:, :, None]))
    rhs = (SQRT2 * bound)[:, None, None] * _arrays.vector_norms(X)[..., None]
    return np.max((lhs - rhs) / (1.0 + rhs), axis=-1)


def _run_ubp(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        families, points = [], []
        for _ in range(count):
            n = _random_dim(rng)
            families.append(rng.uniform(-1.0, 1.0, (_FAMILY_SIZE, n, n, 4)))
            points.append(rng.uniform(-1.0, 1.0, (_UBP_POINTS, n, 4)))

        def witness(k: int) -> dict:
            t, j = divmod(k, _UBP_POINTS)
            return {"family": [TMatrix(C).to_json() for C in families[t]], "x": TVector(points[t][j]).to_json()}

        best.update(np.ravel(_grouped(_ubp_group, families, points)), witness)
    return best, cfg.trials


def _replay_ubp(witness: dict) -> float:
    family = np.stack([TMatrix.from_json(m).coeffs for m in witness["family"]])
    x = TVector.from_json(witness["x"]).coeffs
    return float(_ubp_group(family[None], x[None, None])[0, 0])


# --- continuity-bounded ----------------------------------------------------------

_CONTINUITY_POINTS = 5


def _continuity_group(C, X):
    """Operators C (G, m, n, 4) and points X (G, k, n, 4) -> (G, 1 + k): how
    far |T x| at the top right singular vector x of the dominant component
    misses sqrt(2) * sup_norm, then the excess of |T x| over
    sqrt(2) * sup_norm * |x| at each point."""
    H = hat_split(C)
    s1, s2 = _arrays.pair_singular_values(H)
    sup = _arrays.operator_norms(s1[:, 0], s2[:, 0])[0]
    first = s1[:, 0] >= s2[:, 0]
    _, _, vh = np.linalg.svd(np.where(first[:, None, None], H[0], H[1]))
    v = SQRT2 * np.conj(vh[:, 0])
    zero = np.zeros_like(v)
    top = hat_merge(np.where(first[:, None], v, zero), np.where(first[:, None], zero, v))
    target = SQRT2 * sup
    attain = np.abs(_arrays.vector_norms(_apply(H, top)) - target) / (1.0 + target)
    rhs = (SQRT2 * sup)[:, None] * _arrays.vector_norms(X)
    exceed = (_arrays.vector_norms(_apply(H[:, :, None], X)) - rhs) / (1.0 + rhs)
    return np.concatenate([attain[:, None], exceed], axis=1)


def _run_continuity_bounded(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        matrices, points = [], []
        for _ in range(count):
            m = _random_dim(rng)
            n = _random_dim(rng)
            matrices.append(rng.uniform(-1.0, 1.0, (m, n, 4)))
            points.append(rng.uniform(-1.0, 1.0, (_CONTINUITY_POINTS, n, 4)))

        def witness(k: int) -> dict:
            t, j = divmod(k, 1 + _CONTINUITY_POINTS)
            if j == 0:
                return {"part": "attain", "matrix": TMatrix(matrices[t]).to_json()}
            return {
                "part": "no-exceed",
                "matrix": TMatrix(matrices[t]).to_json(),
                "x": TVector(points[t][j - 1]).to_json(),
            }

        best.update(np.ravel(_grouped(_continuity_group, matrices, points)), witness)
    return best, cfg.trials


def _replay_continuity_bounded(witness: dict) -> float:
    C = TMatrix.from_json(witness["matrix"]).coeffs
    if witness["part"] == "attain":
        # attainment needs no points: evaluate at none
        return float(_continuity_group(C[None], np.empty((1, 0, C.shape[1], 4)))[0, 0])
    x = TVector.from_json(witness["x"]).coeffs
    return float(_continuity_group(C[None], x[None, None])[0, 1])


# --- limit-operator --------------------------------------------------------------

#: Coefficients of the scalars 1/k, k = 21..40, that shrink the perturbation.
_TAIL_ROWS = np.array([[1.0 / k, 0.0, 0.0, 0.0] for k in range(21, 41)])


def _limit_perturbation_group(T, E):
    """E rescaled to sup_norm 0.5 * (sup_norm(T) + 1e-3), so the finite tail
    stands in for the true liminf; a zero E is kept."""
    sup_t, sup_e = _norms(T)[0], _norms(E)[0]
    positive = sup_e > 0.0
    rows = np.zeros((len(E), 4))
    rows[positive, 0] = 0.5 * (sup_t[positive] + 1e-3) / sup_e[positive]
    return np.where(positive[:, None, None, None], mul4(rows[:, None, None, :], E), E)


def _limit_operator_group(T, E):
    """Operators T, perturbations E (G, n, n, 4) -> (G,): how far sup_norm(T)
    exceeds sqrt(2) * min over k of sup_norm(T + E / k)."""
    target = _norms(T)[0]
    tail = _norms(T[:, None] + mul4(_TAIL_ROWS[:, None, None, :], E[:, None]))[0]
    return (target - SQRT2 * np.min(tail, axis=-1)) / (1.0 + target)


def _run_limit_operator(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        operators, perturbations = [], []
        for _ in range(count):
            n = _random_dim(rng)
            operators.append(rng.uniform(-1.0, 1.0, (n, n, 4)))
            perturbations.append(rng.uniform(-1.0, 1.0, (n, n, 4)))
        perturbations = _grouped(_limit_perturbation_group, operators, perturbations)
        best.update(
            np.array(_grouped(_limit_operator_group, operators, perturbations)),
            lambda k: {"t": TMatrix(operators[k]).to_json(), "e": TMatrix(perturbations[k]).to_json()},
        )
    return best, cfg.trials


def _replay_limit_operator(witness: dict) -> float:
    T = TMatrix.from_json(witness["t"]).coeffs
    E = TMatrix.from_json(witness["e"]).coeffs
    return float(_limit_operator_group(T[None], E[None])[0])


# --- bxy-complete ----------------------------------------------------------------

#: The Cauchy sequence T_k = T + 2^(1-k) E, sampled at these k.
_BXY_STEPS = (1, 5, 10, 20, 45)
_BXY_ROWS = np.array([[2.0 ** (1 - k), 0.0, 0.0, 0.0] for k in _BXY_STEPS])
#: Every pair of sampled terms j < k, and |2^(1-j) - 2^(1-k)| for each.
_BXY_EARLY, _BXY_LATE = np.triu_indices(len(_BXY_STEPS), k=1)
_BXY_GAPS = np.abs(_BXY_ROWS[_BXY_EARLY, 0] - _BXY_ROWS[_BXY_LATE, 0])


def _bxy_complete_group(T, E):
    """Operators T, directions E (G, n, n, 4) -> (G,): the worst of the Cauchy
    bound on idem_norm(T_j - T_k), the distance from T_45 to the limit T, and
    the continuity of idem_norm along the sequence."""
    terms = T[:, None] + mul4(_BXY_ROWS[:, None, None, :], E[:, None])
    idem_e, idem_t = _norms(E)[1][:, None], _norms(T)[1][:, None]
    measured = _norms(terms[:, _BXY_EARLY] - terms[:, _BXY_LATE])[1]
    residual = _norms(T - terms[:, -1])[1][:, None]
    drift = np.abs(_norms(terms)[1] - idem_t)
    allowance = _norms(terms - T[:, None])[1]
    parts = (
        (measured - _BXY_GAPS * idem_e) / (1.0 + idem_e),
        residual / (1.0 + idem_t),
        (drift - allowance) / (1.0 + idem_t),
    )
    return np.max(np.concatenate(parts, axis=1), axis=1)


def _run_bxy_complete(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        operators, directions = [], []
        for _ in range(count):
            n = _random_dim(rng)
            operators.append(rng.uniform(-1.0, 1.0, (n, n, 4)))
            directions.append(rng.uniform(-1.0, 1.0, (n, n, 4)))
        best.update(
            np.array(_grouped(_bxy_complete_group, operators, directions)),
            lambda k: {"t": TMatrix(operators[k]).to_json(), "e": TMatrix(directions[k]).to_json()},
        )
    return best, cfg.trials


def _replay_bxy_complete(witness: dict) -> float:
    T = TMatrix.from_json(witness["t"]).coeffs
    E = TMatrix.from_json(witness["e"]).coeffs
    return float(_bxy_complete_group(T[None], E[None])[0])


# --- open-mapping ----------------------------------------------------------------

_OPEN_MAPPING_PARTS = ("unit-ball", "residual")
_OPEN_MAPPING_POINTS = 5


def _scaled_rhs_group(S, A, Y, u):
    """Draws S, A of _conditioned_draws (G, ...), right-hand sides Y
    (G, k, n, 4) and fractions u (G, k) -> for each trial its operator
    (n, n, 4) and each y rescaled to length u times the operator's smallest
    component singular value, the radius of the ball it maps onto."""
    C = _conditioned_matrices(S, A)
    sv = _arrays.pair_singular_values(hat_split(C))
    radius = np.minimum(sv[0, :, -1], sv[1, :, -1])
    rows = np.zeros(u.shape + (4,))
    rows[..., 0] = radius[:, None] * u / _arrays.vector_norms(Y)
    return list(zip(C, mul4(rows[..., None, :], Y)))


def _open_mapping_group(C, Y):
    """Operators C (G, n, n, 4) and right-hand sides Y (G, k, n, 4) ->
    (G, k, 2): for the solution x of T x = y, |x| - 1 and the relative residual
    of T x = y.  Each operator is refused or accepted as TMatrix.solve decides."""
    H = hat_split(C)
    sv, det = _arrays.pair_singular_values(H), np.linalg.det(H)
    for t in range(len(C)):
        why = refusal(sv[:, t], Bicomplex.from_idempotent(*det[:, t]), DEFAULT_SINGULAR_TOL)
        if why is not None:
            raise SingularOperator(*why)
    X = hat_merge(*_arrays.solve_pair(H[:, :, None], hat_split(Y)))
    unit_ball = _arrays.vector_norms(X) - 1.0
    residual = _arrays.vector_norms(_apply(H[:, :, None], X) - Y) / (1.0 + _arrays.vector_norms(Y))
    return np.stack([unit_ball, residual], axis=-1)


def _run_open_mapping(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        spectra, gaussians, rhs, fractions = [], [], [], []
        for _ in range(count):
            n = _random_dim(rng)
            S, A = _conditioned_draws(rng, n)
            ys, us = [], []
            for _ in range(_OPEN_MAPPING_POINTS):
                y = rng.uniform(-1.0, 1.0, (n, 4))
                if y.any():  # a zero y has no direction to rescale
                    ys.append(y)
                    us.append(rng.uniform(0.0, 1.0))
            spectra.append(S)
            gaussians.append(A)
            rhs.append(np.reshape(ys, (len(ys), n, 4)))
            fractions.append(np.array(us))
        matrices, rhs = zip(*_grouped(_scaled_rhs_group, spectra, gaussians, rhs, fractions))
        rows = _grouped(_open_mapping_group, matrices, rhs)
        index = [(t, j, part) for t, row in enumerate(rows) for j in range(len(row)) for part in _OPEN_MAPPING_PARTS]

        def witness(k: int) -> dict:
            t, j, part = index[k]
            return {"part": part, "matrix": TMatrix(matrices[t]).to_json(), "y": TVector(rhs[t][j]).to_json()}

        best.update(np.concatenate([np.ravel(row) for row in rows]), witness)
    return best, cfg.trials


def _replay_open_mapping(witness: dict) -> float:
    C = TMatrix.from_json(witness["matrix"]).coeffs
    y = TVector.from_json(witness["y"]).coeffs
    return float(_open_mapping_group(C[None], y[None, None])[0, 0, _OPEN_MAPPING_PARTS.index(witness["part"])])


# --- closed-graph ----------------------------------------------------------------

#: Coefficients of the scalar 2^-40: x_k = x + 2^-40 p approaches x.
_SHIFT_ROW = np.array([2.0 ** -40, 0.0, 0.0, 0.0])


def _closed_graph_group(C, X, P):
    """Operators C (G, n, n, 4), points X and directions P (G, n, 4) -> (G,):
    |T x - T x_k| relative to |T x|."""
    H = hat_split(C)
    y_limit = _apply(H, X + mul4(_SHIFT_ROW, P))
    at_x = _apply(H, X)
    return _arrays.vector_norms(at_x - y_limit) / (1.0 + _arrays.vector_norms(at_x))


def _run_closed_graph(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        matrices, points, directions = [], [], []
        for _ in range(count):
            n = _random_dim(rng)
            matrices.append(rng.uniform(-1.0, 1.0, (n, n, 4)))
            points.append(rng.uniform(-1.0, 1.0, (n, 4)))
            directions.append(rng.uniform(-1.0, 1.0, (n, 4)))
        best.update(
            np.array(_grouped(_closed_graph_group, matrices, points, directions)),
            lambda k: {
                "matrix": TMatrix(matrices[k]).to_json(),
                "x": TVector(points[k]).to_json(),
                "p": TVector(directions[k]).to_json(),
            },
        )
    return best, cfg.trials


def _replay_closed_graph(witness: dict) -> float:
    C = TMatrix.from_json(witness["matrix"]).coeffs
    x = TVector.from_json(witness["x"]).coeffs
    p = TVector.from_json(witness["p"]).coeffs
    return float(_closed_graph_group(C[None], x[None], p[None])[0])


# --- two-metric ------------------------------------------------------------------

_TWO_METRIC_PAIRS = 5


def _two_metric_group(W, X, Y):
    """Bijective operators W (G, n, n, 4) and point pairs X, Y (G, k, n, 4) ->
    (G, k): how far |W(x - y)| leaves [c_lo, c_hi] * |x - y|, with c_lo and
    c_hi the extreme component singular values of W."""
    H = hat_split(W)
    s1, s2 = _arrays.pair_singular_values(H)
    c_lo = np.minimum(s1[:, -1], s2[:, -1])[:, None]
    c_hi = np.maximum(s1[:, 0], s2[:, 0])[:, None]
    D = X - Y
    rho1 = _arrays.vector_norms(D)
    rho2 = _arrays.vector_norms(_apply(H[:, :, None], D))
    return np.maximum(c_lo * rho1 - rho2, rho2 - c_hi * rho1) / (1.0 + rho1)


def _run_two_metric(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        spectra, gaussians, pairs = [], [], []
        for _ in range(count):
            n = _random_dim(rng)
            S, A = _conditioned_draws(rng, n)
            spectra.append(S)
            gaussians.append(A)
            pairs.append(rng.uniform(-1.0, 1.0, (_TWO_METRIC_PAIRS, 2, n, 4)))
        matrices = _grouped(_conditioned_matrices, spectra, gaussians)
        rows = _grouped(_two_metric_group, matrices, [p[:, 0] for p in pairs], [p[:, 1] for p in pairs])

        def witness(k: int) -> dict:
            t, j = divmod(k, _TWO_METRIC_PAIRS)
            x, y = pairs[t][j]
            return {"w_matrix": TMatrix(matrices[t]).to_json(), "x": TVector(x).to_json(), "y": TVector(y).to_json()}

        best.update(np.ravel(rows), witness)
    return best, cfg.trials


def _replay_two_metric(witness: dict) -> float:
    W = TMatrix.from_json(witness["w_matrix"]).coeffs
    x = TVector.from_json(witness["x"]).coeffs
    y = TVector.from_json(witness["y"]).coeffs
    return float(_two_metric_group(W[None], x[None, None], y[None, None])[0, 0])


# --- total-family ----------------------------------------------------------------


def _total_family_values(part: str, X) -> np.ndarray:
    # the family is the coordinate functionals; entries ARE the evaluations
    if part == "lower-bound":
        n = X.shape[1]
        biggest = np.max(norm4(X), axis=-1)
        total = vec_norm4(X)
        return (total / np.sqrt(n) - biggest) / (1.0 + total)
    if part == "stacked-rank":
        n = X.shape[1]
        s = np.linalg.svd(np.eye(n, dtype=np.complex128), compute_uv=False)
        return np.array([abs(float(s[-1]) - 1.0)])
    raise ValueError(f"unknown total-family part {part!r}")


def _run_total_family(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    total = 0
    for n, count in _dim_schedule(cfg.trials):
        X = _uniform_vectors(rng, count, n)
        best.update(
            _blocked(partial(_total_family_values, "lower-bound"), X),
            lambda k: {"part": "lower-bound", "x": X[k].tolist()},
        )
        best.update(
            _total_family_values("stacked-rank", X[:1]),
            lambda k, n=n: {"part": "stacked-rank", "x": X[0].tolist()},
        )
        total += count
    return best, total


def _replay_total_family(witness: dict) -> float:
    return float(_total_family_values(witness["part"], np.array([witness["x"]]))[0])


# --- hahn-banach -----------------------------------------------------------------


def _hahn_banach_values(B1, B2, F, W, X):
    """Orthonormal bases B1, B2 (G, n, r_k) of the component subspaces of Y,
    functionals F and points X (G, n, 4), scalars W (G, 4) -> (G,): the worst
    miss of the extension on Y, of its component norms, of the round trip
    through its real part, and of T-linearity at w and x."""
    C = hat_split(F)
    E = _arrays.riesz_extension(B1, B2, C)
    ext = hat_merge(*E)
    y1, y2 = _arrays.pair_norms(*_arrays.restrict_pair(B1, B2, C))
    x1, x2 = _arrays.pair_norms(*hat_split(ext))
    err = np.maximum(*_arrays.pair_norms(*_arrays.restrict_pair(B1, B2, E - C)))
    lifted = _arrays.lift_rows(np.stack([ext, *_arrays.unit_multiples(ext)], axis=-1)[..., 0, :])
    at_x = _arrays.dots(hat_split(ext), hat_split(X))
    at_wx = _arrays.dots(hat_split(ext), hat_split(mul4(W[:, None, :], X)))
    rhs = mul4(W, hat_merge(*at_x))
    parts = (
        err / (1.0 + _arrays.operator_norms(y1, y2)[1]),
        np.abs(x1 - y1) / (1.0 + y1),
        np.abs(x2 - y2) / (1.0 + y2),
        _arrays.vector_norms(lifted - ext) / (1.0 + _arrays.vector_norms(ext)),
        _arrays.scalar_norms(hat_merge(*at_wx) - rhs) / (1.0 + _arrays.scalar_norms(rhs)),
    )
    return np.max(parts, axis=0)


def _hahn_banach_group(gens, F, W, X):
    """Generators (G, count, n, 4), functionals F and points X (G, n, 4),
    scalars W (G, 4) -> (G,), as Submodule bases them: trials whose generators
    span fewer than `count` dimensions in a component are evaluated one at a
    time, with their bases cut to rank."""
    U, ranks = _arrays.orthonormal_columns(hat_split(np.swapaxes(gens, 1, 2)))
    full = np.all(ranks == gens.shape[1], axis=0)
    values = np.empty(len(gens))
    values[full] = _hahn_banach_values(U[0, full], U[1, full], F[full], W[full], X[full])
    for t in np.flatnonzero(~full):
        (r1, r2), one = ranks[:, t], slice(t, t + 1)
        values[t] = _hahn_banach_values(U[0, one, :, :r1], U[1, one, :, :r2], F[one], W[one], X[one])[0]
    return values


def _run_hahn_banach(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        generators, functionals, scalars, points = [], [], [], []
        for _ in range(count):
            n = _random_dim(rng)
            generators.append(rng.uniform(-1.0, 1.0, (int(rng.integers(1, n + 1)), n, 4)))
            functionals.append(rng.uniform(-1.0, 1.0, (n, 4)))
            scalars.append(rng.uniform(-1.0, 1.0, 4))
            points.append(rng.uniform(-1.0, 1.0, (n, 4)))
        best.update(
            np.array(_grouped(_hahn_banach_group, generators, functionals, scalars, points)),
            lambda k: {
                "n": points[k].shape[0],
                "generators": generators[k].tolist(),
                "ystar": functionals[k].tolist(),
                "w": scalars[k].tolist(),
                "x": points[k].tolist(),
            },
        )
    return best, cfg.trials


def _replay_hahn_banach(witness: dict) -> float:
    # One trial through the per-object API, which rounds as the stacked
    # kernels do, so each replay also checks the batched value against
    # Submodule, hahn_banach_extend, lift_real, TVector.scale and TFunctional.
    Y = Submodule(witness["n"], [TVector.from_json(g) for g in witness["generators"]])
    report = hahn_banach_extend(TFunctional(TVector.from_json(witness["ystar"])), Y)
    ext = report.extension
    w, x = Bicomplex(*witness["w"]), TVector.from_json(witness["x"])
    lhs, rhs = ext(x.scale(w)), w * ext(x)
    parts = [report.restriction_error / (1.0 + report.y_norms.idem_norm)]
    parts += [abs(xc - yc) / (1.0 + yc) for yc, xc in zip(report.y_component_norms, report.x_component_norms)]
    parts.append((lift_real(ext.real_parts()[0]).coeffs - ext.coeffs).norm() / (1.0 + ext.coeffs.norm()))
    parts.append((lhs - rhs).norm() / (1.0 + rhs.norm()))
    return float(max(parts))


# --- norm-sandwich ----------------------------------------------------------------

_SANDWICH_PARTS = ("sandwich", "left-attain", "right-attain")


def _norm_sandwich_group(C):
    """Operators C (G, m, n, 4) -> (G, 3): the sandwich
    sup_norm <= idem_norm <= sqrt(2) * sup_norm, then its attainment on the
    left (M2 replaced by 0) and on the right (M2 replaced by M1)."""
    H = hat_split(C)
    M1 = H[0]
    sup, idem = _split_norms(H)
    sandwich = np.maximum(sup - idem, idem - SQRT2 * sup) / (1.0 + sup)
    sup, idem = _norms(hat_merge(M1, np.zeros_like(M1)))
    left = np.abs(sup - idem) / (1.0 + sup)
    sup, idem = _norms(hat_merge(M1, M1))
    right = np.abs(idem - SQRT2 * sup) / (1.0 + sup)
    return np.stack([sandwich, left, right], axis=-1)


def _run_norm_sandwich(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        matrices = []
        for _ in range(count):
            m = _random_dim(rng)
            n = _random_dim(rng)
            matrices.append(rng.uniform(-1.0, 1.0, (m, n, 4)))
        best.update(
            np.ravel(_grouped(_norm_sandwich_group, matrices)),
            lambda k: {"part": _SANDWICH_PARTS[k % 3], "matrix": TMatrix(matrices[k // 3]).to_json()},
        )
    return best, cfg.trials


def _replay_norm_sandwich(witness: dict) -> float:
    C = TMatrix.from_json(witness["matrix"]).coeffs
    return float(_norm_sandwich_group(C[None])[0, _SANDWICH_PARTS.index(witness["part"])])


# --- compose-norm -----------------------------------------------------------------


def _compose_norm_values(lefts: list, rights: list) -> np.ndarray:
    """(N,): the excess of each norm of A @ B over sqrt(2) * |A| * |B|, the
    worse of sup_norm and idem_norm.  The products are built as
    TMatrix.compose builds them; each operand's norms are taken in groups of
    its own shape, which hold far more trials than groups of (m, k, n)."""
    products = _grouped(
        lambda A, B: hat_merge(*_arrays.compose_pair(hat_split(A), hat_split(B))), lefts, rights
    )
    ra, rb, rab = (
        np.array(_grouped(lambda C: np.stack(_norms(C), axis=-1), Cs)) for Cs in (lefts, rights, products)
    )
    bound = SQRT2 * ra * rb
    return np.max((rab - bound) / (1.0 + bound), axis=-1)


def _run_compose_norm(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for count in _chunks(cfg.trials):
        lefts, rights = [], []
        for _ in range(count):
            m = _random_dim(rng)
            k = _random_dim(rng)
            n = _random_dim(rng)
            lefts.append(rng.uniform(-1.0, 1.0, (m, k, 4)))
            rights.append(rng.uniform(-1.0, 1.0, (k, n, 4)))
        best.update(
            _compose_norm_values(lefts, rights),
            lambda k: {"a": TMatrix(lefts[k]).to_json(), "b": TMatrix(rights[k]).to_json()},
        )
    return best, cfg.trials


def _replay_compose_norm(witness: dict) -> float:
    A = TMatrix.from_json(witness["a"]).coeffs
    B = TMatrix.from_json(witness["b"]).coeffs
    return float(_compose_norm_values([A], [B])[0])


# --- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One registered check.  `stream` is the index that, with the seed,
    selects the check's random stream; it is pinned here so that adding or
    reordering checks reseeds none of the others."""

    check_id: str
    stream: int
    trials: int
    tol: float
    run: Callable[[CheckConfig, np.random.Generator], tuple[_Best, int]]
    replay: Callable[[dict], float]
    bound_offset: float = 0.0


CHECKS = (
    Check("ring-axioms", 0, 100_000, 1e-13, _run_ring_axioms, _replay_ring_axioms),
    Check("submult", 1, 1_000_000, 1e-12, _run_submult, _replay_submult, bound_offset=SQRT2),
    Check("norm-identity", 2, 1_000_000, 1e-12, _run_norm_identity, _replay_norm_identity),
    Check("scalar-homogeneity", 3, 100_000, 1e-12, _run_scalar_homogeneity, _replay_scalar_homogeneity),
    Check("translation-invariance", 4, 50_000, 1e-12, _run_translation_invariance, _replay_translation_invariance),
    Check("homeomorphism-Ta", 5, 50_000, 1e-12, _run_homeomorphism_ta, _replay_homeomorphism_ta),
    Check("homeomorphism-Mlambda", 6, 20_000, 1e-9, _run_homeomorphism_mlambda, _replay_homeomorphism_mlambda),
    Check("ubp", 7, 60, 1e-10, _run_ubp, _replay_ubp),
    Check("continuity-bounded", 8, 200, 1e-9, _run_continuity_bounded, _replay_continuity_bounded),
    Check("limit-operator", 9, 60, 1e-10, _run_limit_operator, _replay_limit_operator),
    Check("bxy-complete", 10, 60, 1e-10, _run_bxy_complete, _replay_bxy_complete),
    Check("open-mapping", 11, 150, 1e-9, _run_open_mapping, _replay_open_mapping),
    Check("closed-graph", 12, 200, 1e-10, _run_closed_graph, _replay_closed_graph),
    Check("two-metric", 13, 100, 1e-10, _run_two_metric, _replay_two_metric),
    Check("total-family", 14, 400, 1e-10, _run_total_family, _replay_total_family),
    Check("hahn-banach", 15, 150, 1e-10, _run_hahn_banach, _replay_hahn_banach),
    Check("norm-sandwich", 16, 400, 1e-10, _run_norm_sandwich, _replay_norm_sandwich),
    Check("compose-norm", 17, 400, 1e-10, _run_compose_norm, _replay_compose_norm),
)

CHECK_IDS = tuple(check.check_id for check in CHECKS)
_BY_ID = {check.check_id: check for check in CHECKS}


def _check(check_id: str) -> Check:
    check = _BY_ID.get(check_id)
    if check is None:
        raise UnknownCheckId(f"unknown check id {check_id!r}")
    return check


def run_check(cfg: CheckConfig) -> CheckReport:
    """Execute one named suite deterministically for (seed, trials).  An
    exception escaping the suite is raised as CheckCrashed."""
    check = _check(cfg.check_id)
    rng = np.random.default_rng([int(cfg.seed) & 0xFFFFFFFFFFFFFFFF, check.stream])
    start = time.perf_counter()
    try:
        best, trials_run = check.run(cfg, rng)
    except Exception as exc:
        raise CheckCrashed(cfg.check_id, exc) from exc
    elapsed = time.perf_counter() - start
    bound = cfg.tol + check.bound_offset
    return CheckReport(
        check_id=cfg.check_id,
        passed=bool(best.value <= bound),
        worst_value=float(best.value),
        bound=float(bound),
        worst_witness=best.witness,
        trials_run=trials_run,
        elapsed=elapsed,
    )


def replay_witness(check_id: str, witness: dict) -> float:
    """Re-evaluate a worst_witness through the same kernels that produced it."""
    return _check(check_id).replay(witness)


def run_all(seed: int = 42, trials: int | None = None, tol: float | None = None) -> list[CheckReport]:
    """Run every check with a shared configuration.  trials/tol of None select
    the per-check defaults; the aggregate pass flag is the conjunction.
    Every configuration is built, and so checked, before any check runs."""
    configs = [default_config(check_id, seed=seed, trials=trials, tol=tol) for check_id in CHECK_IDS]
    return [run_check(cfg) for cfg in configs]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
