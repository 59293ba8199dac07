"""Randomized, seeded property suites over the scalar, module, operator, and
functional layers.

Each check draws its inputs from a stream derived from the seed and the
stream index pinned in its registry record, evaluates a violation measure
through the same kernels the library uses, and reports the worst value
together with a witness, the inputs that produced it.  Replaying a witness
re-evaluates the identical code path, so reports are reproducible bit for
bit given the seed (timing aside).

No check asserts more than the finite-dimensional truth of the statement it
exercises: quantities that are only measured (never guaranteed) live in the
functionals module, not here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._arrays import SQRT2, hat_merge, hat_split, mul4, norm4, vec_norm4
from .errors import UnknownCheckId
from .functionals import TFunctional, hahn_banach_extend, lift_real
from .operators import TMatrix
from .scalar import Bicomplex
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
    """Accumulates the worst (largest) violation and its witness."""

    def __init__(self):
        self.value = -np.inf
        self.witness: dict = {}

    def update(self, values, make_witness: Callable[[int], dict]):
        """Record the largest of `values` (an array or one float) if it beats
        the worst so far; only then build its witness, make_witness(index)."""
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if values.size == 0:
            return
        k = int(np.argmax(values))
        v = float(values[k])
        if v > self.value:
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


def _random_matrix(rng, m: int, n: int) -> TMatrix:
    return TMatrix(rng.uniform(-1.0, 1.0, (m, n, 4)))


def _random_unitary(rng, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(A)
    return q


def _conditioned_matrix(rng, n: int) -> TMatrix:
    """Bijective operator whose component singular values lie in [0.4, 2]."""
    comps = []
    for _ in range(2):
        s = rng.uniform(0.4, 2.0, n)
        comps.append(_random_unitary(rng, n) @ np.diag(s) @ _random_unitary(rng, n).conj().T)
    return TMatrix.from_hat(comps[0], comps[1])


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
        values = _ring_axiom_values(part, S, T, U)
        best.update(
            values,
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
    S = np.concatenate([_uniform4(rng, cfg.trials), _E1_ROW[None, :]])
    T = np.concatenate([_uniform4(rng, cfg.trials), _E1_ROW[None, :]])
    values = _submult_values(S, T)
    best.update(values, lambda k: {"s": S[k].tolist(), "t": T[k].tolist()})
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
    best.update(_norm_identity_values(W), lambda k: {"w": W[k].tolist()})
    return best, cfg.trials


def _replay_norm_identity(witness: dict) -> float:
    return float(_norm_identity_values(np.array([witness["w"]]))[0])


# --- scalar-homogeneity --------------------------------------------------------


def _homogeneity_values(part: str, A, X) -> np.ndarray:
    # A: (N, 4) scalar coefficients, X: (N, n, 4) vectors
    scaled = mul4(A[:, None, :], X)
    nx = vec_norm4(X)
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
        for part, A, V in (
            ("complex-exact", A_complex, X),
            ("ring-bound", W, X),
            ("attainment", A_e1, X_ideal),
        ):
            values = _homogeneity_values(part, A, V)
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
                _translation_values(part, X, Y, A),
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
                _ta_values(part, A, X, Y),
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
            _mlambda_values("roundtrip", L, X),
            lambda k: {"part": "roundtrip", "lam": L[k].tolist(), "x": X[k].tolist()},
        )
        # singular multipliers with an exactly vanishing hat component
        h = rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(-1.0, 1.0, count)
        zeros = np.zeros_like(h)
        for component, Ls in ((1, hat_merge(zeros, h)), (2, hat_merge(h, zeros))):
            best.update(
                _mlambda_values("collapse", Ls, X, component),
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


# --- ubp ---------------------------------------------------------------------


def _ubp_value(family: list[TMatrix], x: TVector) -> float:
    bound = max(T.norms().sup_norm for T in family)
    worst = -np.inf
    for T in family:
        lhs = T.apply(x).norm()
        rhs = SQRT2 * bound * x.norm()
        worst = max(worst, (lhs - rhs) / (1.0 + rhs))
    return float(worst)


def _run_ubp(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        n = _random_dim(rng)
        family = [_random_matrix(rng, n, n) for _ in range(5)]
        for _ in range(10):
            x = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
            best.update(
                _ubp_value(family, x),
                lambda k: {"family": [T.to_json() for T in family], "x": x.to_json()},
            )
    return best, cfg.trials


def _replay_ubp(witness: dict) -> float:
    family = [TMatrix.from_json(m) for m in witness["family"]]
    return _ubp_value(family, TVector.from_json(witness["x"]))


# --- continuity-bounded ----------------------------------------------------------


def _unit_ball_attainment_value(T: TMatrix) -> float:
    report = T.norms()
    M1, M2 = T.split()
    M = M1 if report.s1 >= report.s2 else M2
    _, _, vh = np.linalg.svd(M)
    v = np.conj(vh[0])
    if report.s1 >= report.s2:
        x = TVector.from_split(SQRT2 * v, np.zeros_like(v))
    else:
        x = TVector.from_split(np.zeros_like(v), SQRT2 * v)
    reached = T.apply(x).norm()
    target = SQRT2 * report.sup_norm
    return abs(reached - target) / (1.0 + target)


def _no_exceed_value(T: TMatrix, x: TVector) -> float:
    rhs = SQRT2 * T.bound_constant() * x.norm()
    return float((T.apply(x).norm() - rhs) / (1.0 + rhs))


def _run_continuity_bounded(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        m = _random_dim(rng)
        n = _random_dim(rng)
        T = _random_matrix(rng, m, n)
        best.update(
            _unit_ball_attainment_value(T), lambda k: {"part": "attain", "matrix": T.to_json()}
        )
        for _ in range(5):
            x = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
            best.update(
                _no_exceed_value(T, x),
                lambda k: {"part": "no-exceed", "matrix": T.to_json(), "x": x.to_json()},
            )
    return best, cfg.trials


def _replay_continuity_bounded(witness: dict) -> float:
    T = TMatrix.from_json(witness["matrix"])
    if witness["part"] == "attain":
        return _unit_ball_attainment_value(T)
    return _no_exceed_value(T, TVector.from_json(witness["x"]))


# --- limit-operator --------------------------------------------------------------


def _limit_operator_value(T: TMatrix, E: TMatrix) -> float:
    target = T.norms().sup_norm
    tail = [
        (T + E.scale(1.0 / n)).norms().sup_norm for n in range(21, 41)
    ]
    liminf_est = min(tail)
    return float((target - SQRT2 * liminf_est) / (1.0 + target))


def _run_limit_operator(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        n = _random_dim(rng)
        T = _random_matrix(rng, n, n)
        E = _random_matrix(rng, n, n)
        # keep the perturbation small relative to T so the finite tail stands
        # in for the true liminf
        sup_t = T.norms().sup_norm
        sup_e = E.norms().sup_norm
        if sup_e > 0.0:
            E = E.scale(0.5 * (sup_t + 1e-3) / sup_e)
        best.update(
            _limit_operator_value(T, E), lambda k: {"t": T.to_json(), "e": E.to_json()}
        )
    return best, cfg.trials


def _replay_limit_operator(witness: dict) -> float:
    return _limit_operator_value(TMatrix.from_json(witness["t"]), TMatrix.from_json(witness["e"]))


# --- bxy-complete ----------------------------------------------------------------


def _bxy_complete_value(T: TMatrix, E: TMatrix) -> float:
    idem_e = E.norms().idem_norm
    idem_t = T.norms().idem_norm
    worst = -np.inf
    terms = {k: T + E.scale(2.0 ** (1 - k)) for k in (1, 5, 10, 20, 45)}
    for j in terms:
        for k in terms:
            if j >= k:
                continue
            measured = (terms[j] - terms[k]).norms().idem_norm
            bound = abs(2.0 ** (1 - j) - 2.0 ** (1 - k)) * idem_e
            worst = max(worst, (measured - bound) / (1.0 + idem_e))
    residual = (T - terms[45]).norms().idem_norm / (1.0 + idem_t)
    worst = max(worst, residual)
    for k, Tk in terms.items():
        drift = abs(Tk.norms().idem_norm - idem_t)
        allowance = (Tk - T).norms().idem_norm
        worst = max(worst, (drift - allowance) / (1.0 + idem_t))
    return float(worst)


def _run_bxy_complete(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        n = _random_dim(rng)
        T = _random_matrix(rng, n, n)
        E = _random_matrix(rng, n, n)
        best.update(_bxy_complete_value(T, E), lambda k: {"t": T.to_json(), "e": E.to_json()})
    return best, cfg.trials


def _replay_bxy_complete(witness: dict) -> float:
    return _bxy_complete_value(TMatrix.from_json(witness["t"]), TMatrix.from_json(witness["e"]))


# --- open-mapping ----------------------------------------------------------------


def _open_mapping_values(T: TMatrix, y: TVector) -> dict[str, float]:
    x = T.solve(y)
    return {
        "unit-ball": float(x.norm() - 1.0),
        "residual": float((T.apply(x) - y).norm() / (1.0 + y.norm())),
    }


def _run_open_mapping(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        n = _random_dim(rng)
        T = _conditioned_matrix(rng, n)
        sv1, sv2 = T.component_singular_values()
        radius = min(float(sv1[-1]), float(sv2[-1]))
        for _ in range(5):
            y = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
            length = y.norm()
            if length == 0.0:
                continue
            y = y.scale(radius * float(rng.uniform(0.0, 1.0)) / length)
            for part, value in _open_mapping_values(T, y).items():
                best.update(
                    value,
                    lambda k, part=part: {"part": part, "matrix": T.to_json(), "y": y.to_json()},
                )
    return best, cfg.trials


def _replay_open_mapping(witness: dict) -> float:
    values = _open_mapping_values(
        TMatrix.from_json(witness["matrix"]), TVector.from_json(witness["y"])
    )
    return values[witness["part"]]


# --- closed-graph ----------------------------------------------------------------


def _closed_graph_value(T: TMatrix, x: TVector, p: TVector) -> float:
    xk = x + p.scale(2.0 ** -40)
    y_limit = T.apply(xk)
    at_x = T.apply(x)
    return float((at_x - y_limit).norm() / (1.0 + at_x.norm()))


def _run_closed_graph(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        n = _random_dim(rng)
        T = _random_matrix(rng, n, n)
        x = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
        p = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
        best.update(
            _closed_graph_value(T, x, p),
            lambda k: {"matrix": T.to_json(), "x": x.to_json(), "p": p.to_json()},
        )
    return best, cfg.trials


def _replay_closed_graph(witness: dict) -> float:
    return _closed_graph_value(
        TMatrix.from_json(witness["matrix"]),
        TVector.from_json(witness["x"]),
        TVector.from_json(witness["p"]),
    )


# --- two-metric ------------------------------------------------------------------


def _two_metric_value(W: TMatrix, x: TVector, y: TVector) -> float:
    sv1, sv2 = W.component_singular_values()
    c_lo = min(float(sv1[-1]), float(sv2[-1]))
    c_hi = max(float(sv1[0]), float(sv2[0]))
    rho1 = (x - y).norm()
    rho2 = W.apply(x - y).norm()
    violation = max(c_lo * rho1 - rho2, rho2 - c_hi * rho1)
    return float(violation / (1.0 + rho1))


def _run_two_metric(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        n = _random_dim(rng)
        W = _conditioned_matrix(rng, n)
        for _ in range(5):
            x = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
            y = TVector(rng.uniform(-1.0, 1.0, (n, 4)))
            best.update(
                _two_metric_value(W, x, y),
                lambda k: {"w_matrix": W.to_json(), "x": x.to_json(), "y": y.to_json()},
            )
    return best, cfg.trials


def _replay_two_metric(witness: dict) -> float:
    return _two_metric_value(
        TMatrix.from_json(witness["w_matrix"]),
        TVector.from_json(witness["x"]),
        TVector.from_json(witness["y"]),
    )


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
            _total_family_values("lower-bound", X),
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


def _hahn_banach_value(n: int, gen_rows: list, ystar_rows: list, w_row: list, x_rows: list) -> float:
    gens = [TVector.from_json(g) for g in gen_rows]
    Y = Submodule(n, gens)
    ystar = TFunctional(TVector.from_json(ystar_rows))
    report = hahn_banach_extend(ystar, Y)

    y_idem = report.y_norms.idem_norm
    worst = report.restriction_error / (1.0 + y_idem)
    for yc, xc in zip(report.y_component_norms, report.x_component_norms):
        worst = max(worst, abs(xc - yc) / (1.0 + yc))

    # exact round trip through the real part of the extension
    ext = report.extension
    lifted = lift_real(ext.real_parts()[0])
    diff = (lifted.coeffs - ext.coeffs).norm() / (1.0 + ext.coeffs.norm())
    worst = max(worst, diff)

    # ring-linearity of the extension at a sampled scalar and vector
    w = Bicomplex(*w_row)
    x = TVector.from_json(x_rows)
    lhs = ext(x.scale(w))
    rhs = w * ext(x)
    worst = max(worst, (lhs - rhs).norm() / (1.0 + rhs.norm()))
    return float(worst)


def _run_hahn_banach(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        n = _random_dim(rng)
        count = int(rng.integers(1, n + 1))
        gen_rows = [rng.uniform(-1.0, 1.0, (n, 4)).tolist() for _ in range(count)]
        ystar_rows = rng.uniform(-1.0, 1.0, (n, 4)).tolist()
        w_row = rng.uniform(-1.0, 1.0, 4).tolist()
        x_rows = rng.uniform(-1.0, 1.0, (n, 4)).tolist()
        best.update(
            _hahn_banach_value(n, gen_rows, ystar_rows, w_row, x_rows),
            lambda k: {
                "n": n,
                "generators": gen_rows,
                "ystar": ystar_rows,
                "w": w_row,
                "x": x_rows,
            },
        )
    return best, cfg.trials


def _replay_hahn_banach(witness: dict) -> float:
    return _hahn_banach_value(
        witness["n"], witness["generators"], witness["ystar"], witness["w"], witness["x"]
    )


# --- norm-sandwich ----------------------------------------------------------------


def _norm_sandwich_value(part: str, T: TMatrix) -> float:
    if part == "sandwich":
        r = T.norms()
        violation = max(r.sup_norm - r.idem_norm, r.idem_norm - SQRT2 * r.sup_norm)
        return float(violation / (1.0 + r.sup_norm))
    M1, M2 = T.split()
    if part == "left-attain":
        # one vanishing component: the two norms coincide
        one_sided = TMatrix.from_hat(M1, np.zeros_like(M2))
        r = one_sided.norms()
        return float(abs(r.sup_norm - r.idem_norm) / (1.0 + r.sup_norm))
    if part == "right-attain":
        # balanced components: idem equals sqrt(2) * sup
        balanced = TMatrix.from_hat(M1, M1)
        r = balanced.norms()
        return float(abs(r.idem_norm - SQRT2 * r.sup_norm) / (1.0 + r.sup_norm))
    raise ValueError(f"unknown sandwich part {part!r}")


def _run_norm_sandwich(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        m = _random_dim(rng)
        n = _random_dim(rng)
        T = _random_matrix(rng, m, n)
        for part in ("sandwich", "left-attain", "right-attain"):
            best.update(
                _norm_sandwich_value(part, T),
                lambda k, part=part: {"part": part, "matrix": T.to_json()},
            )
    return best, cfg.trials


def _replay_norm_sandwich(witness: dict) -> float:
    return _norm_sandwich_value(witness["part"], TMatrix.from_json(witness["matrix"]))


# --- compose-norm -----------------------------------------------------------------


def _compose_norm_value(A: TMatrix, B: TMatrix) -> float:
    ra, rb, rab = A.norms(), B.norms(), (A @ B).norms()
    worst = -np.inf
    for prod, a, b in (
        (rab.sup_norm, ra.sup_norm, rb.sup_norm),
        (rab.idem_norm, ra.idem_norm, rb.idem_norm),
    ):
        bound = SQRT2 * a * b
        worst = max(worst, (prod - bound) / (1.0 + bound))
    return float(worst)


def _run_compose_norm(cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best = _Best()
    for _ in range(cfg.trials):
        m = _random_dim(rng)
        k = _random_dim(rng)
        n = _random_dim(rng)
        A = _random_matrix(rng, m, k)
        B = _random_matrix(rng, k, n)
        best.update(_compose_norm_value(A, B), lambda k: {"a": A.to_json(), "b": B.to_json()})
    return best, cfg.trials


def _replay_compose_norm(witness: dict) -> float:
    return _compose_norm_value(TMatrix.from_json(witness["a"]), TMatrix.from_json(witness["b"]))


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
    """Execute one named suite deterministically for (seed, trials)."""
    check = _check(cfg.check_id)
    rng = np.random.default_rng([int(cfg.seed) & 0xFFFFFFFFFFFFFFFF, check.stream])
    start = time.perf_counter()
    best, trials_run = check.run(cfg, rng)
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
    the per-check defaults; the aggregate pass flag is the conjunction."""
    return [
        run_check(default_config(check_id, seed=seed, trials=trials, tol=tol))
        for check_id in CHECK_IDS
    ]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
