"""Randomized, seeded property suites over the scalar, module, operator, and
functional layers.

Each check is one record in the registry CHECKS: a draw of named input
columns from a stream derived from the seed and the record's pinned stream
index, a value function that measures each part's violation on a block of
columns through the kernels the library uses, and a codec per column that
writes the worst inputs into the report's witness and reads them back.  One
runner and one replay serve every check, so reports are reproducible bit for
bit given the seed (timing aside).

No check asserts more than the finite-dimensional truth of the statement it
exercises: quantities that are only measured (never guaranteed) live in the
functionals module, not here.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _arrays
from ._arrays import frozen_coeffs, hat_merge, hat_split, mul4, planes, rowsum
from ._arrays import plane_hat_merge, plane_hat_split, plane_mul4, plane_norm4, plane_vec_norm4
from ._floats import SQRT2
from .errors import MALFORMED, CheckCrashed, SingularOperator, UnknownCheckId
from .functionals import TFunctional, hahn_banach_extend, lift_real
from .operators import TMatrix, refusal
from .scalar import DEFAULT_SINGULAR_TOL, Bicomplex
from .tmodule import Submodule, TVector


@dataclass(frozen=True)
class CheckConfig:
    """Fully resolved configuration for one check run."""

    check_id: str
    seed: int
    trials: int
    tol: float

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

    def merge(self, *others: "_Best"):
        """Fold in bests accumulated apart, in order, as if their updates had
        followed this one's: the same worst value and witness, ties and NaNs
        included."""
        for other in others:
            self.update(other.value, lambda k, other=other: other.witness)


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


#: Floats in one block of the widest input column that a scalar or vector
#: check draws and evaluates at a time.  The block and each plane temporary
#: made from it stay below 128 KiB, glibc's default mmap threshold, so none
#: is mapped and faulted in afresh for every block, while each pass is long
#: enough to amortize numpy's cost per call.  Neither grows with the trials.
_BLOCK_ELEMENTS = 16_000


def _streamed(rng, count: int, *shapes):
    """Blocks of the columns that rng.uniform(-1, 1, (count,) + shape) draws
    for each shape in turn, with the same bits, in as many rows at a time as
    keep the widest column within _BLOCK_ELEMENTS floats.  Asking for the
    first block moves rng past them all.

    PCG64 spends one 64-bit draw on each double, so each column comes from
    its own copy of the bit generator advanced to the column's offset.  Each
    column is filled into one reused buffer: a block is valid until the next."""
    rows = max(1, _BLOCK_ELEMENTS // max(math.prod(shape) for shape in shapes))
    if count <= rows:  # one block: the columns follow one another
        yield [rng.uniform(-1.0, 1.0, (count, *shape)) for shape in shapes]
        return
    sizes = [count * math.prod(shape) for shape in shapes]
    state, draws = rng.bit_generator.state, []
    for offset in itertools.accumulate(sizes[:-1], initial=0):
        bits = np.random.PCG64()
        bits.state = state
        draws.append(np.random.Generator(bits.advance(offset)).random)
    # advancing drops a buffered 32-bit half that drawing doubles would keep
    end = rng.bit_generator.advance(sum(sizes)).state
    rng.bit_generator.state = {**end, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    buffers = [np.empty((rows, *shape)) for shape in shapes]
    for start in range(0, count, rows):
        blocks = [buffer[: count - start] for buffer in buffers]
        for draw, block in zip(draws, blocks):
            draw(out=block)
            block *= 2.0
            block -= 1.0  # -1 + 2u, as uniform(-1, 1) computes it
        yield blocks


def _plane_blocks(rng, count: int, *shapes):
    """The blocks of _streamed as coefficient planes, scalars (4, rows) and vectors (4, n, rows)."""
    return ([planes(column) for column in block] for block in _streamed(rng, count, *shapes))


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


def _nonsingular(cand: np.ndarray) -> np.ndarray:
    """Which scalars (rows, 4) have both hat components of modulus at least 1e-3."""
    h1, h2 = hat_split(cand)
    return (np.abs(h1) >= 1e-3) & (np.abs(h2) >= 1e-3)


def _nonsingular_scalars(rng, count: int):
    """Blocks of `count` nonsingular scalars, rejection-sampled in rounds that
    each draw as many candidates as are still missing.  The rounds are only
    counted now, which moves rng past every candidate; the blocks redraw
    them later, as one stream, from a copy of rng taken at the start."""
    start = np.random.Generator(copy.deepcopy(rng.bit_generator))
    drawn = filled = 0
    while filled < count:
        drawn += count - filled
        for (cand,) in _streamed(rng, count - filled, (4,)):
            filled += int(np.count_nonzero(_nonsingular(cand)))
    return (cand[_nonsingular(cand)] for (cand,) in _streamed(start, drawn, (4,)))


# --- one runner and one replay ----------------------------------------------------
#
# A check's draw yields groups of blocks with their trial counts: a group is a
# dimension of _dim_schedule for the vector checks, the whole run otherwise.
# A block holds the check's columns in order, None for one it leaves out.  The
# value function maps a block to values, or to a dict of them by part: one
# constant, one value per trial or a matrix (trials, points) of one per point
# of each trial.  Each part keeps its worst value over a group, and the parts
# are folded in order at its end, so ties and NaNs pick the witness that one
# pass per part would.  A witness holds the part, if any, then the columns its
# values are indexed by.


@dataclass(frozen=True)
class _Codec:
    """How an input column enters a witness and comes back for its replay: it
    holds a constant of its block (axes 0), an item per trial (axes 1) or per
    point of each trial (axes 2); encode(column, t, j) is the JSON of trial
    t's item (point j's), decode(JSON) the stack of one trial it came from."""

    axes: int
    encode: Callable
    decode: Callable


_CONSTANT = _Codec(0, lambda value, t, j: value, lambda value: value)
_SCALAR = _Codec(1, lambda P, t, j: P.T[t].tolist(), lambda row: planes(frozen_coeffs([row], 2, "scalar")))
_VECTOR = _Codec(1, lambda P, t, j: P.T[t].tolist(), lambda rows: planes(frozen_coeffs([rows], 3, "vector")))
_TRIAL_SCALAR = _Codec(1, lambda A, t, j: A[t].tolist(), lambda row: frozen_coeffs([row], 2, "scalar"))
_TRIAL_VECTOR = _Codec(1, lambda A, t, j: A[t].tolist(), lambda rows: frozen_coeffs([rows], 3, "vector"))
_TRIAL_VECTORS = _Codec(1, lambda A, t, j: A[t].tolist(), lambda rows: frozen_coeffs([rows], 4, "vectors"))
_POINT = _Codec(2, lambda A, t, j: A[t][j].tolist(), lambda rows: frozen_coeffs([[rows]], 4, "point"))
_SIZE = _Codec(1, lambda A, t, j: A[t], lambda n: np.array([operator.index(n)]))
_MATRIX = _Codec(1, lambda A, t, j: TMatrix(A[t]).to_json(), lambda data: TMatrix.from_json(data).coeffs[None])
_FAMILY = _Codec(
    1,
    lambda A, t, j: [TMatrix(C).to_json() for C in A[t]],
    lambda data: np.stack([TMatrix.from_json(m).coeffs for m in data])[None],
)


def _indexed(values):
    """A part's values flat, their index axes and the (trial, point) of a flat
    index; values per point come as a matrix (trials, points)."""
    if np.ndim(values) == 2:
        return np.ravel(values), 2, lambda k: divmod(k, np.shape(values)[1])
    return values, np.ndim(values), lambda k: (k, None)


def _run(check: "Check", cfg: CheckConfig, rng) -> tuple[_Best, int]:
    best, trials_run = _Best(), 0
    for trials, blocks in check.draw(cfg, rng):
        parts: dict = {}
        for block in blocks:
            values = check.values(*block)
            for part, part_values in values.items() if isinstance(values, dict) else [(None, values)]:
                flat, axes, at = _indexed(part_values)

                def witness(k) -> dict:
                    t, j = at(k)
                    found = {} if part is None else {"part": part}
                    for (name, codec), column in zip(check.columns.items(), block):
                        if column is not None and codec.axes <= axes:
                            found[name] = codec.encode(column, t, j)
                    return found

                parts.setdefault(part, _Best()).update(flat, witness)
        best.merge(*parts.values())
        trials_run += trials
    return best, trials_run


def _malformed(check: "Check", key=None) -> ValueError:
    """The one error of a witness that does not replay: entry `key` is missing
    or does not decode, or, with no key, the entries do not fit together."""
    what = "its entries do not fit together" if key is None else f"{key!r} is missing or does not fit"
    return ValueError(f"malformed {check.check_id} witness: {what}")


def _replay(check: "Check", witness: dict) -> float:
    """The witness's value on the stack of one trial it decodes to.  A column
    it lacks is passed as None: an error only where the part's values index it."""
    columns = []
    for name, codec in check.columns.items():
        try:
            columns.append(codec.decode(witness[name]) if name in witness else None)
        except MALFORMED as exc:
            raise _malformed(check, name) from exc
    absent = [name for name, column in zip(check.columns, columns) if column is None]
    absent.sort(key=lambda name: check.columns[name].axes == 0)  # constants last
    try:
        values = (check.replay or check.values)(*columns)
    except MALFORMED as exc:
        raise _malformed(check, absent[0] if absent else None) from exc
    if isinstance(values, dict):
        if witness.get("part") not in values:
            raise _malformed(check, "part")
        values = values[witness["part"]]
    flat, axes, _ = _indexed(values)
    for name in absent:
        if 0 < check.columns[name].axes <= axes:
            raise _malformed(check, name)
    return float(np.ravel(flat)[0])


def _scalar_draw(columns: int, *extra):
    """One group: `columns` columns of scalars as planes, then `extra` blocks of one trial."""
    return lambda cfg, rng: [
        (cfg.trials + len(extra), itertools.chain(_plane_blocks(rng, cfg.trials, *[(4,)] * columns), extra))
    ]


def _per_dimension(blocks):
    """A group of blocks(rng, n, count) for each (n, count) of _dim_schedule."""
    return lambda cfg, rng: ((count, blocks(rng, n, count)) for n, count in _dim_schedule(cfg.trials))


def _vector_draw(columns: int):
    """Per dimension n, `columns` columns of vectors of T^n, as planes."""
    return _per_dimension(lambda rng, n, count: _plane_blocks(rng, count, *[(n, 4)] * columns))


# --- ring-axioms -------------------------------------------------------------
#
# The scalar and vector checks evaluate each block on its coefficient planes,
# through plane kernels that keep the bits of the coefficient layout.

_E1_ROW, _E2_ROW = np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.5, 0.0, 0.0, -0.5])
_E1_PLANE = planes(_E1_ROW[None])


@functools.cache
def _idempotent_identity_violation() -> float:
    e1, e2 = _E1_ROW, _E2_ROW
    devs = (mul4(e1, e1) - e1, mul4(e2, e2) - e2, mul4(e1, e2), e1 + e2 - np.array([1.0, 0.0, 0.0, 0.0]))
    return float(max(np.max(np.abs(dev)) for dev in devs))


def _ring_axiom_values(S, T, U) -> dict:
    """The identities of e1 and e2, a constant replayed from no input, then each
    axiom's largest coefficient deviation over scalar planes (4, rows)."""
    values = {"idempotent-identities": _idempotent_identity_violation()}
    S, T, U = (np.empty((4, 0)) if P is None else P for P in (S, T, U))  # a column a witness lacks has no rows
    ST = plane_mul4(S, T)
    values["mul-associative"] = np.abs(plane_mul4(ST, U) - plane_mul4(S, plane_mul4(T, U))).max(axis=0)
    values["mul-commutative"] = np.abs(ST - plane_mul4(T, S)).max(axis=0)
    values["distributive"] = np.abs(plane_mul4(S, T + U) - (ST + plane_mul4(S, U))).max(axis=0)
    values["add-associative"] = np.abs((S + T) + U - (S + (T + U))).max(axis=0)
    return values


# --- submult -----------------------------------------------------------------


def _submult_values(S, T) -> np.ndarray:
    denom = plane_norm4(S) * plane_norm4(T)
    denom = np.where(denom == 0.0, 1.0, denom)
    return plane_norm4(plane_mul4(S, T)) / denom


# --- norm-identity -----------------------------------------------------------


def _norm_identity_values(W) -> np.ndarray:
    n = plane_norm4(W)
    h1, h2 = plane_hat_split(W)
    return np.abs(n - np.sqrt((np.abs(h1) ** 2 + np.abs(h2) ** 2) / 2.0)) / (1.0 + n)


# --- scalar-homogeneity --------------------------------------------------------

#: Each part's violation from the norms of alpha x, alpha and x.
_HOMOGENEITY_PARTS = {
    "complex-exact": lambda ns, na, nx: np.abs(ns - na * nx) / (1.0 + na * nx),
    "ring-bound": lambda ns, na, nx: (ns - SQRT2 * na * nx) / (1.0 + SQRT2 * na * nx),
    "attainment": lambda ns, na, nx: np.abs(
        np.where(na * nx > 0.0, ns / np.where(na * nx == 0.0, 1.0, na * nx), SQRT2) - SQRT2
    ),
}


def _homogeneity_values(part, A, X) -> dict:
    """The violation of `part` at scalar planes A (4, rows), vector planes X (4, n, rows)."""
    formula = _HOMOGENEITY_PARTS.get(part)
    if formula is None:
        return {}
    return {part: formula(plane_vec_norm4(plane_mul4(A, X)), plane_norm4(A), plane_vec_norm4(X))}


@_per_dimension
def _homogeneity_draw(rng, n: int, count: int):
    """Each part's (part, alpha, x): complex alpha, any alpha, and alpha = e1
    at x in the ideal e1 T^n, where the sqrt(2) bound is attained."""
    for X, z, W, G in _plane_blocks(rng, count, (n, 4), (2,), (4,), (n, 4)):
        yield "complex-exact", np.concatenate([z, np.zeros_like(z)]), X
        yield "ring-bound", W, X
        yield "attainment", np.broadcast_to(_E1_PLANE, W.shape), plane_mul4(_E1_PLANE, G)


# --- translation-invariance ----------------------------------------------------


def _translation_values(X, Y, A) -> dict:
    before = plane_vec_norm4(X - Y)
    return {
        "metric-shift": np.abs(plane_vec_norm4((X + A) - (Y + A)) - before) / (1.0 + before),
        "fnorm-definition": np.abs(plane_vec_norm4(X) - plane_vec_norm4(X - np.zeros_like(X))),
    }


# --- homeomorphism-Ta ------------------------------------------------------------


def _ta_values(A, X, Y) -> dict:
    before = plane_vec_norm4(X - Y)
    return {
        "isometry": np.abs(plane_vec_norm4((A + X) - (A + Y)) - before) / (1.0 + before),
        "roundtrip": plane_vec_norm4(((X + A) - A) - X) / (1.0 + plane_vec_norm4(X) + plane_vec_norm4(A)),
    }


# --- homeomorphism-Mlambda ---------------------------------------------------------


def _mlambda_values(part, component, L, X) -> dict:
    """The violation of `part` at scalar planes L (4, rows) and vector planes
    X (4, n, rows); for collapse, hat component `component` of L vanishes."""
    if part == "roundtrip":
        h1, h2 = plane_hat_split(L)
        back = plane_mul4(plane_hat_merge(1.0 / h1, 1.0 / h2), plane_mul4(L, X))
        return {part: plane_vec_norm4(back - X) / (1.0 + plane_vec_norm4(X))}
    if part == "collapse":
        dead = plane_hat_split(plane_mul4(L, X))[component - 1]
        return {part: np.sqrt(rowsum(np.abs(dead) ** 2)) / (1.0 + plane_vec_norm4(X))}
    return {}


@_per_dimension
def _mlambda_draw(rng, n: int, count: int):
    """Per block of vectors of T^n, the nonsingular multipliers (roundtrip),
    then singular ones whose hat component 1, then 2, vanishes exactly."""
    multipliers, L = _nonsingular_scalars(rng, count), np.empty((0, 4))
    for X, re, im in _plane_blocks(rng, count, (n, 4), (), ()):
        rows = X.shape[-1]
        while len(L) < rows:
            L = np.concatenate([L, next(multipliers)])
        yield "roundtrip", None, planes(L[:rows]), X
        L = L[rows:]
        h = re + 1j * im
        zeros = np.zeros_like(h)
        yield "collapse", 1, plane_hat_merge(zeros, h), X
        yield "collapse", 2, plane_hat_merge(h, zeros), X


# --- total-family ----------------------------------------------------------------


def _total_family_values(X) -> dict:
    """Vector planes X (4, n, rows).  The family is the coordinate functionals,
    so the entries are the evaluations; stacked as rows they are the identity."""
    n = X.shape[1]
    total = plane_vec_norm4(X)
    s = np.linalg.svd(np.eye(n, dtype=np.complex128), compute_uv=False)
    return {
        "lower-bound": (total / np.sqrt(n) - np.max(plane_norm4(X), axis=0)) / (1.0 + total),
        "stacked-rank": np.full(X.shape[-1], abs(float(s[-1]) - 1.0)),
    }


# --- stacked operator evaluation ---------------------------------------------------
#
# The operator checks draw each trial's inputs in turn (one draw of shape
# (k, ...) takes the stream's values in the order of k draws of shape (...)),
# then evaluate a chunk of up to _CHUNK_TRIALS trials together.  Trials whose
# arrays share their shapes are stacked and run in one call each through the
# kernels that TMatrix, TVector, Submodule and TFunctional call for a single
# object.  Stacked LAPACK and BLAS calls round each matrix as a single call
# does, so the values are those of the per-object methods, bit for bit,
# whatever the chunk and stack sizes.  hahn-banach replays its witness
# through the per-object API.

#: Trials drawn and evaluated together, so that memory does not grow with them.
_CHUNK_TRIALS = 1024


def _chunks(trials: int):
    """Sizes of the successive chunks that `trials` trials are drawn in."""
    for start in range(0, trials, _CHUNK_TRIALS):
        yield min(_CHUNK_TRIALS, trials - start)


def _chunked(trial, derive=lambda *columns: columns):
    """One group of chunks, each trial drawn by trial(rng); derive turns a
    chunk's columns into the inputs that the values and witnesses take."""
    return lambda cfg, rng: [
        (cfg.trials, (derive(*zip(*[trial(rng) for _ in range(count)])) for count in _chunks(cfg.trials)))
    ]


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


def _by_shape(kernel):
    """The values of a kernel over stacks of one shape, for trials of any shapes."""
    return lambda *columns: np.array(_grouped(kernel, *columns))


def _by_part(kernel, parts):
    """The values of _by_shape(kernel) by part: part i takes index i of the last axis."""
    return lambda *columns: dict(zip(parts, np.moveaxis(_by_shape(kernel)(*columns), -1, 0)))


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


def _uniform_trial(dims: int, shapes):
    """A trial that draws `dims` dimensions from DIMS, then an array uniform
    in [-1, 1] of each shape of shapes(*dimensions) in turn."""
    return lambda rng: [rng.uniform(-1.0, 1.0, shape) for shape in shapes(*[_random_dim(rng) for _ in range(dims)])]


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


def _continuity_values(C, X) -> dict:
    if X is None:  # an attain witness holds no points: evaluate at none
        X = [np.empty((0, c.shape[1], 4)) for c in C]
    rows = np.array(_grouped(_continuity_group, C, X))
    return {"attain": rows[:, 0], "no-exceed": rows[:, 1:]}


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


# --- open-mapping ----------------------------------------------------------------

_OPEN_MAPPING_PARTS = ("unit-ball", "residual", "real-solve")
_OPEN_MAPPING_POINTS = 5


def _open_mapping_trial(rng):
    n = _random_dim(rng)
    S, A = _conditioned_draws(rng, n)
    ys, us = [], []
    for _ in range(_OPEN_MAPPING_POINTS):
        ys.append(rng.uniform(-1.0, 1.0, (n, 4)))
        us.append(rng.uniform(0.0, 1.0))
    return S, A, np.array(ys), np.array(us)


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
    (G, k, 3): for the solution x of T x = y, |x| - 1, the relative residual
    of T x = y, and the distance from x to the solution of the realified
    system R x = y.  Each operator is refused or accepted as TMatrix.solve
    decides, inverted once and solved through TMatrix.solve's kernel; R
    (real_block_matrix) and its LU solve share nothing with that path, so the
    last part catches a fault in the hat kernels that both sides of the
    residual share."""
    H = hat_split(C)
    sv, det = _arrays.pair_singular_values(H), np.linalg.det(H)
    for t in range(len(C)):
        why = refusal(sv[:, t], det[:, t], DEFAULT_SINGULAR_TOL)
        if why is not None:
            raise SingularOperator(*why)
    X = hat_merge(*_arrays.solve_pair(H[:, :, None], np.linalg.inv(H)[:, :, None], hat_split(Y)))
    unit_ball = _arrays.vector_norms(X) - 1.0
    residual = _arrays.vector_norms(_apply(H[:, :, None], X) - Y) / (1.0 + _arrays.vector_norms(Y))
    G, k, n = Y.shape[:3]
    R = _arrays.real_block_matrix(C)[:, None]
    real = np.linalg.solve(R, Y.reshape(G, k, 4 * n, 1)).reshape(Y.shape)
    real_solve = _arrays.vector_norms(X - real) / (1.0 + _arrays.vector_norms(real))
    return np.stack([unit_ball, residual, real_solve], axis=-1)


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


# --- two-metric ------------------------------------------------------------------

_TWO_METRIC_PAIRS = 5


def _two_metric_trial(rng):
    n = _random_dim(rng)
    S, A = _conditioned_draws(rng, n)
    pairs = rng.uniform(-1.0, 1.0, (_TWO_METRIC_PAIRS, 2, n, 4))
    return S, A, pairs[:, 0], pairs[:, 1]


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


# --- hahn-banach -----------------------------------------------------------------


def _hahn_banach_trial(rng):
    n = _random_dim(rng)
    shapes = [(int(rng.integers(1, n + 1)), n, 4), (n, 4), (4,), (n, 4)]
    return n, *[rng.uniform(-1.0, 1.0, shape) for shape in shapes]


def _hahn_banach_values(B1, B2, F, W, X):
    """Orthonormal bases B1, B2 (G, n, r_k) of the component subspaces of Y,
    functionals F and points X (G, n, 4), scalars W (G, 4) -> (G,): the worst
    miss of the extension on Y, of its component norms, of the round trip
    through its real part, and of T-linearity at w and x."""
    C = hat_split(F)
    R = _arrays.restrict_pair(B1, B2, C)
    E = _arrays.riesz_extension(B1, B2, R)
    ext = hat_merge(*E)
    y1, y2 = _arrays.pair_norms(*R)
    x1, x2 = _arrays.pair_norms(*E)
    err = np.maximum(*_arrays.pair_norms(*_arrays.restrict_pair(B1, B2, E - C)))
    lifted = _arrays.lift_rows(np.stack([ext, *_arrays.unit_multiples(ext)], axis=-1)[..., 0, :])
    at_x = _arrays.dots(E, hat_split(X))
    at_wx = _arrays.dots(E, hat_split(mul4(W[:, None, :], X)))
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


def _hahn_banach_batch(n, *columns):
    return _by_shape(_hahn_banach_group)(*columns)


def _hahn_banach_replay(n, generators, ystar, w, x) -> float:
    # One trial through the per-object API, which rounds as the stacked
    # kernels do, so each replay also checks the batched value against
    # Submodule, hahn_banach_extend, lift_real, TVector.scale and TFunctional.
    Y = Submodule(int(n[0]), [TVector(g) for g in generators[0]])
    report = hahn_banach_extend(TFunctional(TVector(ystar[0])), Y)
    ext = report.extension
    w, x = Bicomplex(*w[0]), TVector(x[0])
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


# --- compose-norm -----------------------------------------------------------------


def _compose_norm_values(lefts, rights) -> np.ndarray:
    """(N,): the excess of each norm of A @ B over sqrt(2) * |A| * |B|, the
    worse of sup_norm and idem_norm.  Each product's norms are taken from the
    hat stack TMatrix.compose keeps; every norm is taken in groups of one
    shape, which hold far more trials than groups of (m, k, n)."""
    products = _grouped(
        lambda A, B: np.swapaxes(_arrays.compose_pair(hat_split(A), hat_split(B)), 0, 1), lefts, rights
    )
    ra, rb = (np.array(_grouped(lambda C: np.stack(_norms(C), axis=-1), Cs)) for Cs in (lefts, rights))
    rab = np.array(_grouped(lambda H: np.stack(_split_norms(np.swapaxes(H, 0, 1)), axis=-1), products))
    bound = SQRT2 * ra * rb
    return np.max((rab - bound) / (1.0 + bound), axis=-1)


# --- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One registered check.  `stream` is the index that, with the seed,
    selects the check's random stream; it is pinned here so that adding or
    reordering checks reseeds none of the others.  `columns` maps each input
    column, in witness order, to its codec; `replay`, if set, evaluates a
    decoded witness in place of `values`."""

    check_id: str
    stream: int
    trials: int
    tol: float
    draw: Callable
    values: Callable
    columns: dict
    replay: Callable | None = None
    bound_offset: float = 0.0


_operator_pair = _uniform_trial(1, lambda n: [(n, n, 4)] * 2)
_submult_draw = _scalar_draw(2, [_E1_PLANE] * 2)  # e1 * e1 = e1 attains the bound sqrt(2)
_ubp_draw = _chunked(_uniform_trial(1, lambda n: [(_FAMILY_SIZE, n, n, 4), (_UBP_POINTS, n, 4)]))
_continuity_draw = _chunked(_uniform_trial(2, lambda m, n: [(m, n, 4), (_CONTINUITY_POINTS, n, 4)]))
_limit_draw = _chunked(_operator_pair, lambda T, E: (T, _grouped(_limit_perturbation_group, T, E)))
_open_mapping_draw = _chunked(_open_mapping_trial, lambda *draws: tuple(zip(*_grouped(_scaled_rhs_group, *draws))))
_closed_graph_draw = _chunked(_uniform_trial(1, lambda n: [(n, n, 4), (n, 4), (n, 4)]))
_two_metric_draw = _chunked(_two_metric_trial, lambda S, A, X, Y: (_grouped(_conditioned_matrices, S, A), X, Y))
_hahn_banach_draw = _chunked(_hahn_banach_trial)
_sandwich_draw = _chunked(_uniform_trial(2, lambda m, n: [(m, n, 4)]))
_open_mapping_values = _by_part(_open_mapping_group, _OPEN_MAPPING_PARTS)
_sandwich_values = _by_part(_norm_sandwich_group, _SANDWICH_PARTS)
_compose_draw = _chunked(_uniform_trial(3, lambda m, k, n: [(m, k, 4), (k, n, 4)]))
_HOMOGENEITY_COLUMNS = {"part": _CONSTANT, "alpha": _SCALAR, "x": _VECTOR}
_MLAMBDA_COLUMNS = {"part": _CONSTANT, "component": _CONSTANT, "lam": _SCALAR, "x": _VECTOR}
_MATRIX_PAIR = {"t": _MATRIX, "e": _MATRIX}
_CLOSED_GRAPH_COLUMNS = {"matrix": _MATRIX, "x": _TRIAL_VECTOR, "p": _TRIAL_VECTOR}
_TWO_METRIC_COLUMNS = {"w_matrix": _MATRIX, "x": _POINT, "y": _POINT}
_HAHN_BANACH_COLUMNS = dict(n=_SIZE, generators=_TRIAL_VECTORS, ystar=_TRIAL_VECTOR, w=_TRIAL_SCALAR, x=_TRIAL_VECTOR)

CHECKS = (
    Check("ring-axioms", 0, 100_000, 1e-13, _scalar_draw(3), _ring_axiom_values, dict.fromkeys("stu", _SCALAR)),
    Check(
        "submult", 1, 1_000_000, 1e-12, _submult_draw, _submult_values, dict.fromkeys("st", _SCALAR), bound_offset=SQRT2
    ),
    Check("norm-identity", 2, 1_000_000, 1e-12, _scalar_draw(1), _norm_identity_values, {"w": _SCALAR}),
    Check("scalar-homogeneity", 3, 100_000, 1e-12, _homogeneity_draw, _homogeneity_values, _HOMOGENEITY_COLUMNS),
    Check(
        "translation-invariance", 4, 50_000, 1e-12, _vector_draw(3), _translation_values, dict.fromkeys("xya", _VECTOR)
    ),
    Check("homeomorphism-Ta", 5, 50_000, 1e-12, _vector_draw(3), _ta_values, dict.fromkeys("axy", _VECTOR)),
    Check("homeomorphism-Mlambda", 6, 20_000, 1e-9, _mlambda_draw, _mlambda_values, _MLAMBDA_COLUMNS),
    Check("ubp", 7, 60, 1e-10, _ubp_draw, _by_shape(_ubp_group), {"family": _FAMILY, "x": _POINT}),
    Check("continuity-bounded", 8, 200, 1e-9, _continuity_draw, _continuity_values, {"matrix": _MATRIX, "x": _POINT}),
    Check("limit-operator", 9, 60, 1e-10, _limit_draw, _by_shape(_limit_operator_group), _MATRIX_PAIR),
    Check("bxy-complete", 10, 60, 1e-10, _chunked(_operator_pair), _by_shape(_bxy_complete_group), _MATRIX_PAIR),
    Check("open-mapping", 11, 150, 1e-9, _open_mapping_draw, _open_mapping_values, {"matrix": _MATRIX, "y": _POINT}),
    Check("closed-graph", 12, 200, 1e-10, _closed_graph_draw, _by_shape(_closed_graph_group), _CLOSED_GRAPH_COLUMNS),
    Check("two-metric", 13, 100, 1e-10, _two_metric_draw, _by_shape(_two_metric_group), _TWO_METRIC_COLUMNS),
    Check("total-family", 14, 400, 1e-10, _vector_draw(1), _total_family_values, {"x": _VECTOR}),
    Check(
        "hahn-banach", 15, 150, 1e-10, _hahn_banach_draw, _hahn_banach_batch, _HAHN_BANACH_COLUMNS, _hahn_banach_replay
    ),
    Check("norm-sandwich", 16, 400, 1e-10, _sandwich_draw, _sandwich_values, {"matrix": _MATRIX}),
    Check("compose-norm", 17, 400, 1e-10, _compose_draw, _compose_norm_values, dict.fromkeys("ab", _MATRIX)),
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
        best, trials_run = _run(check, cfg, rng)
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
    """Re-evaluate a worst_witness through the same kernels that produced it.
    A witness that lacks a key its part needs, or holds one that does not
    decode, raises ValueError naming the check and the key."""
    return _replay(_check(check_id), witness)


def run_all(seed: int = 42, trials: int | None = None, tol: float | None = None) -> list[CheckReport]:
    """Run every check with a shared configuration.  trials/tol of None select
    the per-check defaults; the aggregate pass flag is the conjunction.
    Every configuration is built, and so checked, before any check runs."""
    configs = [default_config(check_id, seed=seed, trials=trials, tol=tol) for check_id in CHECK_IDS]
    return [run_check(cfg) for cfg in configs]


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
