"""The four workloads: inputs made from a seed, the operations of one round,
and the check of each operation's output.

A workload is built from the imported ``bicomplex`` package, a seed and a
size (``tiny`` for the smoke test).  ``round_ops()`` returns the fixed list
of operations of one round; every round of a run is the same list.  Inputs
are generated here, from the seed, in the idempotent (hat) representation
and merged to coefficients through the multiplication table of
``reference``; the program only ever sees the coefficient arrays.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

_E1_MATRIX = ref.left_mul(ref.E1)
_E2_MATRIX = ref.left_mul(ref.E2)

#: Scale of the operators behind the known fault kept in ``oneshot``: each
#: component condition number is at most 5, yet the solve is refused because
#: the determinant test has an absolute floor (see README.md).
KNOWN_FAULT_SCALE = 0.02
KNOWN_FAULT_SEED = 0


@dataclass
class Op:
    """One operation: `call` runs the program, `check` judges its output."""

    kind: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    known_fault: bool = False
    label: str = ""


# --- inputs -------------------------------------------------------------------


def from_hats(h1, h2) -> np.ndarray:
    """Coefficients of h1*e1 + h2*e2 for complex (i1) arrays h1, h2."""
    h1 = np.asarray(h1, dtype=np.complex128)
    h2 = np.asarray(h2, dtype=np.complex128)
    zero = np.zeros(h1.shape)
    c1 = np.stack([h1.real, h1.imag, zero, zero], axis=-1)
    c2 = np.stack([h2.real, h2.imag, zero, zero], axis=-1)
    return c1 @ _E1_MATRIX.T + c2 @ _E2_MATRIX.T


def _unitary(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def conditioned_operator(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """(n, n, 4) operator whose component singular values lie in scale*[0.4, 2]."""
    comps = [_unitary(rng, n) @ np.diag(rng.uniform(0.4, 2.0, n)) @ _unitary(rng, n).conj().T for _ in range(2)]
    return scale * from_hats(*comps)


def random_vector(rng, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (n, 4))


def invertible_scalar(rng) -> tuple[float, float, float, float]:
    """Hat magnitudes in [0.3, 1.5], so the scalar is well away from the null cone."""
    mags = rng.uniform(0.3, 1.5, 2)
    phases = rng.uniform(0.0, 2.0 * np.pi, 2)
    h = mags * np.exp(1j * phases)
    return tuple(float(v) for v in from_hats(h[0], h[1]))


class _Refs:
    """Reference quantities, computed once per input array on first use."""

    def __init__(self):
        self._memo: dict = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def block(self, C) -> np.ndarray:
        return self._get(("R", id(C)), lambda: ref.block_matrix(C))

    def spectrum(self, C) -> np.ndarray:
        return self._get(("sv", id(C)), lambda: np.linalg.svd(self.block(C), compute_uv=False))

    def span(self, gens) -> np.ndarray:
        return self._get(("Q", id(gens)), lambda: ref.span_basis(gens))


# --- workloads --------------------------------------------------------------------


class _Workload:
    """Inputs from the seed, and the operation factories the workloads share."""

    def __init__(self, bc, seed: int):
        self.bc = bc
        self.seed = seed
        self.refs = _Refs()
        self.rng = np.random.default_rng([seed, self.stream])

    # Each factory takes the object the operation works on (built by the
    # caller, per round or per call) and the raw inputs of the request.

    def apply_op(self, n, C, get_T, x) -> Op:
        bc = self.bc
        return Op("apply", n, lambda: get_T().apply(bc.TVector(x)),
                  lambda y: ref.check_apply(self.refs.block(C), x, y.coeffs))

    def solve_op(self, n, C, get_T, b, known_fault=False) -> Op:
        bc = self.bc
        return Op("solve", n, lambda: get_T().solve(bc.TVector(b)),
                  lambda x: ref.check_solve(self.refs.block(C), b, x.coeffs), known_fault)

    def norms_op(self, n, C, get_T) -> Op:
        return Op("norms", n, lambda: get_T().norms(),
                  lambda r: ref.check_norms(self.refs.spectrum(C), r.sup_norm, r.idem_norm, r.s1, r.s2))

    def distance_op(self, n, gens, get_Y, x) -> Op:
        bc = self.bc
        return Op("distance_to", n, lambda: get_Y().distance_to(bc.TVector(x)),
                  lambda r: ref.check_distance(self.refs.span(gens), x, r.d, r.projection.coeffs))

    def extend_op(self, n, gens, get_Y, f) -> Op:
        bc = self.bc

        def check(r):
            return ref.check_extension(gens, self.refs.span(gens), f, r.extension.coeffs.coeffs,
                                       r.y_component_norms, r.x_component_norms)

        return Op("hahn_banach_extend", n,
                  lambda: bc.hahn_banach_extend(bc.TFunctional(bc.TVector(f)), get_Y()), check)

    def separate_op(self, n, gens, get_Y, x) -> Op:
        bc = self.bc
        return Op("separating_functional", n, lambda: bc.separating_functional(bc.TVector(x), get_Y()),
                  lambda r: ref.check_separation(gens, self.refs.span(gens), x, r.functional.coeffs.coeffs, r.d))

    def submodule(self, n, gens):
        bc = self.bc
        return lambda: bc.Submodule(n, [bc.TVector(g) for g in gens])

    def operator(self, C):
        bc = self.bc
        return lambda: bc.TMatrix(C)

    def warm_up(self):
        """Run and check one operation of each kind and size."""
        seen = set()
        for op in self.round_ops():
            if (op.kind, op.n) not in seen and not op.known_fault:
                seen.add((op.kind, op.n))
                op.check(op.call())


class Verify(_Workload):
    """One run_all(seed) at the default trials and dims, one operation per check."""

    stream = 1

    def __init__(self, bc, seed: int, tiny: bool):
        super().__init__(bc, seed)
        self.trials = 3 if tiny else None

    def _op(self, check_id: str, trials) -> Op:
        bc = self.bc

        def check(report) -> bool:
            replayed = bc.replay_witness(check_id, report.worst_witness)
            return (
                report.check_id == check_id
                and report.passed
                and abs(replayed - report.worst_value) <= 1e-15 * (1.0 + abs(report.worst_value))
            )

        return Op(check_id, 0, lambda: bc.run_check(bc.default_config(check_id, seed=self.seed, trials=trials)), check)

    def round_ops(self) -> list[Op]:
        return [self._op(check_id, self.trials) for check_id in self.bc.CHECK_IDS]

    def warm_up(self):
        for check_id in self.bc.CHECK_IDS:
            op = self._op(check_id, 1)
            op.check(op.call())


class Reuse(_Workload):
    """A few long-lived operators and submodules, each serving many requests."""

    stream = 2

    def __init__(self, bc, seed: int, tiny: bool):
        super().__init__(bc, seed)
        rng = self.rng
        # (n, apply, solve, norms) requests per operator
        plan = [(8, 2, 2, 1), (16, 1, 2, 1)] if tiny else [(8, 8, 36, 2)] * 3 + [(64, 2, 40, 4)]
        self.operators = []
        for n, n_apply, n_solve, n_norms in plan:
            C = conditioned_operator(rng, n)
            self.operators.append((n, C, [random_vector(rng, n) for _ in range(n_apply)],
                                   [random_vector(rng, n) for _ in range(n_solve)], n_norms))
        # (n, generators, distance_to, hahn_banach_extend) requests per submodule
        splan = [(8, 3, 2, 1), (16, 3, 1, 1)] if tiny else [(8, 3, 4, 2)] * 2 + [(64, 6, 2, 2)]
        self.submodules = []
        for n, n_gens, n_dist, n_ext in splan:
            gens = [random_vector(rng, n) for _ in range(n_gens)]
            self.submodules.append((n, gens, [random_vector(rng, n) for _ in range(n_dist)],
                                    [random_vector(rng, n) for _ in range(n_ext)]))
        size = sum(len(xs) + len(bs) + k for _, _, xs, bs, k in self.operators)
        self.order = rng.permutation(size + sum(len(xs) + len(fs) for _, _, xs, fs in self.submodules))

    def round_ops(self) -> list[Op]:
        ops = []
        for n, C, xs, bs, n_norms in self.operators:
            T = self.bc.TMatrix(C)
            get_T = lambda T=T: T
            ops += [self.apply_op(n, C, get_T, x) for x in xs]
            ops += [self.solve_op(n, C, get_T, b) for b in bs]
            ops += [self.norms_op(n, C, get_T) for _ in range(n_norms)]
        for n, gens, xs, fs in self.submodules:
            Y = self.submodule(n, gens)()
            get_Y = lambda Y=Y: Y
            ops += [self.distance_op(n, gens, get_Y, x) for x in xs]
            ops += [self.extend_op(n, gens, get_Y, f) for f in fs]
        return [ops[i] for i in self.order]


class Oneshot(_Workload):
    """Every call builds its objects from raw coefficient arrays and uses them once."""

    stream = 3

    def __init__(self, bc, seed: int, tiny: bool):
        super().__init__(bc, seed)
        rng = self.rng
        # per size: apply, solve, norms, compose, invert
        counts = {2: (6, 6, 6, 6, 6), 8: (20, 24, 8, 6, 6), 64: (1, 1, 1, 1, 1)}
        if tiny:
            counts = {2: (1, 1, 1, 1, 1), 8: (1, 2, 1, 1, 1), 64: (1, 1, 1, 1, 1)}
        ops = []
        for n, (c_apply, c_solve, c_norms, c_compose, c_invert) in counts.items():
            for _ in range(c_apply):
                A = conditioned_operator(rng, n)
                ops.append(self.apply_op(n, A, self.operator(A), random_vector(rng, n)))
            for _ in range(c_solve):
                A = conditioned_operator(rng, n)
                ops.append(self.solve_op(n, A, self.operator(A), random_vector(rng, n)))
            for _ in range(c_norms):
                A = conditioned_operator(rng, n)
                ops.append(self.norms_op(n, A, self.operator(A)))
            for _ in range(c_compose):
                ops.append(self._compose_op(n, conditioned_operator(rng, n), conditioned_operator(rng, n)))
            for _ in range(c_invert):
                ops.append(self._invert_op(n, conditioned_operator(rng, n)))
        # Seed-independent inputs of the known fault: one solve per round.
        fault_rng = np.random.default_rng(KNOWN_FAULT_SEED)
        self.fault = conditioned_operator(fault_rng, 8, KNOWN_FAULT_SCALE)
        ops.append(self.solve_op(8, self.fault, self.operator(self.fault), random_vector(fault_rng, 8), known_fault=True))
        # Submodule of T^n with 3 (n=8) or 6 (n=64) generators, built in the call.
        for n, count in ({8: 1} if tiny else {8: 10, 64: 1}).items():
            for _ in range(count):
                gens = [random_vector(rng, n) for _ in range(3 if n <= 8 else 6)]
                ops.append(self.extend_op(n, gens, self.submodule(n, gens), random_vector(rng, n)))
                ops.append(self.separate_op(n, gens, self.submodule(n, gens), random_vector(rng, n)))
        n_mul, n_inv = (2, 2) if tiny else (60, 25)
        products = [(invertible_scalar(rng), invertible_scalar(rng)) for _ in range(n_mul - 1)]
        products.append((tuple(ref.E1), tuple(ref.E2)))
        for w, z in products:
            ops.append(Op("mul", 0, lambda w=w, z=z: bc.Bicomplex(*w) * bc.Bicomplex(*z),
                          lambda out, w=w, z=z: ref.check_product(w, z, out.coeffs)))
        for w in [invertible_scalar(rng) for _ in range(n_inv)]:
            ops.append(Op("inverse", 0, lambda w=w: bc.Bicomplex(*w).inverse(),
                          lambda out, w=w: ref.check_inverse(w, out.coeffs)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def _compose_op(self, n, A, B) -> Op:
        bc = self.bc
        return Op("compose", n, lambda: bc.TMatrix(A).compose(bc.TMatrix(B)),
                  lambda C: ref.check_compose(self.refs.block(A), self.refs.block(B), C.coeffs))

    def _invert_op(self, n, A) -> Op:
        bc = self.bc
        return Op("invert", n, lambda: bc.TMatrix(A).invert(), lambda C: ref.check_invert(self.refs.block(A), C.coeffs))

    def round_ops(self) -> list[Op]:
        return self.ops


# --- cli --------------------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    stdout: str


class Cli(_Workload):
    """Cold ``python -m bicomplex`` invocations of all six commands, one
    process at a time, on n=8 files written during set-up."""

    stream = 4

    def __init__(self, bc, seed: int, root: Path, work: Path):
        super().__init__(bc, seed)
        self.root = root
        self.in_process = False
        rng = self.rng
        n = 8
        self.A = conditioned_operator(rng, n)
        self.b = random_vector(rng, n)
        self.gens = [random_vector(rng, n) for _ in range(3)]
        self.f = random_vector(rng, n)
        self.w = invertible_scalar(rng)
        self.z = invertible_scalar(rng)
        work.mkdir(parents=True, exist_ok=True)
        self.files = {
            "matrix": work / "matrix.json",
            "vector": work / "vector.json",
            "vector_csv": work / "vector.csv",
            "submodule": work / "submodule.json",
            "functional": work / "functional.json",
            "solution_csv": work / "solution.csv",
        }
        self.files["matrix"].write_text(json.dumps({"m": n, "n": n, "entries": self.A.reshape(n * n, 4).tolist()}))
        self.files["vector"].write_text(json.dumps(self.b.tolist()))
        self.files["vector_csv"].write_text("\n".join(",".join(repr(float(v)) for v in row) for row in self.b) + "\n")
        self.files["submodule"].write_text(json.dumps({"n": n, "generators": [g.tolist() for g in self.gens]}))
        self.files["functional"].write_text(json.dumps({"n": n, "coeffs": self.f.tolist()}))
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def _invoke(self, argv: list[str]) -> CliResult:
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = importlib.import_module("bicomplex.cli").main(argv)
            return CliResult(code, out.getvalue())
        done = subprocess.run([sys.executable, "-m", "bicomplex", *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return CliResult(done.returncode, done.stdout)

    def _op(self, label: str, argv: list[str], check: Callable[[str], bool]) -> Op:
        return Op(argv[0], 8, lambda: self._invoke(argv), lambda r: r.returncode == 0 and check(r.stdout),
                  label=label)

    @staticmethod
    def _literal(w) -> str:
        return " ".join(repr(float(v)) for v in w)

    def _check_solution(self, rows) -> bool:
        return ref.check_solve(self.refs.block(self.A), self.b, np.array(rows, dtype=np.float64))

    def _check_solve_csv(self, stdout: str) -> bool:
        path = self.files["solution_csv"]
        lines = path.read_text().splitlines()
        path.unlink()  # the next invocation must write it anew
        rows = [[float(v) for v in line.split(",")] for line in lines if line and not line.startswith("#")]
        return stdout == "" and self._check_solution(rows)

    def _check_norm(self, stdout: str) -> bool:
        r = json.loads(stdout)
        return ref.check_norms(self.refs.spectrum(self.A), r["sup_norm"], r["idem_norm"], r["s1"], r["s2"])

    def _check_extend(self, stdout: str) -> bool:
        r = json.loads(stdout)
        return ref.check_extension(self.gens, self.refs.span(self.gens), self.f, np.array(r["extension"]["coeffs"]),
                                   r["y_component_norms"], r["x_component_norms"])

    def _check_decompose(self, stdout: str) -> bool:
        r = json.loads(stdout)
        h1, h2 = complex(*r["h1"]), complex(*r["h2"])
        return not r["is_singular"] and ref.check_decomposition(self.w, h1, h2, r["magnitudes"])

    def _check_verify(self, stdout: str) -> bool:
        reports = [json.loads(line) for line in stdout.splitlines()]
        if [r["check_id"] for r in reports] != list(self.bc.CHECK_IDS):
            return False
        for r in reports:
            replayed = self.bc.replay_witness(r["check_id"], r["worst_witness"])
            if not (r["pass"] and abs(replayed - r["worst_value"]) <= 1e-15 * (1.0 + abs(r["worst_value"]))):
                return False
        return True

    def round_ops(self) -> list[Op]:
        f = {k: str(v) for k, v in self.files.items()}
        w, z = self._literal(self.w), self._literal(self.z)
        ops = [
            self._op("calc mul", ["calc", w, "mul", z],
                     lambda s: ref.check_product(self.w, self.z, [float(v) for v in s.split()])),
            self._op("calc inverse", ["calc", w, "inverse"], lambda s: ref.check_inverse(self.w, [float(v) for v in s.split()])),
            self._op("decompose", ["decompose", w], self._check_decompose),
            self._op("solve json", ["solve", f["matrix"], f["vector"]],
                     lambda s: (r := json.loads(s))["residual"] <= ref.TOL and self._check_solution(r["solution"])),
            self._op("solve csv", ["solve", f["matrix"], f["vector_csv"], "--format", "csv", "--out", f["solution_csv"]],
                     self._check_solve_csv),
            self._op("norm", ["norm", f["matrix"]], self._check_norm),
            self._op("extend", ["extend", f["submodule"], f["functional"]], self._check_extend),
        ] + [
            self._op(f"verify {seed}", ["verify", "--all", "--seed", str(seed), "--trials", "3"], self._check_verify)
            for seed in (self.seed, self.seed + 1)
        ]
        return ops

    def warm_up(self):
        op = self.round_ops()[0]
        op.check(op.call())
