#!/usr/bin/env python3
"""Time the package in cold processes, or call by call against a second tree.

By default the script prints, for 5 fresh processes each, the median wall
time and the median CPU time of the child (user + system, from
`getrusage`) in milliseconds: `import bicomplex`, then each of the six
commands through `python -m bicomplex` at n = 8, `verify` at `--trials 3`.
`calc` and `decompose` do not import numpy.  Wall time of a short process
moves with the machine's load; its CPU time moves far less.

With --against DIR the script compares two trees in one process instead;
DIR may be this tree, to see how far one process's rounds spread.  It
imports the package under DIR/src as `bicomplex_against`, next to the one
under test, and runs each call on both, call by call, the first of each
pair alternating, for ROUNDS rounds of --number calls (by default a
twentieth of what takes 0.2 s).  The calls are the per-object operator
path at n = 2, 8 and 64.  *Warm* reuses one operator that has solved once,
so its hat split and inverse are cached; accepting it took no SVD, so its
singular values are not, and it took a determinant only where the AM-GM
bounds on it fall short of the null-cone floor (here at n = 64, not at n = 2
or 8).  *Cold* builds the operator from its raw coefficient array inside
the call.  Every call builds its argument vector from a raw array, as a
request would.  The chained calls feed one warm operator's result to the
next call, and `separating_functional` runs against a warm submodule of n/2
generators; none of them reads a result's coefficients, so a result kept in
hat form is never merged.  `extend cold` builds that submodule from its raw
generator arrays inside the call, as a one-shot request would, and extends
a functional built from a raw array.  `matvecs` times the two bare complex
matvecs (M1 v1, M2 v2) of `apply`, and `inverse-applies` the refined
inverse-apply of both components that `solve` makes on the cached inverses
(`_arrays.solve_pair`, five stacked matvecs).  Then come the parts of a
one-shot request: `TMatrix(raw).apply(TVector(raw)).coeffs`, `hat_split`
of the raw matrix and of the raw vector, `TMatrix(raw)` and `TVector(raw)`,
a built vector's `norm`, warm `apply` of a built vector and its bare
`apply_pair`, the vector `pair_norms`, and a warm submodule's `distance_to`
and `hahn_banach_extend`.  A first control row, a product of two scalars
built in the call, times what neither tree's arrays touch.  The last rows
run each of the seven streamed verifier checks once (`run_check` at seed 42
and CHECK_TRIALS trials: two full blocks of a scalar check, 1000 trials in
each dimension of a vector check), so that a change to the plane kernels is
timed check by check in one process.  Each row gives both sides' medians
over the rounds, the relative change and the rounds this tree won; the cold
processes are not run.  Separate processes of the same tree differed here
by up to 10%, where one process held the control within 1%.  --json prints
either result as one JSON object.

    python scripts/microbench.py
    python scripts/microbench.py --against /path/to/parent/tree
    python scripts/microbench.py --against . --number 100 --json
"""

import os

# One BLAS thread, as in the benchmark; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bicomplex  # noqa: E402
from bicomplex import Submodule, TFunctional, TMatrix, TVector  # noqa: E402

SIZES = (2, 8, 64)
REPEAT = 5
ROUNDS = 31
AGAINST = "bicomplex_against"
STREAMED = ("ring-axioms", "submult", "norm-identity", "scalar-homogeneity", "translation-invariance",
            "homeomorphism-Ta", "homeomorphism-Mlambda")
CHECK_TRIALS = 8_000


def _conditioned(rng, n: int) -> np.ndarray:
    """Coefficients (n, n, 4) of an operator with component singular values in [0.4, 2]."""
    comps = []
    for _ in range(2):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        comps.append(q1 @ np.diag(rng.uniform(0.4, 2.0, n)) @ q2.conj().T)
    return TMatrix.from_hat(*comps).coeffs


def calls(bc, n: int) -> dict:
    """The timed calls at size n on the package `bc`, each a function of no
    arguments, on inputs drawn from a generator seeded by n, so every package
    gets the same bits."""
    rng = np.random.default_rng(n)
    TMatrix, TVector, Submodule, TFunctional = bc.TMatrix, bc.TVector, bc.Submodule, bc.TFunctional
    A, B = _conditioned(rng, n), _conditioned(rng, n)
    x = rng.uniform(-1.0, 1.0, (n, 4))
    warm, warm_b = TMatrix(A), TMatrix(B)
    warm.solve(TVector(x)), warm_b.split()
    gens = rng.uniform(-1.0, 1.0, (n // 2, n, 4))
    Y = Submodule(n, [TVector(g) for g in gens])
    H, V = warm.split(), TVector(x).split()
    Hinv = np.linalg.inv(H)
    (M1, M2), (v1, v2) = H, V
    v = TVector(x)
    arrays = importlib.import_module(f"{bc.__name__}._arrays")
    return {
        "apply warm": lambda: warm.apply(TVector(x)),
        "apply cold": lambda: TMatrix(A).apply(TVector(x)),
        "solve warm": lambda: warm.solve(TVector(x)),
        "solve cold": lambda: TMatrix(A).solve(TVector(x)),
        "norms cold": lambda: TMatrix(A).norms(),
        "invert cold": lambda: TMatrix(A).invert(),
        "compose cold": lambda: TMatrix(A).compose(TMatrix(B)),
        "compose apply": lambda: warm.compose(warm_b).apply(TVector(x)),
        "solve apply": lambda: warm.apply(warm.solve(TVector(x))),
        "separate": lambda: bc.separating_functional(TVector(x), Y),
        "extend cold": lambda: bc.hahn_banach_extend(TFunctional(TVector(x)), Submodule(n, [TVector(g) for g in gens])),
        "matvecs": lambda: (M1 @ v1, M2 @ v2),
        "inverse-applies": lambda: arrays.solve_pair(H, Hinv, V),
        "apply oneshot coeffs": lambda: TMatrix(A).apply(TVector(x)).coeffs,
        "hat_split matrix": lambda: arrays.hat_split(A),
        "hat_split vector": lambda: arrays.hat_split(x),
        "TMatrix raw": lambda: TMatrix(A),
        "TVector raw": lambda: TVector(x),
        "TVector norm": lambda: v.norm(),
        "apply warm built": lambda: warm.apply(v),
        "apply_pair": lambda: arrays.apply_pair(H, V),
        "pair_norms vector": lambda: arrays.pair_norms(v1, v2),
        "distance warm": lambda: Y.distance_to(TVector(x)),
        "extend warm": lambda: bc.hahn_banach_extend(TFunctional(TVector(x)), Y),
    }


def import_tree(root: Path):
    """The package under root/src/bicomplex, imported as `bicomplex_against`
    next to the one under test; its modules import each other relatively."""
    init = root / "src" / "bicomplex" / "__init__.py"
    spec = importlib.util.spec_from_file_location(AGAINST, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = package
    spec.loader.exec_module(package)
    return package


def _control(bc):
    """The control row: a product of two scalars built in the call, which
    times the interpreter and the machine rather than either tree's arrays."""
    w, z = (0.5, -1.25, 2.0, 0.75), (1.5, 0.25, -0.5, 2.0)
    return lambda: bc.Bicomplex(*w) * bc.Bicomplex(*z)


def _check(bc, check_id: str):
    """One run of a streamed check at CHECK_TRIALS trials."""
    cfg = bc.default_config(check_id, seed=42, trials=CHECK_TRIALS)
    return lambda: bc.run_check(cfg)


def _interleaved_us(mine, theirs, number: int) -> tuple:
    """Mean microseconds per call of `mine` and of `theirs` over `number`
    calls of each, taken call by call with the first of each pair
    alternating, so that both sides meet the same state of the machine."""
    clock, fns, spent = time.perf_counter, (mine, theirs), [0.0, 0.0]
    for i in range(number):
        first = i % 2
        start = clock()
        fns[first]()
        middle = clock()
        fns[1 - first]()
        spent[1 - first] += clock() - middle
        spent[first] += middle - start
    return spent[0] / number * 1e6, spent[1] / number * 1e6


def compare(other, number=None) -> list:
    """Each call on this package and on `other`, interleaved call by call in
    this process (_interleaved_us), in ROUNDS rounds of `number` calls each.  One row per call and size: the median over the rounds of
    each side's microseconds per call, and the rounds this side won."""
    pairs = [("control", "-", _control(bicomplex), _control(other))]
    for n in SIZES:
        mine, theirs = calls(bicomplex, n), calls(other, n)
        pairs += [(name, n, mine[name], theirs[name]) for name in mine]
    pairs += [(f"check {check_id}", "-", _check(bicomplex, check_id), _check(other, check_id)) for check_id in STREAMED]
    rows = []
    for name, n, mine, theirs in pairs:
        count = number or max(1, timeit.Timer(mine).autorange()[0] // 20)
        this, against = zip(*(_interleaved_us(mine, theirs, count) for _ in range(ROUNDS)))
        rows.append({"operation": name, "n": n, "this_us": statistics.median(this),
                     "against_us": statistics.median(against),
                     "wins": sum(a < b for a, b in zip(this, against)), "rounds": ROUNDS})
    return rows


def compare_table(rows: list) -> str:
    lines = ["| operation | n | this µs | against µs | change | wins |", "|---|---|---|---|---|---|"]
    for row in rows:
        change = (row["this_us"] / row["against_us"] - 1.0) * 100.0
        lines.append(f"| {row['operation']} | {row['n']} | {row['this_us']:.2f} | {row['against_us']:.2f} "
                     f"| {change:+.1f}% | {row['wins']}/{row['rounds']} |")
    return "\n".join(lines)


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _cold_ms(args: list, env: dict) -> tuple:
    """Median wall and child CPU milliseconds of REPEAT fresh `python args` processes."""
    walls, cpus = [], []
    for _ in range(REPEAT):
        cpu, start = _child_cpu_s(), time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)
        walls.append(time.perf_counter() - start)
        cpus.append(_child_cpu_s() - cpu)
    return statistics.median(walls) * 1e3, statistics.median(cpus) * 1e3


def cold_start() -> dict:
    """Milliseconds to start a fresh process on the imported package: the bare
    import, and each command through `python -m bicomplex` at n = 8."""
    src = str(Path(bicomplex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    rng = np.random.default_rng(8)
    with tempfile.TemporaryDirectory() as work:
        objects = {
            "matrix": TMatrix(_conditioned(rng, 8)),
            "vector": TVector(rng.uniform(-1.0, 1.0, (8, 4))),
            "submodule": Submodule(8, [TVector(rng.uniform(-1.0, 1.0, (8, 4))) for _ in range(3)]),
            "functional": TFunctional(rng.uniform(-1.0, 1.0, (8, 4))),
        }
        files = {name: str(Path(work) / f"{name}.json") for name in objects}
        for name, obj in objects.items():
            Path(files[name]).write_text(json.dumps(obj.to_json()))
        commands = {
            "calc": ["calc", "1 2 3 4", "mul", "0.5 0 0 -0.5"],
            "decompose": ["decompose", "1 2 3 4"],
            "solve": ["solve", files["matrix"], files["vector"]],
            "norm": ["norm", files["matrix"]],
            "extend": ["extend", files["submodule"], files["functional"]],
            "verify": ["verify", "--all", "--trials", "3"],
        }
        times = {"`import bicomplex`": _cold_ms(["-c", "import bicomplex"], env)}
        for name, argv in commands.items():
            times[f"`python -m bicomplex {name}`"] = _cold_ms(["-m", "bicomplex", *argv], env)
        return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, default=None,
                        help="calls per round of --against (default: a twentieth of what takes 0.2 s)")
    parser.add_argument("--against", type=Path, default=None, metavar="DIR",
                        help="interleave every per-object call with the package of the tree DIR")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    args = parser.parse_args()
    if args.number is not None and args.against is None:
        parser.error("--number sets the calls of --against; the cold processes take none")
    if args.against is not None:
        rows = compare(import_tree(args.against.resolve()), args.number)
        print(json.dumps({"against": str(args.against), "rows": rows}) if args.json else compare_table(rows))
        return 0
    cold = cold_start()
    if args.json:
        print(json.dumps({"cold_process_ms": {
            label.strip("`"): {"median": wall, "child_cpu": cpu} for label, (wall, cpu) in cold.items()}}))
        return 0
    print("| cold process | median ms | child CPU ms |\n|---|---|---|")
    for label, (wall, cpu) in cold.items():
        print(f"| {label} | {wall:.1f} | {cpu:.1f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
