#!/usr/bin/env python3
"""Time the package call by call against the one of a second tree, in one process.

--against DIR names that tree; DIR may be this tree, to see how far one
process's rounds spread.  The script imports the package under DIR/src as
`bicomplex_against`, next to the one under test, and runs each call on
both, call by call, the first of each pair alternating, for ROUNDS rounds
of --number calls (by default a twentieth of what takes 0.2 s).  The calls
are the per-object operator path at n = 2, 8 and 64.  *Warm* reuses one
operator that has solved once, so its hat split and inverse are cached;
accepting it took no SVD, so its singular values are not, and it took a
determinant only where the AM-GM bounds on it fall short of the null-cone
floor (here at n = 64, not at n = 2 or 8).  *Cold* builds the operator from its raw coefficient array inside
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
run each verifier check once, `run_check` at seed 42 and the smaller of its
default trials and CHECK_TRIALS (two full blocks of a scalar check, 1000
trials in each dimension of a vector check, every default trial of an
operator check), so that a change to a kernel is timed check by check in
one process.  Each row gives both sides' medians over the rounds, the
relative change and the rounds this tree won.  Separate processes of the
same tree differed by up to 10%, where one process held the control within
1%.  Cold processes, the import and the six commands, are timed by the
benchmark's `cli` workload (`bench/run.py --trace 1`, its `cli.*` metrics).
--json prints the rows as one JSON object.

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
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bicomplex  # noqa: E402
from bicomplex import TMatrix  # noqa: E402

SIZES = (2, 8, 64)
ROUNDS = 31
AGAINST = "bicomplex_against"
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
    """One run of a check at the smaller of its default trials and CHECK_TRIALS."""
    trials = min(bc.default_config(check_id).trials, CHECK_TRIALS)
    cfg = bc.default_config(check_id, seed=42, trials=trials)
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
    pairs += [(f"check {check_id}", "-", _check(bicomplex, check_id), _check(other, check_id))
              for check_id in bicomplex.CHECK_IDS]
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, required=True, metavar="DIR",
                        help="interleave every per-object call with the package of the tree DIR")
    parser.add_argument("--number", type=int, default=None,
                        help="calls per round (default: a twentieth of what takes 0.2 s)")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    args = parser.parse_args()
    rows = compare(import_tree(args.against.resolve()), args.number)
    print(json.dumps({"against": str(args.against), "rows": rows}) if args.json else compare_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
