#!/usr/bin/env python3
"""Time the per-object operator path at n = 2, 8, 64 and print a table.

Each figure is the best of 5 timings, in microseconds per call; a timing
runs --number calls, or by default as many as take 0.2 s.  *Warm* reuses
one operator that has solved once, so its hat split and inverse are
cached; accepting it took no SVD, so its singular values are not, and it
took a determinant only where the AM-GM bounds on it fall short of the
null-cone floor (here at n = 64, not at n = 2 or 8).  *Cold* builds the operator from its raw coefficient array inside the
call.  Every call builds its argument vector from a raw array, as
a request would.  The chained rows feed one warm operator's result to the
next call, and `separating_functional` runs against a warm submodule of n/2
generators; none of them reads a result's coefficients, so a result kept in
hat form is never merged.  `hahn_banach_extend` builds that submodule from
its raw generator arrays inside the call, as a one-shot request would, and
extends a functional built from a raw array.  The last row times the bare
complex work of one call: the two matvecs (M1 v1, M2 v2) of `apply`, and the
refined inverse-apply of both components that `solve` makes on the cached
inverses (`_arrays.solve_pair`, five stacked matvecs).

A second table gives, for 5 fresh processes each, the median wall time and
the median CPU time of the child (user + system, from `getrusage`) in
milliseconds: `import bicomplex`, then each of the six commands through
`python -m bicomplex` at n = 8, `verify` at `--trials 3`.  `calc` and
`decompose` do not import numpy.  Wall time of a short process moves with
the machine's load; its CPU time moves far less.

    python scripts/microbench.py
    python scripts/microbench.py --number 100
"""

import os

# One BLAS thread, as in the benchmark; must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
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
from bicomplex import (  # noqa: E402
    Submodule, TFunctional, TMatrix, TVector, _arrays, hahn_banach_extend, separating_functional
)

SIZES = (2, 8, 64)
REPEAT = 5


def _conditioned(rng, n: int) -> np.ndarray:
    """Coefficients (n, n, 4) of an operator with component singular values in [0.4, 2]."""
    comps = []
    for _ in range(2):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        comps.append(q1 @ np.diag(rng.uniform(0.4, 2.0, n)) @ q2.conj().T)
    return TMatrix.from_hat(*comps).coeffs


def _best_us(fn, number) -> float:
    timer = timeit.Timer(fn)
    number = number or timer.autorange()[0]
    return min(timer.repeat(number=number, repeat=REPEAT)) / number * 1e6


def measure(n: int, number=None) -> dict:
    """Best-of-5 microseconds per call of each timed operation at size n."""
    rng = np.random.default_rng(n)
    A, B = _conditioned(rng, n), _conditioned(rng, n)
    x = rng.uniform(-1.0, 1.0, (n, 4))
    warm, warm_b = TMatrix(A), TMatrix(B)
    warm.solve(TVector(x)), warm_b.split()
    gens = rng.uniform(-1.0, 1.0, (n // 2, n, 4))
    Y = Submodule(n, [TVector(g) for g in gens])
    H, V = warm.split(), TVector(x).split()
    Hinv = np.linalg.inv(H)
    (M1, M2), (v1, v2) = H, V
    return {
        "apply warm": _best_us(lambda: warm.apply(TVector(x)), number),
        "apply cold": _best_us(lambda: TMatrix(A).apply(TVector(x)), number),
        "solve warm": _best_us(lambda: warm.solve(TVector(x)), number),
        "solve cold": _best_us(lambda: TMatrix(A).solve(TVector(x)), number),
        "norms cold": _best_us(lambda: TMatrix(A).norms(), number),
        "invert cold": _best_us(lambda: TMatrix(A).invert(), number),
        "compose cold": _best_us(lambda: TMatrix(A).compose(TMatrix(B)), number),
        "compose apply": _best_us(lambda: warm.compose(warm_b).apply(TVector(x)), number),
        "solve apply": _best_us(lambda: warm.apply(warm.solve(TVector(x))), number),
        "separate": _best_us(lambda: separating_functional(TVector(x), Y), number),
        "extend cold": _best_us(
            lambda: hahn_banach_extend(TFunctional(TVector(x)), Submodule(n, [TVector(g) for g in gens])), number
        ),
        "matvecs": _best_us(lambda: (M1 @ v1, M2 @ v2), number),
        "inverse-applies": _best_us(lambda: _arrays.solve_pair(H, Hinv, V), number),
    }


ROWS = (
    ("`apply` warm / cold", ("apply warm", "apply cold")),
    ("`solve` warm / cold", ("solve warm", "solve cold")),
    ("`norms` / `invert` cold", ("norms cold", "invert cold")),
    ("`compose` (cold)", ("compose cold",)),
    ("`compose` then `apply` (warm)", ("compose apply",)),
    ("`solve` then `apply` (warm)", ("solve apply",)),
    ("`separating_functional` (warm submodule)", ("separate",)),
    ("`hahn_banach_extend` (cold submodule)", ("extend cold",)),
    ("two raw complex matvecs / refined inverse-applies", ("matvecs", "inverse-applies")),
)


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


def table(results: dict) -> str:
    lines = ["| operation | " + " | ".join(f"n={n}" for n in results) + " |", "|---" * (len(results) + 1) + "|"]
    for label, keys in ROWS:
        cells = [" / ".join(f"{results[n][k]:.1f}" for k in keys) for n in results]
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--number", type=int, default=None, help="calls per timing (default: as many as take 0.2 s)")
    args = parser.parse_args()
    print(table({n: measure(n, args.number) for n in SIZES}))
    print("\n| cold process | median ms | child CPU ms |\n|---|---|---|")
    for label, (wall, cpu) in cold_start().items():
        print(f"| {label} | {wall:.1f} | {cpu:.1f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
