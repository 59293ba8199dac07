#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write the
comparison to BENCH_<label>.json.

    python scripts/bench_pairs.py --workload reuse --pairs 10 --label lazy-merge
    python scripts/bench_pairs.py --parent DIR --change DIR --pairs 1 --seconds 0

The parent is a git revision (default HEAD), exported with `git archive` into
a temporary directory, so nothing is fetched and the repository's worktrees
are left alone; an existing directory is used as it is.  The change is a
directory, by default this repository's working tree.  Pair i runs the
command BENCHMARK.json gives, with `--workload W --seed 101+i --seconds T`,
once on each tree; even pairs run the parent first, odd pairs the change.
The seeds differ from bench/run.py's default, so a claim is not tested on
the inputs a change was tuned on.  When bytecode is written, each side
compiles into its own cache (PYTHONPYCACHEPREFIX), so neither reads the
other's or a stale one.  When PYTHONDONTWRITEBYTECODE is set no cache would
be written, and a prefix would only hide the caches of numpy and the
standard library from every fresh process, so the environment is left as
it is.

For each end-to-end metric the file holds each side's median and quartiles,
the parent's quartile spread, the change's wins (ties count for neither) and
two verdicts.  `gain_holds`: a win in at least nine tenths of the pairs, a
median better by more than the parent's quartile spread, and a failed share
of operations no larger than the parent's.  `within_bound`: false when the
median is worse than the parent's by more than the metric's bound in
BENCHMARK.json; "unresolved" when the parent's quartile spread is wider than
that bound and not every change run beats every parent run; true otherwise.
It also holds every run's attempted and failed counts and metric values,
and in `machine` what sets the cost of a cold process here: whether
PYTHONDONTWRITEBYTECODE is set (then every fresh process compiles the
package's modules) and the kernel that numpy's bundled OpenBLAS picked for
this CPU (null where it cannot be read).
"""

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 101

NOTE = (
    "setup_s times fresh imports of the package, so it includes compiling every module a "
    "workload loads whenever no bytecode is cached; when bytecode is written each side keeps "
    "its own cache here, and the first pair compiles.  Only figures taken in one run of this "
    "script compare."
)


def dont_write_bytecode() -> bool:
    return bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))


def openblas_core():
    """The core name that numpy's bundled OpenBLAS loaded (DYNAMIC_ARCH), or None."""
    for lib in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def export(revision: str, dest: Path) -> str:
    """Write the tree of `revision` into dest; return its commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(tree: Path, cache: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run on `tree`: its last stdout line, parsed."""
    command = json.loads((tree / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ) if dont_write_bytecode() else dict(os.environ, PYTHONPYCACHEPREFIX=str(cache))
    done = subprocess.run(command + args, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"benchmark run failed in {tree.name}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {**{k: result[k] for k in ("correct", "attempted", "failed")},
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def failed_share(runs: list, side: str) -> float:
    return sum(r[side]["failed"] for r in runs) / max(1, sum(r[side]["attempted"] for r in runs))


def compare(spec: dict, parent: list, change: list, failed: dict) -> dict:
    """The verdicts on one end-to-end metric from the paired values and each
    side's failed share of operations."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (p["median"] - c["median"])
    spread = p["q3"] - p["q1"]
    bound = spec["bound"] * abs(p["median"])
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    separated = all(sign * (a - b) > 0 for a in parent for b in change)
    if -gain > bound:
        within_bound = False
    elif spread > bound and not separated:
        within_bound = "unresolved"
    else:
        within_bound = True
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "parent_spread": spread,
        "change_vs_parent": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "wins": wins,
        "gain_holds": wins >= 0.9 * len(parent) and gain > spread and failed["change"] <= failed["parent"],
        "within_bound": within_bound,
    }


def judge(spec: dict, runs: list) -> tuple:
    """(failed share per side, verdicts per end-to-end metric) of the runs."""
    failed = {side: failed_share(runs, side) for side in ("parent", "change")}
    metrics = {
        m["name"]: compare(m, [r["parent"]["metrics"][m["name"]] for r in runs],
                           [r["change"]["metrics"][m["name"]] for r in runs], failed)
        for m in spec["end_to_end"]
    }
    return failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("verify", "reuse", "oneshot", "cli"), default="reuse")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default: 10)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--parent", default="HEAD", help="git revision or directory (default: HEAD)")
    parser.add_argument("--change", type=Path, default=ROOT, help="directory (default: this working tree)")
    parser.add_argument("--label", default="pairs", help="the file is BENCH_<label>.json")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where to write it (default: the repository root)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if Path(args.parent).is_dir():
            parent_tree, parent_id = Path(args.parent).resolve(), "directory"
        else:
            parent_tree = work / "parent"
            parent_id = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": args.change.resolve()}
        runs = []
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], work / f"pycache-{side}", args.workload, seed, seconds)
                print(f"pair {i} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr)
            runs.append(pair)

    shares, metrics = judge(spec, runs)
    report = {
        "label": args.label,
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": seconds,
        "parent": parent_id,
        "change": "working tree" if args.change.resolve() == ROOT else "directory",
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
                    "dont_write_bytecode": dont_write_bytecode(),
                    "openblas_core": openblas_core()},
        "note": NOTE,
        "correct": all(r[side]["correct"] for r in runs for side in trees),
        "failed": {side: [r[side]["failed"] for r in runs] for side in trees},
        "failed_share": shares,
        "attempted": {side: [r[side]["attempted"] for r in runs] for side in trees},
        "metrics": metrics,
        "runs": runs,
    }
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} {m['unit']}, "
              f"wins {m['wins']}/{args.pairs}, gain_holds {m['gain_holds']}, within_bound {m['within_bound']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
