"""Benchmark of the bicomplex library.

    python3 bench/run.py --workload reuse --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1          # all four, one process
    python3 bench/run.py --workload verify --seed 1 --trace 1

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` one workload runs whole rounds of its fixed operations for
``--seconds`` seconds and the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics.  With
``--trace 1`` the per-layer metrics of all four workloads are printed
instead (see README.md).  Every timing is rescaled to reference machine
speed by the interleaved probe of ``probe.py``; raw times and probe times
are written next to the scaled ones under ``bench/results/``.
"""

from __future__ import annotations

import os

# One BLAS thread: with two threads on two cores, idle OpenBLAS workers spin
# against the interpreter thread.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

NAMES = ("verify", "reuse", "oneshot", "cli")
SETUP_REPS = 5
#: Probe schedule per workload: (seconds of timed work between probe points,
#: probe runs per point, probe mix).  verify and cli probe between every
#: operation.
PROBING = {
    "verify": (0.0, 5, "mixed"),
    "reuse": (0.02, 1, "compute"),
    "oneshot": (0.02, 1, "compute"),
    "cli": (0.0, 1, "process"),
}
#: Untraced rounds per workload in the traced run (a fixed count, so that
#: two traced runs make the same calls).
TRACE_ROUNDS = {"verify": 1, "reuse": 3, "oneshot": 5, "cli": 3}
IMPORT_PROBES = 5
#: In-process probe runs at the start and at the end of the traced run.
MACHINE_PROBES = 20
IN_PROCESS_PARTS = ("interpreter", "lapack", "numpy", "array")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("lat_p50_us", "us"), ("lat_p90_us", "us"), ("peak_rss_mb", "MB")]

LAYER_FUNCTIONS = {
    "operators": ("apply", "solve", "norms", "compose", "invert", "det", "component_singular_values", "to_json"),
    "tmodule": ("scale", "norm", "split", "from_split", "to_json", "submodule_init", "distance_to"),
    "functionals": ("hahn_banach_extend", "separating_functional", "evaluate"),
    "scalar": ("mul", "inverse", "classify"),
    "arrays": ("hat_split", "hat_merge", "mul4"),  # the _arrays module; names start with a letter
}
SIZED_OPERATIONS = ("apply", "solve", "norms", "compose")
SIZES = (2, 8, 64)
CLI_COMMANDS = ("calc", "decompose", "solve", "norm", "extend", "verify")


def per_layer_spec(check_ids) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    spec = []
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            spec += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
    spec += [(f"operators.{op}.n{n}_us", "us") for op in SIZED_OPERATIONS for n in SIZES]
    spec += [(f"linalg.{fn}.calls", "count") for fn in spans.LINALG] + [("linalg.self_s", "s")]
    spec += [(f"verifier.{check_id}.s", "s") for check_id in check_ids]
    spec += [("cli.import_s", "s"), ("cli.main.self_s", "s")]
    spec += [(f"cli.{command}.p50_us", "us") for command in CLI_COMMANDS]
    spec += [("machine.probe_us", "us"), ("trace.overhead_ratio", "ratio")]
    return spec


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import ``bicomplex`` afresh from the checkout's ``src/``."""
    package = SRC / "bicomplex"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no bicomplex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bicomplex" or m.startswith("bicomplex.")]:
        del sys.modules[name]
    bc = importlib.import_module("bicomplex")
    if Path(bc.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"bicomplex was imported from {bc.__file__}, not from {package}")
    return bc


def make_workload(name: str, bc, seed: int, tiny: bool):
    if name == "cli":
        return workloads.Cli(bc, seed, ROOT, RESULTS / "cli-work")
    return {"verify": workloads.Verify, "reuse": workloads.Reuse, "oneshot": workloads.Oneshot}[name](bc, seed, tiny)


def set_up(name: str, seed: int, tiny: bool, reps: int):
    """Import, generate inputs and warm up `reps` times; returns the last
    workload and the median set-up time, scaled and raw."""
    _, probe_reps, mix = PROBING[name]
    clock = probe.Clock(0.0, probe_reps, mix)
    for k in range(reps):
        gc.collect()
        start = time.perf_counter()
        workload = make_workload(name, import_program(), seed, tiny)
        workload.warm_up()
        clock.add(time.perf_counter() - start, k)
    timed = clock.drain()
    return workload, statistics.median(s for _, _, s in timed), statistics.median(r for _, r, _ in timed)


class Tally:
    """Counts attempted and failed operations and keeps a note of the first
    wrong ones."""

    def __init__(self, singular_operator):
        self.singular_operator = singular_operator
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def judge(self, results) -> set[int]:
        """Judge one round of (op, output, error); returns the indices of the
        operations that failed."""
        failed = set()
        for i, (op, out, err) in enumerate(results):
            self.attempted += 1
            if err is None:
                try:
                    if op.check(out):
                        continue
                except Exception as exc:  # a malformed output is a wrong one
                    err = exc
                self._note(f"{op.label or op.kind} n={op.n}: wrong output" + (f" ({err!r})" if err else ""))
            elif not (op.known_fault and isinstance(err, self.singular_operator)):
                self._note(f"{op.label or op.kind} n={op.n}: raised {type(err).__name__}: {err}")
            self.failed += 1
            failed.add(i)
        return failed

    def _note(self, text: str):
        self.wrong += 1
        if len(self.notes) < 20:
            self.notes.append(text)


def _quantiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def run_rounds(workload, clock, tally, *, seconds=None, rounds=None, before_op=None, samples=None) -> list[dict]:
    """Run whole rounds until `rounds` are done or `seconds` have passed.
    Every operation is timed alone and checked after its round.  Returns per
    round the summed time and the latency quantiles of the operations that
    did not fail, raw and scaled; `samples`, if given, collects the scaled
    time of each such operation by (kind, n)."""
    start = time.perf_counter()
    summaries = []
    while True:
        results = []
        for i, op in enumerate(workload.round_ops()):
            if before_op is not None:
                before_op(len(summaries), op)
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # counted and reported by the tally
                out, err = None, exc
            clock.add(time.perf_counter() - t0, i)
            results.append((op, out, err))
        failed = tally.judge(results)
        timed = clock.drain()
        ok = [(i, raw, scaled) for i, raw, scaled in timed if i not in failed] or timed
        summaries.append({
            "raw_s": sum(raw for _, raw, _ in timed),
            "scaled_s": sum(scaled for _, _, scaled in timed),
            "raw_q": _quantiles([raw for _, raw, _ in ok]),
            "scaled_q": _quantiles([scaled for _, _, scaled in ok]),
        })
        if samples is not None:
            for i, _, scaled in timed:
                if i not in failed:
                    samples.setdefault((results[i][0].kind, results[i][0].n), []).append(scaled)
        if (rounds is not None and len(summaries) >= rounds) or (
            seconds is not None and time.perf_counter() - start >= seconds
        ):
            return summaries


def summarize(summaries, kind: str) -> dict:
    """Medians over rounds of the round time and of the latency quantiles;
    `kind` is "raw" or "scaled"."""
    return {
        "wall_s": statistics.median(s[f"{kind}_s"] for s in summaries),
        "lat_p50_us": statistics.median(s[f"{kind}_q"][0] for s in summaries) * 1e6,
        "lat_p90_us": statistics.median(s[f"{kind}_q"][1] for s in summaries) * 1e6,
    }


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, tiny: bool = False) -> tuple[dict, dict]:
    """One end-to-end run; returns the result object and the raw details."""
    workload, setup_s, setup_raw = set_up(name, seed, tiny, 1 if tiny else SETUP_REPS)
    clock = probe.Clock(*PROBING[name])
    tally = Tally(workload.bc.SingularOperator)
    summaries = run_rounds(workload, clock, tally, seconds=seconds)
    values = {"setup_s": setup_s, **summarize(summaries, "scaled"), "peak_rss_mb": peak_rss_mb(name)}
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END},
    }
    details = {
        "workload": name,
        "seed": seed,
        "rounds": len(summaries),
        "raw": {"setup_s": setup_raw, **summarize(summaries, "raw")},
        "round_raw_s": [s["raw_s"] for s in summaries],
        "round_scaled_s": [s["scaled_s"] for s in summaries],
        "probe_s": clock.points,
        "wrong": tally.notes,
    }
    return result, details


def _import_seconds(clock, env) -> None:
    """Time ``import bicomplex.cli`` in fresh interpreters, one at a time."""
    code = "import time; t = time.perf_counter(); import bicomplex.cli; print(time.perf_counter() - t)"
    for k in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        clock.add(float(done.stdout.strip()), k)


def trace_run(seed: int, tiny: bool = False) -> tuple[dict, dict]:
    """Untraced rounds of every workload for per-size, per-check and
    per-command medians, then one traced round of each for calls and self
    times.  Returns the result object and the per-workload span summary."""
    bc = import_program()
    importlib.import_module("bicomplex.cli")
    loads = {name: make_workload(name, bc, seed, tiny) for name in NAMES}
    tally = Tally(bc.SingularOperator)
    untraced = {}
    medians = {}
    probes = [sum(probe.run_probe(IN_PROCESS_PARTS).values()) for _ in range(MACHINE_PROBES)]
    for name, workload in loads.items():
        workload.warm_up()
        clock = probe.Clock(*PROBING[name])
        samples: dict = {}
        rounds = 1 if tiny else TRACE_ROUNDS[name]
        untraced[name] = summarize(run_rounds(workload, clock, tally, rounds=rounds, samples=samples), "scaled")
        medians[name] = {key: statistics.median(v) for key, v in samples.items()}
    import_clock = probe.Clock(*PROBING["cli"])
    _import_seconds(import_clock, loads["cli"].env)

    tracer = spans.Tracer()
    traced_walls = {}
    loads["cli"].in_process = True
    tracer.install()
    try:
        for name, workload in loads.items():

            def before_op(r, op, name=name):
                tracer.run_id = f"{name}/{r}/{op.kind}/n{op.n}"

            tracer.run_id = f"{name}/0/round"  # objects built for the round, before its first operation
            clock = probe.Clock(*PROBING[name])
            traced_walls[name] = run_rounds(workload, clock, tally, rounds=1, before_op=before_op)[0]["scaled_s"]
    finally:
        tracer.uninstall()

    values = {}
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            values[f"{layer}.{fn}.calls"] = tracer.calls[f"{layer}.{fn}"]
            values[f"{layer}.{fn}.self_s"] = tracer.self_s[f"{layer}.{fn}"]
    for op in SIZED_OPERATIONS:
        for n in SIZES:
            values[f"operators.{op}.n{n}_us"] = medians["oneshot"][(op, n)] * 1e6
    for fn in spans.LINALG:
        values[f"linalg.{fn}.calls"] = tracer.calls[f"linalg.{fn}"]
    values["linalg.self_s"] = sum(tracer.self_s[f"linalg.{fn}"] for fn in spans.LINALG)
    for check_id in bc.CHECK_IDS:
        values[f"verifier.{check_id}.s"] = medians["verify"][(check_id, 0)]
    values["cli.import_s"] = statistics.median(s for _, _, s in import_clock.drain())
    values["cli.main.self_s"] = tracer.self_s["cli.main"]
    for command in CLI_COMMANDS:
        values[f"cli.{command}.p50_us"] = medians["cli"][(command, 8)] * 1e6
    probes += [sum(probe.run_probe(IN_PROCESS_PARTS).values()) for _ in range(MACHINE_PROBES)]
    values["machine.probe_us"] = statistics.median(probes) * 1e6
    in_process = [name for name in NAMES if name != "cli"]
    values["trace.overhead_ratio"] = sum(traced_walls[n] for n in in_process) / sum(
        untraced[n]["wall_s"] for n in in_process
    )
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in per_layer_spec(bc.CHECK_IDS)},
    }
    details = {"seed": seed, "spans": tracer.spans, "wrong": tally.notes,
               "traced_wall_s": traced_walls, "untraced_wall_s": {n: untraced[n]["wall_s"] for n in NAMES}}
    return result, details


def _write(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
    else:
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.trace:
            result, details = trace_run(args.seed)
            _write(RESULTS / f"trace-seed{args.seed}.json.gz", details)
            print(json.dumps(result))
            return 0
        if args.workload != "all":
            result, details = measure(args.workload, args.seed, args.seconds)
            _write(RESULTS / f"{args.workload}-seed{args.seed}.json", {"result": result, **details})
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in NAMES:
            result, details = measure(name, args.seed, args.seconds)
            _write(RESULTS / f"{name}-seed{args.seed}.json", {"result": result, **details})
            print(json.dumps({"workload": name, **result}), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(combined))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
