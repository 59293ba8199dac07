"""Command-line front door: scalar calculator, idempotent decomposition,
linear-system solving, norm reports, Hahn-Banach extension, and the
verification suites.

Exit status: 0 on success (and when all verification checks pass), 1 on a
domain error (singular operator, null-cone input, ...) with a structured
JSON object on stderr, 2 on usage errors, 3 on an internal error.

Each command imports only the modules it runs on: `calc` and `decompose`
start without numpy.

`main(argv)` is the command line as a function; `run()` is the process
entry of `python -m bicomplex` and the `bicomplex` script.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from ._floats import fmt17
from .errors import MALFORMED, BicomplexError, CheckCrashed, UnknownCheckId
from .scalar import DEFAULT_SINGULAR_TOL, Bicomplex


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicomplex",
        description="Bicomplex scalar calculator, linear algebra, and property verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    calc = sub.add_parser("calc", help="evaluate add, mul, or inverse on scalar literals 'a b c d'")
    calc.add_argument("lhs", help="scalar literal 'a b c d'")
    calc.add_argument("op", choices=["add", "mul", "inverse"])
    calc.add_argument("rhs", nargs="?", help="second scalar literal (not for inverse)")
    calc.add_argument(
        "--tol", type=_positive_float, default=DEFAULT_SINGULAR_TOL, help="singularity tolerance for inverse"
    )

    dec = sub.add_parser("decompose", help="print hat components and the singularity report")
    dec.add_argument("scalar", help="scalar literal 'a b c d'")
    dec.add_argument("--tol", type=_positive_float, default=DEFAULT_SINGULAR_TOL)

    solve = sub.add_parser("solve", help="solve T x = b from a matrix file and a vector file")
    solve.add_argument("matrix", type=Path)
    solve.add_argument("vector", type=Path)
    solve.add_argument("--tol", type=_positive_float, default=DEFAULT_SINGULAR_TOL)
    solve.add_argument("--format", choices=["json", "csv"], default="json")
    solve.add_argument("--out", type=Path, default=None)

    norm = sub.add_parser("norm", help="print the operator norm report for a matrix file")
    norm.add_argument("matrix", type=Path)
    norm.add_argument("--out", type=Path, default=None)

    ext = sub.add_parser("extend", help="extend a functional from a submodule, preserving norms")
    ext.add_argument("submodule", type=Path, help="JSON {n, generators: [...]}")
    ext.add_argument("functional", type=Path, help="JSON {n, coeffs: [...]}")
    ext.add_argument("--out", type=Path, default=None)

    ver = sub.add_parser("verify", help="run property checks; one JSON report per line")
    group = ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--check", metavar="ID", help="run a single check")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--out", type=Path, default=None)

    return parser


def _load(path: Path, parse, decode=json.loads):
    """parse(decode(text)) of the UTF-8 text of file `path`.  An error of
    the text's encoding, syntax or structure is raised as one ValueError that
    names the file; an OSError, which names it already, passes through."""
    try:
        return parse(decode(path.read_text(encoding="utf-8")))
    except MALFORMED as exc:
        raise ValueError(f"malformed input file {path}: {type(exc).__name__}: {exc}") from exc


def _read_vector(path: Path):
    from .tmodule import TVector

    if path.suffix.lower() == ".csv":
        return _load(path, TVector.from_csv, decode=str)
    return _load(path, TVector.from_json)


def _emit(text: str, out: Path | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def _cmd_calc(args) -> int:
    lhs = Bicomplex.from_text(args.lhs)
    if args.op == "inverse":
        if args.rhs is not None:
            raise UsageError("inverse takes a single scalar")
        result = lhs.inverse(args.tol)
    else:
        if args.rhs is None:
            raise UsageError(f"{args.op} needs two scalars")
        rhs = Bicomplex.from_text(args.rhs)
        result = lhs + rhs if args.op == "add" else lhs * rhs
    sys.stdout.write(result.to_text() + "\n")
    return 0


def _cmd_decompose(args) -> int:
    w = Bicomplex.from_text(args.scalar)
    form = w.to_idempotent()
    report = w.classify(args.tol)
    payload = {
        "h1": [form.h1.real, form.h1.imag],
        "h2": [form.h2.real, form.h2.imag],
        "is_singular": report.is_singular,
        "vanishing_components": list(report.vanishing_components),
        "magnitudes": list(report.magnitudes),
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def _cmd_solve(args) -> int:
    from .operators import TMatrix

    T = _load(args.matrix, TMatrix.from_json)
    b = _read_vector(args.vector)
    x = T.solve(b, args.tol)
    residual = (T.apply(x) - b).norm()
    scale = b.norm()
    relative = residual / scale if scale > 0.0 else residual
    if args.format == "csv":
        text = x.to_csv() + "\n# residual," + fmt17(relative)
    else:
        payload = {"solution": x.to_json(), "residual": relative, "condition": list(T.condition())}
        text = json.dumps(payload)
    _emit(text, args.out)
    return 0


def _cmd_norm(args) -> int:
    from .operators import TMatrix

    T = _load(args.matrix, TMatrix.from_json)
    _emit(json.dumps(T.norms().to_json()), args.out)
    return 0


def _cmd_extend(args) -> int:
    from .functionals import TFunctional, hahn_banach_extend
    from .tmodule import Submodule

    Y = _load(args.submodule, Submodule.from_json)
    ystar = _load(args.functional, TFunctional.from_json)
    report = hahn_banach_extend(ystar, Y)
    _emit(json.dumps(report.to_json()), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verifier import CHECK_IDS, all_passed, default_config, run_all, run_check

    if args.all:
        reports = run_all(seed=args.seed, trials=args.trials)
    else:
        try:
            config = default_config(args.check, seed=args.seed, trials=args.trials)
        except UnknownCheckId:
            ids = ", ".join(CHECK_IDS)
            raise UsageError(f"argument --check: unknown check id {args.check!r} (choose from {ids})") from None
        reports = [run_check(config)]
    lines = [json.dumps(r.to_json()) for r in reports]
    _emit("\n".join(lines), args.out)
    return 0 if all_passed(reports) else 1


class UsageError(Exception):
    pass


_COMMANDS = {
    "calc": _cmd_calc,
    "decompose": _cmd_decompose,
    "solve": _cmd_solve,
    "norm": _cmd_norm,
    "extend": _cmd_extend,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        parser.error(str(exc))  # exits with status 2
        return 2
    except CheckCrashed as exc:  # a fault of the program, not of the command line
        payload = {"error": "InternalError", "check_id": exc.check_id, "message": str(exc)}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 3
    except BicomplexError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("components", "distances", "smallest", "condition"):
            if hasattr(exc, attr):
                payload[attr] = list(getattr(exc, attr))
        if hasattr(exc, "report"):
            report = exc.report
            payload["vanishing_components"] = list(report.vanishing_components)
            payload["magnitudes"] = list(report.magnitudes)
        sys.stderr.write(json.dumps(payload) + "\n")
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


def run() -> int:
    """Run `main()` as a whole short-lived process, which makes no reference
    cycles it needs collected (tests/test_process_entry.py keeps that true).
    The cyclic collector is off from before any command imports its layers
    or numpy, and every object is frozen before the interpreter tears down,
    so neither the import passes nor the full collections at exit walk the
    heap.  Call it only at process entry: a host process that calls `main()`
    keeps its collector."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
