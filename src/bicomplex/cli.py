"""Command-line front door: scalar calculator, idempotent decomposition,
linear-system solving, norm reports, Hahn-Banach extension, and the
verification suites.

Exit status: 0 on success (and when all verification checks pass), 1 on a
domain error (singular operator, null-cone input, ...) with a structured
JSON object on stderr, 2 on usage errors, 3 on an internal error.  A
result that holds a NaN or an infinity, which neither JSON nor the CSV
output can hold, is refused as a malformed input is, with exit status 2;
only `verify` prints a NaN worst value, which fails its check.  An error
object on stderr writes a NaN or an infinity as null.

Each command imports only the modules it runs on: `calc` and `decompose`
start without numpy.

`main(argv)` is the command line as a function; `run()` is the process
entry of `python -m bicomplex` and the `bicomplex` script.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

from ._floats import fmt17
from .errors import MALFORMED, BicomplexError, CheckCrashed, UnknownCheckId
from .scalar import Bicomplex


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

    dec = sub.add_parser("decompose", help="print hat components and the singularity report")
    dec.add_argument("scalar", help="scalar literal 'a b c d'")

    solve = sub.add_parser("solve", help="solve T x = b from a matrix file and a vector file")
    solve.add_argument("matrix", type=Path)
    solve.add_argument("vector", type=Path)
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


_NOT_FINITE = "the result holds a NaN or an infinity, which the output cannot hold"


def _json(payload) -> str:
    """payload as JSON text, refusing a NaN or an infinity as a ValueError:
    json.dumps would print them as NaN or Infinity, which JSON does not have."""
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError:
        raise ValueError(_NOT_FINITE) from None


def _error(payload: dict) -> None:
    """Write an error object as one line of JSON on stderr, each NaN or
    infinity in its lists of numbers as null: JSON has neither."""
    def finite(x):
        return None if isinstance(x, float) and not math.isfinite(x) else x

    payload = {key: list(map(finite, value)) if isinstance(value, list) else value for key, value in payload.items()}
    sys.stderr.write(json.dumps(payload, allow_nan=False) + "\n")


def _csv(x, residual: float) -> str:
    """The solution x's rows, then the residual, as CSV text, refusing a
    non-finite value as _json does."""
    if not all(map(math.isfinite, [*x.coeffs.flat, residual])):
        raise ValueError(_NOT_FINITE)
    return x.to_csv() + "\n# residual," + fmt17(residual)


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
        result = lhs.inverse()
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
    report = w.classify()
    payload = {
        "h1": [form.h1.real, form.h1.imag],
        "h2": [form.h2.real, form.h2.imag],
        "is_singular": report.is_singular,
        "vanishing_components": list(report.vanishing_components),
        "magnitudes": list(report.magnitudes),
    }
    sys.stdout.write(_json(payload) + "\n")
    return 0


def _cmd_solve(args) -> int:
    from .operators import TMatrix

    T = _load(args.matrix, TMatrix.from_json)
    b = _read_vector(args.vector)
    x = T.solve(b)
    residual = (T.apply(x) - b).norm()
    scale = b.norm()
    relative = residual / scale if scale > 0.0 else residual
    if args.format == "csv":
        text = _csv(x, relative)
    else:
        text = _json({"solution": x.to_json(), "residual": relative, "condition": list(T.condition())})
    _emit(text, args.out)
    return 0


def _cmd_norm(args) -> int:
    from .operators import TMatrix

    T = _load(args.matrix, TMatrix.from_json)
    _emit(_json(T.norms().to_json()), args.out)
    return 0


def _cmd_extend(args) -> int:
    from .functionals import TFunctional, hahn_banach_extend
    from .tmodule import Submodule

    Y = _load(args.submodule, Submodule.from_json)
    ystar = _load(args.functional, TFunctional.from_json)
    report = hahn_banach_extend(ystar, Y)
    _emit(_json(report.to_json()), args.out)
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
        _error({"error": "InternalError", "check_id": exc.check_id, "message": str(exc)})
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
        _error(payload)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _error({"error": type(exc).__name__, "message": str(exc)})
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
