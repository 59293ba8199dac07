"""Command-line front door: scalar calculator, idempotent decomposition,
linear-system solving, norm reports, Hahn-Banach extension, and the
verification suites.

Exit status: 0 on success (and when all verification checks pass), 1 on a
domain error (singular operator, null-cone input, ...) with a structured
JSON object on stderr, 2 on usage errors, 3 on an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._arrays import fmt17
from .errors import BicomplexError, CheckCrashed
from .functionals import TFunctional, hahn_banach_extend
from .operators import TMatrix
from .scalar import DEFAULT_SINGULAR_TOL, Bicomplex
from .tmodule import Submodule, TVector
from .verifier import CHECK_IDS, all_passed, default_config, run_all, run_check


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
    group.add_argument("--check", choices=list(CHECK_IDS), help="run a single check")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--tol", type=_positive_float, default=None)
    ver.add_argument("--out", type=Path, default=None)

    return parser


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _read_vector(path: Path) -> TVector:
    if path.suffix.lower() == ".csv":
        return TVector.from_csv(path.read_text(encoding="utf-8"))
    return TVector.from_json(_read_json(path))


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
    T = TMatrix.from_json(_read_json(args.matrix))
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
    T = TMatrix.from_json(_read_json(args.matrix))
    _emit(json.dumps(T.norms().to_json()), args.out)
    return 0


def _cmd_extend(args) -> int:
    Y = Submodule.from_json(_read_json(args.submodule))
    ystar = TFunctional.from_json(_read_json(args.functional))
    report = hahn_banach_extend(ystar, Y)
    _emit(json.dumps(report.to_json()), args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        reports = run_all(seed=args.seed, trials=args.trials, tol=args.tol)
    else:
        reports = [
            run_check(default_config(args.check, seed=args.seed, trials=args.trials, tol=args.tol))
        ]
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


if __name__ == "__main__":
    sys.exit(main())
