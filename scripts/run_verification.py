#!/usr/bin/env python3
"""Run the full property-verification suite and summarize the outcome.

Writes one JSON report per line (stdout or --out) and a human summary to
stderr.  Exit status 0 iff every check passes, 1 if one fails, 2 on a bad
argument.

    python scripts/run_verification.py --seed 42
    python scripts/run_verification.py --trials 50 --out reports.jsonl
"""

import argparse
import json
import sys

from bicomplex import all_passed, run_all


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=int, default=None, help="override per-check defaults")
    parser.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    args = parser.parse_args()

    try:
        reports = run_all(seed=args.seed, trials=args.trials)
    except ValueError as exc:  # CheckConfig's own validation: a usage error
        parser.error(str(exc))
    lines = "\n".join(json.dumps({**r.to_json(), "elapsed": r.elapsed}) for r in reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(lines + "\n")
    else:
        print(lines)

    total = sum(r.elapsed for r in reports)
    for r in reports:
        flag = "pass" if r.passed else "FAIL"
        print(
            f"{flag}  {r.check_id:24s} worst={r.worst_value: .3e}  bound={r.bound:.3e}"
            f"  trials={r.trials_run}  {r.elapsed:.2f}s",
            file=sys.stderr,
        )
    print(f"{'all checks passed' if all_passed(reports) else 'FAILURES PRESENT'} in {total:.2f}s", file=sys.stderr)
    return 0 if all_passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
