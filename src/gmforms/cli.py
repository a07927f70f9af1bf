"""Command-line frontend.

Exit codes: 0 success/confirmed, 1 legitimate negative (no representation,
or with --strict any no-representation verdict), 2 usage error or unwritable
report, 3 refuted theorem, 4 internal error (a number taken to be prime failed
a prime-only identity, or the arithmetic met a case it rules out).
The one global option, --max-exponent, caps --pmax and --p of every command
that builds G_p; library calls have no cap. Nothing is read from a file or
the environment. Progress and errors go to stderr, best-effort: no exit code
depends on them. The data stream stays machine-clean.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Any, Optional

from .arith import NotPrimeError
from .classgroup import group_structure
from .gm import gm_norm, predict_congruences, scan_exponents
from .represent import BRUTEFORCE_CAP, cornacchia, represent_bruteforce
from .verify import check_d, run_suite
from . import report

#: Desk-scale cap on the exponent of every G_p the CLI builds (--max-exponent).
DEFAULT_MAX_EXPONENT = 2000


def _write_report(envelope: dict[str, Any], emit: str, out: Optional[str]) -> None:
    """Write the report to stdout, or atomically to out.

    The file is written beside out and renamed over it, so an interrupted or
    failed write leaves the previous report (or none), never a truncated one.
    Any failed write, a closed (None) stdout included, is a ValueError, so
    exit code 1 never means a lost report.
    """
    text = report.emit_json(envelope) if emit == "json" else report.emit_table(envelope)
    if not out:
        try:
            if sys.stdout is None:
                raise OSError("stdout is closed")
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise ValueError(f"cannot write report to stdout: {exc.strerror or exc}") from exc
        return
    tmp = f"{out}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except OSError as exc:
        raise ValueError(f"cannot write report to {out}: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _note(line: str) -> None:
    """Write one line to stderr if it can be written, and drop it if not."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr, flush=True)


def _parse_d_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --d list: {raw!r}") from exc
    if not values:
        raise ValueError("empty --d list")
    return list(dict.fromkeys(values))


# Each cmd_* returns the report's parameters, records and summary, and the
# exit code; main checks the exponent cap before it and writes the report.
Outcome = tuple[dict[str, Any], list[dict[str, Any]], dict[str, Any], int]


def cmd_scan(args: argparse.Namespace) -> Outcome:
    hits = scan_exponents(args.pmin, args.pmax)
    return ({"pmin": args.pmin, "pmax": args.pmax},
            [report.to_dict(norm) for norm in hits], {"count": len(hits)}, 0)


def cmd_represent(args: argparse.Namespace) -> Outcome:
    norm = gm_norm(args.p)
    # The one place that picks a solver: Cornacchia on gm_norm's proof, else
    # the brute-force oracle up to its cap, or for a bad d, which it rejects.
    # A composite G_p above the cap is left unsolved, a negative like any other.
    if norm.is_prime:
        rep = cornacchia(norm.value, args.d)
    elif norm.value <= BRUTEFORCE_CAP or args.d < 1:
        rep = represent_bruteforce(norm.value, args.d)
    else:
        rep = None
        _note(f"gmforms: G_{args.p} is composite and above the brute-force cap "
              f"{BRUTEFORCE_CAP}: no representation searched")
    record: dict[str, Any] = {
        "p": args.p,
        "d": args.d,
        "g_value": str(norm.value),
        "primality": norm.primality,
        "representation": report.to_dict(rep) if rep else None,
        "x_mod8": rep.x % 8 if rep else None,
        "y_mod8": rep.y % 8 if rep else None,
    }
    return ({"p": args.p, "d": args.d}, [record], {"solved": 1 if rep else 0},
            0 if rep else 1)


def cmd_verify(args: argparse.Namespace) -> Outcome:
    if args.pmax < 7:
        raise ValueError("need pmax >= 7")
    d_list = _parse_d_list(args.d)
    if not args.generalized and d_list != [7]:
        raise ValueError("without --generalized only --d 7 is supported")
    for d in d_list:
        check_d(d)
    _note(f"auditing exponents up to {args.pmax} for d in {d_list}")
    records, summary = run_suite(args.pmax, d_list)
    parameters = {
        "pmax": args.pmax,
        "d": d_list,
        "generalized": args.generalized,
        "strict": args.strict,
    }
    if summary["refuted"] > 0:
        code = 3
    else:
        # The audit gives no-representation only to records meeting every hypothesis.
        code = 1 if args.strict and summary["no-representation"] else 0
    return parameters, [report.to_dict(r) for r in records], summary, code


def cmd_classgroup(args: argparse.Namespace) -> Outcome:
    summary = group_structure(args.discriminant)
    return ({"discriminant": args.discriminant}, [report.to_dict(summary)],
            {"h": summary.h}, 0)


def cmd_congruences(args: argparse.Namespace) -> Outcome:
    records = [{
        "p": args.p,
        "modulus": modulus,
        "predicted": predicted,
        "actual": actual,
        "applicable": applicable,
        "match": actual == predicted if applicable else None,
    } for modulus, (predicted, actual, applicable) in predict_congruences(args.p).items()]
    summary = {"applicable": sum(1 for r in records if r["applicable"]),
               "matched": sum(1 for r in records if r["match"])}
    return {"p": args.p}, records, summary, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmforms",
        description="Gaussian Mersenne norms, x^2 + d*y^2 representations, "
                    "and class-group audits",
    )
    parser.add_argument("--max-exponent", type=int, default=DEFAULT_MAX_EXPONENT,
                        metavar="N", help="cap on --pmax and --p of every command "
                        f"that builds G_p (default {DEFAULT_MAX_EXPONENT})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--emit", choices=("json", "table"), default="json")
        p.add_argument("--out", help="write the report to this file")

    p_scan = sub.add_parser("scan", help="scan exponents for Gaussian Mersenne primes")
    p_scan.add_argument("--pmin", type=int, default=3)
    p_scan.add_argument("--pmax", type=int, required=True)
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_rep = sub.add_parser("represent", help="solve G_p = x^2 + d*y^2")
    p_rep.add_argument("--p", type=int, required=True)
    p_rep.add_argument("--d", type=int, required=True)
    common(p_rep)
    p_rep.set_defaults(func=cmd_represent)

    p_verify = sub.add_parser("verify", help="audit the mod-8 theorems")
    p_verify.add_argument("--pmax", type=int, required=True)
    p_verify.add_argument("--d", default="7", help="comma-separated d list")
    p_verify.add_argument("--generalized", action="store_true")
    p_verify.add_argument("--strict", action="store_true")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_cg = sub.add_parser("classgroup", help="reduced forms and group structure")
    p_cg.add_argument("discriminant", type=int)
    common(p_cg)
    p_cg.set_defaults(func=cmd_classgroup)

    p_cong = sub.add_parser("congruences", help="actual vs predicted residues")
    p_cong.add_argument("--p", type=int, required=True)
    common(p_cong)
    p_cong.set_defaults(func=cmd_congruences)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The desk-scale cap, checked before any command builds G_p.
        for option in ("pmax", "p"):
            p = getattr(args, option, None)
            if p is not None and p > args.max_exponent:
                raise ValueError(f"--{option} must be <= {args.max_exponent} "
                                 f"(--max-exponent), got {p}")
        parameters, records, summary, code = args.func(args)
        envelope = report.make_envelope(args.command, parameters, records, summary)
        _write_report(envelope, args.emit, args.out)
        return code
    except (NotPrimeError, ArithmeticError) as exc:
        _note(f"gmforms: internal error: {exc}")
        return 4
    except ValueError as exc:
        _note(f"gmforms: error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
