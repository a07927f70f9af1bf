"""Command-line frontend.

Exit codes: 0 success/confirmed, 1 legitimate negative (no representation,
or strict-mode unexpected failures), 2 usage error, 3 refuted theorem.
Progress goes to stderr; the data stream stays machine-clean.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Any, Optional

from .arith import is_probable_prime
from .classgroup import enumerate_reduced, group_structure
from .gm import DEFAULT_MAX_EXPONENT, gm_norm, predict_congruences, scan_exponents
from .represent import BRUTEFORCE_CAP, cornacchia, represent_bruteforce
from .verify import VERDICT_NO_REPRESENTATION, VERDICT_REFUTED, run_suite
from . import report

CONFIG_ENV_VAR = "GMFORMS_CONFIG"
DEFAULT_CONFIG_PATH = "gmforms.conf"


class UsageError(Exception):
    pass


def _load_config(path: Optional[str]) -> dict[str, int]:
    """Read key = value lines; known keys: max_exponent, workers."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        path = DEFAULT_CONFIG_PATH if os.path.exists(DEFAULT_CONFIG_PATH) else None
    if path is None:
        return {}
    config: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line: {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in ("max_exponent", "workers"):
                    raise UsageError(f"unknown config key: {key!r}")
                config[key] = int(value.strip())
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"bad config value in {path}: {exc}") from exc
    return config


def _write_report(envelope: dict[str, Any], emit: str, out: Optional[str]) -> None:
    """Write the report to stdout, or atomically to out.

    The file is written beside out and renamed over it, so an interrupted or
    failed write leaves the previous report (or none), never a truncated one.
    """
    text = report.emit_json(envelope) if emit == "json" else report.emit_table(envelope)
    if not out:
        sys.stdout.write(text)
        return
    tmp = f"{out}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, out)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _parse_d_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --d list: {raw!r}") from exc
    if not values:
        raise UsageError("empty --d list")
    return values


def cmd_scan(args: argparse.Namespace, config: dict[str, int]) -> int:
    cap = config.get("max_exponent", DEFAULT_MAX_EXPONENT)
    if not 3 <= args.pmin <= args.pmax <= cap:
        raise UsageError(f"need 3 <= pmin <= pmax <= {cap}")
    hits = scan_exponents(args.pmin, args.pmax)
    envelope = report.make_envelope(
        "scan",
        {"pmin": args.pmin, "pmax": args.pmax},
        [report.gm_norm_to_dict(norm) for norm in hits],
        {"count": len(hits)},
    )
    _write_report(envelope, args.emit, args.out)
    return 0


def cmd_represent(args: argparse.Namespace, config: dict[str, int]) -> int:
    if args.d < 1:
        raise UsageError("--d must be >= 1")
    if args.p < 3 or not is_probable_prime(args.p):
        raise UsageError(f"--p must be an odd prime, got {args.p}")
    norm = gm_norm(args.p)
    if norm.primality in ("proven-small", "probable-prime") and norm.value > args.d:
        rep = cornacchia(norm.value, args.d)
    elif norm.value <= BRUTEFORCE_CAP:
        rep = represent_bruteforce(norm.value, args.d)
    else:
        raise UsageError(f"G_{args.p} is composite and exceeds the brute-force cap")
    record: dict[str, Any] = {
        "p": args.p,
        "d": args.d,
        "g_value": str(norm.value),
        "primality": norm.primality,
        "representation": report.representation_to_dict(rep) if rep else None,
        "x_mod8": rep.x % 8 if rep else None,
        "y_mod8": rep.y % 8 if rep else None,
    }
    envelope = report.make_envelope(
        "represent",
        {"p": args.p, "d": args.d},
        [record],
        {"solved": 1 if rep else 0},
    )
    _write_report(envelope, args.emit, args.out)
    return 0 if rep else 1


def cmd_verify(args: argparse.Namespace, config: dict[str, int]) -> int:
    cap = config.get("max_exponent", DEFAULT_MAX_EXPONENT)
    if not 7 <= args.pmax <= cap:
        raise UsageError(f"need 7 <= pmax <= {cap}")
    d_list = _parse_d_list(args.d)
    if args.generalized:
        for d in d_list:
            if d % 24 != 7:
                raise UsageError(f"--generalized requires d = 7 (mod 24), got {d}")
    elif d_list != [7]:
        raise UsageError("without --generalized only --d 7 is supported")
    workers = args.workers or config.get("workers", 1)
    print(f"auditing exponents up to {args.pmax} for d in {d_list}", file=sys.stderr)
    records, summary = run_suite(args.pmax, d_list, workers=workers)
    envelope = report.make_envelope(
        "verify",
        {
            "pmax": args.pmax,
            "d": d_list,
            "generalized": args.generalized,
            "strict": args.strict,
        },
        [report.verification_record_to_dict(r) for r in records],
        summary,
    )
    _write_report(envelope, args.emit, args.out)
    if summary["refuted"] > 0:
        return 3
    if args.strict:
        unexpected = [
            r for r in records
            if r.verdict == VERDICT_NO_REPRESENTATION and r.hypothesis_flags.all_pass()
        ]
        if unexpected:
            return 1
    return 0


def cmd_classgroup(args: argparse.Namespace, config: dict[str, int]) -> int:
    d = args.discriminant
    if d >= 0 or d % 4 not in (0, 1):
        raise UsageError("discriminant must be negative and = 0 or 1 (mod 4)")
    summary = group_structure(d)
    forms = enumerate_reduced(d)
    envelope = report.make_envelope(
        "classgroup",
        {"discriminant": d},
        [report.class_group_to_dict(summary, forms)],
        {"h": summary.h},
    )
    _write_report(envelope, args.emit, args.out)
    return 0


def cmd_congruences(args: argparse.Namespace, config: dict[str, int]) -> int:
    if args.p < 3 or not is_probable_prime(args.p):
        raise UsageError(f"--p must be an odd prime, got {args.p}")
    prediction = predict_congruences(args.p)
    norm = gm_norm(args.p)
    records = []
    predicted = {
        "mod8": prediction.mod8,
        "mod16": prediction.mod16,
        "mod32": prediction.mod32,
        "mod7": prediction.mod7,
    }
    moduli = {"mod8": 8, "mod16": 16, "mod32": 32, "mod7": 7}
    matched = 0
    for key, modulus in moduli.items():
        actual = norm.value % modulus
        applicable = prediction.applicable[key]
        match = (actual == predicted[key]) if applicable else None
        if match:
            matched += 1
        records.append({
            "p": args.p,
            "modulus": modulus,
            "predicted": predicted[key],
            "actual": actual,
            "applicable": applicable,
            "match": match,
        })
    envelope = report.make_envelope(
        "congruences",
        {"p": args.p},
        records,
        {"applicable": sum(1 for r in records if r["applicable"]), "matched": matched},
    )
    _write_report(envelope, args.emit, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmforms",
        description="Gaussian Mersenne norms, x^2 + d*y^2 representations, "
                    "and class-group audits",
    )
    parser.add_argument("--config", help="path to key = value config file")
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
    p_verify.add_argument("--workers", type=int, default=0)
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
        config = _load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"gmforms: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"gmforms: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
