"""Self-test of the benchmark's output gate: a tampered output must count as
a failed operation, and an untampered one must not.

    python3 perfbench/selftest.py      # from the root of a checkout, ~15 s

Each case runs real operations of one workload through
``workloads.run_repetition``, the function every benchmark repetition uses,
with one gmforms function patched to corrupt what it returns or writes.
Exit code 0 when every case counts exactly the failures it should.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gmforms  # noqa: E402
import gmforms.cli  # noqa: E402

import workloads  # noqa: E402


@contextlib.contextmanager
def patched(module, attr: str, tamper):
    original = getattr(module, attr)
    setattr(module, attr, tamper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def drop_last_hit(scan):
    return lambda lo, hi: scan(lo, hi)[:-1]


def edit_report(edit):
    """emit_json that applies ``edit`` to the envelope before writing it."""
    def tamper(emit_json):
        def emit(envelope):
            edit(envelope)
            return emit_json(envelope)
        return emit
    return tamper


def flip_refuted_d7(envelope):
    record = next(r for r in envelope["records"] if r["p"] == 239 and r["d"] == 7)
    record["verdict"] = "confirmed"


def wrong_y(envelope):
    rep = next(r for r in envelope["records"] if r["representation"])["representation"]
    rep["y"] = str(int(rep["y"]) + 8)


def exit_zero(command):
    def run(args, config):
        command(args, config)
        return 0
    return run


def replace_result(**changes):
    def tamper(fn):
        return lambda *args: dataclasses.replace(fn(*args), **changes)
    return tamper


def shift_y(fn):
    def run(p):
        record = fn(p)
        return dataclasses.replace(record, y=record.y + 8)
    return run


def wrong_h(envelope):
    envelope["records"][0]["h"] += 1


SCAN = {"windows": [[3, 300], [301, 500]]}
AUDIT = workloads.make_inputs("audit", 0)
DEEP = {"p": 1367, "d": [], "mersenne": [607, 1279]}
CLASSGROUP = {"d": [4015, 4303]}

# (what is tampered, workload, inputs, patch or None, failed operations expected)
CASES = [
    ("untampered scan", "scan", SCAN, None, 0),
    ("scan misses a hit", "scan", SCAN, (gmforms.gm, "scan_exponents", drop_last_hit), 2),
    ("untampered audit", "audit", AUDIT, None, 0),
    ("audit verdict flipped", "audit", AUDIT,
     (gmforms.report, "emit_json", edit_report(flip_refuted_d7)), 1),
    ("audit wrong y", "audit", AUDIT, (gmforms.report, "emit_json", edit_report(wrong_y)), 1),
    ("audit exit code 0", "audit", AUDIT, (gmforms.cli, "cmd_verify", exit_zero), 1),
    ("untampered deep", "deep", DEEP, None, 0),
    ("deep verdict flipped", "deep", DEEP,
     (gmforms.verify, "audit_theorem_d7", replace_result(verdict="confirmed")), 1),
    ("deep Mersenne wrong y", "deep", DEEP, (gmforms.verify, "mersenne_crosscheck", shift_y), 2),
    ("untampered classgroup", "classgroup", CLASSGROUP, None, 0),
    ("classgroup wrong h", "classgroup", CLASSGROUP,
     (gmforms.report, "emit_json", edit_report(wrong_h)), 2),
]


def main() -> int:
    build = os.path.join(os.path.dirname(HERE), ".bench_build")
    os.makedirs(build, exist_ok=True)
    ok = True
    for label, workload, inputs, patch, want in CASES:
        with tempfile.TemporaryDirectory(dir=build) as outdir:
            with patched(*patch) if patch else contextlib.nullcontext():
                result = workloads.run_repetition(workload, inputs, outdir)
        # All cases share one process, unlike benchmark repetitions: the warm
        # order-4 cache changes timings here, never outputs.
        good = result["failed"] == want
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: failed_share "
              f"{result['failed']}/{result['attempted']}, expected {want}/{result['attempted']}")
        for problem in result["problems"][:3]:
            print(f"       {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
