"""Compare the CLI's output in this checkout with another checkout's.

    python3 tools/cli_diff.py OTHER_CHECKOUT

Runs each command line of COMMANDS, in --emit json and in --emit table, as
``python -m gmforms.cli`` with PYTHONPATH set to each checkout's src/ and an
empty temporary directory as the working directory.  The exit code, stderr
and stdout must match byte for byte, except for the value of generated_at in
JSON.  Prints each command that differs and exits 1 if any do, else 0.
Give OTHER_CHECKOUT as, for example, ``git worktree add ../parent HEAD~1``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    # README's CLI examples.
    "scan --pmin 3 --pmax 120",
    "represent --p 47 --d 7",
    "verify --pmax 600 --d 7",
    "verify --pmax 600 --d 7,31,55 --generalized",
    "classgroup -56",
    "congruences --p 47",
    "--max-exponent 4000 represent --p 3041 --d 7",
    # Class groups: h = 1 at both fundamental discriminants, then growing.
    "classgroup -3",
    "classgroup -4",
    "classgroup -440",
    "classgroup -79928",
    # The benchmark's audit workload.
    "verify --pmax 1200 --d 7,31,55,79,103,127 --generalized",
    # Each branch of cmd_represent: a prime G_p equal to d, a composite G_p
    # the brute-force solver solves, and one above its cap (exit 1).
    "represent --p 3 --d 13",
    "represent --p 13 --d 13",
    "represent --p 41 --d 7",
    # Usage errors: a bad discriminant, an exponent over the cap, and an
    # exponent at psi_13, past the exact primality test.
    "classgroup -6",
    "scan --pmax 2001",
    "--max-exponent 3317044064679887385961981 congruences --p 3317044064679887385961981",
)

GENERATED_AT = re.compile(r'"generated_at": "[^"]*"')


def run(checkout: Path, args: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "gmforms.cli", *args], cwd=cwd,
                              env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr, GENERATED_AT.sub('"generated_at": ""', proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "gmforms").is_dir():
        print("usage: python3 tools/cli_diff.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    differ = 0
    for line in COMMANDS:
        for emit in ("json", "table"):
            args = [*line.split(), "--emit", emit]
            if run(ROOT, args) != run(other, args):
                differ += 1
                print(f"differs: gmforms {' '.join(args)}")
    total = 2 * len(COMMANDS)
    print(f"cli_diff: {differ} of {total} command lines differ from {other}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
