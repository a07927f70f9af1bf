"""gmforms benchmark: one seeded workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload scan|audit|deep|classgroup \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark imports gmforms from the
checkout's ``src/`` and writes only under ``.bench_build/`` there.  Every
repetition runs in a fresh interpreter (see child.py), one after another,
until ``--seconds`` have passed; between them, extra interpreters that only
import gmforms sample ``setup_s``.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics, medians over the repetitions.  With
``--trace 1`` the repetitions alternate untraced and traced, and it reports
the per-layer metrics (medians over traced repetitions) and the tracing
overhead.  The lines before it print the same figures for a reader, with
failed_share.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Fresh interpreters that only import gmforms, started after each
#: repetition so that setup_s samples the whole run, not one moment of it.
SETUP_SAMPLES_PER_REPETITION = 2
#: No child may run past this many seconds after the benchmark started.
TIME_LIMIT_S = 170


def spawn(job: dict, started: float) -> dict:
    """Run child.py on one job in a fresh interpreter; return its result."""
    env = {key: value for key, value in os.environ.items() if key != "GMFORMS_CONFIG"}
    payload = json.dumps(job)
    timeout = TIME_LIMIT_S - (time.monotonic() - started)
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), repr(time.monotonic()), payload]
    # cwd is the empty job directory, so no ./gmforms.conf is picked up.
    proc = subprocess.run(cmd, cwd=job["outdir"], env=env, capture_output=True,
                          text=True, timeout=max(timeout, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gmforms", "__init__.py")):
        print(f"perfbench: no gmforms sources under {ROOT}/src", file=sys.stderr)
        return 2

    started = time.monotonic()
    inputs = workloads.make_inputs(args.workload, args.seed)
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    try:
        jobs = itertools.count()

        def job(mode: str, traced: bool = False) -> dict:
            index = next(jobs)
            outdir = os.path.join(workdir, f"{mode}-{index}")
            os.mkdir(outdir)
            return {"mode": mode, "workload": args.workload, "inputs": inputs,
                    "trace": traced, "outdir": outdir,
                    "run_id": f"{args.workload}-seed{args.seed}-{index}"}

        spawn(job("setup"), started)  # untimed: writes the bytecode cache
        deadline = time.monotonic() + args.seconds
        plain, traced, setup = [], [], []
        while not (time.monotonic() >= deadline and plain and (traced or not args.trace)):
            trace_this = bool(args.trace) and len(plain) > len(traced)
            result = spawn(job("run", trace_this), started)
            (traced if trace_this else plain).append(result)
            setup.append(result["setup_s"])
            setup += [spawn(job("setup"), started)["setup_s"]
                      for _ in range(SETUP_SAMPLES_PER_REPETITION)]
        runs = plain + traced
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for problem in sorted({p for r in runs for p in r["problems"]})[:20]:
            print(f"FAILED CHECK: {problem}", file=sys.stderr)

        wall_s = statistics.median(r["wall_s"] for r in plain)
        if args.trace:
            layers = [spans.layer_metrics(r["spans"]) for r in traced]
            metrics = {name: metric(statistics.median(layer[name] for layer in layers),
                                    spans.unit(name)) for name in spans.PER_LAYER}
            overhead = statistics.median(r["wall_s"] for r in traced) - wall_s
            metrics["trace.overhead_s"] = metric(overhead, "s")
        else:
            metrics = {
                "wall_s": metric(wall_s, "s"),
                "setup_s": metric(statistics.median(setup), "s"),
                "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {len(setup)} setup samples")
    walls = sorted(r["wall_s"] for r in plain)
    print(f"  untraced wall_s per repetition: {', '.join(f'{w:.4f}' for w in walls)}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':42s} {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
