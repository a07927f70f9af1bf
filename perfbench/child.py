"""One benchmark repetition in a fresh interpreter; started by run.py.

    python3 -I perfbench/child.py SPAWNED_AT JOB_JSON

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` runs from the
fresh interpreter to ``import gmforms.cli`` done, which imports every
gmforms module.  JOB_JSON holds ``mode``
("setup" or "run"), ``workload``, ``inputs``, ``trace``, ``outdir`` and
``run_id``.  The result is one JSON line on stdout.

Every repetition gets its own process because ``verify._has_order4`` is an
``lru_cache``: a warm second run would skip class-group work every CLI user
pays.
"""

import os
import sys
import time


def main() -> int:
    spawned_at = float(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    import gmforms
    import gmforms.cli  # the console entry point; imports report as well

    imported_at = time.monotonic()
    import json

    if not os.path.abspath(gmforms.__file__).startswith(src + os.sep):
        print(f"gmforms came from {gmforms.__file__}, not {src}", file=sys.stderr)
        return 1
    job = json.loads(sys.argv[2])
    result = {"setup_s": imported_at - spawned_at}
    # Imported in both modes so that the untimed warm-up child writes their
    # bytecode; compiling them in a repetition would inflate its peak RSS.
    sys.path.insert(0, here)
    import spans
    import workloads

    if job["mode"] == "run":
        tracer = None
        if job["trace"]:
            tracer = spans.Tracer()
            tracer.install()
        result.update(workloads.run_repetition(job["workload"], job["inputs"], job["outdir"]))
        if tracer is not None:
            result["spans"] = os.path.join(job["outdir"], "spans.bin")
            tracer.write(result["spans"], job["run_id"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
