"""Outside tracer for gmforms: one span per call into a layer's public function.

The tracer wraps module attributes, not source.  Every gmforms module that
binds one of the traced functions (``from .arith import sqrt_mod_prime`` in
``represent``, for example) gets the wrapper in place of the original, so
callers that look the name up at call time are traced.  Spans live in flat
arrays while the repetition runs and are written to one file at its end;
the per-layer metrics are derived from that file alone.

A span is (name, start, end, parent, note).  ``parent`` is the index of the
innermost open span when the call started, or -1.  ``note`` is a number
taken from the result: 1/0 for a boolean-like result, the hit count of a
scan, the byte count of a JSON report.  The run id is written once in the
file header and applies to every span in it.  The stack of open spans
assumes one calling thread, which holds for every workload: none of them
passes ``--workers`` or sets a ``workers`` config key.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time


def _truthy(result) -> int:
    return 1 if result else 0


def _count(result) -> int:
    return len(result)


def _utf8_bytes(result) -> int:
    return len(result.encode("utf-8"))


# (span name, module, function, note taken from the result).  Both audit
# functions share one span name: the metrics treat them as one layer call.
TARGETS = (
    ("arith.is_probable_prime", "arith", "is_probable_prime", _truthy),
    ("arith.sqrt_mod_prime", "arith", "sqrt_mod_prime", None),
    ("gm.scan_exponents", "gm", "scan_exponents", _count),
    ("gm.gm_norm", "gm", "gm_norm", None),
    ("represent.cornacchia", "represent", "cornacchia", _truthy),
    ("classgroup.group_structure", "classgroup", "group_structure", None),
    ("classgroup.enumerate_reduced", "classgroup", "enumerate_reduced", None),
    ("classgroup.compose", "classgroup", "compose", None),
    ("classgroup.reduce", "classgroup", "reduce", None),
    ("verify.run_suite", "verify", "run_suite", None),
    ("verify.audit", "verify", "audit_theorem_d7", None),
    ("verify.audit", "verify", "audit_generalized", None),
    ("verify.mersenne_crosscheck", "verify", "mersenne_crosscheck", None),
    ("report.emit_json", "report", "emit_json", _utf8_bytes),
    ("cli.main", "cli", "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))

#: The per-layer metrics reported, in BENCHMARK.json's order.
PER_LAYER = (
    "arith.is_probable_prime.calls",
    "arith.is_probable_prime.busy_s",
    "arith.is_probable_prime.prime_ratio",
    "arith.sqrt_mod_prime.calls",
    "arith.sqrt_mod_prime.busy_s",
    "gm.scan_exponents.calls",
    "gm.scan_exponents.busy_s",
    "gm.scan_exponents.hit_ratio",
    "gm.gm_norm.calls",
    "gm.gm_norm.self_s",
    "represent.cornacchia.calls",
    "represent.cornacchia.busy_s",
    "represent.cornacchia.self_s",
    "represent.cornacchia.solved_ratio",
    "classgroup.group_structure.calls",
    "classgroup.group_structure.busy_s",
    "classgroup.enumerate_reduced.busy_s",
    "classgroup.compose.calls",
    "classgroup.compose.busy_s",
    "classgroup.reduce.calls",
    "verify.run_suite.busy_s",
    "verify.run_suite.self_s",
    "verify.audit.calls",
    "verify.audit.busy_s",
    "verify.mersenne_crosscheck.calls",
    "verify.mersenne_crosscheck.busy_s",
    "report.emit_json.busy_s",
    "report.emit_json.bytes",
    "cli.main.busy_s",
    "cli.main.self_s",
)


def unit(metric: str) -> str:
    quantity = metric.rsplit(".", 1)[1]
    return {"calls": "count", "bytes": "bytes"}.get(
        quantity, "s" if quantity.endswith("_s") else "ratio")


_COLUMNS = (("start", "d"), ("end", "d"), ("name", "B"), ("parent", "q"), ("note", "q"))


class Tracer:
    """Span recorder for one repetition in one process."""

    def __init__(self) -> None:
        self.columns = {key: array.array(code) for key, code in _COLUMNS}
        self._open = [-1]

    def _wrap(self, name_id: int, fn, note):
        start, end = self.columns["start"], self.columns["end"]
        names, parents, notes = self.columns["name"], self.columns["parent"], self.columns["note"]
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(open_spans[-1])
            notes.append(0)
            end.append(0.0)
            open_spans.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_spans.pop()
            if note is not None:
                notes[index] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Replace every gmforms binding of each target with its wrapper."""
        modules = [module for key, module in sys.modules.items()
                   if key == "gmforms" or key.startswith("gmforms.")]
        for name, module_name, attr, note in TARGETS:
            original = getattr(sys.modules["gmforms." + module_name], attr)
            wrapper = self._wrap(SPAN_NAMES.index(name), original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path: str, run_id: str) -> None:
        header = {"run_id": run_id, "names": SPAN_NAMES,
                  "count": len(self.columns["name"])}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for key, _ in _COLUMNS:
                self.columns[key].tofile(handle)


def read(path: str) -> tuple[dict, dict]:
    """Header and columns of a span file written by ``Tracer.write``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for key, code in _COLUMNS:
            columns[key] = array.array(code)
            columns[key].fromfile(handle, header["count"])
    return header, columns


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, derived from its spans.

    ``calls`` counts every span of the name.  ``busy_s`` is the time at least
    one span of the name was open (nested spans of the same name count
    once).  ``self_s`` is the spans' durations minus the durations of their
    direct children.
    """
    header, col = read(path)
    names = header["names"]
    n_names = len(names)
    start, end, name, parent, note = (col[key] for key, _ in _COLUMNS)
    calls = [0] * n_names
    busy = [0.0] * n_names
    self_time = [0.0] * n_names
    notes = [0] * n_names
    scan_id = names.index("gm.scan_exponents")
    norm_id = names.index("gm.gm_norm")
    norms_in_scan = 0
    # Bit k of ancestors[i] is set when a span named names[k] encloses span i.
    ancestors = array.array("q")
    for i in range(header["count"]):
        k, up = name[i], parent[i]
        duration = end[i] - start[i]
        mask = ancestors[up] | (1 << name[up]) if up >= 0 else 0
        ancestors.append(mask)
        calls[k] += 1
        notes[k] += note[i]
        self_time[k] += duration
        if not mask >> k & 1:
            busy[k] += duration
        if up >= 0:
            self_time[name[up]] -= duration
            if k == norm_id and name[up] == scan_id:
                norms_in_scan += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for k, span in enumerate(names):
        out[f"{span}.calls"] = calls[k]
        out[f"{span}.busy_s"] = busy[k]
        out[f"{span}.self_s"] = self_time[k]
        out[f"{span}.notes"] = notes[k]
    out["gm.scan_exponents.hit_ratio"] = ratio(out["gm.scan_exponents.notes"], norms_in_scan)
    out["arith.is_probable_prime.prime_ratio"] = ratio(
        out["arith.is_probable_prime.notes"], out["arith.is_probable_prime.calls"])
    out["represent.cornacchia.solved_ratio"] = ratio(
        out["represent.cornacchia.notes"], out["represent.cornacchia.calls"])
    out["report.emit_json.bytes"] = out["report.emit_json.notes"]
    return {key: out[key] for key in PER_LAYER}
