"""The names the benchmark under perfbench/ calls and traces must exist.

The benchmark's files are read as text, not imported, so a deleted or
renamed library name fails here instead of in a traced benchmark run.
"""

import ast
import importlib
import re
from pathlib import Path

from gmforms import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_targets():
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no TARGETS tuple")


def workload_calls():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    return sorted(set(re.findall(r"\bgmforms\.(\w+)\.(\w+)", text)))


def test_pinned_names_resolve():
    traced, called = traced_targets(), workload_calls()
    assert ("cli", "main") in traced and ("cli", "main") in called
    missing = [f"gmforms.{module}.{name}" for module, name in traced + called
               if not callable(getattr(importlib.import_module(f"gmforms.{module}"), name, None))]
    assert missing == []


def test_audit_argv_parses():
    args = cli.build_parser().parse_args(
        ["verify", "--pmax", "1200", "--d", "7,31", "--generalized", "--out", "F"])
    assert (args.command, args.pmax, args.d, args.generalized, args.out) == (
        "verify", 1200, "7,31", True, "F")
