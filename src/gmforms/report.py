"""Report serialization: JSON envelopes and aligned-text tables.

Big integers are serialized as decimal strings (they exceed 64-bit and
float-safe ranges); field names are snake_case.  The generated_at timestamp
is the only field excluded from determinism comparisons.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Any

from . import __version__
from .classgroup import ClassGroupSummary, QuadForm
from .gm import GmNorm
from .represent import Representation
from .verify import VerificationRecord


def representation_to_dict(rep: Representation) -> dict[str, Any]:
    return {"n": str(rep.n), "d": rep.d, "x": str(rep.x), "y": str(rep.y)}


def gm_norm_to_dict(norm: GmNorm) -> dict[str, Any]:
    return {
        "p": norm.p,
        "epsilon": norm.epsilon,
        "value": str(norm.value),
        "primality": norm.primality,
    }


def verification_record_to_dict(record: VerificationRecord) -> dict[str, Any]:
    rep = record.representation
    return {
        "p": record.p,
        "d": record.d,
        "g_value": str(record.g_value),
        "hypothesis_flags": asdict(record.hypothesis_flags),
        "representation": representation_to_dict(rep) if rep else None,
        "x_mod8": record.x_mod8,
        "y_mod8": record.y_mod8,
        "artin_trivial": record.artin_trivial,
        "verdict": record.verdict,
    }


def class_group_to_dict(summary: ClassGroupSummary,
                        forms: list[QuadForm]) -> dict[str, Any]:
    return {
        "discriminant": summary.discriminant,
        "h": summary.h,
        "cyclic_orders": list(summary.cyclic_orders),
        "has_order_4_element": summary.has_order_4_element,
        "forms": [[f.a, f.b, f.c] for f in forms],
    }


def make_envelope(command: str, parameters: dict[str, Any],
                  records: list[dict[str, Any]],
                  summary: dict[str, Any]) -> dict[str, Any]:
    return {
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
        "records": records,
        "summary": summary,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def emit_json(envelope: dict[str, Any]) -> str:
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _cell(value: Any) -> str:
    if isinstance(value, dict):
        if all(isinstance(v, bool) for v in value.values()):
            return ",".join(k for k, v in value.items() if v) or "-"
        return ",".join(f"{k}={v}" for k, v in value.items())
    if value is None:
        return "-"
    return str(value)


def emit_table(envelope: dict[str, Any]) -> str:
    """Human-readable aligned table of the records plus a summary footer."""
    records = envelope["records"]
    lines = [f"# {envelope['command']} (gmforms {envelope['tool_version']})"]
    if records:
        columns = list(records[0].keys())
        rows = [[_cell(rec.get(col)) for col in columns] for rec in records]
        widths = [max(len(col), *(len(row[i]) for row in rows))
                  for i, col in enumerate(columns)]
        lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    else:
        lines.append("(no records)")
    summary = "  ".join(f"{k}={v}" for k, v in sorted(envelope["summary"].items()))
    lines.append(f"summary: {summary}")
    return "\n".join(lines) + "\n"
