"""Report serialization: JSON envelopes and aligned-text tables.

The fields holding a norm or a coordinate (value, g_value, m_value, n, x,
y) are serialized as decimal strings, since they exceed 64-bit and
float-safe ranges; field names are snake_case.  The generated_at timestamp
is the only field excluded from determinism comparisons.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Any

from . import __version__

#: Record fields written as decimal strings, at any nesting depth.
DECIMAL_FIELDS = frozenset({"value", "g_value", "m_value", "n", "x", "y"})


def _decimal_strings(fields: list[tuple[str, Any]]) -> dict[str, Any]:
    return {k: str(v) if k in DECIMAL_FIELDS else v for k, v in fields}


def to_dict(record: Any) -> dict[str, Any]:
    """A record dataclass as a JSON-ready dict, in field order."""
    return asdict(record, dict_factory=_decimal_strings)


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
