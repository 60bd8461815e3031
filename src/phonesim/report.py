"""Report rendering: machine-readable JSON, an aligned text table, and an
optional per-cell CSV for external plotting."""

from __future__ import annotations

import csv
import io
import json

from .metrics import TERNARY_LABELS

# One entry per report column: (table header, row key, stderr key, digits).
# The table shows the value ± its stderr; the CSV has the row key, then the
# stderr key. The outcome counts follow, one per TERNARY_LABELS entry.
COLUMNS = (
    ("runs", "runs", None, 0),
    ("success", "success_rate", "success_rate_stderr", 3),
    ("succ@k", "success_at_k", None, 3),
    ("succ^k", "success_pow_k", None, 3),
    ("prop_rate", "proposal_rate", "proposal_rate_stderr", 3),
    ("accept_rate", "acceptance_rate", "acceptance_rate_stderr", 3),
    ("reads(total)", "read_actions_mean", "read_actions_stderr", 1),
    ("reads(observe)", "read_actions_observe_mean", None, 1),
)
CSV_KEYS = [key for _, value, stderr, _ in COLUMNS for key in (value, stderr) if key]


def _fmt(value, stderr=None, digits=3) -> str:
    if value is None:
        return "undef"
    text = f"{value:.{digits}f}"
    if stderr is not None:
        text += f" ± {stderr:.{digits}f}"
    return text


def render_table(report: dict) -> str:
    grouping = report["grouping"]
    headers = list(grouping) + [c[0] for c in COLUMNS] + ["accept/reject/gather/trunc"]
    rows = []
    for cell in report["cells"]:
        out = cell["outcomes"]["ternary"]
        rows.append([str(cell["cell"].get(g)) for g in grouping]
                    + [_fmt(cell[key], cell[stderr] if stderr else None, digits)
                       for _, key, stderr, digits in COLUMNS]
                    + ["/".join(str(out[k]) for k in TERNARY_LABELS)])
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_csv(report: dict) -> str:
    grouping = report["grouping"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(grouping + CSV_KEYS + list(TERNARY_LABELS))
    for cell in report["cells"]:
        out = cell["outcomes"]["ternary"]
        writer.writerow([cell["cell"].get(g) for g in grouping] + [cell[k] for k in CSV_KEYS]
                        + [out[k] for k in TERNARY_LABELS])
    return buf.getvalue()
