"""Result tables for the claim suite and ``repro compare``.

An :class:`ExperimentResult` is one row (a parameter point and its
measurements); :func:`format_table` renders rows the way EXPERIMENTS.md,
``tests/claims/`` and ``repro compare`` present them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """One row of an experiment: a parameter point and its measurements."""

    params: dict[str, Any] = field(default_factory=dict)
    measures: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict[str, Any]:
        """Flat dict view (params first, then measures)."""
        return {**self.params, **self.measures}


def format_table(
    rows: list[ExperimentResult], title: str = "", precision: int = 3
) -> str:
    """Render results as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(rows[0].as_row().keys())
    table: list[list[str]] = [headers]
    for row in rows:
        flat = row.as_row()
        table.append([_fmt(flat.get(h), precision) for h in headers])
    widths = [
        max(len(line[col]) for line in table) for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(table[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in table[1:]:
        lines.append("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)


def _fmt(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)
