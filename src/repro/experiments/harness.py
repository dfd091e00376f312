"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment returns an :class:`ExperimentResult`: a list of row
dicts (one per swept point x strategy) plus notes about calibration.
``to_table()`` renders the same rows/series the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.units import GB


#: Paper dataset sizes used for paper-equivalent calibration.
PAPER_TPCH_BYTES = 10 * GB          # "the same 10 GB TPC-H dataset"
PAPER_LINEITEM_BYTES = 7.25 * GB    # Section VII-C
PAPER_GROUPBY_BYTES = 10 * GB       # Section VI-C "10 GB table with 20 columns"


@dataclass
class ExperimentResult:
    """Rows + metadata for one reproduced figure/table."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def series(self, strategy: str) -> list[dict]:
        """The sweep for one strategy, in sweep order."""
        return [r for r in self.rows if r.get("strategy") == strategy]

    def column(self, strategy: str, key: str) -> list:
        return [r[key] for r in self.series(strategy)]

    def to_table(self) -> str:
        """Render rows as an aligned text table (benchmark harness output)."""
        if not self.rows:
            return f"== {self.experiment}: {self.title} ==\n(no rows)"
        keys = list(dict.fromkeys(k for row in self.rows for k in row))
        header = [str(k) for k in keys]
        body = [
            [_fmt(row.get(k, "")) for k in keys]
            for row in self.rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(keys))
        ]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        for key, value in self.notes.items():
            lines.append(f"note: {key} = {value}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}"
    return str(value)


def close_enough(a, b, rel: float = 1e-6) -> bool:
    """Relative float equality for cross-plan result checks.

    Different join orders sum floats in different sequences, so
    experiment harnesses compare aggregates up to a relative tolerance;
    ``None`` only equals ``None``.
    """
    if a is None or b is None:
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def execution_row(
    sweep_name: str, sweep_value, strategy: str, execution: QueryExecution
) -> dict:
    """Standard row shape shared by all experiments."""
    cost = execution.cost
    return {
        sweep_name: sweep_value,
        "strategy": strategy,
        "runtime_s": round(execution.runtime_seconds, 4),
        "cost_total": round(cost.total, 6),
        "cost_compute": round(cost.compute, 6),
        "cost_request": round(cost.request, 6),
        "cost_scan": round(cost.scan, 6),
        "cost_transfer": round(cost.transfer, 6),
        "bytes_returned": execution.bytes_returned + execution.bytes_transferred,
        "requests": execution.num_requests,
    }


def calibrate_tables(
    ctx: CloudContext, catalog, table_names: Sequence[str], paper_bytes: float
) -> float:
    """Calibrate ``ctx`` so the named tables behave like ``paper_bytes``."""
    total = sum(catalog.get(t).total_bytes for t in table_names)
    return ctx.calibrate_to_paper_scale(total, paper_bytes)


def winners_by_sweep(
    rows: Sequence[dict], sweep_key: str, metric: str = "cost_total"
) -> dict:
    """Measured winner per swept point: ``sweep value -> strategy``.

    Works over :func:`execution_row`-shaped rows; the optimizer
    experiments use it as the ground truth the chooser's picks are
    validated against.
    """
    best: dict = {}
    for row in rows:
        value = row[sweep_key]
        if value not in best or row[metric] < best[value][metric]:
            best[value] = row
    return {value: row["strategy"] for value, row in best.items()}
