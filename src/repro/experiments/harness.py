"""One runner for every figure, and the paper's statements as data.

A figure is a :class:`Sweep` plus the paper's statements about its
result, each a :class:`Claim`.  :func:`run_sweep` owns load, calibrate, execute, agree
(:func:`rows_match`) and record; claims are judged after a run — by the
tests, the benchmarks and ``repro experiment`` — never inside it.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.cloud.context import CloudContext, QueryExecution
from repro.common.units import GB
from repro.engine.catalog import Catalog

#: Paper dataset sizes used for paper-equivalent calibration.
PAPER_TPCH_BYTES = 10 * GB          # "the same 10 GB TPC-H dataset"
PAPER_LINEITEM_BYTES = 7.25 * GB    # Section VII-C
PAPER_GROUPBY_BYTES = 10 * GB       # Section VI-C "10 GB table with 20 columns"


@dataclass(frozen=True)
class Claim:
    """A statement about ``figure``: ``observe`` reads what it is about off a
    result, ``holds`` judges that."""

    figure: str
    text: str
    observe: Callable[["ExperimentResult"], Any]
    holds: Callable[[Any], bool] = bool

    def failure(self, result: "ExperimentResult") -> str | None:
        observed = self.observe(result)
        if not self.holds(observed):
            return f"{self.figure}: {self.text} — observed {observed!r}"
        return None


@dataclass
class ExperimentResult:
    """Rows + metadata for one reproduced figure/table."""

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    claims: Sequence[Claim] = ()

    def series(self, strategy: str) -> list[dict]:
        return [r for r in self.rows if r.get("strategy") == strategy]

    def column(self, strategy: str, key: str = "runtime_s") -> list:
        return [r[key] for r in self.series(strategy)]

    def failures(self) -> list[str]:
        return [line for claim in self.claims if (line := claim.failure(self))]

    def to_table(self) -> str:
        """Render rows as an aligned text table (benchmark harness output)."""
        if not self.rows:
            return f"== {self.experiment}: {self.title} ==\n(no rows)"
        keys = list(dict.fromkeys(k for row in self.rows for k in row))
        body = [[str(k) for k in keys]]
        body += [[_fmt(row.get(k, "")) for k in keys] for row in self.rows]
        widths = [max(len(r[i]) for r in body) for i in range(len(keys))]
        lines = [f"== {self.experiment}: {self.title} =="]
        lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in body]
        lines.insert(2, "  ".join("-" * w for w in widths))
        lines += [f"note: {key} = {value}" for key, value in self.notes.items()]
        return "\n".join(lines)


def _fmt(value) -> str:
    if not isinstance(value, float):
        return str(value)
    return "0" if value == 0 else f"{value:.2e}" if abs(value) < 0.01 else f"{value:.3f}"


def ascending(values: Sequence, reverse: bool = False) -> bool:
    return list(values) == sorted(values, reverse=reverse)


class Disagreement(AssertionError):
    """Two executions of one query returned different rows."""


def rows_match(got: Sequence[tuple], expected: Sequence[tuple]) -> bool:
    """The one row-equivalence rule: order-insensitive, numbers to relative
    1e-6 (plans sum floats in different orders), None equal only to None."""
    def canon(rows):
        return sorted(map(tuple, rows),
                      key=lambda r: [(v is None, 0 if v is None else v) for v in r])
    if len(got) != len(expected):
        return False
    for ra, rb in zip(canon(got), canon(expected)):
        if len(ra) != len(rb):
            return False
        for a, b in zip(ra, rb):
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                if abs(a - b) > 1e-6 * max(abs(a), abs(b), 1.0):
                    return False
            elif a != b:
                return False
    return True


def agree(rows: Sequence[tuple], expected: Sequence[tuple], where: str) -> None:
    """Raise :class:`Disagreement` unless ``rows`` match ``expected``."""
    if not rows_match(rows, expected):
        raise Disagreement(f"{where}: rows disagree ({len(rows)} vs {len(expected)})")


def execution_row(sweep_name: str, sweep_value, strategy: str,
                  execution: QueryExecution) -> dict:
    """Standard row shape shared by all experiments."""
    return {sweep_name: sweep_value, "strategy": strategy,
            "runtime_s": round(execution.runtime_seconds, 4), **cost_columns(execution),
            "bytes_returned": execution.bytes_returned + execution.bytes_transferred,
            "requests": execution.num_requests}


def cost_columns(execution: QueryExecution) -> dict:
    """``cost_total`` and its four parts, rounded to a micro-dollar."""
    cost = execution.cost
    return {f"cost_{part}": round(getattr(cost, part), 6)
            for part in ("total", "compute", "request", "scan", "transfer")}


def calibrate_tables(ctx: CloudContext, catalog, table_names: Sequence[str],
                     paper_bytes: float) -> float:
    """Calibrate ``ctx`` so the named tables behave like ``paper_bytes``."""
    total = sum(catalog.get(t).total_bytes for t in table_names)
    return ctx.calibrate_to_paper_scale(total, paper_bytes)


def paper_scale(ctx, catalog, table_names: Sequence[str], paper_bytes: float) -> dict:
    scale = calibrate_tables(ctx, catalog, table_names, paper_bytes)
    return {"paper_scale": f"{scale:.2e}"}


def winners_by_sweep(rows: Sequence[dict], sweep_key: str,
                     metric: str = "cost_total") -> dict:
    """Measured winner per swept point: ``sweep value -> strategy``."""
    best: dict = {}
    for row in rows:
        if row[sweep_key] not in best or row[metric] < best[row[sweep_key]][metric]:
            best[row[sweep_key]] = row
    return {value: row["strategy"] for value, row in best.items()}


def cost_against(r: ExperimentResult, axis: str, subject: str, exclude) -> list:
    """Per point: ``subject``'s cost over the best and the worst of the rest."""
    out = []
    for value in dict.fromkeys(row[axis] for row in r.rows):
        point = [row for row in r.rows if row[axis] == value]
        cost = next(row["cost_total"] for row in point if row["strategy"] == subject)
        rest = [row["cost_total"] for row in point if row["strategy"] not in exclude]
        out.append((cost / min(rest), cost / max(rest)))
    return out


@dataclass(frozen=True)
class Sweep:
    """A figure, declared.  Each of ``datasets`` gets a fresh session that
    ``load(ctx, catalog, dataset)`` fills and calibrates, returning notes
    (a key already in ``notes`` keeps its place); ``cases(ctx, catalog,
    dataset)`` then lazily yields ``(value, query, {name: strategy})``,
    a strategy being ``(ctx, catalog, query) -> execution``.  Rows are
    ``execution_row(axis, …) | extras(execution)`` unless ``record(value,
    executions)`` builds them; ``compare`` names the columns to agree on."""

    experiment: str
    title: str
    axis: str
    load: Callable[[CloudContext, Catalog, Any], dict]
    cases: Callable[[CloudContext, Catalog, Any], Iterable[tuple]]
    notes: dict = field(default_factory=dict)
    datasets: Sequence = (None,)
    extras: Callable[[QueryExecution], dict] = lambda execution: {}
    record: Callable[[Any, dict], list[dict]] | None = None
    compare: Sequence[str] | None = None
    claims: Sequence[Claim] = ()

    def open(self, notes: dict):
        """Yield ``(ctx, catalog, value, query, strategies)`` per case."""
        for dataset in self.datasets:
            ctx, catalog = CloudContext(), Catalog()
            notes.update(self.load(ctx, catalog, dataset))
            for case in self.cases(ctx, catalog, dataset):
                yield ctx, catalog, *case

    def compared(self, execution: QueryExecution) -> list:
        if self.compare is None:
            return execution.rows
        at = [execution.column_names.index(c) for c in self.compare]
        return [tuple(row[i] for i in at) for row in execution.rows]


def run_sweep(sweep: Sweep) -> ExperimentResult:
    """Load, calibrate, run every case's strategies, check that every
    execution of one query agrees, and record the rows."""
    result = ExperimentResult(sweep.experiment, sweep.title, notes=dict(sweep.notes),
                              claims=sweep.claims)
    first: dict[int, tuple] = {}  # id(query) -> (query, its first rows)
    for ctx, catalog, value, query, strategies in sweep.open(result.notes):
        runs = {}
        for name, strategy in strategies.items():
            runs[name] = strategy(ctx, catalog, query)
            rows = sweep.compared(runs[name])
            expected = first.setdefault(id(query), (query, rows))[1]
            agree(rows, expected, f"{sweep.experiment} {sweep.axis}={value} {name}")
        result.rows += sweep.record(value, runs) if sweep.record else [
            execution_row(sweep.axis, value, name, ex) | sweep.extras(ex)
            for name, ex in runs.items()]
    return result


def runner(declare: Callable[..., Sweep]) -> Callable[..., ExperimentResult]:
    """``run(**params)`` for a module whose ``sweep(**params)`` declares it."""
    return lambda **params: run_sweep(declare(**params))
