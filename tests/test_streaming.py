"""Tests for the streaming RecordBatch pipeline and partition scans.

Covers the PR-1 refactor end to end:

* ScanRange boundary semantics (range ending on a record boundary,
  range swallowing the header, range past EOF);
* LIMIT early-termination accounting (fewer rows parsed, identical
  bytes billed);
* lazy batch iterators agreeing with a naive row-at-a-time decode;
* the batch operators agreeing with the row compiler and naive Python
  references, and charging the same CPU, at any batch boundaries;
* pushed-scan column names over empty partitions;
* partition scans in partition order, one statement per scan, and no
  thread started by a query;
* thread-safety of the metrics collector.
"""

from __future__ import annotations

import threading

import pytest

from repro.cloud.context import CloudContext
from repro.cloud.metrics import MetricsCollector, RequestKind, RequestRecord
from repro.cloud.perf import SERVER_CPU_PER_ROW
from repro.common.errors import (
    ExpressionLimitExceededError,
    SQLSyntaxError,
    UnsupportedFeatureError,
)
from repro.engine.batch import Batch
from repro.engine.catalog import Catalog, load_table
from repro.engine.operators.base import BatchCounter, CpuTally
from repro.engine.operators.filter import filter_batches
from repro.engine.operators.groupby import GroupBy, group_by_batches
from repro.engine.operators.hashjoin import hash_join_batches
from repro.engine.operators.limit import limit_batches
from repro.engine.operators.project import project_batches, projected_names
from repro.engine.operators.sort import sort_batches
from repro.engine.operators.topk import top_k_batches
from repro.experiments.tpch_suite import QUERY_DIR
from repro.expr.compiler import compile_expr, compile_predicate
from repro.planner import physical
from repro.planner.nodes import ScanNode
from repro.planner.planner import plan_and_execute
from repro.queries.tpch_queries import TPCH_QUERIES
from repro.s3select import engine as select_engine
from repro.s3select.engine import PreparedSelect, ScanRange, execute_select
from repro.sqlparser.parser import parse, parse_expression
from repro.storage.csvcodec import (
    chunk_rows,
    encode_table,
    iter_decode_column_batches,
)
from repro.storage.object_store import StoredObject
from repro.storage.parquet import ParquetFile, write_parquet
from repro.storage.schema import ColumnDef, TableSchema
from repro.strategies.scans import (
    iter_scan_batches,
    scan_partitions,
    select_partials,
)

from helpers import decode_rows, materialize

SCHEMA = TableSchema.of("k:int", "v:float")
SPEC = ["k:int", "v:float"]


def _csv_object(rows, header=False):
    data, _ = encode_table(rows, header=list(SCHEMA.names) if header else None)
    return StoredObject(
        data, {"format": "csv", "schema": SPEC, "header": header}
    )


ROWS = [(i, float(i) * 1.5) for i in range(20)]


# ----------------------------------------------------------------------
# ScanRange edges
# ----------------------------------------------------------------------

class TestScanRangeEdges:
    def test_range_ending_exactly_on_record_boundary_keeps_record(self):
        """End lands on a record's final content byte, delimiter just
        outside: the record is complete and must not be dropped."""
        obj = _csv_object(ROWS)
        lines = obj.data.split(b"\n")
        # End of the third record's content (newline is at index end).
        end = len(lines[0]) + len(lines[1]) + len(lines[2]) + 2
        assert obj.data[end : end + 1] == b"\n"
        result = execute_select(
            obj, "SELECT k FROM S3Object", scan_range=ScanRange(0, end)
        )
        assert [r[0] for r in result.rows] == [0, 1, 2]

    def test_range_ending_after_newline_keeps_record(self):
        obj = _csv_object(ROWS)
        first = obj.data.index(b"\n") + 1
        result = execute_select(
            obj, "SELECT k FROM S3Object", scan_range=ScanRange(0, first)
        )
        assert [r[0] for r in result.rows] == [0]

    def test_range_cutting_mid_record_drops_partial(self):
        obj = _csv_object(ROWS)
        first = obj.data.index(b"\n") + 1
        # Stop two bytes into the second record: genuinely partial.
        result = execute_select(
            obj, "SELECT k FROM S3Object", scan_range=ScanRange(0, first + 2)
        )
        assert [r[0] for r in result.rows] == [0]
        assert result.bytes_scanned == first + 2

    def test_range_swallowing_header_skips_it(self):
        obj = _csv_object(ROWS, header=True)
        result = execute_select(
            obj, "SELECT k FROM S3Object",
            scan_range=ScanRange(0, len(obj.data) // 2),
        )
        assert result.rows
        assert result.rows[0] == (0,)  # header row not parsed as data

    def test_range_past_eof_clamps_billing(self):
        obj = _csv_object(ROWS)
        result = execute_select(
            obj, "SELECT k FROM S3Object",
            scan_range=ScanRange(0, len(obj.data) + 10_000),
        )
        assert [r[0] for r in result.rows] == [r[0] for r in ROWS]
        assert result.bytes_scanned == len(obj.data)

    def test_range_ending_on_a_newline_inside_quotes_drops_the_cut_record(self):
        """A newline inside a quoted field is content, not a delimiter:
        the window's quote parity says the last record is cut."""
        rows = [("a", "x"), ("b\nc", "y"), ("d", "z")]
        data, _ = encode_table(rows)
        obj = StoredObject(
            data, {"format": "csv", "schema": ["s:str", "t:str"], "header": False}
        )
        end = data.index(b"b\n") + 2  # just past the quoted newline
        assert data[:end].endswith(b"\n") and data[:end].count(b'"') % 2 == 1
        sql = "SELECT s, t FROM S3Object"
        cut = execute_select(obj, sql, scan_range=ScanRange(0, end))
        assert cut.rows == [("a", "x")]
        assert cut.rows_scanned == 1 and cut.bytes_scanned == end
        # Past the closing quote the record is whole again.
        whole = execute_select(
            obj, sql, scan_range=ScanRange(0, data.index(b',y') + 3)
        )
        assert whole.rows == rows[:2]
        assert execute_select(obj, sql, scan_range=ScanRange(0, len(data))).rows == rows


# ----------------------------------------------------------------------
# LIMIT early termination
# ----------------------------------------------------------------------

class TestLimitEarlyTermination:
    def test_limit_stops_parsing_but_bills_full_object(self):
        rows = [(i, float(i)) for i in range(50_000)]
        obj = _csv_object(rows)
        limited = execute_select(obj, "SELECT k FROM S3Object LIMIT 3")
        assert limited.rows == [(0,), (1,), (2,)]
        assert limited.rows_scanned < len(rows)
        # Billing is for the scanned range, not the parsed prefix.
        assert limited.bytes_scanned == len(obj.data)

    def test_limit_larger_than_table_scans_everything(self):
        obj = _csv_object(ROWS)
        result = execute_select(obj, "SELECT k FROM S3Object LIMIT 10000")
        assert result.rows_scanned == len(ROWS)
        assert len(result.rows) == len(ROWS)

    def test_full_scan_accounting_unchanged(self):
        obj = _csv_object(ROWS)
        result = execute_select(obj, "SELECT k FROM S3Object WHERE k >= 5")
        assert result.rows_scanned == len(ROWS)
        assert result.term_evals == len(ROWS)
        assert result.bytes_scanned == len(obj.data)


# ----------------------------------------------------------------------
# batch iterators vs materializing codecs
# ----------------------------------------------------------------------

class TestBatchIterators:
    def test_csv_batches_concatenate_to_the_row_decode(self):
        data, _ = encode_table(ROWS)
        whole = decode_rows(data, SCHEMA)
        assert whole == ROWS
        for batch_size in (1, 3, 7, 1000):
            batches = list(
                iter_decode_column_batches(data, SCHEMA, batch_size, has_header=False)
            )
            assert all(type(b) is Batch for b in batches)
            assert materialize(batches) == whole
            assert all(len(b) <= batch_size for b in batches)

    def test_parquet_batches_concatenate_to_the_rows_written(self):
        rows = [(i, float(i)) for i in range(100)]
        pq = ParquetFile(write_parquet(rows, SCHEMA, row_group_rows=13))
        assert materialize(pq.iter_batches()) == rows
        for batch_size in (4, 13, 50, 500):
            batches = list(pq.iter_batches(batch_size=batch_size))
            assert all(type(b) is Batch for b in batches)
            assert materialize(batches) == rows
            assert [len(b) for b in batches] == [
                len(c) for c in chunk_rows(rows, batch_size)
            ]

    def test_parquet_batches_project_columns(self):
        rows = [(i, float(i)) for i in range(30)]
        pq = ParquetFile(write_parquet(rows, SCHEMA, row_group_rows=7))
        assert materialize(pq.iter_batches(names=["v"])) == [
            (float(i),) for i in range(30)
        ]

    def test_empty_input_yields_no_batches(self):
        data, _ = encode_table([])
        assert list(iter_decode_column_batches(data, SCHEMA, has_header=False)) == []

    def test_column_decoder_types_no_batch_past_the_one_it_stops_in(
        self, monkeypatch
    ):
        """Typing is lazy per batch and per kept column: nothing at the
        call, one column chunk per pulled batch — also under a LIMIT
        that cuts a baseline GET scan short."""
        typed: list[tuple[str, int]] = []
        real = ColumnDef.parse_column

        def parse_column(self, texts):
            typed.append((self.name, len(texts)))
            return real(self, texts)

        monkeypatch.setattr(ColumnDef, "parse_column", parse_column)
        data, _ = encode_table(ROWS)
        stream = iter_decode_column_batches(
            data, SCHEMA, 6, has_header=False, columns=["v"]
        )
        assert typed == []
        assert list(next(stream)) == [(r[1],) for r in ROWS[:6]]
        assert typed == [("v", 6)]
        next(stream)
        assert typed == [("v", 6), ("v", 6)]

        del typed[:]
        ctx, catalog = CloudContext(batch_size=4), Catalog()
        load_table(ctx, catalog, "t", ROWS, SCHEMA, bucket="b", partitions=2)
        limited = plan_and_execute(
            ctx, catalog, "SELECT k FROM t LIMIT 3", mode="baseline"
        )
        assert limited.rows == [(0,), (1,), (2,)]
        assert typed == [("k", 4)]  # one batch of one column, of 20 x 2
        assert limited.num_requests == 2  # both partitions still billed

    def test_get_scan_decodes_lazily_into_the_same_batches(self):
        """`iter_scan_batches(sql=None)`: GET'd partitions as batches."""
        for fmt in ("csv", "parquet"):
            ctx = CloudContext(batch_size=4)
            info = load_table(
                ctx, Catalog(), "t", ROWS, SCHEMA, bucket="b", partitions=2,
                data_format=fmt,
            )
            batches = list(iter_scan_batches(ctx, info))
            assert all(type(b) is Batch and len(b) <= 4 for b in batches)
            assert materialize(batches) == ROWS


# ----------------------------------------------------------------------
# batch operators vs the row compiler and naive references
# ----------------------------------------------------------------------

NAMES = ["k", "v"]
NAME_INDEX = {"k": 0, "v": 1}
OP_ROWS = [(i % 7, float(i)) for i in range(100)]


def _stream(rows=OP_ROWS, batch_size=9):
    return [Batch.from_rows(chunk) for chunk in chunk_rows(rows, batch_size)]


#: Batch boundaries must never show in rows or modeled CPU: many small
#: batches, and all rows as one.
BATCH_SIZES = [9, len(OP_ROWS)]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
class TestStreamingOperators:
    def test_filter_matches_row_predicate(self, batch_size):
        pred = parse_expression("k >= 3")
        keep = compile_predicate(pred, NAME_INDEX)
        tally = CpuTally()
        got = materialize(
            filter_batches(_stream(batch_size=batch_size), NAMES, pred, tally)
        )
        assert got == [row for row in OP_ROWS if keep(row)]
        assert tally.seconds == pytest.approx(
            len(OP_ROWS) * SERVER_CPU_PER_ROW["filter"]
        )

    def test_project_matches_row_expressions(self, batch_size):
        items = parse("SELECT v, k * 2 FROM S3Object").select_items
        fns = [compile_expr(item.expr, NAME_INDEX) for item in items]
        tally = CpuTally()
        got = materialize(
            project_batches(_stream(batch_size=batch_size), NAMES, items, tally)
        )
        assert got == [tuple(fn(row) for fn in fns) for row in OP_ROWS]
        assert projected_names(NAMES, items) == ["v", "_2"]
        assert tally.seconds == pytest.approx(
            len(OP_ROWS) * 2 * SERVER_CPU_PER_ROW["filter"]
        )

    def test_group_by_matches_naive_fold(self, batch_size):
        q = parse("SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k")
        tally = CpuTally()
        got = group_by_batches(
            _stream(batch_size=batch_size), NAMES, q.group_by, q.select_items, tally
        )
        want: dict = {}
        for k, v in OP_ROWS:  # first-appearance order, sequential float sums
            entry = want.setdefault(k, [0, 0])
            entry[0] += v
            entry[1] += 1
        assert list(got) == [(k, s, n) for k, (s, n) in want.items()]
        assert GroupBy(NAMES, q.group_by, q.select_items).names == ["k", "s", "n"]
        assert tally.seconds == (
            len(OP_ROWS) * 2 * SERVER_CPU_PER_ROW["aggregate"]
        )

    def test_sort_and_topk_match_sorted(self, batch_size):
        order = parse("SELECT k FROM t ORDER BY v DESC").order_by
        want = sorted(OP_ROWS, key=lambda row: -row[1])
        whole = [Batch.from_rows(OP_ROWS)]

        def run(op, stream, *args):
            tally = CpuTally()
            return list(op(stream, NAMES, order, *args, tally)), tally.seconds

        got, cpu = run(sort_batches, _stream(batch_size=batch_size))
        assert got == want
        assert cpu == run(sort_batches, whole)[1] > 0
        for k in (0, 5, 100, 1000):
            got, cpu = run(top_k_batches, _stream(batch_size=batch_size), k)
            assert got == want[:k]
            assert cpu == run(top_k_batches, whole, k)[1] > 0

    def test_sort_and_topk_ties_keep_arrival_order(self, batch_size):
        rows = [(i, float(i % 2)) for i in range(40)]
        order = parse("SELECT k FROM t ORDER BY v").order_by
        want = sorted(rows, key=lambda row: row[1])  # stable
        stream = _stream(rows, min(batch_size, 6))
        assert list(sort_batches(stream, NAMES, order)) == want
        assert list(top_k_batches(stream, NAMES, order, 10)) == want[:10]

    def test_hash_join_matches_nested_loop(self, batch_size):
        build = [(i, f"n{i}") for i in range(10)]
        probe = [(i % 13, float(i)) for i in range(60)]
        tally = CpuTally()
        names, joined = hash_join_batches(
            build, ["id", "name"], _stream(probe, batch_size), ["fk", "x"],
            "id", "fk", tally,
        )
        got = materialize(joined)
        assert got == [b + p for p in probe for b in build if b[0] == p[0]]
        assert names == ["id", "name", "fk", "x"]
        assert tally.seconds == pytest.approx(
            len(build) * SERVER_CPU_PER_ROW["hash_build"]
            + len(probe) * SERVER_CPU_PER_ROW["hash_probe"]
        )


class TestLimitAndCounting:
    def test_limit_batches_stops_pulling_upstream(self):
        pulled = []

        def source():
            for i, batch in enumerate(_stream(batch_size=10)):
                pulled.append(i)
                yield batch

        out = materialize(limit_batches(source(), 25))
        assert out == OP_ROWS[:25]
        assert pulled == [0, 1, 2]  # 3 batches of 10, not all 10 batches

    def test_batch_counter_counts_consumed_rows(self):
        counter = BatchCounter(_stream(batch_size=8))
        materialize(limit_batches(counter, 20))
        assert counter.rows == 24  # three 8-row batches pulled


# ----------------------------------------------------------------------
# pushed scans over empty partitions
# ----------------------------------------------------------------------

def _pushed_scan(ctx, info, columns):
    scan = ScanNode(info, columns, None, pushdown=True)
    return physical.execute_plan(
        ctx, physical.PhysicalPlan(scan, "optimized", "scan")
    )


class TestPartitionScanNames:
    def _ctx_with_table(self, rows, partitions):
        ctx = CloudContext()
        catalog = Catalog()
        info = load_table(
            ctx, catalog, "t", rows, SCHEMA, bucket="b", partitions=partitions
        )
        return ctx, info

    def test_names_survive_empty_final_partition(self):
        # 3 rows over 3 partitions, then an empty fourth partition object.
        ctx, info = self._ctx_with_table([(1, 1.0), (2, 2.0), (3, 3.0)], 3)
        ctx.store.put_object(
            "b", "t/part-9999.csv", b"",
            metadata={"format": "csv", "schema": SPEC, "header": False},
        )
        info.keys.append("t/part-9999.csv")
        out = _pushed_scan(ctx, info, ["k", "v"])
        assert out.rows == [(1, 1.0), (2, 2.0), (3, 3.0)]
        assert out.column_names == ["k", "v"]
        assert out.num_requests == 4

    def test_names_present_for_empty_table(self):
        ctx, info = self._ctx_with_table([], 4)
        out = _pushed_scan(ctx, info, ["k"])
        assert out.rows == []
        assert out.column_names == ["k"]

    def test_aggregate_partials_one_per_partition(self):
        ctx, info = self._ctx_with_table([(i, float(i)) for i in range(8)], 4)
        partials = select_partials(
            ctx, info, PreparedSelect(parse("SELECT SUM(v) AS s FROM S3Object")), 1
        )
        assert list(partials) == [(1.0,), (5.0,), (9.0,), (13.0,)]


# ----------------------------------------------------------------------
# partition scans: ordered, complete, one statement
# ----------------------------------------------------------------------

class TestPartitionScans:
    def _table(self, ctx):
        catalog = Catalog()
        rows = [(i, float(i) * 0.5) for i in range(500)]
        return load_table(
            ctx, catalog, "t", rows, SCHEMA, bucket="b", partitions=16
        )

    def test_scan_partitions_ordered_and_complete(self):
        ctx = CloudContext()
        info = self._table(ctx)
        scans = scan_partitions(ctx, info, PreparedSelect(parse("SELECT k FROM S3Object")))
        assert len(scans) == 16
        assert materialize(b for p in scans for b in p) == [
            (i,) for i in range(500)
        ]

    def test_scan_prepares_its_statement_once(self, monkeypatch):
        """16 partition requests, one prepared statement and no parse —
        and 16 records, one per partition in partition order, because S3
        bills every request."""
        parsed = []
        real_parse = select_engine.parser.parse
        monkeypatch.setattr(
            select_engine.parser, "parse",
            lambda sql: parsed.append(sql) or real_parse(sql),
        )
        sql = "SELECT k, v FROM S3Object WHERE k % 3 = 0 AND v < 200.0"
        ctx = CloudContext()
        info = self._table(ctx)
        statement = PreparedSelect(parse(sql))
        parsed.clear()
        mark = ctx.metrics.mark()
        scans = scan_partitions(ctx, info, statement)
        assert parsed == []
        assert len(scans) == 16
        records = ctx.metrics.records_since(mark)
        assert [r.key for r in records] == list(info.keys)

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("SELECT k FROM S3Object ORDER BY k", UnsupportedFeatureError),
            ("SELECT k FROM S3Object WHERE", SQLSyntaxError),
            ("SELECT k FROM S3Object WHERE 'x' = '" + "1" * 300_000 + "'",
             ExpressionLimitExceededError),
        ],
        ids=["dialect", "syntax", "over-limit"],
    )
    def test_bad_sql_raises_before_any_request_is_metered(self, sql, error):
        ctx = CloudContext()
        info = self._table(ctx)
        mark = ctx.metrics.mark()
        with pytest.raises(error):
            scan_partitions(ctx, info, PreparedSelect(parse(sql)))
        # A scan with every partition pruned away issues no request.
        good = PreparedSelect(parse("SELECT k FROM S3Object"))
        assert scan_partitions(ctx, info, good, partitions=[]) == []
        assert ctx.metrics.records_since(mark) == []


def _forbid_threads(monkeypatch):
    def no_threads(thread):
        raise AssertionError("a query started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)


class TestSerialByConstruction:
    """No query starts a thread: each TPC-H query runs pushed (S3 Select
    scans) and in baseline mode (GET scans) with ``threading.Thread.start``
    made to raise, and matches an unrestricted run of itself."""

    @pytest.mark.parametrize("query", ["q01", "q03", "q06", "q14", "q17", "q19"])
    @pytest.mark.parametrize("mode", ["optimized", "baseline"])
    def test_tpch_sql_starts_no_thread(self, mode, query, tpch_env, monkeypatch):
        ctx, catalog = tpch_env
        sql = (QUERY_DIR / f"{query}.sql").read_text()
        # The first run's feedback can re-order a join, and with it the
        # last bit of a float sum; the reference is a warmed run.
        plan_and_execute(ctx, catalog, sql, mode=mode)
        expected = plan_and_execute(ctx, catalog, sql, mode=mode).rows

        _forbid_threads(monkeypatch)
        mark = ctx.metrics.mark()
        got = plan_and_execute(ctx, catalog, sql, mode=mode)
        assert got.rows == expected and got.rows
        kinds = {r.kind for r in ctx.metrics.records_since(mark)}
        if mode == "baseline":
            assert kinds == {RequestKind.GET}
        else:
            assert RequestKind.SELECT in kinds

    @pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
    @pytest.mark.parametrize("variant", ["baseline", "optimized"])
    def test_strategy_starts_no_thread(self, name, variant, tpch_env, monkeypatch):
        """The TPC-H variants, hand-built and SQL: rows, bytes, requests,
        runtime and cost identical to an unrestricted run."""
        ctx, catalog = tpch_env
        query_fn = getattr(TPCH_QUERIES[name], variant)
        a = query_fn(ctx, catalog)

        _forbid_threads(monkeypatch)
        b = query_fn(ctx, catalog)
        assert a.rows == b.rows
        assert a.column_names == b.column_names
        assert a.bytes_scanned == b.bytes_scanned
        assert a.bytes_returned == b.bytes_returned
        assert a.bytes_transferred == b.bytes_transferred
        assert a.num_requests == b.num_requests
        assert a.runtime_seconds == pytest.approx(b.runtime_seconds)
        assert a.cost.total == pytest.approx(b.cost.total)


# ----------------------------------------------------------------------
# metrics thread safety
# ----------------------------------------------------------------------

class TestMetricsConcurrency:
    def test_concurrent_recording_loses_nothing(self):
        """A caller may share one session across its own threads."""
        metrics = MetricsCollector()
        per_thread, threads = 500, 8

        def hammer():
            for _ in range(per_thread):
                metrics.record(
                    RequestRecord(kind=RequestKind.GET, bucket="b", key="k",
                                  bytes_transferred=1)
                )

        hammers = [threading.Thread(target=hammer) for _ in range(threads)]
        for h in hammers:
            h.start()
        for h in hammers:
            h.join()
        assert metrics.num_requests == per_thread * threads
        assert metrics.bytes_transferred == per_thread * threads
