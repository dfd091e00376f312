"""Tests for metering, pricing, the performance model, and calibration."""

import pytest

from repro.cloud.client import S3Client
from repro.cloud.context import CloudContext
from repro.cloud.metrics import Phase, RequestKind, RequestRecord, StreamWork
from repro.cloud.perf import PAPER_PERF, PerfModel
from repro.cloud.pricing import (
    PAPER_PRICING,
    CostBreakdown,
    cost_of_query,
    cost_of_requests,
    scaled_pricing,
)
from repro.common.units import GB
from repro.storage.csvcodec import encode_table
from repro.storage.object_store import ObjectStore


def make_client():
    store = ObjectStore()
    store.create_bucket("b")
    data, _ = encode_table([(i, i * 1.5) for i in range(100)])
    store.put_object(
        "b", "t.csv", data,
        metadata={"format": "csv", "schema": ["k:int", "v:float"], "header": False},
    )
    return S3Client(store), len(data)


class TestClientMetering:
    def test_get_object_metered(self):
        client, size = make_client()
        client.get_object("b", "t.csv")
        (record,) = client.metrics.records
        assert record.kind is RequestKind.GET
        assert record.bytes_transferred == size
        assert record.bytes_scanned == 0

    def test_range_get_metered_with_weight(self):
        client, _ = make_client()
        client.range_request_weight = 250.0
        client.get_object_range("b", "t.csv", 0, 9)
        (record,) = client.metrics.records
        assert record.bytes_transferred == 10
        assert record.weight == 250.0

    def test_select_metered(self):
        client, size = make_client()
        result = client.select_object_content(
            "b", "t.csv", "SELECT k FROM S3Object WHERE k < 10"
        )
        (record,) = client.metrics.records
        assert record.kind is RequestKind.SELECT
        assert record.bytes_scanned == size
        assert record.bytes_returned == len(result.payload)

    def test_marks_isolate_queries(self):
        client, _ = make_client()
        client.get_object("b", "t.csv")
        mark = client.metrics.mark()
        client.get_object("b", "t.csv")
        assert len(client.metrics.records_since(mark)) == 1


class TestPricing:
    def test_paper_unit_prices(self):
        assert PAPER_PRICING.select_scan_per_gb == 0.002
        assert PAPER_PRICING.select_return_per_gb == 0.0007
        assert PAPER_PRICING.get_per_1000_requests == 0.0004
        assert PAPER_PRICING.ec2_per_hour == 2.128

    def test_scan_cost_of_10gb(self):
        """The paper's canonical number: scanning 10 GB costs $0.02."""
        record = RequestRecord(RequestKind.SELECT, "b", "k", bytes_scanned=10 * GB)
        assert cost_of_requests([record]).scan == pytest.approx(0.02)

    def test_return_cost(self):
        record = RequestRecord(RequestKind.SELECT, "b", "k", bytes_returned=GB)
        assert cost_of_requests([record]).transfer == pytest.approx(0.0007)

    def test_request_cost_uses_weight(self):
        records = [
            RequestRecord(RequestKind.GET, "b", "k", weight=500.0),
            RequestRecord(RequestKind.GET, "b", "k", weight=500.0),
        ]
        assert cost_of_requests(records).request == pytest.approx(0.0004)

    def test_in_region_plain_transfer_free(self):
        record = RequestRecord(RequestKind.GET, "b", "k", bytes_transferred=GB)
        assert cost_of_requests([record]).transfer == 0.0

    def test_compute_cost_one_hour(self):
        cost = cost_of_query([], runtime_seconds=3600.0)
        assert cost.compute == pytest.approx(2.128)

    def test_breakdown_total_and_add(self):
        a = CostBreakdown(compute=1, request=2, scan=3, transfer=4)
        assert a.total == 10
        assert (a + a).total == 20
        assert a.scaled(0.5).total == 5

    def test_scaled_pricing_divides_per_gb_only(self):
        scaled = scaled_pricing(PAPER_PRICING, 0.001)
        assert scaled.select_scan_per_gb == pytest.approx(2.0)
        assert scaled.get_per_1000_requests == PAPER_PRICING.get_per_1000_requests
        assert scaled.ec2_per_hour == PAPER_PRICING.ec2_per_hour

    def test_scaled_pricing_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scaled_pricing(PAPER_PRICING, 0)


def select_phase(scan_bytes, returned=0, streams=4, records=0, fields=0):
    stream_list = [
        StreamWork(
            requests=1,
            select_scan_bytes=scan_bytes // streams,
            select_returned_bytes=returned // streams,
        )
        for _ in range(streams)
    ]
    return Phase(
        "p", stream_list, server_records=records, server_fields=fields
    )


class TestPerfModel:
    def test_empty_phase_is_free(self):
        assert PAPER_PERF.phase_time(Phase("idle", [])) == 0.0

    def test_scan_time_scales_with_bytes(self):
        fast = PAPER_PERF.phase_time(select_phase(16 * 60_000_000))
        slow = PAPER_PERF.phase_time(select_phase(32 * 60_000_000))
        assert slow > fast

    def test_parallel_streams_reduce_time(self):
        few = PAPER_PERF.phase_time(select_phase(GB, streams=2))
        many = PAPER_PERF.phase_time(select_phase(GB, streams=16))
        assert many < few

    def test_ingest_charged_per_record_and_field(self):
        base = PAPER_PERF.phase_time(select_phase(GB, records=0, fields=0))
        heavy = PAPER_PERF.phase_time(
            select_phase(GB, records=60_000_000, fields=960_000_000)
        )
        assert heavy > base

    def test_dispatch_free_for_one_request_per_stream(self):
        phase = select_phase(1000, streams=16)
        assert phase.requests == len(phase.streams)
        # With scan time negligible, time is just latency.
        assert PAPER_PERF.phase_time(phase) == pytest.approx(
            PAPER_PERF.request_latency, abs=1e-4
        )

    def test_dispatch_charged_for_request_floods(self):
        flood = Phase.from_records(
            "fetch",
            [RequestRecord(RequestKind.GET, "b", "k", weight=10_000)] * 6,
            streams=2,
        )
        # 60,000 weighted requests beyond 2 streams at 6,000/s ~ 10s.
        assert PAPER_PERF.phase_time(flood) == pytest.approx(10.0, rel=0.01)

    def test_runtime_sums_phases(self):
        p = select_phase(GB)
        assert PAPER_PERF.runtime([p, p]) == pytest.approx(
            2 * PAPER_PERF.phase_time(p)
        )

    def test_term_evals_slow_streams(self):
        plain = select_phase(GB)
        heavy = select_phase(GB)
        for s in heavy.streams:
            s.term_evals = 50_000_000
        assert PAPER_PERF.phase_time(heavy) > PAPER_PERF.phase_time(plain)

    def test_scaled_model_consistency(self):
        """Scaling data AND rates by the same factor keeps time invariant."""
        small = PAPER_PERF.scaled(0.001)
        big_phase = select_phase(GB, records=1_000_000, fields=8_000_000)
        small_phase = select_phase(
            int(GB * 0.001), records=1_000, fields=8_000
        )
        assert small.phase_time(small_phase) == pytest.approx(
            PAPER_PERF.phase_time(big_phase), rel=1e-6
        )

    def test_scaled_keeps_dispatch_rate(self):
        assert PAPER_PERF.scaled(0.01).request_dispatch_rate == (
            PAPER_PERF.request_dispatch_rate
        )

    def test_server_cpu_factor_inverts_scale(self):
        assert PAPER_PERF.scaled(0.01).server_cpu_factor == pytest.approx(100.0)


class TestCalibration:
    def test_calibrate_sets_scale_weight_and_pricing(self):
        ctx = CloudContext()
        scale = ctx.calibrate_to_paper_scale(10_000_000, 10 * GB)
        assert scale == pytest.approx(0.001)
        assert ctx.client.range_request_weight == pytest.approx(1000.0)
        assert ctx.pricing.select_scan_per_gb == pytest.approx(2.0)
        assert ctx.perf.select_scan_rate_per_stream == pytest.approx(
            PAPER_PERF.select_scan_rate_per_stream * 0.001
        )

    def test_calibrate_rejects_bad_input(self):
        ctx = CloudContext()
        with pytest.raises(ValueError):
            ctx.calibrate_to_paper_scale(0, 10 * GB)

    def test_finalize_prices_records_since_mark(self):
        ctx = CloudContext()
        ctx.store.create_bucket("b")
        data, _ = encode_table([(1,)])
        ctx.store.put_object(
            "b", "k", data,
            metadata={"format": "csv", "schema": ["a:int"], "header": False},
        )
        ctx.client.get_object("b", "k")  # before the query
        mark = ctx.begin_query()
        ctx.client.get_object("b", "k")
        execution = ctx.finalize(mark, [], [], [Phase("p", [StreamWork(requests=1)])])
        assert execution.num_requests == 1
        assert execution.runtime_seconds > 0


def distinct_lane_phase(
    name, streams, *, scan_bytes=0.0, returned_bytes=0.0, get_bytes=0.0,
    term_evals=0.0, requests=None, cpu_seconds=0.0, records=0.0, fields=0.0,
):
    """The reference construction of a predicted phase: ``n`` equal lanes
    as ``n`` separate :class:`StreamWork` objects."""
    n = max(int(streams), 1)
    if requests is None:
        requests = float(n)
    work = [
        StreamWork(
            requests=requests / n,
            select_scan_bytes=scan_bytes / n,
            select_returned_bytes=returned_bytes / n,
            get_bytes=get_bytes / n,
            term_evals=term_evals / n,
        )
        for _ in range(n)
    ]
    return Phase(
        name, work, server_cpu_seconds=cpu_seconds, server_records=records,
        server_fields=fields,
    )


def _awkward_total(rng, n):
    """An int or a float total that ``n`` lanes do not divide evenly."""
    if rng.random() < 0.5:
        return rng.uniform(0.0, 5e9)
    value = rng.randint(1, 5 * 10**9)
    return value + 1 if n > 1 and value % n == 0 else value


def _predicted_phase_args(rng):
    n = rng.randint(1, 64)
    args = {
        "scan_bytes": _awkward_total(rng, n),
        "returned_bytes": _awkward_total(rng, n),
        "get_bytes": rng.choice((0, _awkward_total(rng, n))),
        "term_evals": rng.choice((0, _awkward_total(rng, n))),
        "cpu_seconds": rng.choice((0.0, rng.uniform(0.0, 30.0))),
        "records": rng.choice((0.0, rng.uniform(0.0, 1e8))),
        "fields": rng.choice((0.0, rng.uniform(0.0, 1e9))),
    }
    if rng.random() < 0.5:
        args["requests"] = rng.choice(
            (float(rng.randint(1, 10**5)), rng.uniform(0.0, 1e5))
        )
    return n, args


PHASE_TOTALS = ("requests", "select_scan_bytes", "select_returned_bytes", "get_bytes")


class TestOneLanePredictedPhases:
    """A predicted phase repeats one lane object; every price must equal
    the one over ``n`` separate lanes exactly (``==``, not approx)."""

    @staticmethod
    def contexts():
        calibrated = CloudContext()
        calibrated.calibrate_to_paper_scale(3_000_000, 10 * GB)
        return CloudContext(), calibrated

    @pytest.mark.parametrize("seed", range(8))
    def test_prices_equal_the_distinct_lane_reference(self, seed):
        import random

        from repro.optimizer.cost import _phase, price_phases

        rng = random.Random(seed)
        for ctx in self.contexts():
            for _ in range(25):
                ones, refs = [], []
                for i in range(rng.randint(1, 4)):
                    n, args = _predicted_phase_args(rng)
                    one = _phase(f"p{i}", n, **args)
                    ref = distinct_lane_phase(f"p{i}", n, **args)
                    assert len(one.streams) == len(ref.streams) == n
                    assert len({id(s) for s in one.streams}) == 1
                    for total in PHASE_TOTALS:
                        assert getattr(one, total) == getattr(ref, total)
                        assert getattr(ref, total) == sum(
                            getattr(s, total) for s in ref.streams
                        )
                    assert ctx.perf.phase_time(one) == ctx.perf.phase_time(ref)
                    ones.append(one)
                    refs.append(ref)
                assert ctx.perf.runtime(ones) == ctx.perf.runtime(refs)
                one_price = price_phases(ctx, "s", ones)
                ref_price = price_phases(ctx, "s", refs)
                assert one_price == ref_price
                assert one_price.cost.total == ref_price.cost.total

    @pytest.mark.parametrize("seed", range(4))
    def test_record_phase_totals_equal_the_generator_sums(self, seed):
        import random

        rng = random.Random(seed)
        for _ in range(40):
            records = [
                RequestRecord(
                    rng.choice((RequestKind.GET, RequestKind.SELECT)), "b", "k",
                    bytes_scanned=rng.randint(0, 10**7),
                    bytes_returned=rng.randint(0, 10**6),
                    bytes_transferred=rng.randint(0, 10**7),
                    term_evals=rng.randint(0, 10**6),
                    weight=rng.choice((1.0, rng.uniform(0.1, 1000.0))),
                )
                for _ in range(rng.randint(0, 70))
            ]
            streams = rng.choice((None, rng.randint(1, 80)))
            phase = Phase.from_records("p", records, streams=streams)
            assert isinstance(phase.streams, tuple)
            for total in PHASE_TOTALS:
                assert getattr(phase, total) == sum(
                    getattr(s, total) for s in phase.streams
                )

    def test_stream_time_runs_once_per_distinct_lane(self, monkeypatch):
        from repro.optimizer.cost import _phase

        lanes = []
        stream_time = PerfModel.stream_time

        def spy(self, stream):
            lanes.append(stream)
            return stream_time(self, stream)

        monkeypatch.setattr(PerfModel, "stream_time", spy)
        PAPER_PERF.phase_time(_phase("one", 16, scan_bytes=GB))
        assert len(lanes) == 1
        lanes.clear()
        PAPER_PERF.phase_time(select_phase(GB, streams=16))
        assert len(lanes) == 16
