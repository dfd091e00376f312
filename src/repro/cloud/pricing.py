"""AWS US-East pricing from the paper (Section II-B) and cost breakdowns.

The paper decomposes query cost into four components:

* **compute** — EC2 time (r4.8xlarge, $2.128/hour) for the whole query;
* **request** — HTTP GETs at $0.0004 per 1,000 requests (both plain GETs
  and S3 Select requests);
* **scan** — S3 Select data scanned at $0.002/GB;
* **transfer** — S3 Select data returned at $0.0007/GB (in-region plain
  transfer is free, so this component is entirely S3 Select return).

Storage cost is excluded, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cloud.metrics import RequestRecord
from repro.common.units import SECONDS_PER_HOUR, bytes_to_gb


@dataclass(frozen=True)
class Pricing:
    """Unit prices; defaults are the paper's US East (N. Virginia) rates."""

    select_scan_per_gb: float = 0.002
    select_return_per_gb: float = 0.0007
    get_per_1000_requests: float = 0.0004
    ec2_per_hour: float = 2.128          # r4.8xlarge
    transfer_out_per_gb: float = 0.0     # same-region transfer is free
    s3_storage_per_gb_month: float = 0.022  # reported, never charged to queries


PAPER_PRICING = Pricing()


def scaled_pricing(pricing: Pricing, data_scale: float) -> Pricing:
    """Pricing for a *paper-equivalent* run at a smaller data scale.

    Our datasets are ``data_scale`` times the paper's (e.g. 1/1000 of
    10 GB).  Dividing the per-GB unit prices by that factor makes a query
    over the small dataset cost what the same query would cost at paper
    scale — byte counts shrink linearly with the data.  The per-request
    price is left alone: row-proportional requests are virtualized via
    :class:`~repro.cloud.metrics.RequestRecord.weight` instead, and
    constant per-partition scan requests should cost what they cost.
    EC2 compute is already priced off the (paper-calibrated) simulated
    runtime and stays unchanged.
    """
    if data_scale <= 0:
        raise ValueError(f"data_scale must be positive, got {data_scale}")
    return Pricing(
        select_scan_per_gb=pricing.select_scan_per_gb / data_scale,
        select_return_per_gb=pricing.select_return_per_gb / data_scale,
        get_per_1000_requests=pricing.get_per_1000_requests,
        ec2_per_hour=pricing.ec2_per_hour,
        transfer_out_per_gb=pricing.transfer_out_per_gb / data_scale,
        s3_storage_per_gb_month=pricing.s3_storage_per_gb_month,
    )


@dataclass(frozen=True)
class CostBreakdown:
    """Dollar cost of one query, split the way the paper's figures are."""

    compute: float = 0.0
    request: float = 0.0
    scan: float = 0.0
    transfer: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.request + self.scan + self.transfer


def cost_of_requests(
    records: Iterable[RequestRecord], pricing: Pricing = PAPER_PRICING
) -> CostBreakdown:
    """Price the storage-side components of a batch of requests.

    Compute cost is added separately (it needs the simulated runtime; see
    :func:`cost_of_query`).
    """
    n_requests = 0.0
    scanned = 0
    returned = 0
    transferred = 0
    for record in records:
        n_requests += record.weight
        scanned += record.bytes_scanned
        returned += record.bytes_returned
        transferred += record.bytes_transferred
    return CostBreakdown(
        compute=0.0,
        request=n_requests / 1000.0 * pricing.get_per_1000_requests,
        scan=bytes_to_gb(scanned) * pricing.select_scan_per_gb,
        transfer=(
            bytes_to_gb(returned) * pricing.select_return_per_gb
            + bytes_to_gb(transferred) * pricing.transfer_out_per_gb
        ),
    )


def cost_of_query(
    records: Iterable[RequestRecord],
    runtime_seconds: float,
    pricing: Pricing = PAPER_PRICING,
) -> CostBreakdown:
    """Full query cost: storage-side components plus EC2 compute time."""
    storage_side = cost_of_requests(records, pricing)
    compute = runtime_seconds / SECONDS_PER_HOUR * pricing.ec2_per_hour
    return CostBreakdown(
        compute=compute,
        request=storage_side.request,
        scan=storage_side.scan,
        transfer=storage_side.transfer,
    )
