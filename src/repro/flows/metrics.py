"""Per-host features extracted from flow records.

These are the exact quantities the paper's tests consume:

* **average bytes uploaded per flow** (§IV-A) — the volume test metric;
* **failed-connection rate** (§V-A) — the initial data-reduction metric;
* **fraction of new destination IPs** contacted after the first hour of a
  host's activity in the window (§IV-B) — the churn test metric;
* **per-destination flow interstitial times** (§IV-C) — the raw samples
  behind the human-vs-machine test.

**Sorting invariant.**  Every helper accepts flows in *any* order and
produces the paper's §IV definitions; the order-sensitive ones
(:func:`new_ip_fraction`, :func:`interstitial_times`) take a
``presorted`` flag so callers that already hold start-ordered flows —
:meth:`repro.flows.store.FlowStore.flows_from` maintains that order at
insertion — skip the redundant per-call sorts.  :func:`extract_features`
sorts (at most) once and passes ``presorted=True`` throughout.

**Production path.**  :func:`extract_features_sharded` is what the
pipeline runs: it plans host shards balanced by flow count
(:func:`plan_shards`), runs the vectorized group-by kernel
(:func:`repro.flows.store.group_by_host`) over each shard's rows via
the store's ``shard_columns``, and assembles :class:`HostFeatures`
(:func:`assemble_features`).  :func:`extract_all_features`, the
per-host pure-Python path, is its oracle: the two are pinned
bit-identical by the test suite.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..obs import metrics as obs_metrics
from .record import FlowRecord
from .store import FlowStore, ShardColumns

__all__ = [
    "HostFeatures",
    "average_flow_size",
    "failed_connection_rate",
    "new_fraction_from_first_contacts",
    "new_ip_fraction",
    "new_ip_timeseries",
    "interstitial_times",
    "extract_features",
    "features_from_sorted_flows",
    "extract_all_features",
    "SHARDS",
    "plan_shards",
    "shard_count",
    "assemble_features",
    "extract_features_sharded",
]

#: Seconds in the "settling" period of the churn metric: destinations first
#: contacted within this span of a host's first activity are treated as the
#: host's baseline peer set (§IV-B uses one hour).
NEW_IP_GRACE_PERIOD = 3600.0

#: Shards per extraction run when no gather budget asks for more:
#: enough for LPT balancing to absorb skewed hosts, few enough that
#: per-shard overhead stays negligible.
SHARDS = 4

_SHARDS_TOTAL = obs_metrics.counter(
    "repro_extract_shards_total", "Extraction shards computed"
)
_SHARD_SECONDS = obs_metrics.histogram(
    "repro_extract_shard_seconds", "Per-shard extraction wall time"
)
_HOSTS_GAUGE = obs_metrics.gauge(
    "repro_extract_hosts", "Hosts covered by the last extraction run"
)


@dataclass(frozen=True)
class HostFeatures:
    """Bundle of the per-host features used by the detection tests."""

    host: str
    flow_count: int
    successful_flow_count: int
    avg_flow_size: float
    failed_conn_rate: float
    new_ip_fraction: float
    distinct_destinations: int
    interstitials: Tuple[float, ...]

    @property
    def initiated_successful(self) -> bool:
        """Whether the host initiated at least one successful flow.

        The paper only considers hosts that initiated successful
        connections within the day (§V-A).
        """
        return self.successful_flow_count > 0


def average_flow_size(flows: Sequence[FlowRecord]) -> float:
    """Mean bytes *uploaded* (initiator-side) per flow (§IV-A).

    The paper prefers this over the cumulative byte count because a chatty
    Plotter can accumulate a large total while each flow stays tiny.
    Returns 0.0 for an empty sequence.
    """
    if not flows:
        return 0.0
    return sum(f.src_bytes for f in flows) / len(flows)


def failed_connection_rate(flows: Sequence[FlowRecord]) -> float:
    """Fraction of a host's initiated flows that failed (§V-A).

    Returns 0.0 for an empty sequence.
    """
    if not flows:
        return 0.0
    return sum(1 for f in flows if f.failed) / len(flows)


def _first_contact_times(flows: Sequence[FlowRecord]) -> Dict[str, float]:
    """Earliest start time at which each destination was first contacted."""
    first: Dict[str, float] = {}
    for flow in flows:
        seen = first.get(flow.dst)
        if seen is None or flow.start < seen:
            first[flow.dst] = flow.start
    return first


def new_fraction_from_first_contacts(
    first_contact: Dict[str, float],
    activity_start: float,
    grace_period: float = NEW_IP_GRACE_PERIOD,
) -> float:
    """§IV-B churn from a first-contact map and the host's first activity.

    Shared by the batch path (:func:`new_ip_fraction`) and the streaming
    extractor, so the paper's definition lives in exactly one place:
    the fraction of contacted destinations whose first contact falls
    *strictly after* ``activity_start + grace_period``.

    Returns 0.0 when the host contacted no destinations.
    """
    if not first_contact:
        return 0.0
    cutoff = activity_start + grace_period
    new = sum(1 for t in first_contact.values() if t > cutoff)
    return new / len(first_contact)


def new_ip_fraction(
    flows: Sequence[FlowRecord],
    grace_period: float = NEW_IP_GRACE_PERIOD,
    presorted: bool = False,
) -> float:
    """Fraction of destinations first contacted after the grace period.

    §IV-B quantifies peer churn as the ratio of (i) the number of IP
    addresses a host first contacts after its first hour of activity to
    (ii) the total number of IP addresses it contacts in the window.  A
    high value means high churn (Trader-like); a low value means the host
    keeps talking to the same peers (Plotter-like).

    With ``presorted`` the caller asserts ``flows`` is start-ordered
    (the :class:`~repro.flows.store.FlowStore` invariant), letting the
    first-activity scan read ``flows[0]`` instead of a min pass; the
    result is identical either way.

    Returns 0.0 when the host contacted no destinations.
    """
    first = _first_contact_times(flows)
    if not first:
        return 0.0
    if presorted:
        activity_start = flows[0].start
    else:
        activity_start = min(f.start for f in flows)
    return new_fraction_from_first_contacts(first, activity_start, grace_period)


def new_ip_timeseries(
    flows: Sequence[FlowRecord], bucket: float = 3600.0
) -> List[Tuple[float, float]]:
    """Per-bucket fraction of contacted destinations that are new.

    For each time bucket (default: one hour) starting at the host's first
    activity, report ``(bucket_start_offset, new_fraction)`` where
    ``new_fraction`` is the share of destinations contacted in the bucket
    that had never been contacted before.  This reproduces the view in
    Figure 2 of the paper.
    """
    if not flows:
        return []
    ordered = sorted(flows, key=lambda f: f.start)
    t0 = ordered[0].start
    seen: Set[str] = set()
    series: List[Tuple[float, float]] = []
    bucket_index = 0
    bucket_dests: Set[str] = set()
    bucket_new: Set[str] = set()

    def flush() -> None:
        if bucket_dests:
            series.append(
                (bucket_index * bucket, len(bucket_new) / len(bucket_dests))
            )
        seen.update(bucket_dests)

    for flow in ordered:
        idx = int((flow.start - t0) // bucket)
        if idx != bucket_index:
            flush()
            bucket_index = idx
            bucket_dests = set()
            bucket_new = set()
        bucket_dests.add(flow.dst)
        if flow.dst not in seen:
            bucket_new.add(flow.dst)
    flush()
    return series


def interstitial_times(
    flows: Sequence[FlowRecord], presorted: bool = False
) -> List[float]:
    """Per-destination flow interstitial times for one host (§IV-C).

    For each destination the host contacts, compute the gaps between the
    start times of consecutive flows to that destination; the returned
    samples pool the gaps across *all* destinations, since the monitor does
    not know which destinations are P2P peers.  Sample order: destinations
    in order of first contact, gaps per destination in start order.

    With ``presorted`` the caller asserts ``flows`` is start-ordered, so
    the per-destination start lists are born sorted and the per-call
    sorts are skipped; the samples are identical either way.
    """
    per_dest: Dict[str, List[float]] = {}
    for flow in flows:
        per_dest.setdefault(flow.dst, []).append(flow.start)
    samples: List[float] = []
    for starts in per_dest.values():
        if len(starts) < 2:
            continue
        if not presorted:
            starts.sort()
        samples.extend(b - a for a, b in zip(starts, starts[1:]))
    return samples


def extract_features(
    store: FlowStore, host: str, grace_period: float = NEW_IP_GRACE_PERIOD
) -> HostFeatures:
    """Compute the full feature bundle for one host.

    ``store.flows_from`` returns start-ordered flows (the store's
    sort-once invariant), so the order-sensitive metrics run with
    ``presorted=True`` and nothing here re-sorts.
    """
    flows = store.flows_from(host)
    return features_from_sorted_flows(host, flows, grace_period)


def features_from_sorted_flows(
    host: str,
    flows: Sequence[FlowRecord],
    grace_period: float = NEW_IP_GRACE_PERIOD,
) -> HostFeatures:
    """Feature bundle from flows already sorted by start time.

    This is the reference per-host extraction kernel: the vectorized
    shard kernel (:func:`repro.flows.store.group_by_host`) is pinned
    bit-identical to it by the equivalence test suite.  Callers must
    pass start-ordered flows.
    """
    return HostFeatures(
        host=host,
        flow_count=len(flows),
        successful_flow_count=sum(1 for f in flows if not f.failed),
        avg_flow_size=average_flow_size(flows),
        failed_conn_rate=failed_connection_rate(flows),
        new_ip_fraction=new_ip_fraction(flows, grace_period, presorted=True),
        distinct_destinations=len({f.dst for f in flows}),
        interstitials=tuple(interstitial_times(flows, presorted=True)),
    )


def extract_all_features(
    store: FlowStore, grace_period: float = NEW_IP_GRACE_PERIOD
) -> Dict[str, HostFeatures]:
    """Feature bundles for every initiating host in the store.

    The per-host reference path, kept as the oracle that
    :func:`extract_features_sharded` is tested against.
    """
    return {
        host: extract_features(store, host, grace_period)
        for host in store.initiators
    }


def plan_shards(
    flow_counts: Mapping[str, int], n_shards: int
) -> List[Tuple[str, ...]]:
    """Partition hosts into ``n_shards`` shards balanced by flow count.

    Longest-processing-time greedy: hosts are placed heaviest-first onto
    the least-loaded shard, so a handful of busy hosts cannot dominate
    one shard the way a host-count split would.  Deterministic — ties
    break on host name and shard index — and empty shards are dropped.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    buckets: List[List[str]] = [[] for _ in range(n_shards)]
    heap = [(0, index) for index in range(n_shards)]
    heapq.heapify(heap)
    ordered = sorted(flow_counts, key=lambda h: (-flow_counts[h], h))
    for host in ordered:
        load, index = heapq.heappop(heap)
        buckets[index].append(host)
        heapq.heappush(heap, (load + flow_counts[host], index))
    return [tuple(sorted(bucket)) for bucket in buckets if bucket]


def shard_count(rows: int, max_gather_rows: Optional[int]) -> int:
    """Shards for extracting ``rows`` rows under a gather budget.

    :data:`SHARDS` without a budget; with one, enough shards that a
    balanced shard holds about a quarter of the budget
    (``ceil(SHARDS · rows / max_gather_rows)``), so one gather per
    shard stays under it unless a single host is larger.
    """
    if max_gather_rows is None:
        return SHARDS
    return max(SHARDS, math.ceil(SHARDS * rows / max_gather_rows))


def assemble_features(columns: ShardColumns) -> Dict[str, HostFeatures]:
    """:class:`HostFeatures` from one shard's columnar kernel results.

    The divisions happen here, on Python ints, exactly as the reference
    kernel computes them.
    """
    gap_values = columns.gaps.tolist()
    gap_offsets = columns.gap_offsets.tolist()
    out: Dict[str, HostFeatures] = {}
    for i, host in enumerate(columns.hosts):
        flow_count = int(columns.flow_counts[i])
        successful = int(columns.success_counts[i])
        dests = int(columns.dest_counts[i])
        out[host] = HostFeatures(
            host=host,
            flow_count=flow_count,
            successful_flow_count=successful,
            avg_flow_size=int(columns.byte_sums[i]) / flow_count,
            failed_conn_rate=(flow_count - successful) / flow_count,
            new_ip_fraction=int(columns.new_counts[i]) / dests,
            distinct_destinations=dests,
            interstitials=tuple(gap_values[gap_offsets[i] : gap_offsets[i + 1]]),
        )
    return out


def extract_features_sharded(
    store: FlowStore,
    hosts: Optional[Iterable[str]] = None,
    grace_period: float = NEW_IP_GRACE_PERIOD,
) -> Dict[str, HostFeatures]:
    """Feature bundles for ``hosts`` (default: every initiator).

    Works on a :class:`FlowStore` and a :class:`repro.storage.StoreView`
    alike: both answer ``flow_counts()``, ``shard_columns()`` and
    ``max_gather_rows``.  Hosts are planned into :func:`shard_count`
    shards balanced by flow count, and each shard's rows are gathered
    and grouped once, so a store-backed run holds one shard's rows at a
    time.  Hosts without any initiated flow are omitted, and the result
    equals :func:`extract_all_features` restricted to ``hosts`` bit for
    bit.
    """
    counts_all = store.flow_counts()
    if hosts is None:
        wanted = counts_all
    else:
        wanted = {h: counts_all[h] for h in hosts if h in counts_all}
    if not wanted:
        return {}
    n_shards = shard_count(sum(wanted.values()), store.max_gather_rows)
    _HOSTS_GAUGE.set(len(wanted))
    features: Dict[str, HostFeatures] = {}
    for shard in plan_shards(wanted, min(n_shards, len(wanted))):
        t0 = time.perf_counter()
        features.update(assemble_features(store.shard_columns(shard, grace_period)))
        _SHARDS_TOTAL.inc()
        _SHARD_SECONDS.observe(time.perf_counter() - t0)
    return features
