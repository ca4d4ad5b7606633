"""An indexed, in-memory collection of flow records.

The detection tests (§IV) all consume "a collection of traffic Λ involving
a group S of internal hosts over a time window D".  :class:`FlowStore` is
that Λ: it holds flow records sorted by start time and maintains a
per-initiator index so per-host feature extraction is cheap.

It also holds the vectorized group-by kernel (:func:`group_by_host`)
that feature extraction runs per shard: it reads only the columnar
arrays a :class:`ColumnarFlows` snapshot (or a segment-store gather)
provides, so the in-memory and the disk plane share one kernel.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from .record import FlowRecord, FlowState

__all__ = ["ColumnarFlows", "FlowStore", "ShardColumns", "group_by_host"]


@dataclass(frozen=True)
class ColumnarFlows:
    """Immutable columnar snapshot of a store's per-initiator flows.

    Flows are grouped by initiator (hosts in sorted order) and kept in
    start-time order within each group — host ``hosts[i]``'s flows live
    at ``starts[host_offsets[i]:host_offsets[i + 1]]`` and friends.
    Destinations are factorized into dense integer codes so the group-by
    kernel (:func:`group_by_host`) never touches flow *objects*: one
    attribute-access pass at build time buys array-speed extraction for
    every run until the store mutates.
    """

    hosts: Tuple[str, ...]
    index_of: Dict[str, int]
    host_offsets: np.ndarray
    starts: np.ndarray
    src_bytes: np.ndarray
    success: np.ndarray
    dst_codes: np.ndarray
    n_destinations: int

    @property
    def n_flows(self) -> int:
        """Total flows in the snapshot."""
        return int(self.host_offsets[-1])


def _build_columnar(by_src: Dict[str, List[FlowRecord]]) -> ColumnarFlows:
    hosts = tuple(sorted(by_src))
    counts = np.array([len(by_src[host]) for host in hosts], dtype=np.int64)
    host_offsets = np.zeros(len(hosts) + 1, dtype=np.int64)
    np.cumsum(counts, out=host_offsets[1:])
    total = int(host_offsets[-1])
    all_flows: List[FlowRecord] = []
    for host in hosts:
        all_flows.extend(by_src[host])
    established = FlowState.ESTABLISHED
    codes: Dict[str, int] = {}
    return ColumnarFlows(
        hosts=hosts,
        index_of={host: i for i, host in enumerate(hosts)},
        host_offsets=host_offsets,
        starts=np.array([f.start for f in all_flows], dtype=np.float64),
        src_bytes=np.array([f.src_bytes for f in all_flows], dtype=np.int64),
        success=np.array(
            [f.state is established for f in all_flows], dtype=np.int64
        ),
        dst_codes=np.fromiter(
            (codes.setdefault(f.dst, len(codes)) for f in all_flows),
            dtype=np.int64,
            count=total,
        ),
        n_destinations=len(codes),
    )


@dataclass
class ShardColumns:
    """Columnar per-host results of one shard, before assembly.

    :func:`repro.flows.metrics.assemble_features` turns these arrays
    into :class:`~repro.flows.metrics.HostFeatures`.
    """

    hosts: List[str]
    flow_counts: np.ndarray
    success_counts: np.ndarray
    byte_sums: np.ndarray
    dest_counts: np.ndarray
    new_counts: np.ndarray
    gaps: np.ndarray
    gap_offsets: np.ndarray


def group_by_host(
    hosts: List[str],
    counts_arr: np.ndarray,
    starts: np.ndarray,
    src_bytes: np.ndarray,
    success: np.ndarray,
    dst_codes: np.ndarray,
    n_destinations: int,
    grace_period: float,
) -> ShardColumns:
    """Vectorized group-by over one shard's columnar flows.

    Inputs are grouped by host (in ``hosts`` order) and start-ordered
    within each host — the store's sort-once invariant, preserved by
    both gather paths.  All derived quantities match the reference
    kernel (:func:`repro.flows.metrics.features_from_sorted_flows`) bit
    for bit: ratios divide Python ints at assembly and interstitial
    gaps are the same IEEE subtractions in the same order.
    """
    total = len(starts)
    n_hosts = len(hosts)
    offsets = np.zeros(n_hosts + 1, dtype=np.int64)
    np.cumsum(counts_arr, out=offsets[1:])
    host_idx = np.repeat(np.arange(n_hosts, dtype=np.int64), counts_arr)

    success_counts = np.add.reduceat(success, offsets[:-1])
    byte_sums = np.add.reduceat(src_bytes, offsets[:-1])

    # (host, destination) pairs: group flows per pair while preserving
    # the per-host start order.
    pair = host_idx * np.int64(n_destinations) + dst_codes
    order = np.argsort(pair, kind="stable")
    pair_sorted = pair[order]
    first_mask = np.ones(total, dtype=bool)
    first_mask[1:] = pair_sorted[1:] != pair_sorted[:-1]
    first_orig_idx = order[first_mask]
    pair_host = host_idx[order][first_mask]
    first_contact = starts[order][first_mask]

    dest_counts = np.bincount(pair_host, minlength=n_hosts)
    activity_start = starts[offsets[:-1]]
    cutoff = activity_start + grace_period
    is_new = first_contact > cutoff[pair_host]
    new_counts = np.bincount(pair_host[is_new], minlength=n_hosts)

    # Interstitials in the reference order: destinations by first
    # appearance, gaps within a destination by start time.  Keying each
    # flow by the index of its pair's first flow sorts into exactly
    # that order.
    pair_rank = np.cumsum(first_mask) - 1
    key = np.empty(total, dtype=np.int64)
    key[order] = first_orig_idx[pair_rank]
    order2 = np.argsort(key, kind="stable")
    key2 = key[order2]
    starts2 = starts[order2]
    same_pair = key2[1:] == key2[:-1]
    gaps = (starts2[1:] - starts2[:-1])[same_pair]
    gap_host = host_idx[order2][1:][same_pair]
    gap_counts = np.bincount(gap_host, minlength=n_hosts)
    gap_offsets = np.zeros(n_hosts + 1, dtype=np.int64)
    np.cumsum(gap_counts, out=gap_offsets[1:])

    return ShardColumns(
        hosts=hosts,
        flow_counts=counts_arr,
        success_counts=success_counts,
        byte_sums=byte_sums,
        dest_counts=dest_counts,
        new_counts=new_counts,
        gaps=gaps,
        gap_offsets=gap_offsets,
    )


class FlowStore:
    """A queryable collection of :class:`~repro.flows.record.FlowRecord`.

    The store is append-oriented: records may be added in any order and
    are kept sorted by flow start time.  Hosts are indexed by the
    *initiator* address because every per-host feature in the paper is
    computed over the flows a host initiates (uploads, contacted
    destinations, connection attempts).

    **Sort-once invariant:** the per-initiator index is maintained in
    start-time order at insertion, so :meth:`flows_from` never re-sorts.
    Feature extraction (:mod:`repro.flows.metrics`) relies on this
    invariant and passes ``presorted=True`` to the per-metric helpers.
    """

    #: Rows one gather may materialise.  An in-memory store already
    #: holds every row, so it has no budget; a
    #: :class:`repro.storage.StoreView` may carry one.
    max_gather_rows: Optional[int] = None

    def __init__(self, flows: Optional[Iterable[FlowRecord]] = None) -> None:
        self._flows: List[FlowRecord] = []
        self._starts: List[float] = []
        self._by_src: Dict[str, List[FlowRecord]] = {}
        self._version = 0
        self._columnar: Optional[ColumnarFlows] = None
        self._columnar_version = -1
        if flows is not None:
            self.extend(flows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, flow: FlowRecord) -> None:
        """Insert one flow, keeping start-time order."""
        self._version += 1
        idx = bisect.bisect_right(self._starts, flow.start)
        self._flows.insert(idx, flow)
        self._starts.insert(idx, flow.start)
        per_src = self._by_src.setdefault(flow.src, [])
        per_src.append(flow)
        # Keep the per-initiator index start-ordered at insertion time
        # (the sort-once invariant flows_from() relies on).  Appends in
        # time order — the common case — never trigger the sort.
        if len(per_src) > 1 and per_src[-2].start > flow.start:
            per_src.sort(key=lambda f: f.start)

    def extend(self, flows: Iterable[FlowRecord]) -> None:
        """Insert many flows (more efficient than repeated :meth:`add`)."""
        incoming = list(flows)
        if not incoming:
            return
        self._version += 1
        self._flows.extend(incoming)
        self._flows.sort(key=lambda f: f.start)
        self._starts = [f.start for f in self._flows]
        self._by_src = {}
        for flow in self._flows:
            self._by_src.setdefault(flow.src, []).append(flow)

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self._flows)

    def __bool__(self) -> bool:
        return bool(self._flows)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def initiators(self) -> Set[str]:
        """All source addresses that initiated at least one flow."""
        return set(self._by_src)

    @property
    def span(self) -> float:
        """Time between the earliest flow start and the latest flow end."""
        if not self._flows:
            return 0.0
        return max(f.end for f in self._flows) - self._starts[0]

    def flows_from(self, host: str) -> List[FlowRecord]:
        """Flows initiated by ``host``, in start-time order.

        The per-initiator index is kept start-ordered at insertion, so
        this is a plain copy — no per-call sort.
        """
        return list(self._by_src.get(host, []))

    def flow_counts(self) -> Dict[str, int]:
        """Number of initiated flows per initiator (no list copies).

        The shard planner (:func:`repro.flows.metrics.plan_shards`)
        balances shards by this map.
        """
        return {host: len(flows) for host, flows in self._by_src.items()}

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every :meth:`add` / :meth:`extend`.

        The columnar snapshot keys its cache on this to detect
        staleness.
        """
        return self._version

    def columnar(self) -> ColumnarFlows:
        """The cached columnar snapshot, rebuilt after mutations.

        Building it costs one pass over the flow objects; every
        subsequent vectorized-extraction run on the unchanged store
        reuses the arrays for free.
        """
        if self._columnar is None or self._columnar_version != self._version:
            self._columnar = _build_columnar(self._by_src)
            self._columnar_version = self._version
        return self._columnar

    def shard_columns(
        self, hosts: Tuple[str, ...], grace_period: float
    ) -> ShardColumns:
        """Run the vectorized kernel over one shard's rows.

        Gathers the shard's rows from the cached columnar snapshot and
        runs :func:`group_by_host` on them; mirrors
        :meth:`repro.storage.StoreView.shard_columns`, which gathers
        from segments instead.  Every host must have initiated flows.
        """
        snapshot = self.columnar()
        indices = [snapshot.index_of[host] for host in hosts]
        offsets = snapshot.host_offsets
        selection = np.concatenate(
            [np.arange(offsets[i], offsets[i + 1]) for i in indices]
        )
        counts_arr = np.array(
            [int(offsets[i + 1] - offsets[i]) for i in indices], dtype=np.int64
        )
        return group_by_host(
            list(hosts),
            counts_arr,
            snapshot.starts[selection],
            snapshot.src_bytes[selection],
            snapshot.success[selection],
            snapshot.dst_codes[selection],
            snapshot.n_destinations,
            grace_period,
        )

    def flows_involving(self, host: str) -> List[FlowRecord]:
        """Flows where ``host`` is either endpoint, in start-time order."""
        return [f for f in self._flows if f.involves(host)]

    def between(self, t0: float, t1: float) -> "FlowStore":
        """Flows whose start time lies in ``[t0, t1)``, as a new store."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        return FlowStore(self._flows[lo:hi])

    def filter(self, predicate: Callable[[FlowRecord], bool]) -> "FlowStore":
        """A new store with only the flows satisfying ``predicate``."""
        return FlowStore([f for f in self._flows if predicate(f)])

    def restricted_to_sources(self, hosts: Iterable[str]) -> "FlowStore":
        """A new store with only flows initiated by the given hosts."""
        wanted = set(hosts)
        kept: List[FlowRecord] = []
        for host in wanted:
            kept.extend(self._by_src.get(host, []))
        return FlowStore(kept)

    def merged_with(self, other: "FlowStore") -> "FlowStore":
        """A new store holding the union of both stores' flows."""
        merged = FlowStore(self._flows)
        merged.extend(list(other))
        return merged

    def destinations_of(self, host: str) -> Set[str]:
        """Distinct destination addresses contacted by ``host``."""
        return {f.dst for f in self._by_src.get(host, [])}
