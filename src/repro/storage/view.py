"""A :class:`~repro.flows.store.FlowStore`-shaped facade over segments.

:class:`StoreView` is how the rest of the pipeline consumes a
:class:`~repro.storage.store.SegmentStore` without knowing it exists:
it answers the store-protocol queries the detection stages and the
feature extractor actually use — ``initiators``, ``flow_counts()``,
``shard_columns()``, ``columnar()``, ``flows_from()``, ``version``,
``between()`` — by gathering from segments on demand.  Every answer is bit-identical to
the same query against an in-memory :class:`FlowStore` holding the
same rows (the equivalence suite pins this property under Hypothesis).

What distinguishes it from the in-memory plane is **a materialisation
budget**: ``max_gather_rows`` bounds the rows any single gather may
bring into memory; exceeding it raises
:class:`~repro.storage.format.StorageBudgetError` instead of silently
defeating the point of out-of-core storage.  Feature extraction
(:func:`repro.flows.metrics.extract_features_sharded`) gathers per
shard and sizes its shard count from the budget, so the budget is
per-shard, not per-trace — that is what lets a trace larger than RAM
run.

Time-restricted views (:meth:`between`) carry the window into every
gather, so zone-map pruning applies to replayed windows exactly as to
host subsets.

A view reads one :class:`~repro.storage.store.SegmentStore` or a
:class:`~repro.storage.store.StoreChain` of several, in order: the
chain's rows answer every query as one in-memory store holding each
store's rows in turn would — how the serve drain scores every spool
at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..flows.record import FlowRecord, FlowState, Protocol
from ..flows.store import ColumnarFlows, ShardColumns, group_by_host
from .format import StorageBudgetError  # noqa: F401  (re-exported for callers)
from .store import Gathered, SegmentStore, StoreChain

__all__ = ["StoreView"]


def _recode_first_appearance(codes: np.ndarray) -> Tuple[np.ndarray, int]:
    """Renumber codes by first appearance (the in-memory plane's order)."""
    uniques, first_pos, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    order = np.argsort(first_pos)
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[order] = np.arange(len(uniques), dtype=np.int64)
    return rank[inverse], len(uniques)


class StoreView:
    """Read-only, optionally time-restricted view over segment stores.

    Feature kernels, the detection stages, and the feature extractor
    accept this anywhere they accept a :class:`FlowStore`.  ``store``
    is one :class:`SegmentStore` or a :class:`StoreChain` of several.
    """

    def __init__(
        self,
        store: Union[SegmentStore, StoreChain],
        *,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        max_gather_rows: Optional[int] = None,
    ) -> None:
        if max_gather_rows is not None and max_gather_rows < 1:
            raise ValueError("max_gather_rows must be >= 1")
        self.store = store
        self.t0 = t0
        self.t1 = t1
        self.max_gather_rows = max_gather_rows
        self._counts: Optional[Dict[str, int]] = None
        self._counts_generation = -1
        self._columnar: Optional[ColumnarFlows] = None
        self._columnar_generation = -1

    # ------------------------------------------------------------------
    # Store protocol
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The store's catalog generation — the cache-staleness key."""
        return self.store.generation

    def flow_counts(self) -> Dict[str, int]:
        """Initiated-flow counts per host, from zone maps when possible."""
        if self._counts is None or self._counts_generation != self.version:
            self._counts = self.store.host_counts(self.t0, self.t1)
            self._counts_generation = self.version
        return dict(self._counts)

    @property
    def initiators(self) -> Set[str]:
        """All source addresses with at least one flow in the window."""
        return set(self.flow_counts())

    def __len__(self) -> int:
        return sum(self.flow_counts().values())

    def __bool__(self) -> bool:
        return len(self) > 0

    def between(self, t0: float, t1: float) -> "StoreView":
        """A sub-view over ``[t0, t1)``, intersected with this window."""
        lo = t0 if self.t0 is None else max(self.t0, t0)
        hi = t1 if self.t1 is None else min(self.t1, t1)
        return StoreView(
            self.store, t0=lo, t1=hi, max_gather_rows=self.max_gather_rows
        )

    # ------------------------------------------------------------------
    # Gathering
    # ------------------------------------------------------------------
    def gather(self, hosts=None) -> Gathered:
        """Gather this view's rows (optionally for a host subset)."""
        return self.store.gather(
            hosts,
            self.t0,
            self.t1,
            max_rows=self.max_gather_rows,
        )

    def columnar(self) -> ColumnarFlows:
        """The window as a :class:`ColumnarFlows`, bit-identical to the
        snapshot an in-memory store of the same rows would build.

        Materialises every row in the window — subject to the gather
        budget.  Prefer :meth:`shard_columns` (per-shard gathers) when
        the trace does not comfortably fit.
        """
        if (
            self._columnar is None
            or self._columnar_generation != self.version
        ):
            gathered = self.gather()
            dst_codes, n_destinations = _recode_first_appearance(
                gathered.dst_codes
            )
            host_offsets = np.zeros(len(gathered.hosts) + 1, dtype=np.int64)
            np.cumsum(gathered.counts, out=host_offsets[1:])
            self._columnar = ColumnarFlows(
                hosts=gathered.hosts,
                index_of={h: i for i, h in enumerate(gathered.hosts)},
                host_offsets=host_offsets,
                starts=gathered.starts,
                src_bytes=gathered.src_bytes,
                success=gathered.success,
                dst_codes=dst_codes,
                n_destinations=n_destinations,
            )
            self._columnar_generation = self.version
        return self._columnar

    def shard_columns(
        self, hosts: Tuple[str, ...], grace_period: float
    ) -> ShardColumns:
        """Run the vectorized shard kernel over a per-shard gather.

        Mirrors :meth:`repro.flows.store.FlowStore.shard_columns`: only
        the shard's rows are materialised (budget-checked), then the
        exact in-memory group-by kernel
        (:func:`repro.flows.store.group_by_host`) runs on them — same
        kernel, same ordering, same bits.
        """
        gathered = self.gather(hosts)
        return group_by_host(
            list(gathered.hosts),
            gathered.counts,
            gathered.starts,
            gathered.src_bytes,
            gathered.success,
            gathered.dst_codes,
            gathered.n_destinations,
            grace_period,
        )

    # ------------------------------------------------------------------
    # Record materialisation (reference/compatibility path)
    # ------------------------------------------------------------------
    def flows_from(self, host: str) -> List[FlowRecord]:
        """``host``'s flows as synthetic records, in start-time order.

        The storage plane keeps only the feature-bearing columns, so
        the records come back with neutral ports/protocol/packet fields
        and ``state`` collapsed to established vs timeout — exactly the
        projection every feature in :mod:`repro.flows.metrics`
        consumes, which is why the reference kernel still produces
        bit-identical features from them.
        """
        gathered = self.gather([host])
        dsts = gathered.dsts
        return [
            FlowRecord(
                src=host,
                dst=dsts[dcode],
                sport=0,
                dport=0,
                proto=Protocol.TCP,
                start=start,
                end=start,
                src_bytes=size,
                state=FlowState.ESTABLISHED if ok else FlowState.TIMEOUT,
            )
            for start, size, ok, dcode in zip(
                gathered.starts.tolist(),
                gathered.src_bytes.tolist(),
                gathered.success.tolist(),
                gathered.dst_codes.tolist(),
            )
        ]
