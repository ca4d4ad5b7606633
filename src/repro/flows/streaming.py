"""One-pass, bounded-memory feature extraction for busy borders.

The paper's scalability pitch (§I, §VII) is that flow summaries let the
detector "scale to very busy networks" — CMU's border ran at ~5000
flows per second.  Batch feature extraction
(:mod:`repro.flows.metrics`) re-scans the stored trace per host; this
module provides the streaming counterpart an operator would actually
deploy: flows are consumed once, in any order of arrival, and per-host
state is bounded.

Exact state kept per host: flow/failure counters, uploaded-byte sum,
the destination set with first-contact times (needed exactly by the
churn metric), and per-destination *last* flow start (for interstitial
gaps).  The unbounded part — the interstitial samples themselves — is
replaced by reservoir sampling with a configurable cap, giving an
unbiased sample of the distribution θ_hm histograms are built from.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..obs import metrics as obs_metrics
from .metrics import (
    NEW_IP_GRACE_PERIOD,
    HostFeatures,
    new_fraction_from_first_contacts,
)
from .record import FlowRecord

__all__ = ["StreamingHostState", "StreamingFeatureExtractor"]

#: Default cap on retained interstitial samples per host.
DEFAULT_RESERVOIR = 4096

# Ingest telemetry (no-ops while repro.obs is disabled), counted once
# per batch (:meth:`StreamingFeatureExtractor.update_many`), so a busy
# border pays one counter increment and one rate refresh per batch, not
# per record.
_FLOWS_INGESTED = obs_metrics.counter(
    "repro_flows_ingested_total",
    "Flows consumed by streaming feature extractors",
)
_INGEST_RATE = obs_metrics.gauge(
    "repro_flow_ingest_rate_per_s",
    "Wall-clock ingest throughput of the busiest extractor (flows/s)",
)


@dataclass
class StreamingHostState:
    """Accumulated per-host state (bounded except for the dest map)."""

    flow_count: int = 0
    successful: int = 0
    uploaded_bytes: int = 0
    first_activity: Optional[float] = None
    first_contact: Dict[str, float] = field(default_factory=dict)
    last_start: Dict[str, float] = field(default_factory=dict)
    reservoir: List[float] = field(default_factory=list)
    samples_seen: int = 0


class StreamingFeatureExtractor:
    """Consume flows one at a time; emit per-host feature bundles.

    Flows may arrive out of order up to the granularity the detector
    cares about: first-contact times take the minimum seen, and
    interstitial gaps use absolute differences, so modest reordering
    (as produced by a real collector's export batching) does not skew
    the features.
    """

    def __init__(
        self,
        reservoir_size: int = DEFAULT_RESERVOIR,
        grace_period: float = NEW_IP_GRACE_PERIOD,
        seed: int = 0,
    ) -> None:
        if reservoir_size <= 0:
            raise ValueError("reservoir size must be positive")
        self.reservoir_size = reservoir_size
        self.grace_period = grace_period
        self._rng = random.Random(seed)
        self._hosts: Dict[str, StreamingHostState] = {}
        self._ingested = 0
        self._ingest_t0: Optional[float] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def update(self, flow: FlowRecord) -> None:
        """Account one flow to its initiator.

        Reads only ``src``, ``dst``, ``start``, ``src_bytes`` and
        ``failed``, so any object carrying those will do — the serve
        worker passes its light :class:`~repro.serve.worker.FlowRow`.
        Telemetry counts batches: feed flows through :meth:`update_many`
        to have them counted.
        """
        state = self._hosts.setdefault(flow.src, StreamingHostState())
        state.flow_count += 1
        if not flow.failed:
            state.successful += 1
        state.uploaded_bytes += flow.src_bytes
        if state.first_activity is None or flow.start < state.first_activity:
            state.first_activity = flow.start
        seen = state.first_contact.get(flow.dst)
        if seen is None or flow.start < seen:
            state.first_contact[flow.dst] = flow.start

        last = state.last_start.get(flow.dst)
        if last is not None:
            self._add_sample(state, abs(flow.start - last))
        state.last_start[flow.dst] = flow.start

    def update_many(self, flows) -> None:
        """Account an iterable of flows as one batch: one increment of
        ``repro_flows_ingested_total`` and one refresh of the rate
        gauge, however many flows it holds."""
        if self._ingest_t0 is None:
            self._ingest_t0 = time.perf_counter()
        count = 0
        for flow in flows:
            self.update(flow)
            count += 1
        self._ingested += count
        if obs_metrics.is_enabled():
            _FLOWS_INGESTED.inc(count)
            elapsed = time.perf_counter() - self._ingest_t0
            if elapsed > 0:
                _INGEST_RATE.set(self._ingested / elapsed)

    def _add_sample(self, state: StreamingHostState, gap: float) -> None:
        state.samples_seen += 1
        if len(state.reservoir) < self.reservoir_size:
            state.reservoir.append(gap)
            return
        # Vitter's algorithm R: replace with probability k/n.
        index = self._rng.randrange(state.samples_seen)
        if index < self.reservoir_size:
            state.reservoir[index] = gap

    # ------------------------------------------------------------------
    # Read out
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> Set[str]:
        """All initiators seen so far."""
        return set(self._hosts)

    def features(self, host: str) -> HostFeatures:
        """The feature bundle for one host.

        Raises ``KeyError`` for a host never seen.
        """
        state = self._hosts[host]
        dests = len(state.first_contact)
        if state.first_activity is not None:
            # One definition of the §IV-B churn metric, shared with the
            # batch extractor.
            new_fraction = new_fraction_from_first_contacts(
                state.first_contact, state.first_activity, self.grace_period
            )
        else:
            new_fraction = 0.0
        return HostFeatures(
            host=host,
            flow_count=state.flow_count,
            successful_flow_count=state.successful,
            avg_flow_size=(
                state.uploaded_bytes / state.flow_count
                if state.flow_count
                else 0.0
            ),
            failed_conn_rate=(
                (state.flow_count - state.successful) / state.flow_count
                if state.flow_count
                else 0.0
            ),
            new_ip_fraction=new_fraction,
            distinct_destinations=dests,
            interstitials=tuple(state.reservoir),
        )

    def all_features(self) -> Dict[str, HostFeatures]:
        """Feature bundles for every host seen."""
        # Read-out refreshes the rate too, so it counts time since the
        # last batch.
        if obs_metrics.is_enabled() and self._ingested:
            elapsed = time.perf_counter() - (self._ingest_t0 or 0.0)
            if elapsed > 0:
                _INGEST_RATE.set(self._ingested / elapsed)
        return {host: self.features(host) for host in self._hosts}

    def state_size(self, host: str) -> Tuple[int, int]:
        """(destination-map entries, reservoir entries) for one host."""
        state = self._hosts[host]
        return (len(state.first_contact), len(state.reservoir))
