"""Flow-record substrate: the Argus-style bi-directional flow model.

This package provides the data the paper's detector consumes — flow
records, an indexed store, Argus-like serialization, per-host feature
extraction, and scoping filters.
"""

from .record import FlowRecord, FlowState, Protocol, PAYLOAD_SNIPPET_LEN
from .store import FlowStore
from .argus import read_flows, write_flows, dumps, loads
from .metrics import (
    HostFeatures,
    average_flow_size,
    extract_all_features,
    extract_features,
    extract_features_sharded,
    failed_connection_rate,
    features_from_sorted_flows,
    interstitial_times,
    new_ip_fraction,
    new_ip_timeseries,
    plan_shards,
)
from .filters import (
    active_hosts,
    internal_initiators,
    is_internal,
    restrict_window,
    tcp_udp_only,
)
from .anonymize import Anonymizer
from .streaming import StreamingFeatureExtractor, StreamingHostState
from .sampling import sample_per_host, sample_uniform
from .assembly import DEFAULT_IDLE_TIMEOUT, FlowAssembler, PacketRecord

__all__ = [
    "FlowRecord",
    "FlowState",
    "Protocol",
    "PAYLOAD_SNIPPET_LEN",
    "FlowStore",
    "read_flows",
    "write_flows",
    "dumps",
    "loads",
    "HostFeatures",
    "average_flow_size",
    "failed_connection_rate",
    "new_ip_fraction",
    "new_ip_timeseries",
    "interstitial_times",
    "extract_features",
    "features_from_sorted_flows",
    "extract_all_features",
    "extract_features_sharded",
    "plan_shards",
    "active_hosts",
    "internal_initiators",
    "is_internal",
    "restrict_window",
    "tcp_udp_only",
    "Anonymizer",
    "StreamingFeatureExtractor",
    "StreamingHostState",
    "sample_per_host",
    "sample_uniform",
    "DEFAULT_IDLE_TIMEOUT",
    "FlowAssembler",
    "PacketRecord",
]
