"""Bi-directional flow records in the style of Argus / the RTFM flow model.

The paper (§III) consumes traffic organised by Argus into bi-directional
flow records: packets sharing the 5-tuple (source IP, destination IP,
source port, destination port, protocol) are grouped into one record that
summarises both directions of the conversation.  The source address of the
record is the host that *initiated* the connection.

Each record carries the fields the paper relies on:

* addressing and protocol (the 5-tuple),
* start and end times of the flow,
* packet and byte counts, split by direction (bytes uploaded by the
  initiator are what the volume test measures),
* a TCP/UDP "state" from which connection success or failure is judged,
* the first 64 bytes of payload, used *only* for ground-truth labeling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "Protocol",
    "FlowState",
    "FlowRecord",
    "PAYLOAD_SNIPPET_LEN",
]

#: Number of leading payload bytes retained per flow, as in the paper (§III).
PAYLOAD_SNIPPET_LEN = 64


class Protocol(enum.Enum):
    """Transport protocol of a flow.  The paper restricts to TCP and UDP."""

    TCP = "tcp"
    UDP = "udp"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class FlowState(enum.Enum):
    """Outcome of a connection attempt, summarised at flow granularity.

    Argus reports per-flow TCP state; for the purposes of the paper only
    the distinction between *successful* and *failed* connections matters
    (failed-connection rate drives the initial data-reduction step, §V-A).

    * ``ESTABLISHED`` — the handshake completed / the UDP request was
      answered.
    * ``REJECTED`` — the remote end actively refused (TCP RST).
    * ``TIMEOUT`` — no answer at all (SYN timeout, unanswered UDP).
    """

    ESTABLISHED = "est"
    REJECTED = "rej"
    TIMEOUT = "timeout"

    @property
    def failed(self) -> bool:
        """Whether this state counts as a failed connection attempt."""
        return self is not FlowState.ESTABLISHED

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class FlowRecord:
    """One bi-directional flow record.

    Attributes
    ----------
    src:
        IP address (dotted quad) of the connection initiator.
    dst:
        IP address of the responder.
    sport, dport:
        Transport ports on the initiator / responder side.
    proto:
        Transport protocol (TCP or UDP).
    start, end:
        Flow start and end times, in seconds since the epoch of the
        containing trace.  Both finite, ``end >= start``.
    src_bytes, dst_bytes:
        Application bytes sent by the initiator / by the responder.
    src_pkts, dst_pkts:
        Packets sent by the initiator / by the responder.
    state:
        Connection outcome; failed flows carry no responder payload.
    payload:
        First bytes (at most :data:`PAYLOAD_SNIPPET_LEN`) of the
        initiator's payload.  Used exclusively for ground truth.
    """

    src: str
    dst: str
    sport: int
    dport: int
    proto: Protocol
    start: float
    end: float
    src_bytes: int = 0
    dst_bytes: int = 0
    src_pkts: int = 0
    dst_pkts: int = 0
    state: FlowState = FlowState.ESTABLISHED
    payload: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        # ``end < start`` is false for NaN, so finiteness is its own check.
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(
                f"flow times must be finite: start {self.start!r}, "
                f"end {self.end!r}"
            )
        if self.end < self.start:
            raise ValueError(
                f"flow end {self.end!r} precedes start {self.start!r}"
            )
        if min(self.src_bytes, self.dst_bytes, self.src_pkts, self.dst_pkts) < 0:
            raise ValueError("packet/byte counts must be non-negative")
        if not (0 <= self.sport <= 65535 and 0 <= self.dport <= 65535):
            raise ValueError(
                f"ports must be in [0, 65535]: {self.sport}, {self.dport}"
            )
        if len(self.payload) > PAYLOAD_SNIPPET_LEN:
            object.__setattr__(self, "payload", self.payload[:PAYLOAD_SNIPPET_LEN])

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Flow duration in seconds."""
        return self.end - self.start

    @property
    def total_bytes(self) -> int:
        """Bytes in both directions."""
        return self.src_bytes + self.dst_bytes

    @property
    def total_pkts(self) -> int:
        """Packets in both directions."""
        return self.src_pkts + self.dst_pkts

    @property
    def failed(self) -> bool:
        """Whether the connection attempt failed (see :class:`FlowState`)."""
        return self.state.failed

    @property
    def five_tuple(self) -> Tuple[str, str, int, int, Protocol]:
        """The (src, dst, sport, dport, proto) key identifying the flow."""
        return (self.src, self.dst, self.sport, self.dport, self.proto)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def shifted(self, delta: float) -> "FlowRecord":
        """Return a copy of this flow translated in time by ``delta``."""
        return replace(self, start=self.start + delta, end=self.end + delta)

    def reassigned(self, new_src: str) -> "FlowRecord":
        """Return a copy originating from ``new_src``.

        Used when overlaying honeynet Plotter traces onto internal campus
        hosts (§V): the bot's flows are re-attributed to the chosen host.
        """
        return replace(self, src=new_src)

    def scaled_volume(self, factor: float) -> "FlowRecord":
        """Return a copy with initiator bytes scaled by ``factor``.

        Supports the volume-inflation evasion experiments (§VI).
        """
        if factor < 0:
            raise ValueError("volume scale factor must be non-negative")
        return replace(self, src_bytes=int(round(self.src_bytes * factor)))

    def involves(self, host: str) -> bool:
        """Whether ``host`` is an endpoint of this flow."""
        return host == self.src or host == self.dst

    def peer_of(self, host: str) -> Optional[str]:
        """The other endpoint when ``host`` is one endpoint, else ``None``."""
        if host == self.src:
            return self.dst
        if host == self.dst:
            return self.src
        return None
