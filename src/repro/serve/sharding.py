"""Stable host → shard assignment.

The shard function must be deterministic *across processes and runs*:
a restarted coordinator, a replaying worker and the test suite all
have to agree on where a host lives.  Python's builtin ``hash`` is
salted per process, so the assignment hashes the host address with
blake2b instead — stable everywhere, uniform enough that shards stay
balanced without any coordination state.

Sharding by *host* (not by flow) is what makes per-shard detection
sound: every flow a host initiates reaches the same worker's window
state, so per-host features are computed from complete evidence no
matter how many shards there are.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["shard_of", "ShardMap", "rebalance_moves"]


def shard_of(host: str, n_shards: int) -> int:
    """The shard index for ``host`` — stable across processes and runs."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    digest = hashlib.blake2b(host.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


class ShardMap:
    """The host partition for one shard-count epoch.

    Each host is hashed once: the map keeps every host it has placed,
    so placing the same hosts chunk after chunk costs one dictionary
    lookup each.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self._placed = _Placed(self.n_shards)

    def shard_of(self, host: str) -> int:
        return self._placed[host]

    def shards(self, hosts: Sequence[str]) -> np.ndarray:
        """Each host's shard, aligned with ``hosts``."""
        return np.fromiter(
            map(self._placed.__getitem__, hosts), np.intp, len(hosts)
        )

    def hosts_per_shard(self) -> List[int]:
        """How many of the hosts placed so far each shard holds."""
        counts = [0] * self.n_shards
        for shard in self._placed.values():
            counts[shard] += 1
        return counts

    def partition(self, hosts: Iterable[str]) -> Dict[int, List[str]]:
        """Hosts grouped by shard (every shard present, sorted hosts)."""
        groups: Dict[int, List[str]] = {i: [] for i in range(self.n_shards)}
        for host in hosts:
            groups[self.shard_of(host)].append(host)
        for members in groups.values():
            members.sort()
        return groups

    def __repr__(self) -> str:
        return f"ShardMap(n_shards={self.n_shards})"


class _Placed(dict):
    """``host -> shard``: a missing host is hashed and remembered."""

    def __init__(self, n_shards: int) -> None:
        super().__init__()
        self.n_shards = n_shards

    def __missing__(self, host: str) -> int:
        shard = self[host] = shard_of(host, self.n_shards)
        return shard


def rebalance_moves(
    hosts: Iterable[str], old_n: int, new_n: int
) -> List[Tuple[str, int, int]]:
    """Hosts whose shard changes when the shard count does.

    Returns sorted ``(host, old_shard, new_shard)`` triples — the plan
    a rebalance executes (and the thing its tests pin: deterministic,
    empty when ``old_n == new_n``, total over the moved hosts).
    """
    moves: List[Tuple[str, int, int]] = []
    for host in sorted(set(hosts)):
        old = shard_of(host, old_n)
        new = shard_of(host, new_n)
        if old != new:
            moves.append((host, old, new))
    return moves
