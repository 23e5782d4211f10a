"""Consistent-hash ring: deterministic key placement with minimal churn.

The static modulo-N router remaps nearly the whole keyspace whenever the
shard count changes; a consistent-hash ring moves only the key ranges
adjacent to the added or removed node — O(K/N) keys instead of O(K).
Each node is planted at ``vnodes`` pseudo-random points on a 32-bit
circle and a key belongs to the first node point at or after its own
hash (wrapping).  More virtual nodes smooth the per-node share at the
cost of a larger point table.

Hashes are CRC-32 of seeded strings, so two rings built with the same
``(nodes, vnodes, seed)`` agree on every key across processes and runs —
the same property that lets independent :class:`~repro.apps.sharding.
ShardRouter` clients share one layout, preserved under elasticity.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import PlacementError

__all__ = ["HashRing", "plan_moves"]


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


class HashRing:
    """A seeded consistent-hash ring over named nodes (shard services)."""

    def __init__(self, nodes: Iterable[str] = (), *, vnodes: int = 64,
                 seed: int = 0):
        if vnodes < 1:
            raise PlacementError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.seed = seed
        #: Sorted (point, node) pairs; ties broken by name, so the order
        #: is deterministic even on CRC collisions.
        self._points: List[Tuple[int, str]] = []
        self._nodes: set = set()
        for name in nodes:
            self.add(name)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add(self, name: str) -> None:
        """Plant ``name``'s virtual nodes on the ring."""
        if name in self._nodes:
            raise PlacementError(f"node {name!r} is already on the ring")
        self._nodes.add(name)
        for i in range(self.vnodes):
            point = _crc(f"{self.seed}:vnode:{name}#{i}")
            bisect.insort(self._points, (point, name))

    def remove(self, name: str) -> None:
        """Take ``name`` off the ring; its ranges fall to the successors."""
        if name not in self._nodes:
            raise PlacementError(f"node {name!r} is not on the ring")
        self._nodes.discard(name)
        self._points = [(p, n) for (p, n) in self._points if n != name]

    def copy(self) -> "HashRing":
        """An independent ring with the same placement function."""
        clone = HashRing(vnodes=self.vnodes, seed=self.seed)
        clone._points = list(self._points)
        clone._nodes = set(self._nodes)
        return clone

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def key_point(self, key: Any) -> int:
        """Where ``key`` lands on the circle (the routing hash)."""
        return _crc(f"{self.seed}:key:{key}")

    def route(self, key: Any) -> str:
        """The node owning ``key``: first node point at or after the
        key's hash, wrapping past the top of the circle."""
        if not self._points:
            raise PlacementError("cannot route on an empty ring")
        point = self.key_point(key)
        index = bisect.bisect_left(self._points, (point, ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def partition(self, keys: Iterable[Any]) -> Dict[str, List[Any]]:
        """Group ``keys`` by owning node (every node gets an entry)."""
        out: Dict[str, List[Any]] = {name: [] for name in self.nodes}
        for key in keys:
            out[self.route(key)].append(key)
        return out

    def moved_keys(self, other: "HashRing",
                   keys: Iterable[Any]) -> Dict[Any, Tuple[str, str]]:
        """Keys whose owner differs between this ring and ``other``,
        mapped to their ``(old_owner, new_owner)`` pair."""
        moves: Dict[Any, Tuple[str, str]] = {}
        for key in keys:
            old, new = self.route(key), other.route(key)
            if old != new:
                moves[key] = (old, new)
        return moves


def plan_moves(after: HashRing, keys_by_node: Dict[str, Iterable[Any]]
               ) -> Dict[Tuple[str, str], List[Any]]:
    """Which keys must travel, grouped by (source, destination).

    ``keys_by_node`` maps each *current* owner to the keys it actually
    holds; a key whose owner under ``after`` differs is scheduled to move.
    Pairs and key lists are sorted, so a migration plan is deterministic.
    """
    moves: Dict[Tuple[str, str], List[Any]] = {}
    for source, keys in sorted(keys_by_node.items()):
        for key in keys:
            dest = after.route(key)
            if dest != source:
                moves.setdefault((source, dest), []).append(key)
    return {pair: sorted(keys, key=str) for pair, keys in
            sorted(moves.items())}
