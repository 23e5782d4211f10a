"""Heartbeat-based failure detection (the membership substrate).

The paper assumes membership as a separate composite protocol that
triggers ``MEMBERSHIP_CHANGE`` "when a process fails or recovers".  This
module provides the realistic implementation: every monitored process
periodically multicasts a heartbeat; a peer that misses
``suspect_after`` consecutive intervals is declared failed, and a
heartbeat from a suspected peer declares it recovered.

Being timeout-based in an asynchronous system, the detector is
unavoidably unreliable — a long network delay can cause a false
suspicion.  Experiments that need a perfect detector use
:class:`repro.membership.service.OracleMembership` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set

from repro.core.messages import MemChange
from repro.net.message import ProcessId
from repro.net.node import Node
from repro.xkernel.upi import Protocol

__all__ = ["Heartbeat", "HeartbeatDetector"]


@dataclass(frozen=True)
class Heartbeat:
    """The wire payload heartbeat senders multicast.

    ``wire_control`` marks the type for the wire pipeline's control fast
    lane: beats bypass link-level coalescing and queue budgets so a
    detector is never head-of-line blocked behind bulk RPC traffic
    (which would cause false suspicions under load).
    """

    sender: ProcessId
    seq: int

    #: Fast-lane marker read by :mod:`repro.net.wire` (class attribute,
    #: not a field — it never travels).
    wire_control = True


class HeartbeatDetector(Protocol):
    """Per-node heartbeat sender + peer liveness monitor.

    Routes its :class:`Heartbeat` payloads through the node's
    :class:`~repro.xkernel.demux.TypeDemux`.  ``listeners`` receive
    ``(pid, MemChange)`` callbacks; the service layer forwards these into
    the local gRPC composite's ``MEMBERSHIP_CHANGE`` event.
    """

    def __init__(self, node: Node, peers: Iterable[ProcessId], *,
                 interval: float = 0.05, suspect_after: int = 3):
        super().__init__(f"heartbeat@{node.pid}")
        if suspect_after < 1:
            raise ValueError("suspect_after must be >= 1")
        self.node = node
        self.peers: Set[ProcessId] = {p for p in peers if p != node.pid}
        self.interval = interval
        self.suspect_after = suspect_after
        self.listeners: List[Callable[[ProcessId, MemChange], None]] = []
        self._last_seen: Dict[ProcessId, float] = {}
        self._suspected: Set[ProcessId] = set()
        self._seq = 0
        node.crash_listeners.append(self._on_crash)
        node.recover_listeners.append(self._on_recover)

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin sending and monitoring (call once the node is up)."""
        now = self.node.runtime.now()
        for peer in self.peers:
            self._last_seen[peer] = now
        self.node.spawn(self._sender_loop(), name=f"{self.name}-send",
                        daemon=True)
        self.node.spawn(self._monitor_loop(), name=f"{self.name}-mon",
                        daemon=True)

    def alive(self) -> Set[ProcessId]:
        """Peers currently believed alive (self always included)."""
        return ({self.node.pid} | self.peers) - self._suspected

    def add_peers(self, peers: Iterable[ProcessId]) -> None:
        """Start monitoring additional peers (deployment grew).

        New peers begin with a fresh last-seen stamp so they get a full
        ``suspect_after`` grace period before a missing heartbeat can be
        interpreted as a failure.
        """
        now = self.node.runtime.now()
        for pid in peers:
            if pid == self.node.pid or pid in self.peers:
                continue
            self.peers.add(pid)
            self._last_seen[pid] = now

    def is_suspected(self, pid: ProcessId) -> bool:
        return pid in self._suspected

    # ------------------------------------------------------------------

    async def pop(self, payload: Heartbeat, sender: ProcessId) -> None:
        """A heartbeat arrived from a peer."""
        pid = payload.sender
        if pid not in self.peers:
            return
        self._last_seen[pid] = self.node.runtime.now()
        if pid in self._suspected:
            self._suspected.discard(pid)
            self._notify(pid, MemChange.RECOVERY)

    async def _sender_loop(self) -> None:
        while True:
            self._seq += 1
            beat = Heartbeat(self.node.pid, self._seq)
            if self.lower is not None:
                await self.lower.resolve_down().push(self.peers, beat)
            await self.node.runtime.sleep(self.interval)

    async def _monitor_loop(self) -> None:
        deadline = self.interval * self.suspect_after
        while True:
            await self.node.runtime.sleep(self.interval)
            now = self.node.runtime.now()
            for peer in self.peers:
                silent = now - self._last_seen.get(peer, 0.0)
                if peer not in self._suspected and silent > deadline:
                    self._suspected.add(peer)
                    self._notify(peer, MemChange.FAILURE)

    def _notify(self, pid: ProcessId, change: MemChange) -> None:
        for listener in list(self.listeners):
            listener(pid, change)

    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        self._suspected.clear()
        self._last_seen.clear()

    def _on_recover(self, incarnation: int) -> None:
        self.start()
