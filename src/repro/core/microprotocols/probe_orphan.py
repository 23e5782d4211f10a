"""Probe Orphan Termination (extension): detect dead clients by probing.

Section 4.4.7: "Detection can be based either on receiving a message from
a newer incarnation of the client, indicating that the previous
incarnation died, or by periodically probing the client.  Terminate
Orphan uses the first approach."  This extension implements the second.

Every ``probe_interval`` seconds the server PINGs each client that has
work pending locally; the client side of the same micro-protocol answers
every PING with a PONG carrying its current incarnation.  A client that
misses ``missed_limit`` consecutive probes is presumed dead and its
pending executions are killed; a PONG whose incarnation is newer than a
pending call's also exposes that call as an orphan (the client rebooted).

Unlike the incarnation-based Terminate Orphan, probing detects orphans of
clients that die and *never come back* — the case the paper's first
approach cannot handle.  The price is the probe traffic and, this being
a timeout in an asynchronous system, the possibility of killing work for
a merely-slow client (which will simply retransmit and re-execute).
"""

from __future__ import annotations

from typing import Dict

from repro.core.events import TIMEOUT
from repro.core.grpc import CALL_ABORTED, MSG_FROM_NETWORK
from repro.core.messages import NetMsg, NetOp
from repro.core.microprotocols.terminate_orphan import TerminateOrphan
from repro.net.message import ProcessId
from repro.obs import register_protocol

__all__ = ["ProbeOrphanTermination"]


class _ProbeState:
    __slots__ = ("outstanding", "missed")

    def __init__(self) -> None:
        self.outstanding = False
        self.missed = 0


class ProbeOrphanTermination(TerminateOrphan):
    """Terminate Orphan with periodic client probing on top."""

    protocol_name = "Probe_Orphan_Termination"

    def __init__(self, probe_interval: float = 0.1,
                 missed_limit: int = 3):
        super().__init__()
        if probe_interval <= 0:
            raise ValueError("probe interval must be positive")
        if missed_limit < 1:
            raise ValueError("missed limit must be >= 1")
        self.probe_interval = probe_interval
        self.missed_limit = missed_limit
        self._probes: Dict[ProcessId, _ProbeState] = {}
        #: Orphans killed due to unanswered probes (vs. reincarnation).
        self.probe_kills = 0

    def reset(self) -> None:
        super().reset()
        self._probes.clear()

    def configure(self) -> None:
        super().configure()
        self.register(MSG_FROM_NETWORK, self.handle_probe_traffic,
                      kinds=(NetOp.PING, NetOp.PONG))
        self.register(TIMEOUT, self.probe_round, self.probe_interval)

    # ------------------------------------------------------------------

    async def handle_probe_traffic(self, msg: NetMsg) -> None:
        if msg.type is NetOp.PING:
            # Client side: always answer, echoing the probe id and our
            # current incarnation.
            pong = NetMsg(type=NetOp.PONG, id=msg.id,
                          sender=self.my_id,
                          inc=self.grpc.inc_number)
            await self.grpc.net_push(msg.sender, pong)
        else:  # PONG
            state = self._probes.get(msg.sender)
            if state is not None:
                state.outstanding = False
                state.missed = 0
            # A PONG from a newer incarnation exposes older pending
            # calls as orphans, just like a newer-incarnation CALL.
            known = self.client_inc.get(msg.sender)
            if known is not None and msg.inc > known:
                self.client_inc[msg.sender] = msg.inc
                await self._kill_orphans(msg.sender, msg.inc)

    async def probe_round(self) -> None:
        grpc = self.grpc
        pending_clients = {record.client for record in grpc.sRPC.records()}
        for client, state in list(self._probes.items()):
            if client not in pending_clients:
                del self._probes[client]
        for client in pending_clients:
            state = self._probes.setdefault(client, _ProbeState())
            if state.outstanding:
                state.missed += 1
                if state.missed >= self.missed_limit:
                    before = self.kills
                    await self._kill_all_pending(client)
                    self.probe_kills += self.kills - before
                    del self._probes[client]
                    continue
            state.outstanding = True
            ping = NetMsg(type=NetOp.PING, id=0, sender=self.my_id)
            await grpc.net_push(client, ping)
        # One-shot TIMEOUTs re-register for periodic behavior.
        self.register(TIMEOUT, self.probe_round, self.probe_interval)

    async def _kill_all_pending(self, client: ProcessId) -> None:
        """The client is presumed dead: all its pending work is orphaned,
        whatever its incarnation."""
        grpc = self.grpc
        for record in grpc.sRPC.records():
            if record.client != client:
                continue
            if record.executor is not None:
                grpc.runtime.cancel(record.executor)
                self.kills += 1
            grpc.sRPC.remove(record.key)
            await self.trigger(CALL_ABORTED, record.key)


register_protocol(ProbeOrphanTermination.protocol_name)
