"""Total Order (Section 4.4.6): all servers execute all calls in one order.

"Total Order ... uses one group member, the leader, to assign the total
order in which calls will be executed and then disseminate it to the
group.  The leader at any point is defined to be the server with the
largest unique identifier of all non-failed servers."

Protocol sketch (faithful to the paper's two-handler structure):

* ``assign_order`` (priority 1): the leader assigns the next rank to each
  new call — idempotently, re-announcing the same rank for retransmitted
  calls — and multicasts an ORDER message to the group.  A non-leader that
  sees a retransmitted call it is still waiting on forwards it to the
  leader, covering the case where the original never reached the leader.
* ``msg_from_net`` (priority 4, after RPC Main stored the record): gates
  execution.  A call executes when its rank equals ``next_entry``;
  later-ranked calls park in ``Ready_list``; unranked calls park in
  ``Waiting_set`` until their ORDER message arrives.  ``handle_reply``
  advances ``next_entry`` and releases the next ready call.

Followers track the leader's counter from observed ORDER messages, so on
a leader failure (reported via membership) the next-largest member
continues the sequence — a practical stand-in for the agreement phase the
paper explicitly omits "for brevity".  The paper's stale-duplicate cancel
inside ``assign_order`` is dropped: it ran *before* Unique Execution could
replay the stored reply, starving clients whose reply was lost
(deviation #7 in DESIGN.md); the priority-4 handler still discards stale
calls.

**The agreement phase (extension, ``resync=True``).**  The simplified
protocol is unsafe when the leader crashes with ORDER messages in
flight: an assignment seen by some survivors but not the new leader lets
the new leader reuse the rank.  With resync enabled, a member that
becomes leader (membership event) first multicasts ORDER_QUERY; members
answer ORDER_INFO with their known assignments; the leader merges (all
ranks came from one failed leader, so the union is conflict-free),
adopts ``max(rank) + 1`` as its counter, and multicasts the merged map
before assigning anything new.  Assignments the old leader made that
*no* survivor saw are reassigned fresh — safe, because no survivor can
have executed them.

Dependencies (stated in the paper): Reliable Communication and Unique
Execution configured, Bounded Termination absent.  Resync additionally
needs a membership service (to learn of the leader's death).
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.events import TIMEOUT
from repro.core.grpc import MSG_FROM_NETWORK, REPLY_FROM_SERVER
from repro.core.messages import CallKey, MemChange, NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.net.message import Group, ProcessId
from repro.obs import CTX_KEY, register_protocol

__all__ = ["TotalOrder"]

#: Total Order's slot in the HOLD arrays.
TOTAL = "TOTAL"


class TotalOrder(GRPCMicroProtocol):
    """Leader-assigned total execution order across the server group."""

    protocol_name = "Total_Order"

    def __init__(self, *, resync: bool = False,
                 resync_grace: float = 0.5) -> None:
        super().__init__()
        self.old_orders: Dict[CallKey, int] = {}
        self.ready_list: Dict[int, CallKey] = {}
        self.waiting_set: Set[CallKey] = set()
        self.next_order = 1    # next rank the leader will assign
        self.next_entry = 1    # next rank allowed to execute
        # -- agreement-phase extension --
        self.resync = resync
        self.resync_grace = resync_grace
        self._group: Group | None = None
        self._was_leader = False
        self._resyncing = False
        self._awaiting_info: Set[ProcessId] = set()
        #: How many resync rounds this member led (experiment metric).
        self.resyncs_led = 0

    def reset(self) -> None:
        self.old_orders.clear()
        self.ready_list.clear()
        self.waiting_set.clear()
        self.next_order = 1
        self.next_entry = 1
        self._group = None
        self._was_leader = False
        self._resyncing = False
        self._awaiting_info.clear()

    def configure(self) -> None:
        self.grpc.hold.declare(TOTAL)
        self.register(MSG_FROM_NETWORK, self.assign_order, kinds=(NetOp.CALL,))
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.CALL, NetOp.ORDER))
        self.register(REPLY_FROM_SERVER, self.handle_reply)
        if self.resync:
            from repro.core.grpc import MEMBERSHIP_CHANGE
            self.register(MSG_FROM_NETWORK, self.handle_resync_traffic,
                          kinds=(NetOp.ORDER_QUERY, NetOp.ORDER_INFO))
            self.register(MEMBERSHIP_CHANGE, self.handle_membership)

    def unconfigure(self) -> None:
        self.grpc.hold.retract(TOTAL)

    # ------------------------------------------------------------------

    def leader(self, server: Group) -> ProcessId:
        """Largest-id member the membership service believes is alive."""
        grpc = self.grpc
        alive = None if grpc.members is None else grpc.members
        return server.leader(alive)

    def i_am_leader(self, server: Group) -> bool:
        try:
            return self.my_id == self.leader(server)
        except ValueError:  # no live members known — cannot lead
            return False

    # ------------------------------------------------------------------

    async def assign_order(self, msg: NetMsg) -> None:
        grpc = self.grpc
        key = self.call_key(msg)
        self._note_group(msg.server)
        if self.i_am_leader(msg.server):
            rank = self.old_orders.get(key)
            if rank is None:
                if self._resyncing:
                    # Agreement phase in progress: assigning now could
                    # reuse a rank the failed leader already handed out.
                    # The client's retransmission will retry.
                    return
                rank = self.next_order
                self.old_orders[key] = rank
                self.next_order += 1
            # The ORDER joins the call's trace; untraced, it carries
            # no annotations at all.
            ctx = msg.annotation(CTX_KEY)
            order_msg = NetMsg(type=NetOp.ORDER, id=msg.id,
                               server=msg.server, sender=self.my_id,
                               inc=msg.inc, order=rank, client=msg.sender,
                               annotations=(None if ctx is None
                                            else {CTX_KEY: ctx}))
            await grpc.net_push(msg.server, order_msg)
        elif key in self.waiting_set:
            # Retransmitted but still unordered here: nudge the leader in
            # case the original call never reached it.
            await grpc.net_push(self.leader(msg.server), msg)

    async def msg_from_net(self, msg: NetMsg) -> None:
        grpc = self.grpc
        if msg.type is NetOp.CALL:
            key = self.call_key(msg)
            rank = self.old_orders.get(key)
            if rank is None:
                self.waiting_set.add(key)
            elif rank < self.next_entry:
                # Already executed in an earlier arrival: stale duplicate.
                self.cancel_event()
                grpc.sRPC.remove(key)
            elif rank == self.next_entry:
                await grpc.forward_up(key, TOTAL)
            else:
                self.ready_list[rank] = key
        else:  # ORDER
            self._note_group(msg.server)
            await self._learn((msg.client, msg.inc, msg.id), msg.order)

    async def _learn(self, key: CallKey, rank: int) -> None:
        """Adopt one order assignment (from an ORDER message or a resync
        merge) and release the call if it is now executable."""
        # Track the leader's counter for failover continuity.
        if self.next_order < rank + 1:
            self.next_order = rank + 1
        if key not in self.old_orders:
            self.old_orders[key] = rank
        if key in self.waiting_set:
            self.waiting_set.discard(key)
            if rank == self.next_entry:
                await self.grpc.forward_up(key, TOTAL)
            elif rank > self.next_entry:
                self.ready_list[rank] = key
            else:
                self.grpc.sRPC.remove(key)

    async def handle_reply(self, key: CallKey) -> None:
        record = self.grpc.sRPC.get(key)
        if record is None or self.old_orders.get(key) != self.next_entry:
            return
        self.next_entry += 1
        successor = self.ready_list.pop(self.next_entry, None)
        if successor is not None:
            await self.grpc.forward_up(successor, TOTAL)

    # ------------------------------------------------------------------
    # The agreement phase (extension; paper omits it "for brevity")
    # ------------------------------------------------------------------

    def _note_group(self, server: Group) -> None:
        if self._group is None:
            self._group = server
            self._was_leader = self.i_am_leader(server)

    async def handle_membership(self, who: ProcessId,
                                change: MemChange) -> None:
        if change is not MemChange.FAILURE or self._group is None:
            return
        try:
            leader_now = self.i_am_leader(self._group)
        except ValueError:
            return
        if leader_now and not self._was_leader:
            await self._start_resync()
        self._was_leader = leader_now

    async def _start_resync(self) -> None:
        grpc = self.grpc
        self.resyncs_led += 1
        self._resyncing = True
        self._awaiting_info = {
            pid for pid in self._group
            if pid != self.my_id and grpc.is_member_alive(pid)}
        if not self._awaiting_info:
            await self._finish_resync()
            return
        self._resync_attempts = 0
        await self._send_queries()

    async def _send_queries(self) -> None:
        query = NetMsg(type=NetOp.ORDER_QUERY, sender=self.my_id,
                       server=self._group)
        await self.grpc.net_push(self._awaiting_info, query)
        self.register(TIMEOUT, self._resync_timeout, self.resync_grace)

    async def _resync_timeout(self) -> None:
        if not self._resyncing:
            return
        self._resync_attempts += 1
        if self._resync_attempts < 3 and self._awaiting_info:
            # ORDER_QUERY/INFO travel over the unreliable transport;
            # retry the holdouts before declaring them unreachable.
            await self._send_queries()
        else:
            await self._finish_resync()

    async def _finish_resync(self) -> None:
        self._resyncing = False
        self._awaiting_info.clear()
        entries = [(c, i, cid, rank)
                   for (c, i, cid), rank in self.old_orders.items()]
        info = NetMsg(type=NetOp.ORDER_INFO, sender=self.my_id,
                      server=self._group, args=entries)
        await self.grpc.net_push(self._group, info)

    async def handle_resync_traffic(self, msg: NetMsg) -> None:
        if msg.type is NetOp.ORDER_QUERY:
            entries = [(c, i, cid, rank)
                       for (c, i, cid), rank in self.old_orders.items()]
            info = NetMsg(type=NetOp.ORDER_INFO, sender=self.my_id,
                          server=msg.server, args=entries)
            await self.grpc.net_push(msg.sender, info)
        else:  # ORDER_INFO
            for c, i, cid, rank in (msg.args or []):
                await self._learn((c, i, cid), rank)
            if self._resyncing:
                self._awaiting_info.discard(msg.sender)
                if not self._awaiting_info:
                    await self._finish_resync()


register_protocol(TotalOrder.protocol_name)
