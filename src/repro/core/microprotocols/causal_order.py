"""Causal Order (extension): execute calls respecting happened-before.

Section 2.2 notes that beyond FIFO and total order, "other variants such
as partial or causal order have also been defined"; the paper implements
only FIFO and Total.  This extension micro-protocol adds causal order:

* the client side maintains a *causal context* — the set of call keys
  whose completion this client has observed — and piggybacks it on every
  outgoing call (via the record's annotation channel);
* the server side gates execution (HOLD slot ``CAUSAL``) until every
  dependency of a call has executed locally, so an effect can never be
  applied before its causes.

Causality within one client is automatic (each call depends on the
client's previously completed calls — subsuming FIFO for that client).
Causality *across* clients flows through application-level tokens:
``token()`` captures a client's context, ``join(token)`` merges it into
another client's — modelling "B read a value A wrote, so B's next write
causally follows A's".

Requires Reliable Communication: a parked call waits for its
dependencies, which must eventually arrive.  Like the paper's ordering
micro-protocols, the executed-set is volatile; a recovering server
rejoining mid-history is out of scope (as it is for Total Order's
omitted agreement phase).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.core.grpc import (
    CALL_ABORTED,
    MSG_FROM_NETWORK,
    NEW_RPC_CALL,
    REPLY_FROM_SERVER,
)
from repro.core.messages import CallKey, NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.net.message import ProcessId
from repro.obs import register_protocol

__all__ = ["CausalOrder", "CausalToken"]

#: Causal Order's slot in the HOLD arrays.
CAUSAL = "CAUSAL"

#: A transferable causal context: a frozen set of call keys.
CausalToken = FrozenSet[CallKey]


class CausalOrder(GRPCMicroProtocol):
    """Gates execution on piggybacked happened-before dependencies."""

    protocol_name = "Causal_Order"

    def __init__(self) -> None:
        super().__init__()
        # client side
        self._context: Set[CallKey] = set()
        # server side
        self._executed: Set[CallKey] = set()
        self._waiting: Dict[CallKey, Tuple[CallKey, ...]] = {}

    def reset(self) -> None:
        self._context.clear()
        self._executed.clear()
        self._waiting.clear()

    def configure(self) -> None:
        self.grpc.hold.declare(CAUSAL)
        self.register(NEW_RPC_CALL, self.handle_new_call)
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.CALL, NetOp.REPLY))
        self.register(REPLY_FROM_SERVER, self.handle_reply)
        self.register(CALL_ABORTED, self.handle_abort)

    def unconfigure(self) -> None:
        self.grpc.hold.retract(CAUSAL)

    async def handle_abort(self, key: CallKey) -> None:
        """Forget a killed call so its retransmission re-parks cleanly."""
        self._waiting.pop(key, None)

    # ------------------------------------------------------------------
    # Client side: context maintenance and token API
    # ------------------------------------------------------------------

    def token(self) -> CausalToken:
        """This client's current causal context, for handing to others."""
        return frozenset(self._context)

    def join(self, token: CausalToken) -> None:
        """Merge another client's context into this one.

        After joining, every subsequent call from this client causally
        follows everything the token captured.
        """
        self._context.update(token)

    async def handle_new_call(self, call_id: int) -> None:
        record = self.grpc.pRPC.get(call_id)
        if record is None:
            return
        record.annotations["deps"] = tuple(sorted(self._context))

    # ------------------------------------------------------------------
    # Both sides
    # ------------------------------------------------------------------

    async def msg_from_net(self, msg: NetMsg) -> None:
        if msg.type is NetOp.REPLY:
            # Client side: observing a completion makes it a cause of
            # everything this client does next.
            record = self.client_record_for(msg)
            if record is not None:
                self._context.add((self.my_id, record.inc, record.id))
            return
        key = self.call_key(msg)
        if self.grpc.sRPC.get(key) is None:
            return   # dropped upstream (duplicate, orphan, ...)
        deps = tuple(msg.annotation("deps", ()))
        missing = [d for d in deps if tuple(d) not in self._executed]
        if missing:
            self._waiting[key] = deps
        else:
            await self.grpc.forward_up(key, CAUSAL)

    async def handle_reply(self, key: CallKey) -> None:
        """An execution finished here: release now-satisfied waiters."""
        self._executed.add(key)
        ready = [waiter for waiter, deps in self._waiting.items()
                 if all(tuple(d) in self._executed for d in deps)]
        for waiter in ready:
            del self._waiting[waiter]
        for waiter in ready:
            await self.grpc.forward_up(waiter, CAUSAL)

    # -- introspection (tests/benchmarks) --------------------------------

    @property
    def parked(self) -> int:
        """Calls currently gated on unexecuted dependencies."""
        return len(self._waiting)

    @property
    def executed_count(self) -> int:
        return len(self._executed)


register_protocol(CausalOrder.protocol_name)
