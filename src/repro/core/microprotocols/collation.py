"""Collation (Section 4.4.4): combining the replies of a group call.

"Collation semantics specify how responses from the multiple members of
the group are combined before being returned to the client ... any of
these alternatives can be described as a function, so we take the general
approach of having the user provide the desired collation function at
initialization time."

The micro-protocol folds each arriving reply into the call's accumulator:
``acc = func(acc, reply_args)`` starting from ``init``.  The module also
ships the collators the paper names: return-any, return-all, and a
map-all-into-one example (average).

Duplicate replies from the same server are filtered before this handler
runs: Acceptance, ahead of Collation in the handler order, cancels the
event chain for replies whose sender is already marked done, so
Collation folds each server's reply at most once.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.core.grpc import MSG_FROM_NETWORK, NEW_RPC_CALL
from repro.core.messages import NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.obs import register_protocol

__all__ = ["Collation", "last_reply", "first_reply", "all_replies",
           "average", "majority_vote"]


class Collation(GRPCMicroProtocol):
    """Folds group replies with a user-supplied function."""

    protocol_name = "Collation"

    def __init__(self, cum_func: Callable[[Any, Any], Any],
                 init: Any = None):
        """``cum_func(accumulator, reply_args)`` -> new accumulator.

        ``init`` seeds the accumulator; pass a zero-argument callable to
        get a fresh (e.g. mutable) seed per call.
        """
        super().__init__()
        self.cum_func = cum_func
        self.init = init

    def _initial(self) -> Any:
        return self.init() if callable(self.init) else self.init

    def configure(self) -> None:
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.REPLY,))
        self.register(NEW_RPC_CALL, self.handle_new_call)

    async def handle_new_call(self, call_id: int) -> None:
        record = self.grpc.pRPC.get(call_id)
        if record is not None:
            record.args = self._initial()

    async def msg_from_net(self, msg: NetMsg) -> None:
        record = self.client_record_for(msg)
        if record is None:
            return
        grpc = self.grpc
        await grpc.pRPC_mutex.acquire()
        try:
            record.args = self.cum_func(record.args, msg.args)
            record.replies_seen += 1
        finally:
            grpc.pRPC_mutex.release()


# ----------------------------------------------------------------------
# Stock collation functions (Section 2.2's examples)
# ----------------------------------------------------------------------

def last_reply(acc: Any, reply: Any) -> Any:
    """Return-any-reply collation: keep whichever reply came last."""
    return reply


def first_reply(acc: Any, reply: Any) -> Any:
    """Return-any-reply collation: keep the first reply that arrived."""
    return reply if acc is None else acc


def all_replies(acc: List[Any], reply: Any) -> List[Any]:
    """Return-all-replies collation; seed with ``init=list``."""
    acc.append(reply)
    return acc


def average(acc: Any, reply: float) -> tuple:
    """Running average; seed with ``init=None``; read ``acc[0]``.

    The accumulator is ``(mean, count)``; the paper's example of a
    function that "maps all replies into one result (e.g., average)".
    """
    if acc is None:
        return (float(reply), 1)
    mean, count = acc
    return ((mean * count + reply) / (count + 1), count + 1)


def majority_vote(acc: Any, reply: Any) -> Any:
    """Tally collation for replicated reads.

    Accumulates a dict of ``result -> votes``; seed with ``init=dict``
    and read the winner with ``max(result.args, key=result.args.get)``.
    Useful when replicas may diverge and the client wants the majority
    answer.  Results must be hashable.
    """
    acc[reply] = acc.get(reply, 0) + 1
    return acc


register_protocol(Collation.protocol_name)
