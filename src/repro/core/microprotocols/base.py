"""Common base class and the one handler-order table of gRPC.

The paper runs an event's handlers "in priority order", giving each
``register`` call a number; here :data:`HANDLER_ORDER` decides.  For
each sequential event it lists every shipped handler's
``"Owner.handler"`` name in run order, and a handler registers at its
rank there.  Ranks are unique, so a composition's order is the table
restricted to its micro-protocols: fresh, adapted and recovered
composites run the same chains.  Alternatives that never share a
composition each keep their own slot.  The paper's priorities survive
as the table's relative order; an entry it leaves implicit or gets
wrong says why it sits where it does (DESIGN.md §3).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.events import Handler
from repro.core.framework import CompositeProtocol, MicroProtocol
from repro.core.grpc import (CALL_ABORTED, CALL_FROM_USER, MEMBERSHIP_CHANGE,
                             MSG_FROM_NETWORK, NEW_RPC_CALL, RECOVERY,
                             REPLY_FROM_SERVER, GroupRPC)
from repro.core.messages import CallKey, NetMsg
from repro.core.state import ClientRecord
from repro.errors import ConfigurationError

__all__ = ["GRPCMicroProtocol", "HANDLER_ORDER"]

#: Event -> ``"Owner.handler"`` names, first to run first.
HANDLER_ORDER: Dict[str, Tuple[str, ...]] = {
    MSG_FROM_NETWORK: (
        # Adapted composites only: drops cross-epoch arrivals untouched.
        "Adaptation_Fence.fence",
        # The initial checkpoint precedes anything that can execute.
        "Atomic_Execution.ensure_initial_checkpoint",
        "Total_Order.handle_resync_traffic",
        "Reliable_Communication.msg_from_net",          # the paper's 1
        "Total_Order.assign_order",                     # the paper's 1
        "Probe_Orphan_Termination.handle_probe_traffic",
        # A still-pending call's retransmission dies before any state.
        "RPC_Main.drop_in_progress_duplicates",
        # The paper's 2; replays before Total Order's stale-cancel (#7).
        "Unique_Execution.msg_from_net",
        # After Unique's filter: duplicates never count as new work.
        "Interference_Avoidance.msg_from_net",
        "Terminate_Orphan.msg_from_net",
        "Probe_Orphan_Termination.msg_from_net",
        # After the orphan filters: a deferred call is never admitted.
        "Unique_Execution.admit_call",
        "RPC_Main.msg_from_net",                        # the paper's 3
        # Cancels a late or duplicate reply before Collation folds it in.
        "Acceptance.msg_from_net",
        "Total_Order.msg_from_net",                     # the paper's 4
        "Collation.msg_from_net",                       # the paper's 4
        "Causal_Order.msg_from_net",
        "FIFO_Order.msg_from_net",                      # the paper's 10
    ),
    REPLY_FROM_SERVER: (
        # Unique stores before an ordering gate releases (deviation #6).
        "Unique_Execution.handle_reply",
        "FIFO_Order.handle_reply",
        "Total_Order.handle_reply",
        "Causal_Order.handle_reply",
        "Interference_Avoidance.handle_reply",
        "Terminate_Orphan.handle_reply",
        "Probe_Orphan_Termination.handle_reply",
        "Atomic_Execution.handle_reply",
    ),
    CALL_FROM_USER: (
        # Figure 3: R records and transmits, then S blocks the caller.
        "RPC_Main.msg_from_user",
        "Synchronous_Call.msg_from_user",
        "Asynchronous_Call.msg_from_user",
    ),
    NEW_RPC_CALL: (
        "Causal_Order.handle_new_call",
        "Reliable_Communication.handle_new_call",
        "Bounded_Termination.handle_new_call",
        "Collation.handle_new_call",
        "Acceptance.handle_new_call",
    ),
    RECOVERY: ("RPC_Main.handle_recovery",
               "Reliable_Communication.handle_recovery",
               "Atomic_Execution.handle_recovery"),
    MEMBERSHIP_CHANGE: ("Total_Order.handle_membership",
                        "Acceptance.server_failure"),
    CALL_ABORTED: ("Unique_Execution.handle_abort",
                   "Causal_Order.handle_abort"),
}

_RANKS = {event: {name: rank for rank, name in enumerate(names)}
          for event, names in HANDLER_ORDER.items()}


class GRPCMicroProtocol(MicroProtocol):
    """Micro-protocol specialized to the gRPC composite's shared data."""

    #: The composite and its site's process id, resolved once by
    #: :meth:`attach` (handlers reach them several times per message).
    grpc: GroupRPC
    my_id: int

    def attach(self, composite: CompositeProtocol) -> None:
        if self.composite is None:
            self.grpc = composite  # type: ignore[assignment]
            self.my_id = composite.my_id  # type: ignore[attr-defined]
        super().attach(composite)

    def rank(self, event: str, handler: Handler) -> int:
        """``handler``'s place in :data:`HANDLER_ORDER`; unplaced: an error."""
        name = f"{self.name}.{handler.__name__}"
        rank = _RANKS.get(event, {}).get(name)
        if rank is None:
            raise ConfigurationError(
                f"HANDLER_ORDER does not place {name} on {event}")
        return rank

    # -- shared-state helpers -------------------------------------------

    @staticmethod
    def call_key(msg: NetMsg) -> CallKey:
        """Server-side key of the call a CALL message carries."""
        return (msg.sender, msg.inc, msg.id)

    def client_record_for(self, msg: NetMsg) -> Optional[ClientRecord]:
        """The pending client record a REPLY belongs to, if still valid.

        Guards on the incarnation carried in the reply: after a client
        crash and recovery, call ids restart, so a late reply to an
        old-incarnation call must not be matched against a new call with
        the same id.
        """
        record = self.grpc.pRPC.get(msg.id)
        if record is None or record.inc != msg.inc:
            return None
        return record

    def current_task(self) -> Any:
        """The task executing the current handler (``my_thread()``)."""
        return self.runtime.current_handle_nowait()
