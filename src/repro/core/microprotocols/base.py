"""Common base class and handler priorities for gRPC micro-protocols.

Handler priorities follow the paper's registrations where it gives them
(Reliable Communication at 1, Unique Execution at 2, RPC Main at 3,
Collation at 4, FIFO Order at 10, Total Order's ``assign_order`` at 1 and
``msg_from_net`` at 4).  Two placements the paper leaves implicit or gets
wrong are pinned down here and documented in DESIGN.md:

* orphan handlers run at 2.2, strictly after Unique Execution's duplicate
  filtering so duplicates are never counted as new work;
* RPC Main performs its in-progress-duplicate check at 1.5, before any
  micro-protocol that accumulates per-call state;
* Unique Execution *admits* a call (records it in OldCalls) at 2.5, only
  after the orphan micro-protocols have had their chance to defer or drop
  it — admitting at filter time (as the paper's single handler does)
  makes every retransmission of a deferred call look like a duplicate and
  starves the recovered client.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.framework import CompositeProtocol, MicroProtocol
from repro.core.grpc import GroupRPC
from repro.core.messages import CallKey, NetMsg
from repro.core.state import ClientRecord

__all__ = ["GRPCMicroProtocol", "Prio"]


class Prio:
    """Dispatch priorities for ``MSG_FROM_NETWORK`` handlers (low = early)."""

    TOTAL_ASSIGN = 1.0      # Total Order leader assigns/reannounces orders
    RELIABLE = 1.0          # Reliable Communication marks acks
    MAIN_DEDUP = 1.5        # RPC Main drops in-progress duplicates
    UNIQUE = 2.0            # Unique Execution filters executed duplicates
    ORPHAN = 2.2            # Interference Avoidance / Terminate Orphan
    UNIQUE_ADMIT = 2.5      # Unique Execution records the admitted call
    MAIN = 3.0              # RPC Main stores and forwards calls
    ACCEPTANCE = 3.0        # Acceptance counts replies (client side)
    COLLATION = 4.0         # Collation folds replies (client side)
    TOTAL = 4.0             # Total Order gates execution order
    FIFO = 10.0             # FIFO Order gates per-client order


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
