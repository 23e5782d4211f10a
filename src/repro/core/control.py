"""The control loop: one membership-driven reaction path per deployment.

The paper's design is "handlers registered on a handful of events, run
by one framework in a fixed priority order"; :class:`ControlLoop`
(``deployment.control``) applies it to the control plane.  It is the
single consumer of the deployment's membership stream: each
``(pid, alive)`` change updates the one :attr:`~ControlLoop.suspected`
set and is handed to the installed *slot policies* — any object with
``on_member(pid, alive)`` and, optionally, ``close()`` — in
:data:`SLOTS` order, whatever order they were installed in.

The loop is also the only teardown path: installing into an occupied
slot closes the previous occupant, and :meth:`ControlLoop.close` (run by
``Deployment.shutdown()``) closes them all.  The membership subscription
exists exactly while some slot is occupied, so a policy-free deployment
registers no listener at all.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.errors import ReproError

__all__ = ["ControlLoop", "SLOTS"]

#: Slot names in dispatch order.  The order is the contract: the
#: observatory tapes a flip before any reaction to it, and replica groups
#: have shrunk or promoted before ``rebind`` reads their
#: ``live_members()``.
SLOTS = ("observe", "views", "replication", "placement", "rebind")


class ControlLoop:
    """Dispatches membership changes to slot policies in :data:`SLOTS`
    order; owns their lifecycle."""

    def __init__(self, deployment: Any):
        self.deployment = deployment
        #: Pids the membership stream currently suspects.
        self.suspected: Set[int] = set()
        #: Slot name -> installed policy.
        self.policies: Dict[str, Any] = {}

    def install(self, slot: str, policy: Any) -> Any:
        """Put ``policy`` in ``slot``, closing whatever held it before;
        returns ``policy``."""
        if slot not in SLOTS:
            raise ReproError(f"unknown control slot {slot!r}; "
                             f"expected one of {SLOTS}")
        if not self.policies:
            self.deployment.watch_membership(self._on_member)
        previous = self.policies.get(slot)
        self.policies[slot] = policy
        _close(previous)
        return policy

    def uninstall(self, slot: str) -> None:
        """Close and drop the slot's policy (no-op when empty)."""
        policy = self.policies.pop(slot, None)
        if policy is None:
            return
        if not self.policies:
            # Unsubscribed, the set can only go stale.
            self.deployment.unwatch_membership(self._on_member)
            self.suspected.clear()
        _close(policy)

    def close(self) -> None:
        """Uninstall every policy, last slot first."""
        for slot in reversed(SLOTS):
            self.uninstall(slot)

    def _on_member(self, pid: int, alive: bool) -> None:
        if alive:
            self.suspected.discard(pid)
        else:
            self.suspected.add(pid)
        for slot in SLOTS:
            policy = self.policies.get(slot)
            if policy is not None:
                policy.on_member(pid, alive)


def _close(policy: Any) -> None:
    close = getattr(policy, "close", None)
    if close is not None:
        close()
