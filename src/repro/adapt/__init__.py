"""Live adaptation plane: runtime micro-protocol reconfiguration.

The paper's configurability story fixes a service's micro-protocol
composition at build time; this package makes it a *runtime* property.
An :class:`AdaptationPlan` names a legal target composition (checked
against the same Figure-4 dependency graph that
:func:`repro.core.enumerate.enumerate_services` counts with, plus the
replication-mode edges of :mod:`repro.replication.spec` when the service
is a replica group); the :class:`AdaptationManager` then swaps the
running group's micro-protocols with **zero acknowledged-call loss**:

1. **park** — new calls through :meth:`Deployment.call` wait on a gate
   (the placement plane's parking idiom);
2. **drain** — in-flight calls run to completion under the old
   composition (no ``WAITING`` client records, empty server tables);
3. **switch** — every member's composite atomically re-registers the
   target micro-protocols' handlers at their fixed ranks, transferring
   the shared gRPC state that must survive (call-id cursors, HOLD
   declarations, incarnations, reply stores of kept protocols), and the
   group-wide *adaptation epoch* is bumped in the same synchronous step
   so no member ever dispatches under a mixed composition — a fence
   handler drops stale cross-epoch messages;
4. **release** — parked calls proceed under the new composition.

See ``docs/adaptation.md`` for the protocol walk-through and its
guarantees.
"""

from repro.adapt.engine import (
    AdaptationFence,
    AdaptationManager,
    AdaptationReport,
)
from repro.adapt.plan import AdaptationPlan, validate_plan
from repro.errors import AdaptationError

__all__ = [
    "AdaptationError",
    "AdaptationFence",
    "AdaptationManager",
    "AdaptationPlan",
    "AdaptationReport",
    "validate_plan",
]
