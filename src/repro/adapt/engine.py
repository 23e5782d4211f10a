"""The adaptation engine: park, drain, switch, release.

:class:`AdaptationManager` executes one :class:`~repro.adapt.plan.
AdaptationPlan` against a *running* service with zero acknowledged-call
loss.  The protocol:

1. **park** — a gate (``runtime.event()``) is installed for the service;
   :meth:`Deployment.call` admissions wait on it, so no new call enters
   the composites while the switch is in progress (the placement plane's
   parking idiom).
2. **drain** — the engine polls until the group is quiescent: no
   admitted call still inside the deployment call path, every server
   table empty, no ``WAITING`` client record anywhere (and, when the
   call micro-protocol itself changes, no client record at all — an
   unredeemed asynchronous result has no handler under Synchronous
   Call).  A drain that outlives the plan's ``drain_timeout`` aborts
   with :class:`~repro.errors.AdaptationError` *before any handler has
   been touched*.
3. **switch** — synchronous (no awaits, hence atomic in virtual time):
   per composite, micro-protocols present in both compositions with
   identical construction parameters are *kept* — their handler
   registrations and state (Unique Execution's reply store, RPC Main's
   call-id cursor, Atomic Execution's checkpoints) survive untouched —
   while the rest are detached (handlers retired via
   :meth:`~repro.core.events.EventBus.retire_owner`, shared-state side
   effects undone via ``unconfigure``) and the target's fresh instances
   attached at their table ranks (as a fresh build).  Freshly installed
   FIFO gates are seeded from every client's live call-id cursor
   (:meth:`~repro.core.microprotocols.fifo_order.FIFOOrder.
   seed_progress`), because a mid-run gate seeded at 1 would wait
   forever for calls that completed under the old composition.  Then
   the group-wide *adaptation epoch* is bumped on every member in the
   same synchronous step.
4. **release** — the gate opens; parked calls proceed under the new
   composition.

The :class:`AdaptationFence` makes the epoch bump safe: while a
composite's epoch is non-zero every outgoing message is stamped with it
(:meth:`~repro.core.grpc.GroupRPC.net_push`), and the fence — first on
``MSG_FROM_NETWORK`` — drops arrivals carrying a different epoch.  A
retransmission sent under the old composition can therefore never be
dispatched into the new one (where, e.g., a fresh Total Order sequencer
would wedge on a stale duplicate); reliable clients simply retransmit
under the new epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.adapt.plan import AdaptationPlan, validate_plan
from repro.core.config import ServiceSpec
from repro.core.grpc import ADAPT_EPOCH_KEY, MSG_FROM_NETWORK, GroupRPC
from repro.core.messages import NetMsg, Status
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.core.microprotocols.fifo_order import FIFOOrder
from repro.errors import AdaptationError, ConfigurationError, ReproError
from repro.obs import register_protocol

__all__ = ["AdaptationFence", "AdaptationManager", "AdaptationReport"]

#: Virtual seconds between two quiescence checks while a switch drains.
DRAIN_POLL = 0.005

#: Construction parameters per micro-protocol name.  An instance is
#: *kept* across a switch (registrations and state intact) only when its
#: protocol appears in both compositions with equal values for all of
#: these fields; otherwise it is replaced by a freshly built instance.
#: Protocols absent from this table are parameter-free and always kept
#: when present on both sides.
_PARAM_FIELDS: Dict[str, tuple] = {
    "Reliable_Communication": ("retrans_timeout",),
    "Bounded_Termination": ("bounded",),
    "Atomic_Execution": ("atomic_delta", "atomic_compact_every"),
    "Total_Order": ("total_resync", "total_resync_grace"),
    "Probe_Orphan_Termination": ("probe_interval", "probe_missed_limit"),
    "Collation": ("collation",),
    "Acceptance": ("acceptance",),
}


class AdaptationFence(GRPCMicroProtocol):
    """Drops arrivals whose adaptation epoch differs from the local one.

    Installed into a composite by the first switch that touches it and
    kept forever after (it is a real micro-protocol, so crash recovery
    relinks it like any other).  Costs one annotation lookup per arrival
    — and nothing at all for deployments that never adapt, which have no
    fence and stamp no epoch.
    """

    protocol_name = "Adaptation_Fence"

    def __init__(self, dropped_counter: Any = None) -> None:
        super().__init__()
        self._dropped = dropped_counter
        #: Cross-epoch messages this fence has discarded (introspection).
        self.dropped = 0

    def configure(self) -> None:
        self.register(MSG_FROM_NETWORK, self.fence)

    async def fence(self, msg: NetMsg) -> None:
        if msg.annotation(ADAPT_EPOCH_KEY, 0) != self.grpc.adapt_epoch:
            self.dropped += 1
            if self._dropped is not None:
                self._dropped.inc()
            self.cancel_event()


register_protocol(AdaptationFence.protocol_name)


@dataclass
class AdaptationReport:
    """What one committed switch did (returned by
    :meth:`AdaptationManager.adapt`)."""

    service: str
    #: The group-wide epoch the switch committed (monotonic per service).
    epoch: int
    reason: str
    from_protocols: List[str] = field(default_factory=list)
    to_protocols: List[str] = field(default_factory=list)
    #: Instances carried across the switch with their state intact.
    kept: List[str] = field(default_factory=list)
    #: Calls parked at the gate while this switch drained.
    parked: int = 0
    #: Virtual seconds spent draining in-flight calls.
    drain_s: float = 0.0
    #: Virtual seconds the switch itself took (0.0: atomic in virtual
    #: time — the group is never down).
    switch_s: float = 0.0


class AdaptationManager:
    """Executes guarded micro-protocol switches for one deployment.

    Installing the manager (its constructor sets
    ``deployment.adaptation``) is what switches the deployment's call
    path into adaptation-aware admission: :meth:`Deployment.call` then
    brackets every call between :meth:`admit` and :meth:`release`, which
    is how the engine parks new calls and knows when the old composition
    has drained.  Deployments that never adapt keep the call path on a
    single is-None test.
    """

    def __init__(self, deployment: Any):
        if getattr(deployment, "adaptation", None) is not None:
            raise ReproError(
                "this deployment already has an AdaptationManager; "
                "use AdaptationManager.ensure()")
        self.deployment = deployment
        self.metrics = deployment.metrics
        #: Per-service committed epoch (0 = never adapted).
        self.epochs: Dict[str, int] = {}
        # service -> parking gate while a switch is in progress.
        self._gates: Dict[str, Any] = {}
        # service -> calls admitted into Deployment.call and not yet
        # released (the drain condition's first clause).
        self._inflight: Dict[str, int] = {}
        # service -> calls parked by the switch currently draining.
        self._parked_now: Dict[str, int] = {}
        deployment.adaptation = self

    @classmethod
    def ensure(cls, deployment: Any) -> "AdaptationManager":
        """The deployment's manager, created on first use."""
        manager = getattr(deployment, "adaptation", None)
        return manager if manager is not None else cls(deployment)

    # ------------------------------------------------------------------
    # Call-path hooks (Deployment.call)
    # ------------------------------------------------------------------

    async def admit(self, service: str) -> None:
        """Park while ``service`` is mid-switch; then count the call in."""
        while True:
            gate = self._gates.get(service)
            if gate is None:
                break
            self._parked_now[service] = \
                self._parked_now.get(service, 0) + 1
            self.metrics.counter("adapt.parked").inc()
            await gate.wait()
        self._inflight[service] = self._inflight.get(service, 0) + 1

    def release(self, service: str) -> None:
        """The admitted call left the deployment call path."""
        self._inflight[service] = self._inflight.get(service, 1) - 1

    # ------------------------------------------------------------------
    # The switch itself
    # ------------------------------------------------------------------

    async def adapt(self, service: str,
                    target: Union[ServiceSpec, AdaptationPlan], *,
                    reason: str = "",
                    drain_timeout: Optional[float] = None
                    ) -> AdaptationReport:
        """Reconfigure a running service onto ``target``.

        ``target`` is a :class:`~repro.core.config.ServiceSpec` (the
        common case) or a full :class:`~repro.adapt.plan.AdaptationPlan`.
        Returns the committed :class:`AdaptationReport`; raises
        :class:`~repro.errors.DependencyError`/:class:`~repro.errors.
        ConfigurationError` for illegal or stale targets and
        :class:`~repro.errors.AdaptationError` when the group cannot be
        quiesced in time or is already mid-switch — in every failure
        case strictly before any handler has been touched.

        Must not be called from inside a :meth:`Deployment.call` (the
        admitted call would deadlock its own drain).
        """
        svc = self.deployment.service(service)
        plan = self._as_plan(service, target, reason, drain_timeout)
        if service in self._gates:
            raise AdaptationError(
                f"service {service!r} is already mid-adaptation; "
                f"one switch at a time per service")
        rgroup = None if self.deployment.replication is None \
            else self.deployment.replication.groups.get(service)
        try:
            validate_plan(plan, current=svc.spec,
                          rspec=None if rgroup is None else rgroup.rspec)
        except ConfigurationError:
            self.metrics.counter("adapt.plans.rejected").inc()
            raise
        self.metrics.counter("adapt.plans.validated").inc()

        obs = self.deployment.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "adapt.switch",
                attrs={"service": service, "reason": plan.reason,
                       "from": svc.spec.ordering, "to":
                       plan.to_spec.ordering})
            obs.push_ctx(span.ctx)
        try:
            report = await self._execute(svc, plan, rgroup)
        finally:
            if obs is not None:
                obs.pop_ctx()
                obs.end_span(span)
        return report

    async def _execute(self, svc: Any, plan: AdaptationPlan,
                       rgroup: Any) -> AdaptationReport:
        deployment = self.deployment
        runtime = deployment.runtime
        service = svc.name
        flight = deployment.flight
        from_spec = svc.spec
        from_names = from_spec.micro_protocol_names()
        to_names = plan.to_spec.micro_protocol_names()

        # -- park + drain ----------------------------------------------
        gate = runtime.event()
        self._gates[service] = gate
        self._parked_now[service] = 0
        if flight is not None:
            flight.note("adapt-prepare", service=service,
                        reason=plan.reason)
        start = runtime.now()
        deadline = start + plan.drain_timeout
        require_empty = from_spec.call != plan.to_spec.call
        while not self._quiesced(svc, require_empty):
            if runtime.now() >= deadline:
                # Abort: open the gate and walk away — the running
                # composition has not been touched.
                self._gates.pop(service, None)
                gate.set()
                self.metrics.counter("adapt.aborts").inc()
                if flight is not None:
                    flight.note("adapt-abort", service=service,
                                reason="drain timeout")
                raise AdaptationError(
                    f"service {service!r} did not quiesce within "
                    f"{plan.drain_timeout} virtual seconds; the running "
                    f"composition is unchanged")
            await runtime.sleep(DRAIN_POLL)
        drain_s = runtime.now() - start

        # -- switch (synchronous: atomic in virtual time) --------------
        switch_start = runtime.now()
        epoch = self.epochs.get(service, 0) + 1
        kept = self._kept(from_spec, plan.to_spec)
        cursors = {pid: (grpc.inc_number,
                         grpc.micro("RPC_Main").next_call_id)
                   for pid, grpc in svc.grpcs.items()}
        for grpc in svc.grpcs.values():
            self._switch_composite(grpc, plan.to_spec, kept, cursors)
        for grpc in svc.grpcs.values():
            grpc.adapt_epoch = epoch
        self.epochs[service] = epoch
        svc.spec = plan.to_spec
        if rgroup is not None:
            # The group's routing decisions (read narrowing, ordering
            # constraints) consult rspec live at call time; keep it in
            # step with the composition that now actually runs.
            rgroup.rspec = rgroup.rspec.with_(spec=plan.to_spec)
        switch_s = runtime.now() - switch_start

        # -- release ---------------------------------------------------
        parked = self._parked_now.pop(service, 0)
        self._gates.pop(service, None)
        gate.set()
        self.metrics.counter("adapt.switches").inc()
        self.metrics.histogram("adapt.drain_s").observe(drain_s)
        self.metrics.histogram("adapt.switch_s").observe(switch_s)
        if flight is not None:
            flight.note("adapt-commit", service=service, epoch=epoch,
                        kept=sorted(kept), parked=parked)
        return AdaptationReport(
            service=service, epoch=epoch, reason=plan.reason,
            from_protocols=from_names, to_protocols=to_names,
            kept=sorted(kept), parked=parked,
            drain_s=drain_s, switch_s=switch_s)

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------

    def _as_plan(self, service: str,
                 target: Union[ServiceSpec, AdaptationPlan],
                 reason: str,
                 drain_timeout: Optional[float]) -> AdaptationPlan:
        if isinstance(target, AdaptationPlan):
            if target.service != service:
                raise ConfigurationError(
                    f"plan names service {target.service!r} but was "
                    f"submitted for {service!r}")
            plan = target
        elif isinstance(target, ServiceSpec):
            plan = AdaptationPlan(service=service, to_spec=target)
        else:
            raise ConfigurationError(
                f"adapt() target must be a ServiceSpec or an "
                f"AdaptationPlan, got {type(target).__name__}")
        changes: Dict[str, Any] = {}
        if reason:
            changes["reason"] = reason
        if drain_timeout is not None:
            changes["drain_timeout"] = drain_timeout
        return plan.with_(**changes) if changes else plan

    def _quiesced(self, svc: Any, require_empty: bool) -> bool:
        """No call is anywhere inside the old composition.

        Three layers: calls admitted into the deployment call path and
        not yet returned; server records still pending (ordering-gated,
        executing, or awaiting their reply push); client records still
        ``WAITING`` (an asynchronous call's record outlives the
        deployment call, so the inflight count alone is not enough).
        ``require_empty`` additionally demands *no* client record at
        all — when the call micro-protocol itself changes, even a DONE
        asynchronous record would be unredeemable afterwards.
        """
        if self._inflight.get(svc.name, 0):
            return False
        for grpc in svc.grpcs.values():
            if len(grpc.sRPC):
                return False
            if require_empty:
                if len(grpc.pRPC):
                    return False
            else:
                for record in grpc.pRPC.records():
                    if record.status is Status.WAITING:
                        return False
        return True

    @staticmethod
    def _kept(from_spec: ServiceSpec, to_spec: ServiceSpec) -> set:
        """Protocol names whose running instances survive the switch."""
        shared = set(from_spec.micro_protocol_names()) \
            & set(to_spec.micro_protocol_names())
        kept = set()
        for name in shared:
            fields = _PARAM_FIELDS.get(name, ())
            if all(getattr(from_spec, f) == getattr(to_spec, f)
                   for f in fields):
                kept.add(name)
        return kept

    def _switch_composite(self, grpc: GroupRPC, to_spec: ServiceSpec,
                          kept: set, cursors: Dict[int, tuple]) -> None:
        """Re-link one member's composite onto the target composition.

        Runs with the group quiescent and without awaiting: dispatch
        never observes a half-switched composite.
        """
        old = {m.name: m for m in grpc.micro_protocols}
        fresh = to_spec.build()
        fresh_names = {m.name for m in fresh}

        # Detach every spec-managed instance that does not survive:
        # removed protocols, and same-name instances whose construction
        # parameters changed.  detach() retires the instance's bus
        # registrations (cancelling its pending TIMEOUTs) and undoes
        # configure()'s shared-state side effects.
        fence = None
        for micro in grpc.micro_protocols:
            name = micro.name
            if isinstance(micro, AdaptationFence):
                fence = micro
                continue
            if name in kept and name in fresh_names:
                continue                    # survives with state intact
            micro.detach()

        # Install the target composition, reusing kept instances.
        new_list: List[Any] = []
        for micro in fresh:
            name = micro.name
            survivor = old.get(name)
            if name in kept and survivor is not None \
                    and not survivor.detached:
                new_list.append(survivor)
                continue
            if isinstance(micro, FIFOOrder):
                # A mid-run FIFO gate must start at each client's live
                # cursor, not at 1.
                for pid, (inc, next_id) in cursors.items():
                    micro.seed_progress(pid, inc, next_id)
            new_list.append(micro)
            micro.attach(grpc)

        # The fence, the one protocol no spec manages, stays linked after
        # the managed ones; the first switch installs it.
        if fence is None:
            fence = AdaptationFence(
                self.metrics.counter("adapt.fence.dropped"))
            fence.attach(grpc)
        new_list.append(fence)
        grpc.micro_protocols[:] = new_list
