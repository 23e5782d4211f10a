"""Membership-driven adaptation policies: reconfiguration without an
operator.

The :class:`~repro.placement.driver.RebindDriver` answers suspicion by
changing *where* a service's calls go; the :class:`AdaptationDriver`
answers it by changing *what protocol* the service runs.  It holds the
``adapt`` slot of the same :class:`~repro.core.control.ControlLoop` and
applies two built-in policies:

* **ordering degrade** — a service running Total Order pays a
  leader-coordinated ORDER round on every call; while any of its servers
  is suspected (partitioned, slow, crashed) that round is exactly the
  wrong protocol to be running.  The driver switches the service down to
  FIFO (or unordered) delivery for the duration of the suspicion and
  restores the original composition after the group heals.
* **acceptance raise** — optionally, the degraded composition also
  raises the acceptance threshold (``suspicion_acceptance``), trading
  latency for certainty exactly while the failure detector distrusts
  the group.

Both are guarded by **hysteresis**: a policy decision only fires after
its condition has held for a grace window (``hysteresis`` for degrades,
``heal_grace`` for restores), and a flip of the condition cancels the
pending opposite decision — a flapping detector changes nothing.

Passive replica groups are naturally out of scope (their compositions
never carry ordering — the PR-8 mode edges forbid it), as is any
service whose composition the degrade policy cannot improve.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.adapt.engine import AdaptationManager
from repro.core.config import ServiceSpec
from repro.errors import AdaptationError

__all__ = ["AdaptationDriver"]

_ORDER_CHOICES = ("fifo", "none")


class AdaptationDriver:
    """Automatic micro-protocol reconfiguration for one deployment."""

    def __init__(self, deployment: Any, *,
                 degrade_ordering: str = "fifo",
                 suspicion_acceptance: Optional[int] = None,
                 hysteresis: float = 0.2,
                 heal_grace: float = 0.5,
                 drain_timeout: float = 30.0,
                 services: Optional[Iterable[str]] = None):
        if degrade_ordering not in _ORDER_CHOICES:
            raise AdaptationError(
                f"degrade_ordering must be one of {_ORDER_CHOICES}, "
                f"got {degrade_ordering!r}")
        self.deployment = deployment
        self.manager = AdaptationManager.ensure(deployment)
        self.metrics = deployment.metrics
        self.degrade_ordering = degrade_ordering
        self.suspicion_acceptance = suspicion_acceptance
        self.hysteresis = hysteresis
        self.heal_grace = heal_grace
        self.drain_timeout = drain_timeout
        #: Restrict the policies to these services (None = all).
        self.services: Optional[Set[str]] = \
            None if services is None else set(services)
        #: Baseline compositions stashed at degrade time, restored after
        #: the group heals.
        self._baselines: Dict[str, ServiceSpec] = {}
        # service -> (decision kind, armed hysteresis timer).
        self._pending: Dict[str, Tuple[str, Any]] = {}
        deployment.control.install("adapt", self)

    def close(self) -> None:
        """Cancel pending hysteresis timers (the control loop has
        already stopped delivering membership changes).

        Stashed baselines are kept: a degraded service stays on its
        degraded composition (restoring without the stream would mean
        adapting blind).
        """
        for _, timer in self._pending.values():
            timer.cancel()
        self._pending.clear()

    # ------------------------------------------------------------------
    # Membership stream
    # ------------------------------------------------------------------

    def on_member(self, pid: int, alive: bool) -> None:
        """Control-loop ``adapt`` slot (last: every other plane has
        settled, and ``control.suspected`` already reflects the flip)."""
        for svc in list(self.deployment.services.values()):
            if self.services is not None and svc.name not in self.services:
                continue
            if pid in svc.server_pids:
                self._evaluate(svc)

    def _troubled(self, svc: Any) -> bool:
        return not self.deployment.control.suspected.isdisjoint(
            svc.server_pids)

    def _evaluate(self, svc: Any) -> None:
        name = svc.name
        degraded = name in self._baselines
        troubled = self._troubled(svc)
        if troubled and not degraded \
                and self._degrade_spec(svc.spec) is not None:
            want = "degrade"
            delay = self.hysteresis
        elif not troubled and degraded:
            want = "restore"
            delay = self.heal_grace
        else:
            want = None
            delay = 0.0
        pending = self._pending.get(name)
        if pending is not None:
            kind, timer = pending
            if kind == want:
                return                      # already armed; let it ride
            # Condition flipped inside the grace window: hysteresis
            # swallows the decision.
            timer.cancel()
            del self._pending[name]
            self.metrics.counter("adapt.policy.cancelled").inc()
        if want is None:
            return
        timer = self.deployment.runtime.call_later(
            delay, lambda: self._fire(name, want))
        self._pending[name] = (want, timer)

    def _fire(self, name: str, kind: str) -> None:
        pending = self._pending.get(name)
        if pending is None or pending[0] != kind:
            return
        del self._pending[name]
        self.deployment.runtime.spawn(
            self._apply(name, kind),
            name=f"adapt-policy-{kind}-{name}", daemon=True)

    # ------------------------------------------------------------------
    # Applying a decision
    # ------------------------------------------------------------------

    async def _apply(self, name: str, kind: str) -> None:
        svc = self.deployment.services.get(name)
        if svc is None or \
                self.deployment.control.policies.get("adapt") is not self:
            return                          # closed since _fire
        # Re-check the condition: the grace window passed without a
        # cancelling flip, but the world may have moved since _fire.
        troubled = self._troubled(svc)
        if kind == "degrade":
            if not troubled or name in self._baselines:
                return
            target = self._degrade_spec(svc.spec)
            if target is None:
                return
            self._baselines[name] = svc.spec
            try:
                await self.manager.adapt(
                    name, target, reason="membership: degrade",
                    drain_timeout=self.drain_timeout)
            except AdaptationError:
                self._baselines.pop(name, None)
                return
            self.metrics.counter("adapt.policy.degrade").inc()
        else:
            if troubled:
                return
            baseline = self._baselines.get(name)
            if baseline is None:
                return
            try:
                await self.manager.adapt(
                    name, baseline, reason="membership: restore",
                    drain_timeout=self.drain_timeout)
            except AdaptationError:
                return
            self._baselines.pop(name, None)
            self.metrics.counter("adapt.policy.restore").inc()

    def _degrade_spec(self, spec: ServiceSpec) -> Optional[ServiceSpec]:
        """The suspicion-mode composition for ``spec`` (None: nothing the
        policy can improve)."""
        changes: Dict[str, Any] = {}
        if spec.ordering == "total":
            # Legal by construction: Total Order already required
            # Reliable Communication and Unique Execution, which are
            # everything FIFO (or unordered) delivery needs.
            changes["ordering"] = self.degrade_ordering
        if self.suspicion_acceptance is not None \
                and spec.acceptance != self.suspicion_acceptance:
            changes["acceptance"] = self.suspicion_acceptance
        return spec.with_(**changes) if changes else None

    # -- introspection (tests/benchmarks) --------------------------------

    def degraded_services(self) -> Set[str]:
        return set(self._baselines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AdaptationDriver degraded={sorted(self._baselines)} "
                f"pending={sorted(self._pending)}>")
