"""Adaptation plans and their legality checks.

An :class:`AdaptationPlan` is the declarative half of a live
reconfiguration: which service, which target
:class:`~repro.core.config.ServiceSpec`, and how long the engine may
wait for the group to quiesce.  :func:`validate_plan` rejects illegal
plans **before any handler is touched**, with the same edge-citing
:class:`~repro.errors.DependencyError` messages the build-time
validator raises — a plan that validates here would also have built
from scratch, so mid-flight reconfiguration can never reach a
composition the Figure-4 graph forbids.

Replica groups get the replication-mode edges on top
(:data:`repro.replication.spec.MODE_EDGES`): e.g. a passive
primary-backup shard can never be adapted onto an ordered composition,
because its backups would park on sequence gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.core.config import ServiceSpec, validate
from repro.errors import ConfigurationError

__all__ = ["AdaptationPlan", "validate_plan"]


@dataclass(frozen=True)
class AdaptationPlan:
    """One guarded reconfiguration of a running service.

    ``from_spec`` optionally pins the composition the plan was drawn
    against; the engine rejects the plan if the service has since been
    adapted elsewhere (a stale plan must not silently overwrite a newer
    composition).  ``drain_timeout`` is in virtual seconds.
    """

    service: str
    to_spec: ServiceSpec
    from_spec: Optional[ServiceSpec] = None
    reason: str = ""
    drain_timeout: float = 30.0

    def with_(self, **changes: Any) -> "AdaptationPlan":
        return replace(self, **changes)


def validate_plan(plan: AdaptationPlan, *,
                  current: ServiceSpec,
                  rspec: Any = None) -> None:
    """Reject illegal or stale plans; no-op when the switch may proceed.

    ``current`` is the service's live composition; ``rspec`` the
    :class:`~repro.replication.spec.ReplicaSpec` when the service is a
    registered replica group (``None`` otherwise).  Raises
    :class:`~repro.errors.DependencyError` (citing the violated
    Figure-4 or replication-mode edge) or
    :class:`~repro.errors.ConfigurationError`.
    """
    if plan.drain_timeout <= 0:
        raise ConfigurationError("adaptation drain_timeout must be > 0")
    if plan.from_spec is not None and plan.from_spec != current:
        raise ConfigurationError(
            f"stale adaptation plan for {plan.service!r}: the plan was "
            f"drawn against a composition that is no longer running "
            f"(the service has since been adapted); re-plan from the "
            f"current spec")
    # The target must be a legal point of the Figure-4 space in its own
    # right — the same edge-citing checks a fresh build would run.
    validate(plan.to_spec)
    if rspec is not None:
        # Replica groups additionally obey the PR-8 mode edges with the
        # *target* composition embedded.
        from repro.replication.spec import validate_replica_spec
        validate_replica_spec(rspec.with_(spec=plan.to_spec))
