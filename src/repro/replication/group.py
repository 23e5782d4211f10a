"""One shard as a replica group: routing, election, state transfer.

A :class:`ReplicaGroup` wraps one deployed service whose servers are the
replicas of a single shard, and interposes on the deployment's
name-resolved call path (:meth:`~repro.core.deployment.Deployment.call`
consults it through the :class:`~repro.replication.manager.
ReplicationManager`):

* **reads** (ops named by the :class:`~repro.replication.spec.
  ReplicaSpec`) are narrowed to a single in-sync replica, round-robin,
  which is where read scaling comes from — unless the composition
  orders delivery (FIFO/total), in which case every replica must see
  the whole call stream and reads ride the full group;
* **active writes** go to the currently bound group unchanged — the
  composed micro-protocols (acceptance count, ordering, unique
  execution) decide what a write costs and guarantees;
* **passive writes** are narrowed to the elected primary; after the
  primary's reply, the resulting *state change* is transferred to every
  in-sync backup (one single-member call each, through the migration
  surface — backups never execute the application procedure) before the
  write is acknowledged, so an acknowledged write survives any primary
  crash.

Election is deterministic from the membership stream: the primary is
the largest-pid live, in-sync replica (the paper's leader rule).  When
the primary is suspected the group **parks** incoming writes, promotes
the next eligible backup, and releases the parked calls; a write that
was already in flight surfaces as a TIMEOUT and is transparently
re-issued against the new primary (the failover retry).  A recovered
replica is *resynced* — writes parked, state snapshot transferred,
leftover keys dropped — before it serves reads or stands for election;
a rejoining larger pid then deterministically takes the primary role
back (a taped demotion).

Everything the group does lands under the ``repl.*`` metric namespace
and leaves causal breadcrumbs on the deployment's flight recorder.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.messages import CallResult
from repro.errors import ReproError
from repro.net.message import Group
from repro.replication.spec import (
    ReplicaSpec,
    forward_state,
    validate_replica_spec,
)

__all__ = ["ReplicaGroup"]


class ReplicaGroup:
    """The replication state machine of one shard service."""

    def __init__(self, deployment: Any, service: str, rspec: ReplicaSpec):
        validate_replica_spec(rspec)
        self.deployment = deployment
        self.name = service
        self.rspec = rspec
        svc = deployment.service(service)
        if len(svc.server_pids) != rspec.replicas:
            raise ReproError(
                f"service {service!r} runs {len(svc.server_pids)} servers "
                f"but the ReplicaSpec names {rspec.replicas} replicas")
        #: The configured replica set (static; liveness is dynamic).
        self.members: List[int] = list(svc.server_pids)
        #: Replicas holding every acknowledged write (election domain).
        self.synced: Set[int] = set(self.members)
        #: Replicas currently suspected down.
        self.down: Set[int] = set()
        #: The elected primary (passive mode; None while failing over).
        self.primary: Optional[int] = (max(self.members)
                                       if rspec.passive else None)
        self._write_blocked = False
        self._gate: Any = None
        self._rr = 0
        self.metrics = deployment.metrics
        self._flight = getattr(deployment, "flight", None)
        m = self.metrics
        self._c_promotions = m.counter("repl.promotions")
        self._c_demotions = m.counter("repl.demotions")
        self._c_shrinks = m.counter("repl.shrinks")
        self._c_regrows = m.counter("repl.regrows")
        self._c_resyncs = m.counter("repl.resyncs")
        self._c_sync_calls = m.counter("repl.sync.calls")
        self._c_sync_failures = m.counter("repl.sync.failures")
        self._c_failover_retries = m.counter("repl.failover.retries")
        self._c_parked = m.counter("repl.parked_writes")
        self._c_reads = m.counter("repl.reads.routed")
        self._publish()

    # ------------------------------------------------------------------
    # Call-path interposition (driven by Deployment.call)
    # ------------------------------------------------------------------

    async def admit(self, op: str, bound: Group) -> Group:
        """The target group for one call, parking writes when the group
        is mid-promotion or mid-resync."""
        if self.rspec.is_read(op):
            return self._read_target(bound)
        while self._write_blocked or (self.rspec.passive
                                      and self.primary is None):
            self._c_parked.inc()
            await self._gate.wait()
        if self.rspec.passive:
            return Group(self.name, [self.primary])
        return bound

    async def complete(self, grpc: Any, op: str, args: Any,
                       result: CallResult, target: Group) -> CallResult:
        """Post-call step: passive backup sync and failover retry.

        ``target`` is the group the call was actually sent to (what
        :meth:`admit` returned).  A write that comes back OK from a
        primary that has *since been suspected* is unconfirmed: the
        acceptance protocol's membership semantics complete a call whose
        every destination failed without collecting a single reply, so
        the OK may cover a write that never executed.  Such writes are
        re-issued against the promoted primary before they are
        acknowledged — safe, because the state-forward surface (put /
        delete / ingest / drop_keys) is idempotent on state, and the
        dead primary's copy left the group with it.
        """
        if not self.rspec.passive or self.rspec.is_read(op):
            return result
        sent_to: Optional[int] = (target.members[0]
                                  if target.members else None)
        attempts = 0
        while ((not result.ok
                or (sent_to is not None and sent_to in self.down))
               and attempts < len(self.members)):
            # The primary (probably) died under the call.  Wait out the
            # promotion, then re-issue against the new primary.  Only
            # unacknowledged or unconfirmed writes take this path, so
            # the re-execution is the ordinary at-least-once retry
            # story, not a duplicate of a confirmed acknowledgement.
            retry_against = await self._await_primary()
            if retry_against is None or retry_against == sent_to:
                break
            self._c_failover_retries.inc()
            if self._flight is not None:
                self._flight.note("repl-failover-retry",
                                  service=self.name, op=op,
                                  old=sent_to, primary=retry_against)
            result = await grpc.call(op, args,
                                     Group(self.name, [retry_against]))
            sent_to = retry_against
            attempts += 1
        if result.ok and not (sent_to is not None
                              and sent_to in self.down):
            await self._sync_backups(grpc, op, args)
        return result

    def _read_target(self, bound: Group) -> Group:
        if not self.rspec.reads_narrow:
            # An ordered composition (FIFO/total) gates every replica on
            # the client's full call sequence; a read served by one
            # replica alone would open a sequence gap at the others and
            # park all later writes.  Reads ride the full group instead.
            return bound
        if self.rspec.passive and self.rspec.read_from == "primary" \
                and self.primary is not None:
            return Group(self.name, [self.primary])
        eligible = [pid for pid in self.members
                    if pid in self.synced and pid not in self.down
                    and pid in bound.members]
        if not eligible:
            # Fall back to everyone in sync (a shrunk binding may lag
            # a promotion) or, failing that, the binding as bound.
            eligible = sorted(self.synced - self.down) or \
                list(bound.members)
        pid = eligible[self._rr % len(eligible)]
        self._rr += 1
        self._c_reads.inc()
        return Group(self.name, [pid])

    async def _await_primary(self) -> Optional[int]:
        while self._write_blocked or self.primary is None:
            if not (self.synced - self.down) and not self._write_blocked:
                return None      # nobody left to promote
            self._c_parked.inc()
            await self._gate.wait()
        return self.primary

    # ------------------------------------------------------------------
    # Passive state transfer
    # ------------------------------------------------------------------

    async def _sync_backups(self, grpc: Any, op: str, args: Any) -> None:
        """Ship the primary's state change to every in-sync backup
        before the write is acknowledged (single-member calls, so each
        backup's reply really is that backup's)."""
        translated = forward_state(op, args)
        if translated is None:
            return
        sync_op, sync_args = translated
        for pid in sorted(self.synced - self.down):
            if pid == self.primary:
                continue
            self._c_sync_calls.inc()
            result = await grpc.call(sync_op, sync_args,
                                     Group(self.name, [pid]))
            if not result.ok:
                # The backup will be (or already is) suspected; until it
                # resyncs it must not serve reads or stand for election.
                self._c_sync_failures.inc()
                self.synced.discard(pid)
                self._publish()

    # ------------------------------------------------------------------
    # Membership reactions (driven by the ReplicationManager)
    # ------------------------------------------------------------------

    def on_suspect(self, pid: int) -> None:
        if pid not in self.members or pid in self.down:
            return
        self.down.add(pid)
        self.synced.discard(pid)   # volatile state died with the crash
        self._c_shrinks.inc()
        if self._flight is not None:
            self._flight.note("repl-shrink", service=self.name, pid=pid,
                              live=len(self.members) - len(self.down))
        if self.rspec.passive and self.primary == pid:
            self.primary = None
            self._arm_gate()
            self._elect(reason="suspicion")
        self._publish()

    def on_recover(self, pid: int) -> None:
        if pid not in self.members or pid not in self.down:
            return
        self.down.discard(pid)
        self._c_regrows.inc()
        if self._flight is not None:
            self._flight.note("repl-regrow", service=self.name, pid=pid)
        self.deployment.runtime.spawn(
            self._resync(pid), name=f"resync-{self.name}-{pid}",
            daemon=True)
        self._publish()

    def _elect(self, *, reason: str) -> None:
        """Deterministic promotion: largest-pid live in-sync replica."""
        eligible = sorted(self.synced - self.down)
        if not eligible:
            return                 # stay parked until someone recovers
        old, self.primary = self.primary, eligible[-1]
        self._c_promotions.inc()
        if self._flight is not None:
            self._flight.note("repl-promote", service=self.name,
                              primary=self.primary, reason=reason)
        self._release_gate()
        self._publish()

    def _reconsider(self) -> None:
        """Re-apply the election rule after the sync set grew: a
        rejoined larger pid deterministically takes the role back."""
        if not self.rspec.passive or self.primary is None:
            return
        challenger = max(self.synced - self.down, default=None)
        if challenger is not None and challenger != self.primary:
            demoted = self.primary
            self._c_demotions.inc()
            if self._flight is not None:
                self._flight.note("repl-demote", service=self.name,
                                  pid=demoted, successor=challenger)
            self.primary = challenger
            self._c_promotions.inc()
            if self._flight is not None:
                self._flight.note("repl-promote", service=self.name,
                                  primary=challenger, reason="rejoin")
            self._publish()

    # ------------------------------------------------------------------
    # Resync: state transfer to a recovered replica
    # ------------------------------------------------------------------

    async def _resync(self, pid: int) -> None:
        """Bring a recovered replica back in sync, writes parked.

        The park closes the window in which a write could land between
        the donor snapshot and the snapshot's ingest (the write would be
        silently shadowed by the older snapshot otherwise).
        """
        donor = max(self.synced - self.down, default=None)
        if donor is None:
            # Nobody holds a better copy; the replica rejoins with its
            # stable-store state (all *its* acknowledged writes).
            self.synced.add(pid)
            self._maybe_promote_sole(pid)
            return
        grpc = self._client_grpc()
        self._block_writes()
        try:
            snap = await grpc.call("snapshot", {},
                                   Group(self.name, [donor]))
            if not snap.ok:
                return             # donor died; the next recovery retries
            entries: Dict[str, Any] = dict(snap.args or {})
            have = await grpc.call("keys", {}, Group(self.name, [pid]))
            if not have.ok:
                return
            stale = [key for key in (have.args or [])
                     if key not in entries]
            if stale:
                result = await grpc.call("drop_keys", {"keys": stale},
                                         Group(self.name, [pid]))
                if not result.ok:
                    return
            if entries:
                result = await grpc.call("ingest", {"entries": entries},
                                         Group(self.name, [pid]))
                if not result.ok:
                    return
            self.synced.add(pid)
            self._c_resyncs.inc()
            if self._flight is not None:
                self._flight.note("repl-resync", service=self.name,
                                  pid=pid, donor=donor,
                                  entries=len(entries))
        finally:
            self._release_writes()
            self._reconsider()
            self._publish()

    def _maybe_promote_sole(self, pid: int) -> None:
        if self.rspec.passive and self.primary is None:
            self._arm_gate()
            self._elect(reason="sole-survivor")

    def _client_grpc(self) -> Any:
        svc = self.deployment.service(self.name)
        return svc.grpcs[svc.client_pids[0]]

    # ------------------------------------------------------------------
    # Write parking
    # ------------------------------------------------------------------

    def _arm_gate(self) -> None:
        if self._gate is None or self._gate.is_set():
            self._gate = self.deployment.runtime.event()

    def _block_writes(self) -> None:
        self._write_blocked = True
        self._arm_gate()

    def _release_writes(self) -> None:
        self._write_blocked = False
        if not (self.rspec.passive and self.primary is None):
            self._release_gate()

    def _release_gate(self) -> None:
        if self._gate is not None and not self._write_blocked:
            self._gate.set()

    # ------------------------------------------------------------------

    def live_members(self) -> List[int]:
        return [pid for pid in self.members if pid not in self.down]

    def _publish(self) -> None:
        self.metrics.gauge(f"repl.group.{self.name}.synced").set(
            len(self.synced))
        self.metrics.gauge(f"repl.group.{self.name}.primary").set(
            self.primary if self.primary is not None else -1)
