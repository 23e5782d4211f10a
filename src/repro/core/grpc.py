"""The gRPC composite protocol (Section 4).

:class:`GroupRPC` is the composite protocol the paper calls ``gRPC``: the
framework instance holding the shared data structures of Section 4.2
(``pRPC``, ``sRPC``, ``HOLD``, the incarnation number, the live-member
set, the ``serial`` semaphore), the six events of Section 4.3, and the
x-kernel UPI plumbing to the user protocol above and the unreliable
transport below.

A service is built by linking micro-protocols into it::

    grpc = GroupRPC(node)
    grpc.add(RPCMain(), SynchronousCall(), ReliableCommunication(0.05),
             BoundedTermination(1.0), Collation(last_reply), Acceptance(1))

or, preferably, through :mod:`repro.core.config`, which also validates
the Figure-4 dependency graph.

Client API
----------

``await grpc.call(op, args, group)`` issues a call from the current task
(which plays the paper's client thread).  Under Synchronous Call it blocks
until the call completes and returns a
:class:`~repro.core.messages.CallResult`; under Asynchronous Call it
returns immediately with a WAITING result whose ``id`` can later be
redeemed with ``await grpc.request(call_id)``.

Crash/recovery model
--------------------

The composite subscribes to its node's lifecycle: on crash all volatile
state dies with the tasks (tables cleared, pending TIMEOUTs disarmed,
handler wiring dropped); on recovery each micro-protocol is reset and
re-configured — the process being relinked at reboot — and the ``RECOVERY``
event fires with the new incarnation number.
"""

from __future__ import annotations

from typing import (Any, Awaitable, Callable, Coroutine, Dict, Iterable,
                    Optional, Set)

from repro.core.framework import CompositeProtocol, MicroProtocol
from repro.core.messages import (
    CallKey,
    CallResult,
    MemChange,
    NetMsg,
    Status,
    UserMsg,
    UserOp,
)
from repro.core.state import ClientRecord, HoldRegistry, ServerRecord
from repro.errors import ConfigurationError, NodeDown
from repro.obs.recorder import CTX_KEY as OBS_CTX
from repro.net.message import Group, ProcessId
from repro.net.node import Node

__all__ = [
    "GroupRPC",
    "PendingCall",
    "gather_calls",
    "ADAPT_EPOCH_KEY",
    "CALL_FROM_USER",
    "NEW_RPC_CALL",
    "REPLY_FROM_SERVER",
    "MSG_FROM_NETWORK",
    "RECOVERY",
    "MEMBERSHIP_CHANGE",
    "CALL_ABORTED",
]

# The events of Section 4.3.  All are blocking and sequential.
CALL_FROM_USER = "CALL_FROM_USER"
NEW_RPC_CALL = "NEW_RPC_CALL"
REPLY_FROM_SERVER = "REPLY_FROM_SERVER"
MSG_FROM_NETWORK = "MSG_FROM_NETWORK"
RECOVERY = "RECOVERY"
MEMBERSHIP_CHANGE = "MEMBERSHIP_CHANGE"
#: Extension event: a pending server-side call was forcibly abandoned
#: (orphan kill).  Micro-protocols holding per-call bookkeeping (Unique
#: Execution's OldCalls, Causal Order's waiting set) purge the key so a
#: live client's retransmission gets a fresh admission instead of being
#: discarded as a duplicate.
CALL_ABORTED = "CALL_ABORTED"

#: Annotation key carrying the sender's adaptation epoch on every wire
#: message of an adapted composite.  Never stamped (and never checked)
#: while ``adapt_epoch`` is 0, so unadapted deployments stay byte-
#: identical on the wire.
ADAPT_EPOCH_KEY = "adapt.epoch"


class GroupRPC(CompositeProtocol):
    """The gRPC composite protocol bound to one simulated site."""

    def __init__(self, node: Node, *, name: str = "", service: str = ""):
        super().__init__(name or f"gRPC@{node.pid}",
                         node.runtime, spawner=self._node_spawn)
        self.node = node
        self.my_id: ProcessId = node.pid
        #: Name of the deployment service this composite implements.
        #: Stamped into every transmitted wire message (the arrival-table
        #: key for nodes hosting several composites) and onto every span this
        #: composite emits; ``""`` for standalone composites.
        self.service = service

        # ---- shared data (Section 4.2) --------------------------------
        self.pRPC: Dict[int, ClientRecord] = {}
        self.sRPC: Dict[CallKey, ServerRecord] = {}
        self.hold = HoldRegistry()
        self.inc_number: int = node.incarnation
        #: Live members as reported by a membership service; ``None`` means
        #: no membership service is configured, in which case "the set
        #: Members will remain constant" (everyone presumed alive).
        self.members: Optional[Set[ProcessId]] = None
        #: Bumped whenever ``members`` changes (so derivations can cache).
        self.members_version = 0
        #: Semaphore enforcing one-at-a-time execution; installed as the
        #: execution gate by the Serial Execution micro-protocol.
        self.serial = self.runtime.semaphore(1)
        #: When set (by Serial Execution), ``forward_up`` acquires this
        #: semaphore around each server-procedure execution.
        self.execution_gate: Optional[Any] = None

        #: Set while an orphan-killing micro-protocol (Terminate or Probe
        #: Orphan) is configured: only then does RPC Main record which
        #: task executes each call (``ServerRecord.executor``), since a
        #: kill is the one use of that handle.
        self.kills_orphans = False

        #: Installed by RPC Main at configure time; other micro-protocols
        #: (FIFO Order, Total Order) call it to release gated calls.
        self.forward_up: Optional[Callable[..., Coroutine]] = None

        #: Live-adaptation epoch: 0 until the first micro-protocol swap,
        #: then bumped in lockstep across the whole group at each commit.
        #: While non-zero, every outgoing message is stamped with it and
        #: the :class:`~repro.adapt.engine.AdaptationFence` drops
        #: arrivals from a different epoch — a message sent under the
        #: old composition can never be dispatched under the new one.
        self.adapt_epoch: int = 0

        #: Trace attribution: the bus's dispatch records carry this pid.
        self.bus.node_id = node.pid
        # The bus's compiled MSG_FROM_NETWORK chains by message kind (a
        # live mapping the bus empties on every registration change).
        self._net_chains = self.bus.chains(MSG_FROM_NETWORK)

        # ``net_push``'s ``fabric.send`` (None: the pipeline stages),
        # and the ``lower`` it was resolved through.
        self._send: Any = None
        self._wired_lower: Any = None

        node.crash_listeners.append(self._on_crash)
        node.recover_listeners.append(self._on_recover)

    # ------------------------------------------------------------------
    # Public client API
    # ------------------------------------------------------------------

    async def call(self, op: str, args: Any, server: Group) -> CallResult:
        """Issue a (group) RPC from the calling task.

        The calling task is the client thread: with Synchronous Call
        configured this blocks until the call terminates; with
        Asynchronous Call it returns a WAITING result immediately.
        """
        umsg = UserMsg(type=UserOp.CALL, op=op, args=args, server=server)
        obs = self.obs
        if obs is None:
            await self.bus.trigger(CALL_FROM_USER, umsg)
        else:
            # Root of this call's span tree; the context is propagated
            # into the wire messages by RPC Main (via the client record's
            # annotations) so every downstream span reconnects here.
            attrs = {"op": op}
            if self.service:
                attrs["service"] = self.service
            span = obs.start_span("rpc.call", node=self.my_id, attrs=attrs)
            obs.push_ctx(span.ctx)
            try:
                await self.bus.trigger(CALL_FROM_USER, umsg)
            finally:
                obs.pop_ctx()
                obs.end_span(span, call_id=umsg.id,
                             status=umsg.status.value)
        return CallResult(id=umsg.id, status=umsg.status, args=umsg.args)

    async def request(self, call_id: int) -> CallResult:
        """Redeem an asynchronous call's result (blocks until available).

        This is the separate "Request" message of the Asynchronous Call
        micro-protocol; calling it without that micro-protocol configured
        blocks forever, so we reject it early instead.
        """
        if not self.has_micro("Asynchronous_Call"):
            raise ConfigurationError(
                "request() needs the Asynchronous_Call micro-protocol")
        umsg = UserMsg(type=UserOp.REQUEST, id=call_id)
        obs = self.obs
        if obs is None:
            await self.bus.trigger(CALL_FROM_USER, umsg)
        else:
            attrs = {"call_id": call_id}
            if self.service:
                attrs["service"] = self.service
            span = obs.start_span("rpc.request", node=self.my_id,
                                  attrs=attrs)
            obs.push_ctx(span.ctx)
            try:
                await self.bus.trigger(CALL_FROM_USER, umsg)
            finally:
                obs.pop_ctx()
                obs.end_span(span, status=umsg.status.value)
        return CallResult(id=umsg.id, status=umsg.status, args=umsg.args)

    async def begin(self, op: str, args: Any,
                    server: Group) -> "PendingCall":
        """Issue a call and get a promise-like handle for its result.

        Sugar over the Asynchronous Call micro-protocol in the style of
        the Promises work the paper cites [LS88]: ``begin`` returns
        immediately; ``await handle.result()`` blocks until the call
        terminates.  Use :func:`gather_calls` to fan out several calls
        and collect every result.
        """
        if not self.has_micro("Asynchronous_Call"):
            raise ConfigurationError(
                "begin() needs the Asynchronous_Call micro-protocol")
        issued = await self.call(op, args, server)
        return PendingCall(self, issued.id, op)

    # ------------------------------------------------------------------
    # UPI plumbing
    # ------------------------------------------------------------------

    def pop(self, payload: NetMsg, sender: ProcessId) -> Awaitable[bool]:
        """A message arrived from the transport below.

        Each arrival runs in its own task (started by the node as the
        fabric delivers it), so a chain blocked on ``serial`` or an
        ordering gate does not stall later arrivals — the paper's
        execution model.  The dispatch runs the message kind's chain:
        only the handlers that act on ``payload.type``, compiled once
        per kind by the bus (:meth:`~repro.core.events.EventBus.chain`).
        Untraced, the returned awaitable *is* that dispatch, so the
        arrival's task runs no frame of the composite's own.
        """
        if self.obs is None:
            try:
                run = self._net_chains[payload.type]
            except KeyError:
                run = self.bus.chain(MSG_FROM_NETWORK, payload.type)
            return run(payload)
        return self._pop_traced(payload)

    async def _pop_traced(self, payload: NetMsg) -> bool:
        """:meth:`pop` under a recorder: the dispatch in a span of its
        own, parented on the context the message carries."""
        obs = self.obs
        ctx = payload.annotation(OBS_CTX)
        if ctx is None:
            # A message outside any trace (e.g. a bare ACK): dispatch
            # untraced rather than minting a disconnected trace.
            return await self.bus.trigger(MSG_FROM_NETWORK, payload,
                                          kind=payload.type)
        attrs = {"sender": payload.sender, "call_id": payload.id}
        if self.service:
            attrs["service"] = self.service
        span = obs.start_span(f"msg.{payload.type.value}", node=self.my_id,
                              parent=(int(ctx[0]), int(ctx[1])),
                              attrs=attrs)
        obs.push_ctx(span.ctx)
        try:
            return await self.bus.trigger(MSG_FROM_NETWORK, payload,
                                          kind=payload.type)
        finally:
            obs.pop_ctx()
            obs.end_span(span)

    async def net_push(self, dest: Any, msg: NetMsg) -> None:
        """Send ``msg`` toward ``dest`` via the unreliable transport.

        This is the paper's ``Net.push``; ``dest`` may be a process id, a
        :class:`~repro.net.message.Group`, or any other iterable of
        process ids.  Every transmission is stamped with this
        composite's service name so the receiving node's arrival table
        can deliver it to the composite that claimed the same service.
        ``lower`` is the transport.  Through a pass-through wire
        pipeline this calls ``fabric.send`` (bound once per ``lower``)
        itself, as the transport's plain-call ``submit`` would.
        """
        lower = self.lower
        if lower is None:
            raise ConfigurationError(f"{self.name} has no transport below")
        if lower is not self._wired_lower:
            fabric = lower.fabric
            self._send = fabric.send if fabric.pipeline.passthrough else None
            self._wired_lower = lower
        if self.service:
            msg.service = self.service
        if self.adapt_epoch:
            if msg.annotations is None:
                msg.annotations = {ADAPT_EPOCH_KEY: self.adapt_epoch}
            else:
                msg.annotations[ADAPT_EPOCH_KEY] = self.adapt_epoch
        send = self._send
        if send is None:
            staged = lower.submit(dest, msg)
            if staged is not None:
                await staged
        elif self.node.up:
            if dest.__class__ is int or isinstance(dest, int):
                send(self.my_id, dest, msg)
            else:
                for member in dest:
                    send(self.my_id, member, msg)

    async def deliver_to_server(self, op: str, args: Any) -> Any:
        """Blocking upcall to the user protocol (the paper's
        ``Server.pop``); returns the procedure's result arguments."""
        if self.upper is None:
            raise ConfigurationError(
                f"{self.name} has no server protocol above")
        return await self.upper.pop(op, args)

    # ------------------------------------------------------------------
    # Membership plumbing
    # ------------------------------------------------------------------

    def set_members(self, members: Iterable[ProcessId]) -> None:
        """Install an initial live-member set (done by the membership
        service when connected)."""
        self.members = set(members)
        self.members_version += 1

    def membership_change(self, who: ProcessId, change: MemChange) -> None:
        """Feed one membership change into the composite.

        Updates ``Members`` and triggers the ``MEMBERSHIP_CHANGE`` event in
        a fresh node-scoped task.  Called by whichever membership service
        (heartbeat-based or oracle) is attached to this composite.
        """
        if self.members is None:
            self.members = set()
        if change is MemChange.FAILURE:
            self.members.discard(who)
        else:
            self.members.add(who)
        self.members_version += 1
        self._node_spawn(self.bus.trigger(MEMBERSHIP_CHANGE, who, change),
                         name=f"memchange-{who}", daemon=True)

    def is_member_alive(self, pid: ProcessId) -> bool:
        """Liveness according to the configured membership knowledge."""
        return self.members is None or pid in self.members

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        """Volatile state dies with the site."""
        self.pRPC.clear()
        self.sRPC.clear()
        self.bus.clear()
        self.serial = self.runtime.semaphore(1)
        if self.execution_gate is not None:
            self.execution_gate = self.serial

    def _on_recover(self, incarnation: int) -> None:
        """Relink the composite and announce the new incarnation."""
        self.inc_number = incarnation
        for micro in self.micro_protocols:
            micro.reset()
            micro.configure()
        self._node_spawn(self.bus.trigger(RECOVERY, incarnation),
                         name="recovery-event", daemon=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _node_spawn(self, coro: Coroutine, *, name: str = "",
                    daemon: bool = False) -> Any:
        """Spawn a task owned by this composite's node.

        Tasks spawned here die with the node on a crash.  If the node is
        already down (a timer raced the crash) the work is silently
        discarded, as it would be on real hardware.
        """
        try:
            return self.node.spawn(coro, name=name, daemon=daemon)
        except NodeDown:
            return None


class PendingCall:
    """A promise for an asynchronous call's eventual result.

    Obtained from :meth:`GroupRPC.begin`.  ``result()`` may be awaited
    exactly once (redeeming retires the call record, per the paper's
    Asynchronous Call semantics); :meth:`peek` is non-destructive.
    """

    def __init__(self, grpc: GroupRPC, call_id: int, op: str):
        self.grpc = grpc
        self.id = call_id
        self.op = op
        self._redeemed: Optional[CallResult] = None

    def peek(self) -> Optional[Status]:
        """Current status without blocking or redeeming.

        ``None`` means the call record is gone (already redeemed or lost
        to a client crash).
        """
        if self._redeemed is not None:
            return self._redeemed.status
        record = self.grpc.pRPC.get(self.id)
        return record.status if record is not None else None

    async def result(self) -> CallResult:
        """Block until the call terminates; idempotent after the first
        redemption."""
        if self._redeemed is None:
            self._redeemed = await self.grpc.request(self.id)
        return self._redeemed


async def gather_calls(grpc: GroupRPC, calls: Iterable[tuple],
                       server: Group) -> list:
    """Fan out several calls concurrently and collect all results.

    ``calls`` is an iterable of ``(op, args)`` pairs; every call is
    issued before any result is awaited, so the total time is one slow
    round trip rather than their sum.
    """
    handles = [await grpc.begin(op, args, server) for op, args in calls]
    return [await handle.result() for handle in handles]
