"""Atomic Execution (Section 4.4.5): all-or-nothing server procedures.

"To provide 'at most once' semantics, gRPC also has to guarantee that
execution of the server procedure is atomic ... if the server does have
stable state, transactional techniques must be used."  This micro-protocol
takes the paper's second option — atomicity inside the RPC layer — using
whole-state checkpoints:

* after every completed execution, ``checkpoint()`` writes the server's
  full (volatile + stable) state to stable storage and atomically swaps
  the ``old`` checkpoint address (a ``stable`` variable);
* on ``RECOVERY``, ``load(old)`` restores the last checkpoint, erasing any
  partial effects of the execution in progress when the site crashed.

The server protocol above gRPC must implement ``checkpoint_state()`` /
``restore_state(state)`` (see :class:`repro.apps.dispatcher.ServerDispatcher`).
An initial checkpoint is taken lazily before the first call executes, so
a crash during the very first procedure is also rolled back — the paper
leaves this bootstrap implicit.

Delta mode (extension) implements the optimization the paper proposes in
the very next sentence: "this implementation is inefficient when the
state of the user protocol is large.  This can be optimized by just
storing the changes ('deltas') from one checkpoint to the next."  With
``delta=True`` and dict-shaped application state, each post-execution
checkpoint persists only the changed/removed keys; recovery replays the
delta chain over the last full snapshot, and every ``compact_every``
deltas the chain is collapsed into a fresh full snapshot.

Requires Serial Execution (Figure 4): whole-state checkpoints are only
meaningful when calls do not interleave.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.grpc import MSG_FROM_NETWORK, RECOVERY, REPLY_FROM_SERVER
from repro.core.messages import CallKey, NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.errors import ConfigurationError
from repro.obs import register_protocol

__all__ = ["AtomicExecution", "state_delta", "apply_delta"]

#: Sentinel marking a key deleted since the previous checkpoint.
_DELETED = "__repro_deleted__"


def state_delta(old: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """Shallow structural diff of two dict-shaped states.

    Nested dict values are diffed recursively one level at a time;
    everything else is compared by equality and stored whole.
    """
    delta: Dict[str, Any] = {}
    for key, value in new.items():
        if key not in old:
            delta[key] = value
        elif isinstance(value, dict) and isinstance(old[key], dict):
            inner = state_delta(old[key], value)
            if inner:
                delta[key] = {"__nested__": inner}
        elif old[key] != value:
            delta[key] = value
    for key in old:
        if key not in new:
            delta[key] = _DELETED
    return delta


def apply_delta(state: Dict[str, Any], delta: Dict[str, Any]) -> None:
    """Apply a :func:`state_delta` in place."""
    for key, value in delta.items():
        if value == _DELETED:
            state.pop(key, None)
        elif isinstance(value, dict) and "__nested__" in value:
            nested = state.setdefault(key, {})
            apply_delta(nested, value["__nested__"])
        else:
            state[key] = value


class AtomicExecution(GRPCMicroProtocol):
    """Checkpoint/rollback atomicity for the server procedure."""

    protocol_name = "Atomic_Execution"

    def __init__(self, *, delta: bool = False,
                 compact_every: int = 16) -> None:
        super().__init__()
        if compact_every < 1:
            raise ValueError("compact_every must be >= 1")
        self.delta = delta
        self.compact_every = compact_every
        # `old` is a *stable* variable in the paper; it survives reset()
        # because instance attributes persist while the addressed snapshot
        # lives in the node's StableStore ("disk").
        self._old: Optional[int] = None
        #: Stable addresses of the delta chain on top of ``_old``.
        self._deltas: List[int] = []
        # Volatile cache of the state as of the last checkpoint, used to
        # compute the next delta without re-reading stable storage.
        self._last_state: Optional[Dict[str, Any]] = None

    def reset(self) -> None:
        # The delta-computation cache is volatile; the chain itself
        # (addresses + snapshots) is stable.
        self._last_state = None

    def configure(self) -> None:
        self.register(MSG_FROM_NETWORK, self.ensure_initial_checkpoint,
                      kinds=(NetOp.CALL,))
        self.register(REPLY_FROM_SERVER, self.handle_reply)
        self.register(RECOVERY, self.handle_recovery)

    # -- checkpoint()/load() (the paper's assumed operations) -----------

    def _server_state_holder(self):
        holder = self.grpc.upper
        if holder is None or not hasattr(holder, "checkpoint_state"):
            raise ConfigurationError(
                "Atomic_Execution needs a server protocol above gRPC that "
                "implements checkpoint_state()/restore_state()")
        return holder

    def checkpoint(self) -> int:
        """Write the server's full state to stable storage."""
        state = self._server_state_holder().checkpoint_state()
        return self.grpc.node.stable.write(state)

    def load(self, address: int) -> None:
        """Restart the server from the checkpoint at ``address``."""
        state = self.grpc.node.stable.read(address)
        self._server_state_holder().restore_state(state)

    # -- handlers --------------------------------------------------------

    async def ensure_initial_checkpoint(self, msg: NetMsg) -> None:
        if self._old is None:
            self._old = self.checkpoint()
            if self.delta:
                self._last_state = \
                    self._server_state_holder().checkpoint_state()
                # Changes predating the base snapshot are inside it;
                # drop any accumulated app-tracked delta.
                self._discard_app_delta()

    async def handle_reply(self, key: CallKey) -> None:
        if self.delta:
            self._checkpoint_delta()
            return
        new = self.checkpoint()
        previous, self._old = self._old, new  # atomic stable assignment
        if previous is not None:
            self.grpc.node.stable.free(previous)

    async def handle_recovery(self, inc: int) -> None:
        if self._old is None:
            return
        if not self.delta or not self._deltas:
            self.load(self._old)
            if self.delta:
                self._last_state = \
                    self._server_state_holder().checkpoint_state()
            return
        stable = self.grpc.node.stable
        state = stable.read(self._old)
        for address in self._deltas:
            apply_delta(state, stable.read(address))
        self._server_state_holder().restore_state(state)
        self._last_state = state

    # -- delta mode internals --------------------------------------------

    def _app_delta(self) -> Optional[Dict[str, Any]]:
        """Changes since the last checkpoint, from the app if it tracks
        them (``pop_delta``), else ``None`` to request the diff fallback.

        App-tracked deltas are the optimization's full form: no per-call
        whole-state copy at all.  The diff fallback still snapshots the
        state each call but writes only the difference to stable storage.
        """
        holder = self._server_state_holder()
        pop = getattr(holder, "pop_delta", None)
        return pop() if callable(pop) else None

    def _discard_app_delta(self) -> None:
        holder = self._server_state_holder()
        pop = getattr(holder, "pop_delta", None)
        if callable(pop):
            pop()

    def _checkpoint_delta(self) -> None:
        stable = self.grpc.node.stable
        delta = self._app_delta()
        if delta is not None:
            self._deltas.append(stable.write(delta))
            if len(self._deltas) >= self.compact_every:
                self._compact(
                    self._server_state_holder().checkpoint_state())
            return
        current = self._server_state_holder().checkpoint_state()
        if self._last_state is None:
            # Cache lost (e.g. first checkpoint after a recovery that had
            # no pending calls); fall back to a full snapshot.
            self._compact(current)
            return
        self._deltas.append(stable.write(state_delta(self._last_state,
                                                     current)))
        self._last_state = current
        if len(self._deltas) >= self.compact_every:
            self._compact(current)

    def _compact(self, current: Dict[str, Any]) -> None:
        """Collapse base + deltas into a fresh full snapshot."""
        stable = self.grpc.node.stable
        new_base = stable.write(current)
        old_base, self._old = self._old, new_base
        if old_base is not None:
            stable.free(old_base)
        for address in self._deltas:
            stable.free(address)
        self._deltas.clear()
        self._last_state = current
        self._discard_app_delta()

    @property
    def delta_chain_length(self) -> int:
        """Pending deltas since the last full snapshot (metrics)."""
        return len(self._deltas)


register_protocol(AtomicExecution.protocol_name)
