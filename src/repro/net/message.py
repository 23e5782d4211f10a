"""Addressing and fabric-level message envelopes.

The paper addresses processes by ``process_id`` and server groups by
``group_id``; the underlying "unreliable communication" protocol moves
opaque payloads between sites.  This module defines those addressing types
plus the :class:`Envelope` wrapper the simulated fabric attaches to every
payload in flight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Iterable, Optional, Tuple

__all__ = ["ProcessId", "Group", "Envelope", "wire_size"]

#: Processes are identified by small integers, as in the paper's pseudocode
#: (`my_id`, `max(id: process_id in server)` for leader election).
ProcessId = int


@dataclass(frozen=True)
class Group:
    """An immutable named server group (the paper's ``group_id``).

    The *static* membership of the group — which processes were configured
    into it — never changes; the dynamic notion of which members are
    currently alive is the membership service's business (Section 2.2's
    membership semantics).

    The Total Order micro-protocol defines the leader as "the server with
    the largest unique identifier of all non-failed servers", which is what
    :meth:`leader` computes given a set of live processes.
    """

    name: str
    members: Tuple[ProcessId, ...]

    def __init__(self, name: str, members: Iterable[ProcessId]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "members",
                           tuple(sorted(set(members))))
        if not self.members:
            raise ValueError(f"group {name!r} must have at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.members

    def leader(self, alive: FrozenSet[ProcessId] | set | None = None
               ) -> ProcessId:
        """Largest-id live member (the paper's leader rule).

        With ``alive=None`` every configured member is considered live.
        Raises ``ValueError`` if no member is alive.
        """
        candidates = self.members if alive is None else \
            [m for m in self.members if m in alive]
        if not candidates:
            raise ValueError(f"group {self.name!r} has no live members")
        return max(candidates)

    def wire_size(self) -> int:
        """What :func:`wire_size` would charge this dataclass (2 of
        framing + the name + a 5-byte tuple header + 9 per member pid),
        without walking the members."""
        return 7 + wire_size(self.name) + 9 * len(self.members)


def wire_size(value: Any) -> int:
    """Deterministic byte-size *estimate* of a payload on the wire.

    The simulated fabric never actually serializes payloads (they are
    handed across as Python objects), but the wire pipeline's coalescing
    cap and per-link queue budgets need a size to reason about.  This
    estimate mirrors the framing of :mod:`repro.stubs.marshal` — one tag
    byte plus a length prefix per variable-size value — extended to the
    dataclass wire types (``NetMsg``, ``Heartbeat``, ...) that travel
    whole: a dataclass costs 2 bytes of framing plus its fields.

    Objects exposing their own ``wire_size()`` (:class:`Group`,
    :class:`~repro.core.messages.NetMsg`, :class:`~repro.net.wire.
    WireBatch`) are deferred to, and must return what this walk would;
    strings are charged their UTF-8 length, like the marshaller; anything
    unrecognised is charged a flat 16 bytes rather than rejected, since
    tests ship ad-hoc payloads through the fabric.
    """
    sizer = getattr(value, "wire_size", None)
    if callable(sizer):
        return int(sizer())
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, str):
        # UTF-8 bytes, as the marshaller frames it; ASCII needs no encode.
        return 5 + (len(value) if value.isascii() else len(value.encode()))
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return 5 + sum(wire_size(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(wire_size(k) + wire_size(v)
                       for k, v in value.items())
    fields = getattr(value, "__dataclass_fields__", None)
    if fields is not None:
        return 2 + sum(wire_size(getattr(value, name)) for name in fields)
    return 16


#: Envelope sequence numbers, global and increasing.
_envelope_seq = itertools.count()


class Envelope:
    """A payload in flight through the simulated fabric.

    ``seq`` is a global sequence number that only names the arrival's
    task and trace records (a fresh one unless given); ``copy``
    distinguishes duplicated deliveries of the same send.
    ``on_resolved`` is the wire pipeline's completion hook: called
    exactly once when the fabric decides the envelope's fate (delivered
    or dropped), it returns the link's in-flight budget so blocked
    senders can proceed (duplicated copies share one hook, which makes
    itself idempotent).
    """

    __slots__ = ("src", "dst", "payload", "send_time", "seq", "copy",
                 "on_resolved", "_wire_size")

    def __init__(self, src: ProcessId, dst: ProcessId, payload: Any,
                 send_time: float, seq: int = -1, copy: int = 0,
                 on_resolved: Optional[Callable[[], None]] = None):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        self.seq = next(_envelope_seq) if seq < 0 else seq
        self.copy = copy
        self.on_resolved = on_resolved
        # Memoized wire_size(); an envelope's payload never changes once
        # it is in flight, so the estimate is computed at most once per
        # envelope (duplicated copies each carry their own cache).
        self._wire_size: Optional[int] = None

    def wire_size(self) -> int:
        """Estimated on-wire size of the carried payload (memoized)."""
        size = self._wire_size
        if size is None:
            size = self._wire_size = wire_size(self.payload)
        return size

    def __repr__(self) -> str:
        return (f"<Envelope #{self.seq} {self.src}->{self.dst} "
                f"{type(self.payload).__name__} size={self.wire_size()}"
                f"{f' copy={self.copy}' if self.copy else ''}>")
