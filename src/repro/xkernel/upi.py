"""The x-kernel Uniform Protocol Interface (UPI), reduced to essentials.

In the x-kernel every protocol object exports the same interface and is
composed hierarchically: ``push`` carries a message *down* toward the
network, ``pop`` carries a message *up* toward the user.  The paper's
composite gRPC protocol "exports the standard x-kernel Uniform Protocol
Interface, even though its internal structure is richer than a standard
x-kernel protocol" — this module provides that outer shell.

We keep only what the reproduction needs: named protocol objects with
``upper``/``lower`` links, async ``push``/``pop``, and a helper to wire a
stack together.  Sessions, participant lists and the x-kernel's open/demux
machinery are collapsed into keyword arguments on push/pop, which is
sufficient because gRPC's demultiplexing is done with call identifiers
carried in the messages themselves.

A layer that only routes (the demuxes) also answers :meth:`Protocol.
resolve_up` / :meth:`Protocol.resolve_down`: which protocol a message
really ends up at.  Both are resolved when the stack is wired, not per
message: a node walks the chain once per route and caches the answer
until something re-wires the stack (:meth:`Protocol.rewired`), and the
arrival's task runs the target's ``pop`` itself; a sender resolves the
bottom once and hands it each message through the plain-call
:meth:`Protocol.submit` — no coroutine per routing layer either way.
"""

from __future__ import annotations

from typing import Any, Awaitable, List, Optional

from repro.errors import ReproError

__all__ = ["Protocol", "compose_stack"]


class Protocol:
    """A protocol object in an x-kernel style stack.

    Subclasses override :meth:`push` (invoked by the protocol above) and/or
    :meth:`pop` (invoked by the protocol below).  The default
    implementations forward transparently, so pass-through layers (tracing,
    filtering) only override one side.
    """

    def __init__(self, name: str):
        self.name = name
        self.upper: Optional["Protocol"] = None
        self.lower: Optional["Protocol"] = None

    async def push(self, *args: Any, **kwargs: Any) -> Any:
        """Handle a message travelling down; default: forward to lower."""
        if self.lower is None:
            raise ReproError(f"{self.name}: push with no lower protocol")
        return await self.lower.push(*args, **kwargs)

    async def pop(self, *args: Any, **kwargs: Any) -> Any:
        """Handle a message travelling up; default: forward to upper."""
        if self.upper is None:
            raise ReproError(f"{self.name}: pop with no upper protocol")
        return await self.upper.pop(*args, **kwargs)

    def submit(self, *args: Any, **kwargs: Any) -> Optional[Awaitable]:
        """Push without a coroutine of this layer's own: return what the
        caller must await, or ``None`` when the message is already on
        its way.  Default: the :meth:`push` coroutine itself."""
        return self.push(*args, **kwargs)

    def resolve_up(self, payload: Any) -> Optional["Protocol"]:
        """The protocol whose ``pop`` handles ``payload`` arriving here
        (``None``: dropped unclaimed).  Default: this one.

        The answer may depend on the payload's class and its ``service``
        key only: the node caches it per that pair (see :meth:`rewired`).
        """
        return self

    def rewired(self) -> None:
        """The routes through this protocol changed (an upper attached
        or detached, the stack re-composed): pass it down to the bottom
        of the stack, whose node caches every arrival's resolved route.
        Default: tell the layer below, if any."""
        if self.lower is not None:
            self.lower.rewired()

    def resolve_down(self) -> "Protocol":
        """The protocol whose ``push`` handles a message pushed here.
        Default: this one."""
        return self


def compose_stack(*protocols: Protocol) -> List[Protocol]:
    """Wire protocols top-to-bottom into a stack and return them.

    ``compose_stack(user, grpc, transport)`` makes ``user`` the top (its
    pushes go to ``grpc``) and ``transport`` the bottom (its pops go to
    ``grpc``).  Returns the list for convenient unpacking.
    """
    if not protocols:
        raise ReproError("compose_stack requires at least one protocol")
    for above, below in zip(protocols, protocols[1:]):
        above.lower = below
        below.upper = above
    protocols[-1].rewired()
    return list(protocols)
