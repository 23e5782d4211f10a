"""The x-kernel Uniform Protocol Interface (UPI), reduced to essentials.

In the x-kernel every protocol object exports the same interface and is
composed hierarchically: ``push`` carries a message *down* toward the
network, ``pop`` carries a message *up* toward the user.  The paper's
composite gRPC protocol "exports the standard x-kernel Uniform Protocol
Interface, even though its internal structure is richer than a standard
x-kernel protocol" — this module provides that outer shell.

We keep only what the reproduction needs: named protocol objects with
``upper``/``lower`` links and a helper to wire a stack together.  Each
layer defines the ``push``/``pop`` its neighbours call (the dispatcher's
``pop``, the composite's ``pop``, the transport's ``push``).  Sessions,
participant lists and the x-kernel's open/demux machinery are collapsed:
gRPC demultiplexes calls with identifiers carried in the messages
themselves, and the choice of which protocol an arrival goes to is the
node's claim table (:meth:`~repro.net.node.Node.attach`), not a layer of
the stack.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ReproError

__all__ = ["Protocol", "compose_stack"]


class Protocol:
    """A protocol object in an x-kernel style stack: a name and its
    ``upper``/``lower`` neighbours."""

    def __init__(self, name: str):
        self.name = name
        self.upper: Optional["Protocol"] = None
        self.lower: Optional["Protocol"] = None


def compose_stack(*protocols: Protocol) -> List[Protocol]:
    """Wire protocols top-to-bottom into a stack and return them.

    ``compose_stack(user, grpc)`` makes ``user`` the top (its pushes go
    to ``grpc``) and ``grpc`` the layer below it (its pops go to
    ``user``).  Returns the list for convenient unpacking.
    """
    if not protocols:
        raise ReproError("compose_stack requires at least one protocol")
    for above, below in zip(protocols, protocols[1:]):
        above.lower = below
        below.upper = above
    return list(protocols)
