"""Per-service reply caching: answering retried calls across rebinds.

The Unique Execution micro-protocol filters duplicates *inside one
server group*: its ``OldResults`` table lives on the servers and dies
with them.  After a reconfiguration — a rebind to a shrunken group, a
key range migrated to a different shard — a client's retry can land on
servers that never saw the original call, so the server-side filter
cannot help.  The :class:`ReplyCache` extends the filter across
reconfigurations by keeping a deployment-side LRU of
``(client, call_id) -> CallResult`` per service: a retry that names the
original call id is answered from the cache without re-executing the
procedure anywhere.

The cache only stores *completed, successful* results (a TIMEOUT is not
a reply; retrying it must really re-issue), and it is bounded: the
least-recently-used entry is evicted once ``capacity`` is exceeded, the
standard answer to the paper's open question of when a stored reply may
be discarded without an explicit client acknowledgement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.core.messages import CallResult

__all__ = ["ReplyCache"]


class ReplyCache:
    """A bounded LRU of ``(client_pid, call_id) -> CallResult``."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], CallResult]" = \
            OrderedDict()
        #: Placement-view epoch each reply completed under (tracked only
        #: for entries stored with ``epoch=``): a retry answered from the
        #: cache can be audited against the epoch the original ran in.
        self._epochs: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, client_pid: int, call_id: int) -> Optional[CallResult]:
        """The cached reply for a call, refreshing its recency."""
        entry = self._entries.get((client_pid, call_id))
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end((client_pid, call_id))
        self.hits += 1
        return entry

    def epoch_of(self, client_pid: int, call_id: int) -> Optional[int]:
        """The view epoch a cached reply completed under, if recorded."""
        return self._epochs.get((client_pid, call_id))

    def put(self, client_pid: int, call_id: int,
            result: CallResult, *, epoch: Optional[int] = None) -> None:
        """Remember a completed reply (successful results only make
        sense here; the caller filters).  ``epoch`` optionally records
        the placement-view epoch the call completed under."""
        key = (client_pid, call_id)
        self._entries[key] = result
        self._entries.move_to_end(key)
        if epoch is not None:
            self._epochs[key] = epoch
            self._epochs.move_to_end(key)
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._epochs.pop(evicted, None)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._entries
