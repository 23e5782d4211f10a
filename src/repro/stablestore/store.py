"""Simulated stable storage: state that survives site crashes.

The paper distinguishes volatile state (lost on a crash) from *stable*
state "that would persist across failures, such as values stored on
disk".  A :class:`StableStore` is a node's disk: it lives on the
:class:`~repro.net.node.Node` object, which persists across simulated
crashes while everything the node's tasks held in memory does not.

Two interfaces are provided:

* **checkpoint cells** (``write``/``read``/``free``) — anonymous
  addressed blobs, used by the Atomic Execution micro-protocol's
  ``checkpoint()``/``load(address)`` operations;
* **named cells** (``put``/``get``/``delete``) — the application-visible
  stable variables (e.g. the bank example's account balances).  Each
  individual ``put`` is atomic, as the paper assumes for assignments to
  ``stable`` variables, but a *sequence* of puts is not — which is exactly
  the window that makes non-atomic execution observable when a server
  crashes mid-procedure.

Values are deep-copied on the way in and out so no aliasing can let
volatile mutations leak into "disk".
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import StableStoreError

__all__ = ["StableStore"]


class StableStore:
    """Crash-surviving storage for one simulated site."""

    def __init__(self) -> None:
        self._checkpoints: Dict[int, Any] = {}
        self._next_address = 1
        self._cells: Dict[str, Any] = {}
        #: Write counters, handy for benchmarks measuring checkpoint cost.
        self.checkpoint_writes = 0
        self.cell_writes = 0

    # ------------------------------------------------------------------
    # Checkpoint cells (Atomic Execution)
    # ------------------------------------------------------------------

    def write(self, value: Any) -> int:
        """Persist a snapshot; returns its stable address."""
        address = self._next_address
        self._next_address += 1
        self._checkpoints[address] = copy.deepcopy(value)
        self.checkpoint_writes += 1
        return address

    def read(self, address: int) -> Any:
        """Load the snapshot at ``address`` (a fresh copy)."""
        if address not in self._checkpoints:
            raise StableStoreError(f"no checkpoint at address {address}")
        return copy.deepcopy(self._checkpoints[address])

    def free(self, address: int) -> None:
        """Release a snapshot no longer referenced."""
        self._checkpoints.pop(address, None)

    def has_checkpoint(self, address: Optional[int]) -> bool:
        return address is not None and address in self._checkpoints

    # ------------------------------------------------------------------
    # Named cells (application stable state)
    # ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Atomically write one named stable variable."""
        self._cells[key] = copy.deepcopy(value)
        self.cell_writes += 1

    def get(self, key: str, default: Any = None) -> Any:
        return copy.deepcopy(self._cells.get(key, default))

    def delete(self, key: str) -> None:
        self._cells.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def keys(self) -> List[str]:
        return list(self._cells)

    def keys_with_prefix(self, prefix: str) -> List[str]:
        """Named cells under a dotted namespace (sorted).

        The placement plane salvages a dead shard's state by reading the
        cells its application mirrored under a known prefix — the
        simulation's stand-in for mounting a failed site's disk.
        """
        return sorted(k for k in self._cells if k.startswith(prefix))

    def items_with_prefix(self, prefix: str) -> Iterator:
        """``(cell, value)`` pairs under a namespace (values copied)."""
        return iter([(k, copy.deepcopy(v))
                     for k, v in sorted(self._cells.items())
                     if k.startswith(prefix)])

    def snapshot_cells(self) -> Dict[str, Any]:
        """A copy of every named cell (used by checkpoints of apps whose
        stable state lives here)."""
        return copy.deepcopy(self._cells)

    def restore_cells(self, cells: Dict[str, Any]) -> None:
        """Overwrite all named cells from a snapshot."""
        self._cells = copy.deepcopy(cells)
