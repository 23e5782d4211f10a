"""Counting the buildable RPC services (Section 5 / Figure 4).

The paper fixes the acceptance and collation policies ("for a group of n
servers there are n possible acceptance policies and an infinite number
of possible collation policies"), then counts micro-protocol selections:
2 call semantics x 3 orphan policies x 3 execution disciplines x 11 legal
combinations of {unique execution, reliable communication, bounded
termination, ordering} = **198** possible group RPC services.

:func:`enumerate_services` reproduces that number mechanically by walking
the full product space and applying the dependency rules.  Two counts are
reported because the paper's arithmetic treats its four clusters as
independent, while its own Figure 4 also draws Interference Avoidance ->
Reliable Communication, which (strictly enforced) removes the 12
combinations pairing interference avoidance with unreliable
communication:

* ``paper_count`` — dependencies applied within the
  unique/reliable/termination/ordering cluster only: 198;
* ``strict_count`` — every Figure-4 edge enforced (what
  :func:`repro.core.config.validate` accepts): 186.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.core.config import (
    CALL_CHOICES,
    EXECUTION_CHOICES,
    FIGURE4,
    PAPER_ORDERING_CHOICES,
    PAPER_ORPHAN_CHOICES,
    ServiceSpec,
    validate,
)
from repro.errors import ConfigurationError

__all__ = ["EnumerationResult", "enumerate_services",
           "iter_cluster_combinations", "figure4_edges",
           "figure4_choice_groups"]


@dataclass(frozen=True)
class EnumerationResult:
    """Counts reproducing the Section-5 arithmetic."""

    call_choices: int
    orphan_choices: int
    execution_choices: int
    cluster_choices: int          # the paper's "11"
    paper_count: int              # 2 * 3 * 3 * 11 = 198
    strict_count: int             # every Figure-4 edge enforced
    strict_specs: Tuple[ServiceSpec, ...]


def iter_cluster_combinations() -> Iterator[Tuple[bool, bool, bool, str]]:
    """Legal (unique, reliable, bounded, ordering) combinations.

    With every other field at its default only the edges among these
    four properties can fire, so :func:`validate` applies exactly the
    dependencies the paper's count uses.  Yields exactly 11 tuples.
    """
    for unique, reliable, bounded, ordering in itertools.product(
            (False, True), (False, True), (False, True),
            PAPER_ORDERING_CHOICES):
        if _legal(ServiceSpec(unique=unique, reliable=reliable,
                              bounded=1.0 if bounded else 0.0,
                              ordering=ordering)):
            yield unique, reliable, bounded, ordering


def _legal(spec: ServiceSpec) -> bool:
    try:
        validate(spec)
    except ConfigurationError:
        return False
    return True


def enumerate_services() -> EnumerationResult:
    """Walk the full product space and count legal services both ways."""
    cluster = list(iter_cluster_combinations())
    paper_count = (len(CALL_CHOICES) * len(PAPER_ORPHAN_CHOICES)
                   * len(EXECUTION_CHOICES) * len(cluster))

    strict: List[ServiceSpec] = []
    for call, orphans, execution in itertools.product(
            CALL_CHOICES, PAPER_ORPHAN_CHOICES, EXECUTION_CHOICES):
        for unique, reliable, bounded, ordering in cluster:
            spec = ServiceSpec(call=call, orphans=orphans,
                               execution=execution, unique=unique,
                               reliable=reliable,
                               bounded=1.0 if bounded else 0.0,
                               ordering=ordering)
            if _legal(spec):
                strict.append(spec)

    return EnumerationResult(
        call_choices=len(CALL_CHOICES),
        orphan_choices=len(PAPER_ORPHAN_CHOICES),
        execution_choices=len(EXECUTION_CHOICES),
        cluster_choices=len(cluster),
        paper_count=paper_count,
        strict_count=len(strict),
        strict_specs=tuple(strict),
    )


def figure4_edges() -> List[Tuple[str, str]]:
    """The dependency edges Figure 4 draws, as (dependent, prerequisite):
    every :data:`~repro.core.config.FIGURE4` row but the Causal_Order
    extension."""
    return [(dependent, prerequisite)
            for dependent, prerequisite, _, _ in FIGURE4
            if dependent != "Causal_Order"]


def figure4_choice_groups() -> List[Tuple[str, ...]]:
    """Figure 4's bold choice boxes ("any one, but only one")."""
    return [
        ("Synchronous_Call", "Asynchronous_Call"),
        ("Interference_Avoidance", "Terminate_Orphan", "(ignore orphans)"),
        ("Serial_Execution", "Serial+Atomic_Execution", "(no discipline)"),
        ("FIFO_Order", "Total_Order", "(no order)"),
    ]
