"""Standard network topologies for experiments.

The fabric's per-link overrides are flexible but verbose; these helpers
install the common shapes in one call: a uniform LAN and a
two-datacenter WAN (fast intra-DC links, slow inter-DC links).  Both
only touch links between the process ids they are given, so they
compose.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from repro.net.fabric import LinkSpec, NetworkFabric
from repro.net.message import ProcessId

__all__ = ["uniform_lan", "two_datacenters"]

#: Typical latency profiles, reusable as starting points.
LAN = LinkSpec(delay=0.0005, jitter=0.0003)
WAN = LinkSpec(delay=0.040, jitter=0.010)


def uniform_lan(fabric: NetworkFabric, pids: Iterable[ProcessId], *,
                link: LinkSpec = LAN) -> None:
    """Give every directed link among ``pids`` the same LAN profile."""
    pids = list(pids)
    for src, dst in product(pids, pids):
        if src != dst:
            fabric.set_link(src, dst, link)


def two_datacenters(fabric: NetworkFabric,
                    dc_a: Sequence[ProcessId],
                    dc_b: Sequence[ProcessId], *,
                    local: LinkSpec = LAN,
                    wan: LinkSpec = WAN) -> None:
    """Fast links within each datacenter, slow links between them."""
    uniform_lan(fabric, dc_a, link=local)
    uniform_lan(fabric, dc_b, link=local)
    for a in dc_a:
        for b in dc_b:
            fabric.set_link(a, b, wan)
            fabric.set_link(b, a, wan)
