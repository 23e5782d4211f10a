"""repro: a configurable group RPC service built from micro-protocols.

A full reproduction of Hiltunen & Schlichting, *Constructing a
Configurable Group RPC Service* (ICDCS 1995 / Arizona TR 94-28): every
semantic property of (group) RPC is a composable micro-protocol over an
event-driven framework, running here on a deterministic virtual-time
simulation of an asynchronous, failure-prone distributed system.

Quickstart::

    from repro import ServiceCluster, read_optimized
    from repro.apps import KVStore

    cluster = ServiceCluster(read_optimized(), KVStore, n_servers=3)
    result = cluster.call_and_run("put", {"key": "k", "value": 1})
    assert result.ok
"""

from repro.core import (
    CallResult,
    Deployment,
    GroupRPC,
    Service,
    ServiceCluster,
    ServiceSpec,
    Status,
    at_least_once,
    at_most_once,
    exactly_once,
    read_optimized,
    replicated_state_machine,
)
from repro.core import ReplyCache
from repro.core.grpc import PendingCall, gather_calls
from repro.net import Group, LinkSpec, WireConfig
from repro.obs import MetricsRegistry, Recorder
from repro.placement import (
    ElasticKV,
    HashRing,
    PlacementPlane,
    RebindDriver,
    build_elastic_kv,
)
from repro.replication import (
    ReplicaGroup,
    ReplicaSpec,
    ReplicationManager,
    active_replicas,
    primary_backup,
)
from repro.runtime import SimRuntime

__version__ = "1.0.0"

__all__ = [
    "Deployment",
    "Service",
    "ServiceCluster",
    "ServiceSpec",
    "GroupRPC",
    "CallResult",
    "Status",
    "Group",
    "LinkSpec",
    "WireConfig",
    "SimRuntime",
    "PendingCall",
    "gather_calls",
    "Recorder",
    "MetricsRegistry",
    "at_least_once",
    "exactly_once",
    "at_most_once",
    "read_optimized",
    "replicated_state_machine",
    "HashRing",
    "PlacementPlane",
    "ElasticKV",
    "build_elastic_kv",
    "RebindDriver",
    "ReplyCache",
    "ReplicaSpec",
    "ReplicaGroup",
    "ReplicationManager",
    "active_replicas",
    "primary_backup",
    "__version__",
]
