"""The paper's primary contribution: the configurable gRPC composite.

Submodules: the event framework (:mod:`repro.core.events`,
:mod:`repro.core.framework`), shared state (:mod:`repro.core.state`),
message types (:mod:`repro.core.messages`), the composite itself
(:mod:`repro.core.grpc`), the micro-protocols
(:mod:`repro.core.microprotocols`), configuration and enumeration
(:mod:`repro.core.config`, :mod:`repro.core.enumerate`), the property
taxonomy (:mod:`repro.core.properties`) and the deployment plane
(:mod:`repro.core.deployment`).
"""

from repro.core.config import (
    ServiceSpec,
    at_least_once,
    at_most_once,
    exactly_once,
    read_optimized,
    replicated_state_machine,
    validate,
)
from repro.core.events import CANCEL, LOWEST_PRIORITY, TIMEOUT, EventBus
from repro.core.framework import CompositeProtocol, MicroProtocol
from repro.core.grpc import (
    CALL_FROM_USER,
    MEMBERSHIP_CHANGE,
    MSG_FROM_NETWORK,
    NEW_RPC_CALL,
    RECOVERY,
    REPLY_FROM_SERVER,
    GroupRPC,
)
from repro.core.messages import (
    CallResult,
    MemChange,
    NetMsg,
    NetOp,
    Status,
    UserMsg,
    UserOp,
)
from repro.core.deployment import (
    CLIENT_BASE_PID,
    Deployment,
    Service,
    ServiceCluster,
)
from repro.core.replycache import ReplyCache

__all__ = [
    "ServiceSpec",
    "validate",
    "at_least_once",
    "exactly_once",
    "at_most_once",
    "read_optimized",
    "replicated_state_machine",
    "EventBus",
    "TIMEOUT",
    "CANCEL",
    "LOWEST_PRIORITY",
    "CompositeProtocol",
    "MicroProtocol",
    "GroupRPC",
    "CALL_FROM_USER",
    "NEW_RPC_CALL",
    "REPLY_FROM_SERVER",
    "MSG_FROM_NETWORK",
    "RECOVERY",
    "MEMBERSHIP_CHANGE",
    "NetMsg",
    "NetOp",
    "UserMsg",
    "UserOp",
    "Status",
    "MemChange",
    "CallResult",
    "ServiceCluster",
    "Deployment",
    "Service",
    "CLIENT_BASE_PID",
    "ReplyCache",
]
