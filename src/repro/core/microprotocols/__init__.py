"""The paper's micro-protocols (Section 4.4), one module each."""

from repro.core.microprotocols.acceptance import ALL, Acceptance
from repro.core.microprotocols.asynchronous_call import AsynchronousCall
from repro.core.microprotocols.atomic_execution import AtomicExecution
from repro.core.microprotocols.base import GRPCMicroProtocol, HANDLER_ORDER
from repro.core.microprotocols.bounded_termination import BoundedTermination
from repro.core.microprotocols.causal_order import CausalOrder, CausalToken
from repro.core.microprotocols.collation import (
    Collation,
    all_replies,
    average,
    first_reply,
    last_reply,
    majority_vote,
)
from repro.core.microprotocols.fifo_order import FIFOOrder
from repro.core.microprotocols.interference_avoidance import (
    InterferenceAvoidance,
)
from repro.core.microprotocols.probe_orphan import ProbeOrphanTermination
from repro.core.microprotocols.reliable_communication import (
    ReliableCommunication,
)
from repro.core.microprotocols.rpc_main import RPCMain
from repro.core.microprotocols.serial_execution import SerialExecution
from repro.core.microprotocols.synchronous_call import SynchronousCall
from repro.core.microprotocols.terminate_orphan import TerminateOrphan
from repro.core.microprotocols.total_order import TotalOrder
from repro.core.microprotocols.unique_execution import UniqueExecution

__all__ = [
    "GRPCMicroProtocol",
    "HANDLER_ORDER",
    "RPCMain",
    "SynchronousCall",
    "AsynchronousCall",
    "ReliableCommunication",
    "BoundedTermination",
    "Collation",
    "last_reply",
    "first_reply",
    "all_replies",
    "average",
    "majority_vote",
    "UniqueExecution",
    "AtomicExecution",
    "SerialExecution",
    "Acceptance",
    "ALL",
    "FIFOOrder",
    "TotalOrder",
    "CausalOrder",
    "CausalToken",
    "InterferenceAvoidance",
    "TerminateOrphan",
    "ProbeOrphanTermination",
]
