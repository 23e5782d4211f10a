"""Focused unit tests for micro-protocol pieces and framework wiring."""

import pytest

from repro import Group, LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.adapt import AdaptationFence
from repro.apps import KVStore
from repro.core.enumerate import enumerate_services
from repro.core.events import TIMEOUT
from repro.core.framework import CompositeProtocol, MicroProtocol
from repro.core.grpc import (
    CALL_FROM_USER,
    MSG_FROM_NETWORK,
    REPLY_FROM_SERVER,
    GroupRPC,
)
from repro.core.messages import MemChange
from repro.core.microprotocols import (
    ALL,
    HANDLER_ORDER,
    Acceptance,
    BoundedTermination,
    GRPCMicroProtocol,
    ReliableCommunication,
    RPCMain,
    all_replies,
    average,
    first_reply,
    last_reply,
    majority_vote,
)
from repro.errors import ConfigurationError, ReproError
from repro.net import NetworkFabric, Node
from repro.runtime import SimRuntime

FAST = LinkSpec(delay=0.005, jitter=0.0)


# ----------------------------------------------------------------------
# Handler order
# ----------------------------------------------------------------------

_ORPHAN_FILTERS = ["Interference_Avoidance.msg_from_net",
                   "Terminate_Orphan.msg_from_net",
                   "Probe_Orphan_Termination.msg_from_net"]
_ORDERING = ["FIFO_Order", "Total_Order", "Causal_Order"]

#: Must-run-before pairs ``(event, earlier, later, reason)``.  The table
#: is one total order per event, so a pair it keeps holds in every
#: composition that links both handlers.
MUST_RUN_BEFORE = [
    (MSG_FROM_NETWORK, "RPC_Main.drop_in_progress_duplicates",
     "Unique_Execution.msg_from_net",
     "DESIGN.md §3: a retransmission racing its pending original is "
     "dropped before any micro-protocol keeps per-call state"),
    *[(MSG_FROM_NETWORK, "Unique_Execution.msg_from_net", orphan,
       "DESIGN.md §3: duplicates never count as new work")
      for orphan in _ORPHAN_FILTERS],
    *[(MSG_FROM_NETWORK, orphan, "Unique_Execution.admit_call",
       "DESIGN.md §3: a call an orphan filter deferred is never admitted")
      for orphan in _ORPHAN_FILTERS],
    (MSG_FROM_NETWORK, "Unique_Execution.admit_call",
     "RPC_Main.msg_from_net",
     "§4.4.5 / Figure 3: Unique Execution (2) before RPC Main (3)"),
    (MSG_FROM_NETWORK, "Unique_Execution.msg_from_net",
     "Total_Order.msg_from_net",
     "DESIGN.md §3 deviation 7: the stored reply is replayed before "
     "Total Order's stale-cancel"),
    (MSG_FROM_NETWORK, "Acceptance.msg_from_net", "Collation.msg_from_net",
     "§4.4.4: a duplicate reply is cancelled before it is folded in"),
    *[(REPLY_FROM_SERVER, "Unique_Execution.handle_reply",
       f"{ordering}.handle_reply",
       "DESIGN.md §3 deviation 6: Unique stores before an ordering "
       "gate releases the next call in the same chain")
      for ordering in _ORDERING],
    *[(MSG_FROM_NETWORK, "Atomic_Execution.ensure_initial_checkpoint",
       starter,
       "§4.4.5: the initial checkpoint exists before any execution")
      for starter in ["RPC_Main.msg_from_net",
                      *[f"{o}.msg_from_net" for o in _ORDERING]]],
    (CALL_FROM_USER, "RPC_Main.msg_from_user",
     "Synchronous_Call.msg_from_user",
     "Figure 3: R records and transmits, then S blocks the caller"),
    (CALL_FROM_USER, "RPC_Main.msg_from_user",
     "Asynchronous_Call.msg_from_user", "Figure 3, §4.4.2"),
]


def test_handler_order_keeps_each_must_run_before_pair():
    broken = [f"{event}: {earlier} < {later} ({reason})"
              for event, earlier, later, reason in MUST_RUN_BEFORE
              if HANDLER_ORDER[event].index(earlier)
              > HANDLER_ORDER[event].index(later)]
    assert not broken, "\n".join(broken)


def test_the_fence_runs_first():
    """A cross-epoch arrival is dropped before it touches any state —
    Atomic Execution's stable-storage checkpoint included."""
    assert HANDLER_ORDER[MSG_FROM_NETWORK][:2] == (
        "Adaptation_Fence.fence",
        "Atomic_Execution.ensure_initial_checkpoint")


def test_every_registration_sits_at_its_table_rank():
    """Fresh builds of every composition, extensions included: each
    sequential-event handler registers at its rank in the table, and
    every table entry is some shipped handler."""
    specs = list(enumerate_services().strict_specs)
    specs += [ServiceSpec(orphans="probe", ordering="causal"),
              ServiceSpec(unique=True, ordering="total", total_resync=True)]
    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    placed = set()
    for pid, spec in enumerate(specs, start=1):
        grpc = GroupRPC(Node(pid, rt, fabric))
        grpc.add(*spec.build(), AdaptationFence())
        for event in grpc.bus.registration_table():
            for reg in grpc.bus.registrations(event):
                name = f"{reg.owner}.{reg.handler.__name__}"
                assert reg.priority == HANDLER_ORDER[event].index(name)
                placed.add((event, name))
    assert placed == {(event, name) for event, names in
                      HANDLER_ORDER.items() for name in names}


def test_an_unplaced_handler_is_a_configuration_error():
    class Stray(GRPCMicroProtocol):
        protocol_name = "Stray"

        def configure(self):
            self.register(TIMEOUT, self.tick, 1.0)   # intervals need no rank
            self.register(MSG_FROM_NETWORK, self.tick)

        async def tick(self, *args):
            pass

    rt = SimRuntime()
    grpc = GroupRPC(Node(1, rt, NetworkFabric(rt)))
    with pytest.raises(ConfigurationError, match="Stray.tick"):
        grpc.add(Stray())
    # A shipped handler is placed per event, not once for all events.
    with pytest.raises(ConfigurationError, match="RPC_Main.msg_from_net"):
        RPCMain().rank(REPLY_FROM_SERVER, RPCMain.msg_from_net)


# ----------------------------------------------------------------------
# Collation functions (pure)
# ----------------------------------------------------------------------

def test_stock_collators():
    assert last_reply("old", "new") == "new"
    assert first_reply(None, "a") == "a"
    assert first_reply("a", "b") == "a"
    acc = []
    acc = all_replies(acc, 1)
    acc = all_replies(acc, 2)
    assert acc == [1, 2]
    acc = average(None, 10.0)
    acc = average(acc, 20.0)
    assert acc == (15.0, 2)
    votes = majority_vote({}, "x")
    votes = majority_vote(votes, "x")
    votes = majority_vote(votes, "y")
    assert votes == {"x": 2, "y": 1}
    assert max(votes, key=votes.get) == "x"


# ----------------------------------------------------------------------
# Constructor validation
# ----------------------------------------------------------------------

def test_microprotocol_parameter_validation():
    with pytest.raises(ValueError):
        ReliableCommunication(0.0)
    with pytest.raises(ValueError):
        BoundedTermination(0.0)
    with pytest.raises(ValueError):
        Acceptance(0)


# ----------------------------------------------------------------------
# Framework wiring
# ----------------------------------------------------------------------

def test_microprotocol_cannot_attach_twice():
    rt = SimRuntime()

    class Noop(MicroProtocol):
        def configure(self):
            pass

    composite_a = CompositeProtocol("a", rt)
    composite_b = CompositeProtocol("b", rt)
    micro = Noop()
    composite_a.add(micro)
    with pytest.raises(ConfigurationError):
        composite_b.add(micro)


def test_composite_micro_lookup():
    rt = SimRuntime()

    class Named(MicroProtocol):
        protocol_name = "The_One"

        def configure(self):
            pass

    composite = CompositeProtocol("c", rt)
    named = Named()
    composite.add(named)
    assert composite.micro("The_One") is named
    assert composite.has_micro("The_One")
    assert not composite.has_micro("The_Other")
    with pytest.raises(KeyError):
        composite.micro("The_Other")


def test_microprotocol_default_name_is_class_name():
    class Anon(MicroProtocol):
        def configure(self):
            pass

    assert Anon().name == "Anon"


# ----------------------------------------------------------------------
# GroupRPC membership surface
# ----------------------------------------------------------------------

def test_membership_surface_defaults_and_updates():
    cluster = ServiceCluster(ServiceSpec(), KVStore, n_servers=2,
                             default_link=FAST)
    grpc = cluster.grpc(cluster.client)
    # No membership service: everyone presumed alive.
    assert grpc.members is None
    assert grpc.is_member_alive(1)
    assert grpc.is_member_alive(999)
    grpc.set_members({1, 2})
    assert not grpc.is_member_alive(999)
    grpc.membership_change(2, MemChange.FAILURE)
    assert grpc.members == {1}
    grpc.membership_change(2, MemChange.RECOVERY)
    assert grpc.members == {1, 2}
    # Drain the spawned MEMBERSHIP_CHANGE events.
    cluster.deployment.settle(0.01)


# ----------------------------------------------------------------------
# Acceptance behavior details
# ----------------------------------------------------------------------

def test_acceptance_limit_clamped_to_group_size():
    cluster = ServiceCluster(ServiceSpec(acceptance=ALL, bounded=10.0),
                             KVStore, n_servers=2, default_link=FAST)
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.2)
    assert result.ok   # ALL with 2 members means 2, not 10^9


def test_late_replies_after_completion_are_harmless():
    # acceptance=1 of 3: two replies arrive after the record is retired;
    # the event chain is cancelled and nothing misbehaves.
    cluster = ServiceCluster(ServiceSpec(acceptance=1, bounded=10.0),
                             KVStore, n_servers=3, default_link=FAST)
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.5)
    assert result.ok
    assert len(cluster.grpc(cluster.client).pRPC) == 0


def test_status_ok_not_overwritten_by_late_timeout():
    # The call completes quickly; the bounded-termination timer fires
    # later against a missing/settled record without corrupting anything.
    cluster = ServiceCluster(ServiceSpec(acceptance=1, bounded=0.3),
                             KVStore, n_servers=1, default_link=FAST)
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=1.0)
    assert result.status is Status.OK


# ----------------------------------------------------------------------
# ServiceCluster API
# ----------------------------------------------------------------------

def test_cluster_rejects_bad_arguments():
    with pytest.raises(ReproError):
        ServiceCluster(ServiceSpec(), KVStore, n_servers=0)
    with pytest.raises(ReproError):
        ServiceCluster(ServiceSpec(), KVStore, n_servers=1,
                       membership="crystal-ball")


def test_cluster_accessors():
    cluster = ServiceCluster(ServiceSpec(), KVStore, n_servers=2,
                             n_clients=2, default_link=FAST)
    assert cluster.server_pids == [1, 2]
    assert cluster.client == cluster.client_pids[0]
    assert cluster.group == Group("servers", [1, 2])
    assert cluster.deployment.nodes[1].pid == 1
    assert cluster.dispatchers[1].node is cluster.deployment.nodes[1]
    assert cluster.app(1) is cluster.dispatchers[1].app
    assert cluster.deployment.fabric.trace is cluster.deployment.fabric.trace


def test_client_nodes_have_no_dispatcher():
    cluster = ServiceCluster(ServiceSpec(), KVStore, n_servers=1,
                             default_link=FAST)
    assert cluster.client not in cluster.dispatchers
    assert cluster.grpc(cluster.client).upper is None
