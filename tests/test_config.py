"""Configuration validation and the Figure-4 enumeration."""

import inspect

import pytest

from repro import Deployment
from repro.core.config import (
    FIGURE4,
    ServiceSpec,
    at_least_once,
    at_most_once,
    exactly_once,
    read_optimized,
    replicated_state_machine,
    validate,
)
from repro.core.enumerate import (
    enumerate_services,
    figure4_choice_groups,
    figure4_edges,
    iter_cluster_combinations,
)
from repro.errors import ConfigurationError, DependencyError


# ----------------------------------------------------------------------
# Validation (Figure 4 dependencies)
# ----------------------------------------------------------------------

def test_default_spec_is_valid():
    validate(ServiceSpec())


def test_unknown_choices_rejected():
    with pytest.raises(ConfigurationError):
        validate(ServiceSpec(call="telepathic"))
    with pytest.raises(ConfigurationError):
        validate(ServiceSpec(orphans="adopt"))
    with pytest.raises(ConfigurationError):
        validate(ServiceSpec(execution="parallel"))
    with pytest.raises(ConfigurationError):
        validate(ServiceSpec(ordering="alphabetical"))


def test_unique_requires_reliable():
    with pytest.raises(DependencyError):
        validate(ServiceSpec(unique=True, reliable=False))


def test_fifo_requires_reliable():
    with pytest.raises(DependencyError):
        validate(ServiceSpec(ordering="fifo", reliable=False))


def test_total_requires_unique_reliable_unbounded():
    with pytest.raises(DependencyError):
        validate(ServiceSpec(ordering="total", unique=False,
                             reliable=True))
    with pytest.raises(DependencyError):
        validate(ServiceSpec(ordering="total", unique=True,
                             reliable=False))
    with pytest.raises(DependencyError):
        validate(ServiceSpec(ordering="total", unique=True,
                             reliable=True, bounded=1.0))
    validate(ServiceSpec(ordering="total", unique=True, reliable=True))


def test_interference_avoidance_requires_reliable():
    with pytest.raises(DependencyError):
        validate(ServiceSpec(orphans="avoid", reliable=False))
    validate(ServiceSpec(orphans="terminate", reliable=False))


def test_bad_numeric_parameters_rejected():
    with pytest.raises(ConfigurationError):
        validate(ServiceSpec(bounded=-1.0))
    with pytest.raises(ConfigurationError):
        validate(ServiceSpec(acceptance=0))


@pytest.mark.parametrize("spec", [
    ServiceSpec(retrans_timeout=0.0),
    ServiceSpec(orphans="probe", probe_interval=0.0),
    ServiceSpec(orphans="probe", probe_missed_limit=0),
    ServiceSpec(execution="atomic", atomic_compact_every=0),
])
def test_bad_micro_protocol_parameters_rejected(spec):
    # What build() would hand a constructor that rejects it.
    for check in (validate, ServiceSpec.build):
        with pytest.raises(ConfigurationError) as info:
            check(spec)
        assert type(info.value) is ConfigurationError


def test_parameters_of_unbuilt_micro_protocols_are_not_checked():
    validate(ServiceSpec(reliable=False, retrans_timeout=0.0))
    validate(ServiceSpec(probe_interval=0.0, probe_missed_limit=0))
    validate(ServiceSpec(execution="serial", atomic_compact_every=0))


#: Total -> Unique -> Reliable implies this edge, so a spec that breaks
#: it also breaks one of those two, and validate names that one first.
IMPLIED = ("Total_Order", "Reliable_Communication")

#: The smallest spec that breaks each FIGURE4 row a spec can break.
BREAKS = {
    ("Unique_Execution", "Reliable_Communication"):
        ServiceSpec(unique=True, reliable=False),
    ("FIFO_Order", "Reliable_Communication"):
        ServiceSpec(ordering="fifo", reliable=False),
    ("Total_Order", "Unique_Execution"): ServiceSpec(ordering="total"),
    IMPLIED: ServiceSpec(ordering="total", unique=True, reliable=False),
    ("Total_Order", "NOT Bounded_Termination"):
        ServiceSpec(ordering="total", unique=True, bounded=1.0),
    ("Causal_Order", "Reliable_Communication"):
        ServiceSpec(ordering="causal", reliable=False),
    ("Interference_Avoidance", "Reliable_Communication"):
        ServiceSpec(orphans="avoid", reliable=False),
}


def _holds(dependent, prerequisite):
    """The reason of a row no spec can break."""
    if (dependent, prerequisite) == ("Atomic_Execution",
                                     "Serial_Execution"):
        names = ServiceSpec(execution="atomic").micro_protocol_names()
        return "Serial_Execution" in names
    if (dependent, prerequisite) == ("ALL_Acceptance",
                                     "Membership_Service"):
        return ("membership" not in ServiceSpec.__dataclass_fields__
                and "membership" in inspect.signature(
                    Deployment).parameters)
    return False


@pytest.mark.parametrize("row", FIGURE4,
                         ids=[f"{d}->{p}" for d, p, _, _ in FIGURE4])
def test_each_figure4_row_is_what_validate_enforces(row):
    dependent, prerequisite, violated, reason = row
    if violated is None:
        assert _holds(dependent, prerequisite), reason
        return
    spec = BREAKS[dependent, prerequisite]
    broken = [edge for edge in FIGURE4
              if edge[2] is not None and edge[2](spec)]
    assert row in broken
    if (dependent, prerequisite) != IMPLIED:
        assert broken == [row]
    with pytest.raises(DependencyError) as info:
        validate(spec)
    assert str(info.value) == broken[0][3]


def test_build_composes_expected_microprotocols():
    names = ServiceSpec().micro_protocol_names()
    assert names == ["RPC_Main", "Synchronous_Call",
                     "Reliable_Communication", "Collation", "Acceptance"]

    names = ServiceSpec(
        call="asynchronous", unique=True, execution="atomic",
        ordering="total", orphans="terminate").micro_protocol_names()
    assert names == ["RPC_Main", "Asynchronous_Call",
                     "Reliable_Communication", "Unique_Execution",
                     "Serial_Execution", "Atomic_Execution", "Total_Order",
                     "Terminate_Orphan", "Collation", "Acceptance"]


def test_build_returns_fresh_instances():
    spec = ServiceSpec()
    first = spec.build()
    second = spec.build()
    assert first[0] is not second[0]


def test_presets_have_documented_semantics():
    assert at_least_once().failure_semantics == "at least once"
    assert exactly_once().failure_semantics == "exactly once"
    assert at_most_once().failure_semantics == "at most once"
    ro = read_optimized(timebound=2.5)
    assert ro.acceptance == 1 and ro.bounded == 2.5 and ro.reliable
    rsm = replicated_state_machine(5)
    assert rsm.ordering == "total" and rsm.acceptance == 5
    validate(rsm)


def test_section5_composition_matches_paper():
    # protocol RPC_Service = RPC_main || Synchronous_Call ||
    #   Reliable_Communication(timeout) || Bounded_Termination(1.0) ||
    #   Collation(id, 0) || Acceptance(1)
    names = read_optimized(timebound=1.0).micro_protocol_names()
    assert names == ["RPC_Main", "Synchronous_Call",
                     "Reliable_Communication", "Bounded_Termination",
                     "Collation", "Acceptance"]


def test_with_is_non_destructive():
    base = ServiceSpec()
    changed = base.with_(unique=True)
    assert base.unique is False and changed.unique is True


# ----------------------------------------------------------------------
# Enumeration (the paper's 198)
# ----------------------------------------------------------------------

def test_cluster_combinations_count_is_11():
    assert len(list(iter_cluster_combinations())) == 11


def test_paper_count_is_198():
    result = enumerate_services()
    assert result.call_choices == 2
    assert result.orphan_choices == 3
    assert result.execution_choices == 3
    assert result.cluster_choices == 11
    assert result.paper_count == 198


def test_strict_count_enforces_every_figure4_edge():
    result = enumerate_services()
    assert result.strict_count == 186   # 198 - 12 (avoid x unreliable)
    # Every strict spec must validate and be buildable, and always
    # contains the minimal functional set (Main, call, Collation,
    # Acceptance).
    for spec in result.strict_specs[:20]:
        assert len(spec.build()) >= 4


def test_strict_specs_are_unique():
    result = enumerate_services()
    assert len(set(result.strict_specs)) == result.strict_count


def test_figure4_graph_shape():
    edges = figure4_edges()
    assert ("Total_Order", "Unique_Execution") in edges
    assert ("Atomic_Execution", "Serial_Execution") in edges
    groups = figure4_choice_groups()
    assert ("Synchronous_Call", "Asynchronous_Call") in groups
