"""The simulation runtime and its task-group scope."""

from repro.runtime.sim_runtime import CancelScope, SimRuntime

__all__ = ["CancelScope", "SimRuntime"]
