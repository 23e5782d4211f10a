"""repro.obs — the unified observability layer.

One instrumentation surface threaded through the simulation kernel, the
composite-protocol framework, every micro-protocol and the network
fabric:

* **RPC spans** (:mod:`repro.obs.recorder`) — a trace minted at
  ``GroupRPC.call()``, propagated inside wire messages, closed on
  termination, yielding one span tree per call;
* **event-dispatch tracing** — structured records from the framework's
  ``register``/``trigger``/``cancel_event``/``TIMEOUT`` paths with
  per-micro-protocol virtual-time handler durations;
* a **metrics registry** (:mod:`repro.obs.metrics`) — counters, gauges
  and virtual-time histograms, also backing the network fabric's
  counters;
* **exporters** (:mod:`repro.obs.export`) — JSONL dump, per-call flame
  summary, and the ``python -m repro trace <config>`` CLI;
* the **observatory** (:mod:`repro.obs.observatory`) — the deployment
  measurement plane: a sampling kernel profiler
  (:mod:`repro.obs.profiler`), per-key load accounting
  (:mod:`repro.obs.loadstats`), windowed SLO tracking
  (:mod:`repro.obs.slo`), a bounded flight recorder
  (:mod:`repro.obs.flight`), and the ``python -m repro report`` CLI.

Disabled is the default and costs (nearly) nothing: no recorder is
attached (:meth:`~repro.runtime.SimRuntime.attach_obs` with ``None``)
and instrumented components store ``None``, leaving their hot paths on
the untraced branch (see ``tests/test_obs_overhead.py``).
"""

from repro.obs.export import (
    SpanNode,
    format_flame,
    read_jsonl,
    span_trees,
    to_jsonl,
)
from repro.obs.flight import FlightRecorder, live_recorders
from repro.obs.loadstats import KeyLoadTracker, SpaceSaving
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.observatory import Observatory, ObservatoryConfig
from repro.obs.profiler import KernelProfiler
from repro.obs.recorder import (
    CTX_KEY,
    EventRecord,
    Recorder,
    Span,
    SpanContext,
)
from repro.obs.registry import (
    is_registered,
    register_protocol,
    registered_protocols,
)
from repro.obs.slo import SloBreach, SloTracker

__all__ = [
    "CTX_KEY",
    "Counter",
    "EventRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "KeyLoadTracker",
    "MetricsRegistry",
    "Observatory",
    "ObservatoryConfig",
    "Recorder",
    "SloBreach",
    "SloTracker",
    "SpaceSaving",
    "Span",
    "SpanContext",
    "SpanNode",
    "format_flame",
    "is_registered",
    "live_recorders",
    "read_jsonl",
    "register_protocol",
    "registered_protocols",
    "span_trees",
    "to_jsonl",
]
