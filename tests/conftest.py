"""Suite-wide pytest wiring for the observatory and the kernel.

Three pieces:

* **Flight-recorder dumps on failure** — a ``pytest_runtest_makereport``
  hookwrapper walks :func:`repro.obs.flight.live_recorders` whenever a
  test's call phase fails and attaches each non-empty tape to the
  report, so the control-plane history leading up to the failure ships
  with the failure output (``-ra`` / CI logs) without any per-test
  plumbing.
* **Marshal-hook hygiene** — the stub marshaller's profiler hook is a
  process-global (:func:`repro.stubs.marshal.install_profiler`); an
  autouse fixture detaches it after every test so an observatory leaked
  by one test can never bill marshalling to another.
* **Kernel teardown** — a test that ends with freshly spawned tasks
  still queued for their first step (a node recovered as the last act,
  a heartbeat deployment built but never run) would leave those
  coroutines to the garbage collector, which reports each as "never
  awaited" from inside whichever later test happens to trigger the
  collection.  An autouse fixture shuts down every kernel the test
  created, which cancels the queued tasks and closes their coroutines
  deterministically — the kernel's spawn/step paths stay free of any
  per-task finalizer.
"""

import importlib

import pytest

from repro.sim.kernel import Kernel


@pytest.fixture(autouse=True)
def _detach_marshal_profiler():
    yield
    # importlib, not ``from repro.stubs import marshal``: the package
    # re-exports the marshal *function* under that name.
    marshal = importlib.import_module("repro.stubs.marshal")
    marshal.install_profiler(None)


@pytest.fixture(autouse=True)
def _shutdown_kernels(monkeypatch):
    created = []
    init = Kernel.__init__

    def tracking_init(kernel):
        init(kernel)
        created.append(kernel)

    monkeypatch.setattr(Kernel, "__init__", tracking_init)
    yield
    for kernel in created:
        kernel.shutdown()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    from repro.obs.flight import live_recorders
    for index, recorder in enumerate(live_recorders()):
        tape = recorder.format_dump()
        if tape:
            report.sections.append(
                (f"flight recorder #{index} "
                 f"({len(recorder)}/{recorder.capacity} events)", tape))
