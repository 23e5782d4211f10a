"""Run histories and the promises a composition makes (Figures 1, 2).

A :class:`History` is one run: the calls in issue order, each *invoked*
and then *acked* or *failed* with its
:class:`~repro.core.messages.CallResult` (the run's driver records
these; nothing on the call path does), and each server's *execute*
events, read after the run from its ``ServerDispatcher.execution_log``.
An execution belongs to the call whose args object it received: the
simulator hands a call's args to each server by reference unless a stub
marshals them.  :func:`promises` derives what a
:class:`~repro.core.config.ServiceSpec` guarantees, and :func:`check`
holds a history to it, one violation line per broken promise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping,
                    NamedTuple, Optional, Tuple)

from repro.core.messages import CallResult, Status

if TYPE_CHECKING:
    from repro.apps.dispatcher import ServerDispatcher
    from repro.core.config import ServiceSpec

__all__ = ["CheckResult", "History", "Promise", "check", "promises"]


@dataclass
class CheckResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_failed(self) -> None:
        """Convenience for tests: turn violations into an AssertionError."""
        if not self.ok:
            details = "\n  ".join(self.violations)
            raise AssertionError(f"{self.name} violated:\n  {details}")


@dataclass
class Call:
    """One invoked call; ``result`` stays ``None`` until its outcome."""

    client: Any
    args: Any
    result: Optional[CallResult] = None


class History:
    """The calls of one run and every server's executions of them."""

    def __init__(self) -> None:
        #: Invoked calls in issue order; a call is named by its index.
        self.calls: List[Call] = []
        #: Server -> the call of each execution, by apply index; an
        #: execution no invoked call owns is named by a string.
        self.executed: Dict[Any, List[Any]] = {}

    def invoke(self, client: Any, args: Any) -> int:
        """Record that ``client`` issued a call with ``args``; returns
        the call's index for :meth:`end`."""
        self.calls.append(Call(client, args))
        return len(self.calls) - 1

    def end(self, call: int, result: CallResult) -> CallResult:
        """Record the outcome of ``call`` and hand ``result`` back."""
        self.calls[call].result = result
        return result

    def read(self, dispatchers: Mapping[Any, "ServerDispatcher"]
             ) -> "History":
        """Read each server's executions; the servers read are the group
        the acceptance promise counts."""
        owner = {id(call.args): i for i, call in enumerate(self.calls)}
        for server, dispatcher in dispatchers.items():
            self.executed[server] = [
                owner.get(id(args), f"unmatched {op} #{id(args)}")
                for op, args in dispatcher.execution_log]
        return self


class Promise(NamedTuple):
    """A rule of :func:`check`, its paper section, its acceptance k."""

    rule: str
    section: str
    k: int = 0


def promises(spec: "ServiceSpec") -> Tuple[Promise, ...]:
    """What every run of the composition ``spec`` builds must keep."""
    found = [Promise("outcome", "§2.1 termination"),
             Promise("acceptance", "§2.2, §4.4.5", spec.acceptance)]
    if spec.unique:
        found.append(Promise("at most once", "§2.1 Figure 1, §4.4.5"))
    if spec.ordering == "total":
        found.append(Promise("total order", "§2.2, §4.4.6"))
    elif spec.ordering == "fifo":
        found.append(Promise("FIFO order", "§2.2, §4.4.6"))
    elif spec.ordering == "causal":
        found.append(Promise("causal order", "§2.2"))
    return tuple(found)


def check(history: History, promised: Iterable[Promise]) -> CheckResult:
    """Hold ``history`` to each promise (rules in docs/paper-mapping.md).

    Acceptance k needs min(k, servers read) executions, so ALL means
    every server read.  Total order is prefix consistency, so a lagging
    server is no violation.  FIFO and causal order need a client's
    calls first executed in issue order at every server; Causal Order
    chains a call only on calls its client saw complete, so the rule
    presumes a client that awaits each call before the next.
    """
    calls, executed = history.calls, history.executed
    violations: List[str] = []
    for promise in promised:
        rule = f"{promise.rule} ({promise.section})"
        if promise.rule == "outcome":
            for i, call in enumerate(calls):
                if call.result is None or \
                        call.result.status is Status.WAITING:
                    violations.append(f"{rule}: call {i} from client "
                                      f"{call.client} has no outcome")
        elif promise.rule == "acceptance":
            need = min(promise.k, len(executed))
            ran = {server: set(order) for server, order in executed.items()}
            for i, call in enumerate(calls):
                missing = [s for s, done in ran.items() if i not in done]
                if call.result is not None and call.result.ok and \
                        len(ran) - len(missing) < need:
                    violations.append(
                        f"{rule}: call {i} from client {call.client} was "
                        f"acked after executing at {len(ran) - len(missing)}"
                        f" of {need} servers; not at server {missing}")
        elif promise.rule == "at most once":
            for server, order in executed.items():
                for i, times in Counter(order).items():
                    if times > 1:
                        violations.append(f"{rule}: call {i} executed "
                                          f"{times} times at server "
                                          f"{server}")
        elif promise.rule == "total order":
            for (a, xs), (b, ys) in combinations(executed.items(), 2):
                for index, (x, y) in enumerate(zip(xs, ys)):
                    if x != y:
                        violations.append(
                            f"{rule}: server {a} executed call {x} and "
                            f"server {b} call {y} at apply index {index}")
                        break
        elif promise.rule in ("FIFO order", "causal order"):
            for server, order in executed.items():
                latest: Dict[Any, int] = {}
                for i in dict.fromkeys(order):
                    if isinstance(i, str):
                        continue
                    client = calls[i].client
                    if latest.get(client, -1) > i:
                        violations.append(
                            f"{rule}: call {i} from client {client} "
                            f"executed at server {server} after its later "
                            f"call {latest[client]}")
                    latest[client] = max(latest.get(client, -1), i)
        else:
            raise ValueError(f"unknown promise rule {promise.rule!r}")
    return CheckResult("promises", not violations, violations)
