#!/usr/bin/env python3
"""Atomic execution: surviving a crash in the middle of a bank transfer.

The bank's balances live in stable storage (they survive crashes) and a
transfer is two separate stable writes — debit, then credit — so a crash
between them corrupts the books... unless the Atomic Execution
micro-protocol is configured, whose checkpoint/rollback makes the
procedure all-or-nothing (the "at most once" column of Figure 1).

Run:  python examples/atomic_bank.py
"""

from repro import LinkSpec, ServiceCluster
from repro.apps import BankApp
from repro.core.config import at_most_once, exactly_once


def run(label: str, spec) -> None:
    cluster = ServiceCluster(
        spec.with_(acceptance=1, bounded=1.0),
        lambda pid: BankApp({"alice": 100, "bob": 100},
                            transfer_delay=0.05),
        n_servers=1, default_link=LinkSpec(delay=0.01, jitter=0.0))
    # Crash the server squarely inside the transfer's non-atomic window.
    cluster.deployment.runtime.call_later(
        0.035, lambda: cluster.deployment.crash(1))
    result = cluster.call_and_run(
        "transfer", {"src": "alice", "dst": "bob", "amount": 30})
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.3)

    stable = cluster.deployment.nodes[1].stable
    alice = stable.get("acct:alice")
    bob = stable.get("acct:bob")
    print(f"\n== {label}")
    print(f"   transfer status: {result.status.value} "
          f"(server crashed mid-procedure)")
    print(f"   after recovery:  alice={alice}  bob={bob}  "
          f"total={alice + bob}")
    if alice + bob == 200:
        print("   money conserved: execution was ATOMIC")
    else:
        print("   money LOST: the debit persisted without the credit")


def main() -> None:
    print("starting balances: alice=100 bob=100 (total 200)")
    run("exactly-once (NO atomic execution)", exactly_once())
    run("at-most-once (WITH atomic execution)", at_most_once())


if __name__ == "__main__":
    main()
