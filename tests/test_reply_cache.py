"""Reply caching in the deployment plane.

The Unique Execution micro-protocol filters duplicate executions inside
one server group; the deployment-side :class:`ReplyCache` extends that
guarantee across reconfigurations: a retry naming its original call id
is answered from the per-service LRU without re-executing anywhere —
even after a rebind has pointed the service at servers that never saw
the original call.
"""

import pytest

from repro import Deployment, ReplyCache, replicated_state_machine
from repro.apps import KVStore
from repro.core.messages import CallResult, Status


def result(call_id, value="v"):
    return CallResult(call_id, Status.OK, value)


# ---------------------------------------------------------------------------
# The LRU itself
# ---------------------------------------------------------------------------


def test_cache_hit_miss_and_counters():
    cache = ReplyCache(capacity=4)
    assert cache.get(101, 1) is None
    cache.put(101, 1, result(1))
    assert cache.get(101, 1).args == "v"
    # Another client's id 1 is a different call entirely.
    assert cache.get(102, 1) is None
    assert (cache.hits, cache.misses) == (1, 2)


def test_cache_evicts_least_recently_used():
    cache = ReplyCache(capacity=2)
    cache.put(101, 1, result(1))
    cache.put(101, 2, result(2))
    cache.get(101, 1)                    # refresh 1; 2 is now oldest
    cache.put(101, 3, result(3))
    assert (101, 1) in cache
    assert (101, 2) not in cache
    assert (101, 3) in cache
    assert len(cache) == 2
    with pytest.raises(ValueError):
        ReplyCache(capacity=0)


# ---------------------------------------------------------------------------
# The deployment call path
# ---------------------------------------------------------------------------


def one_service_deployment(**kwargs):
    dep = Deployment(seed=41, **kwargs)
    dep.add_service("kv", replicated_state_machine(2), KVStore,
                    servers=[1, 2, 3], clients=[101])
    return dep


def test_retry_after_rebind_answered_without_reexecution():
    dep = one_service_deployment()
    first = []

    async def original():
        first.append(await dep.call(101, "kv", "put",
                                    {"key": "a", "value": 1}))

    dep.run_scenario(original())
    assert first[0].ok
    executed = dep.metrics.value("service.kv.executions")

    # Reconfigure away the replica set the call ran on, then retry.
    dep.rebind("kv", [3])

    async def retry():
        again = await dep.call(101, "kv", "put", {"key": "a", "value": 1},
                               retry_of=first[0].id)
        assert again.ok and again.args == first[0].args

    dep.run_scenario(retry())
    # Served from the cache: no server executed anything new.
    assert dep.metrics.value("service.kv.executions") == executed
    assert dep.metrics.value("service.kv.reply_cache.hits") == 1
    assert dep.metrics.value("service.kv.calls") == 1


def test_retry_miss_executes_then_aliases_the_original_id():
    dep = one_service_deployment()
    results = []

    async def scenario():
        # Retry of an attempt that never completed (id unknown): the
        # call must really execute...
        r1 = await dep.call(101, "kv", "put", {"key": "b", "value": 2},
                            retry_of=777)
        assert r1.ok
        # ...and the completed reply is filed under the original id too,
        # so the *next* retry of the same attempt hits.
        r2 = await dep.call(101, "kv", "get", {"key": "b"}, retry_of=777)
        results.extend([r1, r2])

    dep.run_scenario(scenario())
    assert results[1] is results[0]
    assert dep.metrics.value("service.kv.reply_cache.misses") == 1
    assert dep.metrics.value("service.kv.reply_cache.hits") == 1
    assert dep.metrics.value("service.kv.calls") == 1


def test_caches_are_per_service():
    dep = Deployment(seed=42)
    for name, servers in (("kv", [1, 2]), ("other", [3, 4])):
        dep.add_service(name, replicated_state_machine(2), KVStore,
                        servers=servers, clients=[101])
    first = []

    async def scenario():
        first.append(await dep.call(101, "kv", "put",
                                    {"key": "a", "value": 1}))
        # The same (client, call id) names nothing in another service's
        # cache: the retry there re-executes like a fresh call.
        again = await dep.call(101, "other", "put",
                               {"key": "a", "value": 1},
                               retry_of=first[0].id)
        assert again.ok and again is not first[0]

    dep.run_scenario(scenario())
    assert dep.metrics.value("service.other.reply_cache.hits") == 0
    assert dep.metrics.value("service.other.reply_cache.misses") == 1
