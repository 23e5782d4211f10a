"""Unit tests for the x-kernel UPI shell and type demux."""

import pytest

from repro.errors import ReproError
from repro.runtime import SimRuntime
from repro.xkernel import Protocol, TypeDemux, compose_stack


class Recorder(Protocol):
    def __init__(self, name):
        super().__init__(name)
        self.pushed = []
        self.popped = []

    async def push(self, *args, **kwargs):
        self.pushed.append((args, kwargs))
        if self.lower is not None:
            return await self.lower.push(*args, **kwargs)

    async def pop(self, *args, **kwargs):
        self.popped.append((args, kwargs))
        if self.upper is not None:
            return await self.upper.pop(*args, **kwargs)


def run(coro):
    SimRuntime().run(coro)


def test_compose_stack_links_up_and_down():
    top, mid, bottom = Recorder("top"), Recorder("mid"), Recorder("bot")
    compose_stack(top, mid, bottom)
    assert top.lower is mid and mid.lower is bottom
    assert bottom.upper is mid and mid.upper is top

    async def main():
        await top.push("down")
        await bottom.pop("up")

    run(main())
    assert mid.pushed == [(("down",), {})]
    assert bottom.pushed == [(("down",), {})]
    assert mid.popped == [(("up",), {})]
    assert top.popped == [(("up",), {})]


def test_compose_stack_requires_protocols():
    with pytest.raises(ReproError):
        compose_stack()


def test_push_without_lower_raises():
    lonely = Protocol("lonely")

    async def main():
        with pytest.raises(ReproError):
            await lonely.push("x")
        with pytest.raises(ReproError):
            await lonely.pop("x")

    run(main())


def test_type_demux_routes_by_payload_type():
    class A:
        pass

    class B:
        pass

    demux = TypeDemux()
    upper_a, upper_b = Recorder("a"), Recorder("b")
    bottom = Recorder("bot")
    compose_stack(demux, bottom)
    demux.attach(A, upper_a)
    demux.attach(B, upper_b)

    async def main():
        await demux.pop(A(), sender=1)
        await demux.pop(B(), sender=2)
        await demux.pop("unclaimed", sender=3)   # dropped silently
        # pushes from either upper reach the shared bottom
        await upper_a.push("via-a")
        await upper_b.push("via-b")

    run(main())
    assert len(upper_a.popped) == 1
    assert len(upper_b.popped) == 1
    assert [args[0][0] for args in bottom.pushed] == ["via-a", "via-b"]


def test_type_demux_matches_subclasses():
    class Base:
        pass

    class Derived(Base):
        pass

    demux = TypeDemux()
    upper = Recorder("u")
    demux.attach(Base, upper)

    async def main():
        await demux.pop(Derived())

    run(main())
    assert len(upper.popped) == 1


# ---------------------------------------------------------------------------
# The one-walk route: resolve_up / resolve_down through the demuxes
# ---------------------------------------------------------------------------

def test_type_demux_takes_a_route_attached_after_a_class_was_seen():
    """The per-class route cache must not pin a miss: a payload class
    dropped as unclaimed is delivered once a route for it attaches."""
    class Late:
        pass

    demux = TypeDemux()
    first, late = Recorder("first"), Recorder("late")
    demux.attach(int, first)

    async def main():
        await demux.pop(Late())                  # unclaimed: dropped
        demux.attach(Late, late)
        await demux.pop(Late())
        await demux.pop(7)

    run(main())
    assert len(late.popped) == 1
    assert len(first.popped) == 1
    assert demux.resolve_up("still unclaimed") is None


def test_type_demux_first_attached_route_wins_for_subclasses():
    class Base:
        pass

    class Derived(Base):
        pass

    demux = TypeDemux()
    base, derived = Recorder("base"), Recorder("derived")
    demux.attach(Base, base)
    demux.attach(Derived, derived)
    assert demux.resolve_up(Derived()) is base      # insertion order
    assert demux.resolve_up(Base()) is base


def test_service_demux_falls_back_to_its_default_and_honours_detach():
    from types import SimpleNamespace

    from repro.xkernel import ServiceDemux

    router = ServiceDemux()
    a, b = Recorder("a"), Recorder("b")
    router.attach("a", a)
    router.attach("b", b)
    assert router.resolve_up(SimpleNamespace(service="b")) is b
    assert router.resolve_up(SimpleNamespace(service="zzz")) is a
    assert router.resolve_up("no service key") is a
    router.detach("a")
    assert router.resolve_up(SimpleNamespace(service="a")) is b
    router.detach("b")
    assert router.resolve_up(SimpleNamespace(service="b")) is None

    async def main():
        assert await router.pop(SimpleNamespace(service="b")) is None

    run(main())
    assert a.popped == [] and b.popped == []


def test_demux_pop_accepts_sender_by_keyword_or_not_at_all():
    demux = TypeDemux()
    upper = Recorder("u")
    demux.attach(str, upper)

    async def main():
        await demux.pop("p")
        await demux.pop("q", sender=1)
        await demux.pop("r", 2)

    run(main())
    assert upper.popped == [(("p",), {}), (("q",), {"sender": 1}),
                            (("r", 2), {})]


def test_a_forwarding_layer_between_transport_and_demux_still_delivers():
    """The transport hands ``sender`` over positionally; a pass-through
    protocol that does not resolve (its default ``resolve_up`` is
    itself) forwards it that way into the demux."""
    from repro.net import NetworkFabric, Node, UnreliableTransport

    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    tops = {}
    for pid in (1, 2):
        node = Node(pid, rt, fabric)
        demux, top = TypeDemux(), Recorder(f"top@{pid}")
        compose_stack(demux, Recorder(f"tap@{pid}"),
                      UnreliableTransport(node))
        demux.attach(str, top)
        node.start()
        tops[pid] = top

    async def main():
        await fabric.node(1).transport.push(2, "hello")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].popped == [(("hello", 1), {})]


def test_resolve_walks_through_both_demuxes():
    """An arrival resolves to the composite in one synchronous walk, and
    a push from the composite resolves to the transport below both
    demuxes."""
    from types import SimpleNamespace

    from repro.xkernel import ServiceDemux

    demux, router = TypeDemux(), ServiceDemux()
    bottom, composite = Recorder("transport"), Recorder("composite")
    compose_stack(demux, bottom)
    demux.attach(SimpleNamespace, router)
    router.attach("svc", composite)
    msg = SimpleNamespace(service="svc")
    assert bottom.resolve_up(msg) is bottom            # leaf default
    assert demux.resolve_up(msg) is composite
    assert composite.lower.resolve_down() is bottom

    async def main():
        await composite.lower.resolve_down().push(2, "down")
        await composite.lower.push(3, "via-the-demuxes")

    run(main())
    assert bottom.pushed == [((2, "down"), {}),
                             ((3, "via-the-demuxes"), {})]
    lonely = TypeDemux()
    assert lonely.resolve_down() is lonely     # whose push then raises
