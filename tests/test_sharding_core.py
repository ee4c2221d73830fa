"""Cross-shard schedules as plain calls on the synchronous sharded core.

:class:`~repro.service.sharding.core.ShardedCore` needs no event loop:
every operation returns its result or a :class:`Park`, and is called
again with ``resume=park`` once the park has ended — the contract of
``LockCore`` (``tests/test_service_core.py``).  The first three cases
run over in-process ``LockCore`` shards with no loop at all; the last
puts one shard behind a ``RemoteShardProxy`` on an in-memory transport,
where the loop only carries the bytes.

A range partitioner over a known item universe makes each item's owning
shard part of the test's arithmetic.
"""

import asyncio

import pytest

from repro.exceptions import TransactionAborted
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service.core import LockCore, SessionState
from repro.service.manager import LockManager
from repro.service.park import Park, ParkKind
from repro.service.sharding.core import ShardedCore
from repro.service.sharding.procs.host import ShardHostServer
from repro.service.sharding.procs.proxy import RemoteShardProxy
from tests.memory_transport import link


def catalog_two_shards() -> TaskSet:
    """Items {a, b} on shard 0, {f} on shard 1 (range over 2).

    R (highest) reads b; W (lowest) writes b and f — the canonical
    passable writer.
    """
    r = TransactionSpec("R", (read("b", 1.0),))
    rf = TransactionSpec("RF", (read("f", 1.0), write("a", 1.0)))
    w = TransactionSpec("W", (write("b", 1.0), write("f", 1.0)))
    return assign_by_order([r, rf, w])


def core_over(catalog: TaskSet, protocol: str = "pcp-da") -> ShardedCore:
    return ShardedCore(catalog, protocol, shards=2, partitioner="range")


class TestCommitGate:
    def test_gate_park_ends_with_the_predecessor_commit(self):
        core = core_over(catalog_two_shards())
        assert all(isinstance(shard, LockCore) for shard in core.shards)
        writer = core.begin("W")
        assert core.write(writer, "b", "new") is None
        assert core.write(writer, "f", "new") is None
        reader = core.begin("R")
        assert core.read(reader, "b") is None  # R ≺ W, on shard 0 only

        park = core.commit(writer)
        assert isinstance(park, Park) and not park.ended
        assert park.kind is ParkKind.COMMIT_GATE
        assert park.blockers == (reader,)
        assert core.parks == {writer: park}
        assert writer.state is SessionState.WAITING

        assert core.commit(reader)["shards"] == [0]
        assert park.ended and park.outcome is None
        summary = core.commit(writer, resume=park)
        assert summary["installed"] == ["b", "f"]
        assert summary["shards"] == [0, 1]
        assert core.shards[0].db.read_committed("b").value == "new"
        assert core.shards[1].db.read_committed("f").value == "new"
        assert writer.state is SessionState.COMMITTED
        assert not core.parks and not writer.in_flight
        assert core.sharding_stats.gate_waits == 1
        assert core.sharding_stats.cross_shard_commits == 1


class TestOrderGuard:
    def test_guard_park_ends_with_the_blocker_terminal(self):
        # B ≺ A is recorded on shard 1 only (B's read of e passes A's
        # write lock there); A's read of a on shard 0 parks at the
        # coordinator's guard until B, which writes a, finishes.
        a = TransactionSpec("A", (write("e", 1.0), read("a", 1.0)))
        b = TransactionSpec("B", (read("e", 1.0), write("a", 1.0)))
        core = core_over(assign_by_order([b, a]))
        sa = core.begin("A")
        assert core.write(sa, "e", "a-val") is None
        sb = core.begin("B")
        assert core.read(sb, "e") is None
        assert core.write(sb, "a", "b-val") is None

        park = core.read(sa, "a")
        assert isinstance(park, Park) and not park.ended
        assert park.kind is ParkKind.ORDER_GUARD
        assert park.blockers == (sb,)
        assert sa.in_flight and 0 not in sa.legs  # no leg opened yet

        core.commit(sb)
        assert park.ended and park.outcome is None
        assert core.read(sa, "a", resume=park) == "b-val"
        assert core.sharding_stats.guard_waits == 1
        core.commit(sa)
        assert not core.parks and not core._wake_index


class TestSplitCycle:
    def test_split_cycle_aborts_exactly_one_victim(self):
        # Per-shard ceilings: T1 locks a (shard 0) then wants e (shard
        # 1); T2 locks e then wants a.  Each shard sees one harmless
        # edge; the cycle exists only in their union.
        t1 = TransactionSpec("T1", (write("a", 1.0), write("e", 1.0)))
        t2 = TransactionSpec("T2", (write("e", 1.0), write("a", 1.0)))
        core = core_over(assign_by_order([t1, t2]), "rw-pcp")
        s1 = core.begin("T1")
        s2 = core.begin("T2")
        assert core.write(s1, "a", 1) is None
        assert core.write(s2, "e", 2) is None
        first = core.write(s1, "e", 1)
        assert isinstance(first, Park) and first.kind is ParkKind.LOCK
        assert first.session is s1.legs[1]  # the shard's own park
        assert not first.ended

        # The second wait closes the cycle; the pass runs before the
        # call returns.
        second = core.write(s2, "a", 2)
        victim = min((s1, s2), key=lambda s: (s.priority, -s.id))
        assert victim is s2
        assert core.sharding_stats.cross_shard_deadlocks == 1
        assert s2.state is SessionState.ABORTED
        assert s2.abort_reason == "deadlock"
        assert s1.state.live
        assert second.ended and first.ended
        with pytest.raises(TransactionAborted, match="cross-shard deadlock"):
            core.write(s2, "a", 2, resume=second)
        assert core.write(s1, "e", 1, resume=first) is None
        assert core.commit(s1)["installed"] == ["a", "e"]


class TestRemoteLeg:
    def test_remote_leg_park_ends_from_the_response(self):
        catalog = catalog_two_shards()

        async def body():
            host = LockManager(catalog, "pcp-da")
            server = ShardHostServer(host)
            proxy = RemoteShardProxy(catalog, label="shard1")
            link(proxy.connection, server.new_connection())
            await proxy.negotiate()
            core = ShardedCore(
                catalog, "pcp-da", shards=2, partitioner="range",
                shard_managers=[LockCore(catalog, "pcp-da"), proxy],
            )
            writer = core.begin("W")
            assert core.write(writer, "b", "new") is None  # in-process

            # The remote leg's begin is sent; its park is pending, in no
            # registry, until the host's response ends it.
            park = core.write(writer, "f", "new")
            assert isinstance(park, Park) and park.kind is None
            assert not park.ended and park.session is None
            assert not core.parks and not proxy.waits.waiters()
            parks = 0
            result = park
            while isinstance(result, Park):
                while not result.ended:
                    await asyncio.sleep(0)
                parks += 1
                result = core.write(writer, "f", "new", resume=result)
            assert result is None
            assert parks == 2  # the leg's begin, then the write
            assert host.session(writer.legs[1].id).name == writer.name

            result = core.commit(writer)  # prepare, then install
            while isinstance(result, Park):
                while not result.ended:
                    await asyncio.sleep(0)
                result = core.commit(writer, resume=result)
            assert result["installed"] == ["b", "f"]
            assert host.db.read_committed("f").value == "new"
            assert writer.state is SessionState.COMMITTED

            core.shutdown()
            await proxy.shutdown()
            await asyncio.wait_for(server.close(), 5)

        asyncio.run(body())
