"""Cross-shard schedules as plain calls on the synchronous sharded core.

:class:`~repro.service.sharding.core.ShardedCore` needs no event loop:
every operation returns its result or a :class:`Park`, and is called
again with ``resume=park`` once the park has ended — the contract of
``LockCore`` (``tests/test_service_core.py``).  The first three cases
and the random schedules run over in-process ``LockCore`` shards with
no loop at all; the remote case puts one shard behind a
``RemoteShardProxy`` on an in-memory transport, where the loop only
carries the bytes.

A range partitioner over a known item universe makes each item's owning
shard part of the test's arithmetic.
"""

import asyncio
import functools
import random

import pytest

from repro.engine.inheritance import WaitForGraph
from repro.exceptions import TransactionAborted
from repro.model.priorities import assign_by_order
from repro.model.spec import OpKind, TaskSet, TransactionSpec, read, write
from repro.service.core import LockCore, SessionState
from repro.service.manager import LockManager
from repro.service.park import Park, ParkKind
from repro.service.sharding.core import ShardedCore
from repro.service.sharding.procs.host import ShardHostServer
from repro.service.sharding.procs.proxy import RemoteShardProxy
from repro.verify.stress import StressSpec, make_catalog
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

    def test_shutdown_fails_a_gate_park_with_the_shutdown_error(self):
        # The reader is the older session: shutdown aborts it first, and
        # that must not wake the writer's park before the writer's own
        # abort ends it.
        core = core_over(catalog_two_shards())
        reader = core.begin("R")
        writer = core.begin("W")
        assert core.write(writer, "b", "new") is None
        assert core.write(writer, "f", "new") is None
        assert core.read(reader, "b") is None
        park = core.commit(writer)
        assert park.kind is ParkKind.COMMIT_GATE
        core.shutdown()
        with pytest.raises(TransactionAborted,
                           match="^service shutting down$"):
            core.commit(writer, resume=park)
        assert core.sharding_stats.cascade_aborts == 0


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
        assert not core.parks and not core.waits.waiters()


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

    @pytest.mark.parametrize("teardown", [
        lambda core, session: core.abort(session),
        lambda core, session: core.expire(session, "deadline"),
        lambda core, session: core.force_abort(session, "policy"),
    ], ids=["abort", "expire", "force_abort"])
    def test_a_cycle_a_teardown_closes_is_resolved_before_it_returns(
        self, teardown
    ):
        # rw-pcp, Sysceil blame.  On shard 0, S1's write of a waits on C
        # (Aceil(a) = 3) although S2 holds b (Aceil(b) = 2); on shard 1,
        # S2's write of f waits on S1 (Aceil(e) = 2).  C's teardown
        # re-decides S1's write, which now blames S2: the cycle closes
        # inside the teardown, and no operation follows it.
        hi = TransactionSpec("HI", (write("a", 1.0),))
        p = TransactionSpec("P", (write("e", 1.0), write("a", 1.0),
                                  read("b", 1.0)))
        q = TransactionSpec("Q", (write("b", 1.0), write("f", 1.0)))
        core = core_over(assign_by_order([hi, p, q]), "rw-pcp")
        s2 = core.begin("Q")
        assert core.write(s2, "b", 2) is None
        s1 = core.begin("P")
        assert core.write(s1, "e", 1) is None
        c = core.begin("HI")
        assert core.write(c, "a", 3) is None
        first = core.write(s1, "a", 1)
        second = core.write(s2, "f", 2)
        assert core.shards[0].waits.blockers_of(s1.legs[0].job) == (
            c.legs[0].job,
        )
        assert core.shards[1].waits.blockers_of(s2.legs[1].job) == (
            s1.legs[1].job,
        )
        assert core.sharding_stats.cross_shard_deadlocks == 0

        teardown(core, c)
        assert core.sharding_stats.cross_shard_deadlocks == 1
        assert [s.abort_reason for s in (s1, s2)] == ["", "deadlock"]
        assert first.ended and second.ended
        with pytest.raises(TransactionAborted, match="cross-shard deadlock"):
            core.write(s2, "f", 2, resume=second)
        assert core.write(s1, "a", 1, resume=first) is None
        assert core.commit(s1)["installed"] == ["a", "e"]
        assert not core.waits.waiters()


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


# ----------------------------------------------------------------------
# The coordinator's wait-for graph against the per-pass rebuild it
# replaced
# ----------------------------------------------------------------------

def rebuilt_waits(core):
    """The reference: every shard's wait edges and every gate/guard park,
    over live sessions, gathered from scratch — with each waiter's place
    (a shard index; ``None`` for a coordinator park or several places)."""
    owner = core._job_sessions.get
    waits = [
        (owner(job), [owner(b) for b in shard.waits.blockers_of(job)], index)
        for index, shard in enumerate(core.shards)
        for job in shard.waits.waiters()
    ]
    waits += [(waiter, park.blockers, None)
              for waiter, park in core.parks.items()]
    edges, where = {}, {}
    for waiter, blockers, place in waits:
        if waiter is None or not waiter.state.live:
            continue
        targets = edges.setdefault(waiter, set())
        targets.update(b for b in blockers
                       if b is not None and b is not waiter
                       and b.state.live)
        where[waiter] = place if where.get(waiter, place) == place else None
    return {w: t for w, t in edges.items() if t}, where


def rebuilt_victim(core):
    """The cross-shard victim the rebuild would pick, or ``None``."""
    edges, where = rebuilt_waits(core)
    graph = WaitForGraph()
    for waiter, targets in edges.items():
        graph.block(waiter, targets)
    cycle = graph.find_new_cycle()
    if cycle is None:
        return None
    places = {where[session] for session in cycle}
    if len(places) == 1 and None not in places:
        return None
    return min(cycle, key=lambda s: (s.priority, -s.id))


def graph_nodes(graph):
    """Every job the graph names anywhere, its worklists included."""
    return (set(graph._blocked_on) | set(graph._waiters_of) | graph._stale
            | graph._no_inherit | graph._unchecked)


class _Client:
    """One closed-loop client: a session, its place in the program, and
    the call (with the park) it waits to resume."""

    def __init__(self):
        self.session = None
        self.pos = 0
        self.call = None
        self.park = None

    def step(self, core, rng):
        """Issue or resume one call; returns whether it did anything."""
        if self.park is not None:
            if not self.park.ended:
                return False
            run = functools.partial(self.call, resume=self.park)
        elif self.session is None:
            spec = rng.choice(list(core.catalog))
            self.session, self.pos = core.begin(spec.name), 0
            return True
        else:
            session = self.session
            program = [op for op in session.spec.operations
                       if op.kind is not OpKind.COMPUTE]
            if self.pos < len(program):
                op = program[self.pos]
                if op.kind is OpKind.READ:
                    self.call = functools.partial(core.read, session, op.item)
                else:
                    self.call = functools.partial(
                        core.write, session, op.item, self.pos
                    )
            elif rng.random() < 0.1:
                core.abort(session)
                self.session = None
                return True
            else:
                self.call = functools.partial(core.commit, session)
            run = self.call
        try:
            result = run()
        except TransactionAborted:
            self.session = self.park = None
            return True
        self.park = result if isinstance(result, Park) else None
        if self.park is None:
            if self.call.func == core.commit:
                self.session = None
            else:
                self.pos += 1
        return True


class TestOneWaitGraph:
    """Random 2–3-shard schedules, no event loop: after every call the
    coordinator's graph is the from-scratch union of the translated shard
    edges and the gate/guard parks, and every pass picks the rebuild's
    victim."""

    @staticmethod
    def check(core):
        edges, where = rebuilt_waits(core)
        graph = core.waits
        assert {w: set(graph.blockers_of(w)) for w in graph.waiters()} == edges
        for waiter in edges:
            assert where[waiter] == waiter.place
        graph.self_check()
        assert graph_nodes(graph) <= set(core.live_sessions())
        assert not graph._stale

    @pytest.mark.parametrize("protocol", ["rw-pcp", "pcp-da"])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_graph_and_victims_match_the_rebuild(self, shards, protocol):
        victims = waits = 0
        for seed in range(4):
            rng = random.Random(seed)
            core = ShardedCore(
                make_catalog(StressSpec(
                    seed=seed, txn_types=6, items=9, min_ops=2, max_ops=4,
                    write_probability=0.5, zipf_s=0.5,
                )),
                protocol, shards=shards, partitioner="range",
            )
            picked = []
            deadlock_pass = core._check_global_deadlock

            def checked_pass(core=core, deadlock_pass=deadlock_pass,
                             picked=picked):
                expected = rebuilt_victim(core)
                live = core.live_sessions()
                deadlock_pass()
                assert [s for s in live if s.abort_reason == "deadlock"] == (
                    [expected] if expected is not None else []
                )
                picked.append(expected)

            core._check_global_deadlock = checked_pass
            clients = [_Client() for _ in range(4)]
            for _ in range(250):
                moved = [c for c in clients if c.park is None or c.park.ended]
                assert moved, "every client waits on a park nobody ends"
                rng.choice(moved).step(core, rng)
                waits += bool(core.waits.waiters())
                self.check(core)
            victims += sum(v is not None for v in picked)
            core.shutdown()
            assert not graph_nodes(core.waits)
        assert waits, "no schedule made a session wait"
        if protocol == "rw-pcp":
            assert victims, "no schedule closed a cross-shard cycle"
