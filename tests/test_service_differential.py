"""Differential battery: service decisions vs the simulator's conditions.

The service routes every lock request through ``protocol.decide`` — the
same object, the same locking conditions (LC1–LC4, the Table-1 footnote)
the simulator evaluates.  These tests pin that claim from the outside:
before each operation the expected decision is computed by calling the
protocol directly (``decide`` is read-only), then the operation is issued
and its observable outcome (granted immediately / parked)
must match.  The one documented divergence is the service's *order guard*
(serialization-order enforcement, see ``repro/service/manager.py``),
which may turn a protocol Grant into a wait — the driver recognises it by
its reason string and asserts it only ever *tightens* decisions, never
loosens them.
"""

import asyncio
import random

import pytest

from repro.db.serializability import check_serializable
from repro.engine.interfaces import Deny, Grant
from repro.exceptions import ServiceError, TransactionAborted
from repro.model.spec import LockMode, OpKind
from repro.service import LockManager, ServiceConfig
from repro.service.manager import SERVED_PROTOCOLS, SessionState
from repro.service.park import ParkKind
from repro.workloads.generator import WorkloadConfig, generate_taskset

def run(coro):
    return asyncio.run(coro)


async def settle(steps: int = 5) -> None:
    for _ in range(steps):
        await asyncio.sleep(0)


class Driver:
    """Randomised multi-session interleaver with per-request checking."""

    def __init__(self, manager: LockManager, seed: int):
        self.manager = manager
        self.rng = random.Random(seed)
        self.mismatches = []
        self.checked = 0
        self.guard_waits = 0

    def _needs_lock(self, session, item, mode):
        job = session.job
        if mode is LockMode.WRITE:
            return not self.manager.table.holds(job, item, LockMode.WRITE)
        if job.workspace.has_write(item):
            return False
        return not (
            self.manager.table.holds(job, item, LockMode.READ)
            or self.manager.table.holds(job, item, LockMode.WRITE)
        )

    async def issue(self, session, op) -> "asyncio.Task | None":
        """Issue one catalog operation, checking the decision first."""
        manager = self.manager
        mode = (
            LockMode.WRITE if op.kind is OpKind.WRITE else LockMode.READ
        )
        # Quiesce the loop first: pending wake-ups (grant-queue churn,
        # victim aborts) must land before the decision snapshot, or the
        # snapshot and the request would see different lock tables.
        await settle()
        expected = None
        if self._needs_lock(session, op.item, mode):
            # The simulator's locking conditions, asked directly.
            expected = manager.protocol.decide(session.job, op.item, mode)
            self.checked += 1
        deadlocks_before = manager.stats.deadlocks
        if op.kind is OpKind.WRITE:
            coro = manager.write(session, op.item, f"{session.name}")
        else:
            coro = manager.read(session, op.item)
        task = asyncio.ensure_future(coro)
        await settle()
        if expected is None:
            return task if not task.done() else self._reap(task)

        if task.done():
            observed = "granted"
        elif session.state is SessionState.WAITING:
            observed = "parked"
        else:
            observed = "pending"
        if isinstance(expected, Grant):
            if observed != "granted":
                park = manager.parks.get(session)
                if park is not None and park.kind is ParkKind.ORDER_GUARD:
                    # Documented tightening: the service may defer a
                    # protocol-admissible read for serialization order.
                    self.guard_waits += 1
                    return task
                self.mismatches.append(
                    (session.name, op.item, mode, "expected grant",
                     observed)
                )
        else:
            assert isinstance(expected, Deny)
            if observed == "granted":
                # Legitimate fast path: the request parked, a wait cycle
                # was detected and resolved by victim abort, and the
                # freed lock was granted — all inside the settle window.
                # The same applies when a blocker died for another
                # reason: the deny was correct at decision time.
                resolved = (
                    manager.stats.deadlocks > deadlocks_before
                    or any(
                        not manager._by_job[b].state.live
                        for b in expected.blockers
                        if b in manager._by_job
                    )
                )
                if not resolved:
                    self.mismatches.append(
                        (session.name, op.item, mode, "expected deny",
                         "granted")
                    )
        return None if task.done() and self._reap(task) is None else task

    @staticmethod
    def _reap(task):
        try:
            task.result()
        except ServiceError:
            pass
        return None


async def drive(protocol: str, wseed: int, dseed: int):
    """Interleave sessions randomly; check every decision; finish all."""
    catalog = generate_taskset(WorkloadConfig(
        n_transactions=5, n_items=6, write_probability=0.5,
        rmw_probability=0.25, seed=wseed,
    ))
    manager = LockManager(catalog, protocol, ServiceConfig())
    driver = Driver(manager, dseed)
    rng = driver.rng

    async def commit_quietly(session):
        try:
            await manager.commit(session)
        except (TransactionAborted, ServiceError):
            pass

    active = {}   # session -> (remaining data ops, pending task or None)
    launched = 0
    TOTAL = 18
    while launched < TOTAL or active:
        # Reap finished tasks and drop dead/finished sessions.
        for session in list(active):
            ops, task = active[session]
            if task is not None and task.done():
                driver._reap(task)
                task = None
                active[session] = (ops, None)
            if task is None and not session.state.live:
                active.pop(session, None)

        ready = [s for s, (_, task) in active.items() if task is None
                 and s.state is SessionState.ACTIVE]
        choices = []
        if launched < TOTAL and len(active) < 5:
            choices.append("begin")
        choices.extend(["step"] * len(ready))
        if not choices:
            # Everyone parked (grant queue or commit gate): let it move.
            await asyncio.sleep(0.002)
            continue
        choice = rng.choice(choices)
        if choice == "begin":
            name = rng.choice([spec.name for spec in catalog])
            session = await manager.begin(name)
            ops = [op for op in catalog[name].operations
                   if op.kind is not OpKind.COMPUTE]
            active[session] = (ops, None)
            launched += 1
            continue
        session = rng.choice(ready)
        ops, _ = active[session]
        if not ops:
            # Commit runs as a task: it may park at the commit gate, and
            # the sessions it waits for still need driving.
            task = asyncio.ensure_future(commit_quietly(session))
            await settle()
            active[session] = (ops, task)
            continue
        op = ops[0]
        task = await driver.issue(session, op)
        if session not in active or not session.state.live:
            active.pop(session, None)   # aborted underneath us
            continue
        if task is not None and task.done():
            driver._reap(task)
            task = None
        active[session] = (ops[1:], task)

    assert driver.mismatches == [], driver.mismatches
    assert driver.checked > 0
    check_serializable(manager.history)
    return driver


@pytest.mark.parametrize("protocol", SERVED_PROTOCOLS)
def test_service_decisions_match_protocol(protocol):
    """Across random interleavings, every immediate outcome matches the
    protocol's own decision (modulo the documented order guard)."""
    total_checked = 0
    for wseed, dseed in ((3, 1), (11, 2), (29, 3)):
        driver = run(drive(protocol, wseed, dseed))
        total_checked += driver.checked
    assert total_checked >= 30


def test_order_guard_only_tightens():
    """The guard may delay a Grant but never overrides a Deny: on items
    without live predecessors the service decision IS the protocol's."""
    async def body():
        catalog = generate_taskset(WorkloadConfig(
            n_transactions=4, n_items=5, write_probability=0.5, seed=7,
        ))
        manager = LockManager(catalog, "pcp-da")
        name = next(iter(spec.name for spec in catalog))
        session = await manager.begin(name)
        spec = session.job.spec
        for item in sorted(spec.access_set):
            mode = (LockMode.WRITE if item in spec.write_set
                    else LockMode.READ)
            direct = manager.protocol.decide(session.job, item, mode)
            serviced = manager._service_decide(session.job, item, mode)
            assert type(direct) is type(serviced)
            if isinstance(direct, Grant):
                assert serviced.rule == direct.rule

    run(body())


def test_grant_rules_recorded_match_trace():
    """Rules the protocol reported are what the job and trace recorded."""
    async def body():
        catalog = generate_taskset(WorkloadConfig(
            n_transactions=4, n_items=5, write_probability=0.4, seed=13,
        ))
        manager = LockManager(catalog, "pcp-da")
        name = next(iter(spec.name for spec in catalog))
        session = await manager.begin(name)
        for op in catalog[name].operations:
            if op.kind is OpKind.READ:
                await manager.read(session, op.item)
            elif op.kind is OpKind.WRITE:
                await manager.write(session, op.item, 1)
        rules = [rule for (_, _, _, rule) in session.job.grant_rules]
        granted = manager.trace.grants_for(session.name)
        assert [e.rule for e in granted] == rules
        await manager.commit(session)

    run(body())
