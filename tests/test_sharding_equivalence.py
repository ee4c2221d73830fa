"""Differential battery: 1-shard sharded service ≡ the unsharded manager.

The coordinator's claim (see ``repro/service/sharding/coordinator.py``)
is that on a single-shard deployment every added mechanism vanishes: the
remote order-guard remainder is empty by construction, the single-leg
commit fast path delegates wholesale, and the cross-shard deadlock
detector defers to the shard's own.  These tests pin that from the
outside: the same deterministic script of begins/reads/writes/commits is
played against a bare :class:`LockManager` and a 1-shard
:class:`ShardedLockManager`, under every served protocol, and the
observable logs must be *identical* — per-operation immediate outcome
(granted now vs parked), read values, exception types, install sets,
final per-item version chains, committed sets, and the shard's
grant/denial counters.

The script generator draws choices from a seeded RNG and consults only
*observable* state (which sessions are live, which have a parked
operation), so as long as the two systems behave identically the two
runs make identical draws — and the first behavioral divergence shows up
as a log mismatch rather than silent drift.
"""

import asyncio
import random

import pytest

from repro.db.serializability import check_serializable
from repro.exceptions import ServiceError
from repro.model.spec import OpKind
from repro.service import LockManager, ServiceConfig, ShardedLockManager
from repro.service.loadgen import history_from_events
from repro.service.manager import SERVED_PROTOCOLS, SessionState
from repro.workloads.generator import WorkloadConfig, generate_taskset

SEED_PAIRS = ((3, 1), (11, 2))


def run(coro):
    return asyncio.run(coro)


async def settle(steps: int = 20) -> None:
    """Generous quiesce: the sharded path adds a few microtask hops per
    forwarded operation, so 'granted now' needs headroom to look
    identical on both sides."""
    for _ in range(steps):
        await asyncio.sleep(0)


def _outcome(task: "asyncio.Task", kind: str):
    """A comparable terse outcome for a completed operation task."""
    exc = task.exception()
    if exc is not None:
        return ("exc", type(exc).__name__)
    if kind == "read":
        return ("value", task.result())
    if kind == "commit":
        return ("installed", tuple(sorted(task.result()["installed"])))
    return ("ok",)


async def play(manager, catalog, dseed: int, total: int = 16):
    """Play one deterministic script against ``manager``; return the log."""
    rng = random.Random(dseed)
    names = sorted(spec.name for spec in catalog)
    log = []
    active = {}   # session name -> {session, ops, task, taskdesc}
    launched = 0
    while launched < total or active:
        for key in sorted(active):
            entry = active[key]
            task = entry["task"]
            if task is not None and task.done():
                log.append(("late", key, entry["taskdesc"],
                            _outcome(task, entry["taskdesc"][0])))
                entry["task"] = None
        for key in sorted(active):
            entry = active[key]
            if entry["task"] is None and not entry["session"].state.live:
                log.append(("gone", key, entry["session"].state.value))
                del active[key]
        ready = [key for key in sorted(active)
                 if active[key]["task"] is None
                 and active[key]["session"].state is SessionState.ACTIVE]
        choices = []
        if launched < total and len(active) < 4:
            choices.append("begin")
        choices.extend(["step"] * len(ready))
        if not choices:
            # Everything parked: give lock releases wall-clock room.
            await asyncio.sleep(0.002)
            continue
        if rng.choice(choices) == "begin":
            name = rng.choice(names)
            session = await manager.begin(name)
            log.append(("begin", session.name))
            ops = [op for op in catalog[name].operations
                   if op.kind is not OpKind.COMPUTE]
            active[session.name] = {
                "session": session, "ops": ops, "task": None,
                "taskdesc": None,
            }
            launched += 1
            continue
        key = rng.choice(ready)
        entry = active[key]
        session = entry["session"]
        if entry["ops"]:
            op = entry["ops"][0]
            entry["ops"] = entry["ops"][1:]
            if op.kind is OpKind.WRITE:
                desc = ("write", op.item)
                coro = manager.write(session, op.item, f"{key}@{op.item}")
            else:
                desc = ("read", op.item)
                coro = manager.read(session, op.item)
        else:
            desc = ("commit", None)
            coro = manager.commit(session)
        task = asyncio.ensure_future(coro)
        await settle()
        if task.done():
            log.append(("issue", key, desc, _outcome(task, desc[0])))
            task = None
        else:
            log.append(("issue", key, desc, ("parked",)))
        entry["task"] = task
        entry["taskdesc"] = desc
    return log


def _history_rows(manager):
    """(kind, job, item, version_seq) rows, plus the serializability check."""
    if isinstance(manager, ShardedLockManager):
        events = manager.history_events()
        history = history_from_events(events)
        rows = [(e["kind"], e["job"], e["item"], e["version_seq"])
                for e in events]
    else:
        history = manager.history
        rows = [(e.kind.value, e.job, e.item, e.version_seq)
                for e in history]
    check_serializable(history)
    return rows


def _summarize(rows):
    """Order-insensitive invariants: install chains, reads, outcomes."""
    chains = {}
    reads = []
    committed = set()
    aborted = set()
    for kind, job, item, seq in rows:
        if kind == "install":
            chains.setdefault(item, []).append((seq, job))
        elif kind == "read":
            reads.append((job, item, seq))
        elif kind == "commit":
            committed.add(job)
        elif kind == "abort":
            aborted.add(job)
    return (
        {item: sorted(chain) for item, chain in chains.items()},
        sorted(reads),
        committed,
        aborted,
    )


@pytest.mark.parametrize("protocol", SERVED_PROTOCOLS)
def test_one_shard_deployment_is_decision_equivalent(protocol):
    for wseed, dseed in SEED_PAIRS:
        catalog = generate_taskset(WorkloadConfig(
            n_transactions=5, n_items=6, write_probability=0.5,
            rmw_probability=0.25, seed=wseed,
        ))

        async def run_plain():
            manager = LockManager(catalog, protocol, ServiceConfig())
            log = await play(manager, catalog, dseed)
            rows = _history_rows(manager)
            stats = (manager.stats.grants, manager.stats.denials)
            await manager.shutdown()
            return log, rows, stats

        async def run_sharded():
            manager = ShardedLockManager(
                catalog, protocol, ServiceConfig(), shards=1,
            )
            log = await play(manager, catalog, dseed)
            rows = _history_rows(manager)
            shard = manager.shards[0]
            stats = (shard.stats.grants, shard.stats.denials)
            coordinator = manager.sharding_stats
            await manager.shutdown()
            return log, rows, stats, coordinator

        plain_log, plain_rows, plain_stats = run(run_plain())
        shard_log, shard_rows, shard_stats, coordinator = run(run_sharded())

        context = f"protocol={protocol} wseed={wseed} dseed={dseed}"
        assert shard_log == plain_log, context
        assert _summarize(shard_rows) == _summarize(plain_rows), context
        assert shard_stats == plain_stats, context
        # The coordinator machinery must have stayed entirely out of it.
        assert coordinator.guard_waits == 0, context
        assert coordinator.gate_waits == 0, context
        assert coordinator.cross_shard_commits == 0, context
        assert coordinator.cross_shard_deadlocks == 0, context


def test_equivalence_battery_exercises_contention():
    """Meta-check: the scripts actually produce parked operations (the
    interesting case), not just uncontended grants."""
    parked = 0
    for wseed, dseed in SEED_PAIRS:
        catalog = generate_taskset(WorkloadConfig(
            n_transactions=5, n_items=6, write_probability=0.5,
            rmw_probability=0.25, seed=wseed,
        ))

        async def body():
            manager = LockManager(catalog, "rw-pcp", ServiceConfig())
            log = await play(manager, catalog, dseed)
            await manager.shutdown()
            return log

        log = run(body())
        parked += sum(1 for entry in log
                      if entry[0] == "issue" and entry[3] == ("parked",))
    assert parked > 0


def _reap_all(tasks):
    for task in tasks:
        try:
            task.result()
        except ServiceError:
            pass
