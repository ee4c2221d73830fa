"""Decision-level parity: one workload, four executions, identical decisions.

The paper's protocol is implemented three times over — the object-path
engine, the compiled array kernel, and the live asyncio service (plain
and sharded).  Where their semantics *promise* agreement, this module
proves it: under **single-client sequential replay** (one transaction
live at a time, operations in program order) every execution must make
the same grant/block/abort decision with the same rule/reason string for
every operation.  Sequential isolation is exactly the regime where the
concurrency deltas the service documents (commit gate, order guard,
service-level deadlock victims) cannot fire — the lock table never holds
another transaction's locks at decision time — so any divergence is an
implementation bug, not a semantic one.

Four executions are compared per workload:

* the simulator with ``kernel=True`` (compiled decision tables);
* the simulator with ``kernel=False`` (the object reference path);
* the in-process :class:`~repro.service.manager.LockManager`;
* the sharded coordinator (1 shard by default — decision-equivalent to
  the plain manager by construction — or N shards, where sequential
  isolation still promises identical decisions in arrival order).

Decision capture uses the manager's ``decision_listeners`` hook (and the
coordinator's :meth:`add_decision_listener`, which observes all shards in
true global order); the simulator side reads the finished run's
:class:`~repro.trace.recorder.TraceRecorder`.  Records are normalised to
``(type, instance, item, mode, outcome, rule)`` — job naming differs
between the engines (``"S3@7#0"`` vs ``"S3#7"``), numeric priorities
differ by construction (the simulator needs one unique priority per
instance), but the decision surface itself carries no numerics: every
rule/reason string in :mod:`repro.core.locking_conditions` is fixed text.

The workload comes from :mod:`repro.verify.stress` (same seeded catalog
generator, Zipf skew and all); only the arrival *order* matters here.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import InvariantViolation
from repro.model.spec import TaskSet
from repro.trace.recorder import LockEvent
from repro.verify.stress import (
    StressSpec,
    build_taskset,
    iter_arrivals,
    make_catalog,
)

#: One normalised decision: (type, instance, item, mode, outcome, rule).
DecisionRecord = Tuple[str, int, str, str, str, str]


class ParityError(InvariantViolation):
    """Two executions of the same workload made different decisions."""


def _normalise(event: LockEvent) -> DecisionRecord:
    """One lock event as an engine-independent decision record.

    Accepts both naming schemes: simulator jobs are ``"S3@7#0"`` (spec
    ``"S3@7"`` built by :func:`repro.verify.stress.build_taskset`,
    instance 0), service jobs are ``"S3#7"`` (catalog type ``"S3"``,
    instance 7).  Both normalise to ``("S3", 7, ...)``.
    """
    base, _, tail = event.job.rpartition("#")
    if "@" in base:
        txn, _, instance_text = base.rpartition("@")
    else:
        txn, instance_text = base, tail
    return (
        txn,
        int(instance_text),
        event.item,
        event.mode.value,
        event.outcome.value,
        event.rule,
    )


def simulator_decisions(
    spec: StressSpec, protocol: str, *, kernel: bool
) -> List[DecisionRecord]:
    """Decision sequence of the sequential replay in the simulator.

    The workload's arrivals become one-shot specs spaced so far apart
    that each job commits before the next is released
    (:func:`sequential_taskset`); the finished trace's lock events, in
    order, are the decision sequence.
    """
    from repro.engine.simulator import SimConfig, Simulator
    from repro.protocols import make_protocol

    taskset = sequential_taskset(spec)
    result = Simulator(
        taskset, make_protocol(protocol), SimConfig(kernel=kernel)
    ).run()
    return [_normalise(e) for e in result.trace.lock_events]


def sequential_taskset(spec: StressSpec) -> TaskSet:
    """The workload's arrivals as strictly non-overlapping one-shot specs.

    Reuses :func:`repro.verify.stress.build_taskset` for naming and
    priority assignment, but replaces every offset with ``seq × gap``
    where ``gap`` exceeds any program's total execution time — so in
    virtual time at most one job is ever live, which is the sequential
    regime decision parity quantifies over.
    """
    catalog = make_catalog(spec)
    gap = max(
        sum(op.duration for op in catalog[name].operations)
        for name in catalog.names
    ) + 1.0
    return build_taskset(spec, sequential_gap=gap)


async def _drive_sequential(
    manager: Any, catalog: TaskSet, order: Sequence[str]
) -> None:
    """Run the arrival order through a manager, one transaction at a time."""
    for name in order:
        session = await manager.begin(name)
        for op in catalog[name].operations:
            kind = op.kind.value
            if kind == "read":
                await manager.read(session, op.item)
            elif kind == "write":
                await manager.write(
                    session, op.item, f"{session.name}@{op.item}"
                )
        await manager.commit(session)


def _replay_decisions(
    spec: StressSpec, build: Callable[[TaskSet], Any]
) -> List[DecisionRecord]:
    """Decision sequence of the sequential replay through one deployment.

    ``build(catalog)`` awaits to the deployment's ``(supervisor,
    manager)`` pair (supervisor ``None`` in-process), as
    :func:`repro.service.sharding.deploy` returns it.
    """
    catalog = make_catalog(spec)
    order = [a.name for a in iter_arrivals(spec)]
    captured: List[DecisionRecord] = []

    async def run() -> None:
        supervisor, manager = await build(catalog)
        manager.add_decision_listener(
            lambda event: captured.append(_normalise(event))
        )
        try:
            await _drive_sequential(manager, catalog, order)
        finally:
            await manager.shutdown()
            if supervisor is not None:
                await supervisor.stop()

    asyncio.run(run())
    return captured


def service_decisions(spec: StressSpec, protocol: str) -> List[DecisionRecord]:
    """Decision sequence of the sequential replay through a LockManager."""
    from repro.service.sharding import deploy

    return _replay_decisions(spec, lambda catalog: deploy(catalog, protocol))


def coordinator_decisions(
    spec: StressSpec,
    protocol: str,
    *,
    shards: int = 1,
    partitioner: str = "hash",
) -> List[DecisionRecord]:
    """Decision sequence of the sequential replay through the coordinator
    (at ``shards=1`` too, unlike a deployment of one shard)."""
    from repro.service import ShardedLockManager

    async def build(catalog: TaskSet) -> Any:
        return None, ShardedLockManager(
            catalog, protocol, shards=shards, partitioner=partitioner
        )

    return _replay_decisions(spec, build)


def procs_coordinator_decisions(
    spec: StressSpec,
    protocol: str,
    *,
    shard_procs: int = 4,
    partitioner: str = "hash",
) -> List[DecisionRecord]:
    """Decision sequence of the sequential replay through a multi-process
    deployment: N ``repro shard-host`` children behind the coordinator.

    The decisions themselves are made host-side; they reach the capture
    listener as v2 event frames through each shard's
    :class:`~repro.service.sharding.procs.proxy.RemoteShardProxy`.
    Because frames are emitted synchronously during dispatch and
    delivered before the triggering operation's response on the same
    connection, a sequential driver observes them in exact decision
    order — so this path must agree record-for-record with the
    in-process executions, proving the wire (serialization, event
    frames, mirrors) adds no semantic drift.
    """
    from repro.service.sharding.procs import start_proc_deployment

    return _replay_decisions(spec, lambda catalog: start_proc_deployment(
        catalog, protocol, shards=shard_procs, partitioner=partitioner
    ))


@dataclass(frozen=True)
class ParityReport:
    """Outcome of one decision-parity comparison.

    Attributes:
        protocol: the protocol compared.
        executions: labels of the compared executions, in order.
        decisions: length of the (agreed) decision sequence.
        workload: the generating :class:`StressSpec`.
    """

    protocol: str
    executions: Tuple[str, ...]
    decisions: int
    workload: StressSpec


def _first_divergence(
    label_a: str,
    seq_a: List[DecisionRecord],
    label_b: str,
    seq_b: List[DecisionRecord],
) -> str:
    """Human-readable description of where two sequences part ways."""
    limit = min(len(seq_a), len(seq_b))
    for i in range(limit):
        if seq_a[i] != seq_b[i]:
            context = seq_a[max(0, i - 2):i]
            return (
                f"decision {i} differs:\n"
                f"  {label_a}: {seq_a[i]}\n"
                f"  {label_b}: {seq_b[i]}\n"
                f"  shared prefix tail: {context}"
            )
    return (
        f"lengths differ: {label_a} made {len(seq_a)} decisions, "
        f"{label_b} made {len(seq_b)}"
    )


def check_decision_parity(
    spec: StressSpec,
    protocol: str,
    *,
    coordinator_shards: int = 1,
    coordinator_procs: int = 0,
    extra_executions: Optional[
        Dict[str, Callable[[], List[DecisionRecord]]]
    ] = None,
) -> ParityReport:
    """Assert all executions of one workload agree decision-for-decision.

    Runs the four standard executions (simulator kernel/object, plain
    service, coordinator at ``coordinator_shards``), plus — when
    ``coordinator_procs`` > 0 — a fifth: the coordinator over that many
    shard-host *processes* (real sockets, decisions streamed back as
    event frames), plus any ``extra_executions`` (label → thunk), and
    compares the normalised decision sequences pairwise against the
    kernel-simulator reference.

    Returns:
        A :class:`ParityReport` on agreement.

    Raises:
        ParityError: naming the first diverging decision (or the length
            mismatch) between the reference and the offending execution.
    """
    executions: Dict[str, Callable[[], List[DecisionRecord]]] = {
        "simulator[kernel]": lambda: simulator_decisions(
            spec, protocol, kernel=True
        ),
        "simulator[object]": lambda: simulator_decisions(
            spec, protocol, kernel=False
        ),
        "service": lambda: service_decisions(spec, protocol),
        f"coordinator[{coordinator_shards}sh]": lambda: coordinator_decisions(
            spec, protocol, shards=coordinator_shards
        ),
    }
    if coordinator_procs:
        executions[f"coordinator[{coordinator_procs}proc]"] = (
            lambda: procs_coordinator_decisions(
                spec, protocol, shard_procs=coordinator_procs
            )
        )
    if extra_executions:
        executions.update(extra_executions)
    sequences = {label: run() for label, run in executions.items()}
    labels = list(sequences)
    reference_label = labels[0]
    reference = sequences[reference_label]
    if not reference:
        raise ParityError(
            f"{protocol}: reference execution made no decisions — "
            "the workload is empty"
        )
    for label in labels[1:]:
        if sequences[label] != reference:
            raise ParityError(
                f"{protocol}: {label} diverges from {reference_label} — "
                + _first_divergence(
                    reference_label, reference, label, sequences[label]
                )
            )
    return ParityReport(
        protocol=protocol,
        executions=tuple(labels),
        decisions=len(reference),
        workload=spec,
    )


def parity_battery(
    *,
    seeds: Sequence[int],
    protocols: Optional[Sequence[str]] = None,
    transactions: int = 25,
    coordinator_shards: int = 1,
    coordinator_procs: int = 0,
    **spec_overrides: Any,
) -> List[ParityReport]:
    """Run decision parity over a seed × protocol grid.

    The acceptance battery: every seed builds one workload
    (:class:`StressSpec` with ``spec_overrides`` applied), and every
    protocol must pass :func:`check_decision_parity` on it.  ``protocols``
    defaults to :data:`~repro.service.SERVED_PROTOCOLS`, the
    ones the service paths accept; the rest of the ceiling family is
    compared on the simulator alone (:func:`simulator_decisions`).
    Returns the reports; raises :class:`ParityError` on the first
    divergence.
    """
    if protocols is None:
        from repro.service.core import SERVED_PROTOCOLS

        protocols = SERVED_PROTOCOLS
    reports = []
    for seed in seeds:
        spec = StressSpec(
            seed=seed, transactions=transactions, **spec_overrides
        )
        for protocol in protocols:
            reports.append(check_decision_parity(
                spec, protocol,
                coordinator_shards=coordinator_shards,
                coordinator_procs=coordinator_procs,
            ))
    return reports


__all__ = [
    "DecisionRecord",
    "ParityError",
    "ParityReport",
    "check_decision_parity",
    "coordinator_decisions",
    "parity_battery",
    "procs_coordinator_decisions",
    "sequential_taskset",
    "service_decisions",
    "simulator_decisions",
]
