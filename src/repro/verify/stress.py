"""Heavy-traffic stress harness: one seeded overload workload, checked runs.

This module is one half of the parity-and-stress tentpole (the other is
:mod:`repro.verify.parity`).  It generates **one deterministic workload**
— a seeded catalog with Zipf-skewed item access plus an open-system
arrival schedule with bursts and a configurable overload factor — and
drives it through a live deployment (:class:`~repro.service.manager.LockManager`
or the sharded coordinator at N shards) under true concurrency: the
schedule is the open loop of the one load driver,
:func:`repro.service.loadgen.run_loadgen`, over the in-process client,
whose every request crosses the event loop, so sessions overlap, wait on
each other and are shed by admission control.  The run is then *proved*
correct rather than eyeballed:

* **serializability** — the driver's live oracle: the service's
  observable history replays through
  :func:`repro.db.serializability.check_serializable_fast` (the sparse,
  near-linear variant of the Theorem 3 oracle, so 100k+-transaction
  traces verify in seconds);
* **conservation** — every transaction the driver started is accounted
  for exactly once: ``begun = committed + client aborts + forced aborts
  + deadline misses + transport errors`` on both the driver's and the
  service's counters, no transport error (in-process there is no
  transport to fail), no session is left live, and the history holds
  one install row per item a committed transaction wrote (a dropped
  write cannot hide behind a serializable history of initial-version
  reads);
* **deadlock bounds** — every forced abort must be attributable to a
  service-resolved wait cycle (the gate/guard cycles docs/SERVICE.md
  documents as the price of dropping the single-CPU assumption) or a
  sharded cascade; unattributed forced aborts fail the run.

A bounded prefix of the same arrival schedule can also be replayed in the
virtual-time simulator (:func:`simulator_stress_check`), where the
scheduler's guarantees are strongest: both kernel modes must emit
byte-identical traces, and the per-protocol verification oracles
(Theorems 1–3) run on the result.

Scale: arrivals stream from a generator (O(1) memory per arrival), so
``transactions`` can be hundreds of thousands to millions; concurrency is
bounded by admission control, not by materialising the schedule.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import SpecificationError
from repro.model.spec import TaskSet, TransactionSpec, read, write

if TYPE_CHECKING:  # the service layer sits above this one; imported lazily
    from repro.service.loadgen import LoadReport

#: Protocols whose admissions are driven by priority ceilings — the family
#: the simulator's kernel/object parity quantifies over (the service
#: paths take only :data:`repro.service.SERVED_PROTOCOLS`).
#: ``pcp-da-checked`` and ``rw-pcp-abort`` are the kernel force-opt-out
#: members (their ``compile_table`` returns ``None``), so including them
#: keeps the fallback path under the same battery.
CEILING_FAMILY: Tuple[str, ...] = (
    "pcp-da", "pcp-da-checked", "weak-pcp-da", "rw-pcp", "rw-pcp-abort",
    "ccp", "pcp", "ipcp",
)

#: The subset of :data:`CEILING_FAMILY` the paper proves deadlock-free
#: (``weak-pcp-da`` is the deliberately broken Example 5 variant).
DEADLOCK_FREE_CEILING: Tuple[str, ...] = (
    "pcp-da", "pcp-da-checked", "rw-pcp", "rw-pcp-abort", "ccp", "pcp",
    "ipcp",
)


@dataclass(frozen=True)
class StressSpec:
    """One deterministic stress workload, fully determined by its fields.

    Attributes:
        seed: master RNG seed; catalog and arrival schedule derive
            sub-seeds from it, so equal specs generate equal workloads.
        transactions: number of arrivals in the open-system schedule.
        txn_types: catalog size (transaction types ``S1..Sn`` with
            distinct priorities, highest first).
        items: database size; access frequency is Zipf-skewed over it.
        min_ops / max_ops: per-type program length range; each program
            touches distinct items (no same-item re-access), so decision
            sequences are insensitive to early-release policy.
        write_probability: chance each program step is a write.
        zipf_s: Zipf exponent for item popularity (0 = uniform; larger
            concentrates traffic on a hot set — the contention knob).
        arrival_rate_hz: base offered load of the open-system schedule.
        overload: multiplies the offered rate — >1 deliberately outruns
            the service so in-flight work piles up (admission control
            sheds the excess; rejects are part of conservation).
        burst_factor: rate multiplier during the burst phase of each
            cycle (1 = no bursts).
        burst_period_s: burst cycle length in schedule seconds.
        burst_duty: fraction of each cycle spent at the burst rate.
        abort_probability: chaos knob — chance an arrival deliberately
            aborts after running its program instead of committing.
    """

    seed: int = 0
    transactions: int = 1000
    txn_types: int = 8
    items: int = 24
    min_ops: int = 2
    max_ops: int = 5
    write_probability: float = 0.3
    zipf_s: float = 1.1
    arrival_rate_hz: float = 2000.0
    overload: float = 1.0
    burst_factor: float = 4.0
    burst_period_s: float = 0.5
    burst_duty: float = 0.25
    abort_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.transactions < 1:
            raise SpecificationError("transactions must be >= 1")
        if self.txn_types < 1:
            raise SpecificationError("txn_types must be >= 1")
        if self.items < 2:
            raise SpecificationError("items must be >= 2")
        if not 1 <= self.min_ops <= self.max_ops:
            raise SpecificationError("need 1 <= min_ops <= max_ops")
        if self.max_ops > self.items:
            raise SpecificationError("max_ops cannot exceed items")
        if not 0.0 <= self.write_probability <= 1.0:
            raise SpecificationError("write_probability must be in [0, 1]")
        if self.zipf_s < 0:
            raise SpecificationError("zipf_s must be >= 0")
        if self.arrival_rate_hz <= 0 or self.overload <= 0:
            raise SpecificationError("arrival rate and overload must be > 0")
        if self.burst_factor < 1.0:
            raise SpecificationError("burst_factor must be >= 1")
        if self.burst_period_s <= 0:
            raise SpecificationError("burst_period_s must be > 0")
        if not 0.0 < self.burst_duty < 1.0:
            raise SpecificationError("burst_duty must be in (0, 1)")
        if not 0.0 <= self.abort_probability <= 1.0:
            raise SpecificationError("abort_probability must be in [0, 1]")


@dataclass(frozen=True)
class Arrival:
    """One open-system transaction arrival.

    Attributes:
        seq: global arrival index (0-based).
        at_s: schedule time of the arrival, in seconds from run start.
        name: catalog transaction type to instantiate.
        chaos_abort: when true the driver aborts after the program instead
            of committing (the ``abort_probability`` chaos knob, decided
            at generation time so every execution sees the same choice).
    """

    seq: int
    at_s: float
    name: str
    chaos_abort: bool


def zipf_weights(n: int, s: float) -> List[float]:
    """Unnormalised Zipf weights ``1/k^s`` for ranks ``1..n``."""
    return [1.0 / (k ** s) for k in range(1, n + 1)]


def _weighted_sample_distinct(
    rng: random.Random, population: List[str], weights: List[float], k: int
) -> List[str]:
    """Draw ``k`` distinct elements, each by one weighted draw.

    Uses cumulative-weight inversion with rejection of repeats — the
    skewed draws keep their bias (hot items stay hot) while programs
    never touch the same item twice.
    """
    cumulative: List[float] = []
    total = 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    chosen: List[str] = []
    taken = set()
    while len(chosen) < k:
        index = bisect.bisect_left(cumulative, rng.random() * total)
        item = population[min(index, len(population) - 1)]
        if item not in taken:
            taken.add(item)
            chosen.append(item)
    return chosen


def make_catalog(spec: StressSpec) -> TaskSet:
    """The deterministic catalog of one stress workload.

    ``txn_types`` one-shot transaction types named ``S1..Sn`` with
    distinct priorities (``S1`` highest), programs of ``min_ops..max_ops``
    steps over Zipf-favoured distinct items.  The same catalog serves the
    live deployments directly and, instanced per arrival, the simulator
    (:func:`build_taskset`).
    """
    rng = random.Random(spec.seed * 1_000_003 + 1)
    items = [f"x{i}" for i in range(1, spec.items + 1)]
    weights = zipf_weights(spec.items, spec.zipf_s)
    specs = []
    for t in range(1, spec.txn_types + 1):
        k = rng.randint(spec.min_ops, spec.max_ops)
        ops = []
        for item in _weighted_sample_distinct(rng, items, weights, k):
            if rng.random() < spec.write_probability:
                ops.append(write(item))
            else:
                ops.append(read(item))
        if not any(op.kind.value == "write" for op in ops):
            # Guarantee at least one installing type so a committed run
            # always has history installs (and the oracle has edges).
            ops[-1] = write(ops[-1].item)
        specs.append(TransactionSpec(
            name=f"S{t}",
            operations=tuple(ops),
            priority=spec.txn_types - t + 1,
        ))
    return TaskSet(specs)


def iter_arrivals(spec: StressSpec) -> Iterator[Arrival]:
    """Stream the open-system arrival schedule (O(1) memory).

    Gaps are exponential at the *current* rate; the rate alternates
    between ``burst_factor × base`` (for ``burst_duty`` of each
    ``burst_period_s`` cycle) and ``base``, with
    ``base = arrival_rate_hz × overload``.  Transaction types are drawn
    uniformly; the chaos-abort flag is pre-drawn per arrival so every
    replay of the schedule sees identical choices.
    """
    rng = random.Random(spec.seed * 1_000_003 + 2)
    names = [f"S{t}" for t in range(1, spec.txn_types + 1)]
    base = spec.arrival_rate_hz * spec.overload
    burst_until = spec.burst_period_s * spec.burst_duty
    t = 0.0
    for seq in range(spec.transactions):
        phase = t % spec.burst_period_s
        rate = base * (spec.burst_factor if phase < burst_until else 1.0)
        t += rng.expovariate(rate)
        yield Arrival(
            seq=seq,
            at_s=t,
            name=names[rng.randrange(len(names))],
            chaos_abort=rng.random() < spec.abort_probability,
        )


def build_taskset(
    spec: StressSpec,
    limit: Optional[int] = None,
    *,
    sequential_gap: Optional[float] = None,
) -> TaskSet:
    """Instance the arrival schedule as a one-shot simulator task set.

    Each of the first ``limit`` arrivals becomes its own spec named
    ``"<type>@<k>"`` (``k`` = per-type occurrence index, matching the
    instance numbers the service's per-type counters assign), released at
    its arrival time — or, with ``sequential_gap``, at ``seq × gap`` so
    consecutive jobs never overlap (the parity harness's sequential
    regime).  Priorities are unique, ordered by (type priority, arrival
    order) — ties in the catalog's type priority cannot exist, so earlier
    instances of a type outrank later ones and every instance of a higher
    type outranks every instance of a lower one.
    """
    catalog = make_catalog(spec)
    arrivals = []
    per_type: Dict[str, int] = {}
    for arrival in iter_arrivals(spec):
        if limit is not None and arrival.seq >= limit:
            break
        k = per_type.get(arrival.name, 0)
        per_type[arrival.name] = k + 1
        arrivals.append((arrival, k))
    ranked = sorted(
        arrivals,
        key=lambda pair: (-catalog[pair[0].name].priority, pair[0].seq),
    )
    priority_of = {
        (pair[0].seq): len(ranked) - rank
        for rank, pair in enumerate(ranked)
    }
    specs = []
    for arrival, k in arrivals:
        base = catalog[arrival.name]
        offset = (
            arrival.at_s if sequential_gap is None
            else arrival.seq * sequential_gap
        )
        specs.append(TransactionSpec(
            name=f"{arrival.name}@{k}",
            operations=base.operations,
            priority=priority_of[arrival.seq],
            offset=offset,
        ))
    return TaskSet(specs)


@dataclass
class StressReport:
    """One concurrent stress run: the driver's report plus the deployment
    shape and the conservation and bounds audits.

    The driver's counters and serializability verdict live once, on
    ``load`` (:class:`~repro.service.loadgen.LoadReport`), and read
    through: ``report.begun`` is ``report.load.begun``.
    """

    spec: StressSpec
    load: "LoadReport"
    shards: int = 1
    #: Shard-host *processes* (0 = in-process deployment).  When set it
    #: equals ``shards`` — one shard per process.
    procs: int = 0
    conservation_ok: bool = True
    conservation_detail: str = ""
    bounds_ok: bool = True
    bounds_detail: str = ""

    def __getattr__(self, name: str) -> Any:
        if name == "load":  # not set yet (a copy or unpickle probing)
            raise AttributeError(name)
        return getattr(self.load, name)

    @property
    def ok(self) -> bool:
        """The run's overall verdict (all three checks passed)."""
        return self.serializable and self.conservation_ok and self.bounds_ok

    def render(self) -> str:
        """Multi-line text summary (the ``repro stress`` report body)."""
        deployment = (
            f"shard-procs={self.procs}" if self.procs
            else f"shards={self.shards}"
        )
        lines = [
            f"stress: protocol={self.protocol} {deployment} "
            f"arrivals={self.spec.transactions} "
            f"overload={self.spec.overload:g} "
            f"burst={self.spec.burst_factor:g}x wall={self.wall_s:.2f}s",
            f"  begun={self.begun} committed={self.completed} "
            f"({self.throughput_tps:,.0f} txn/s) "
            f"client_aborts={self.client_aborts} "
            f"forced_aborts={self.forced_aborts} "
            f"deadline_misses={self.deadline_misses} "
            f"admission_rejects={self.admission_rejects} "
            f"denials={self.stats_doc.get('denials', 0)}",
            f"  {self.render_verdict()}",
            f"  conservation: "
            + ("OK" if self.conservation_ok
               else f"FAIL — {self.conservation_detail}"),
            f"  abort bounds: "
            + ("OK" if self.bounds_ok else f"FAIL — {self.bounds_detail}"),
        ]
        return "\n".join(lines)


async def run_stress(
    spec: StressSpec,
    protocol: str = "pcp-da",
    *,
    shards: int = 1,
    partitioner: str = "hash",
    max_sessions: Optional[int] = 512,
    shard_procs: int = 0,
) -> StressReport:
    """Drive one stress workload through a live deployment and check it.

    Builds the deployment, runs the arrival schedule as
    :func:`~repro.service.loadgen.run_loadgen`'s open loop over the
    in-process client (socket-free; falling behind the wall clock is
    expected under overload), then audits conservation and abort
    attribution on top of the driver's serializability verdict.  The
    returned report carries verdicts, not assertions; callers gate on
    :attr:`StressReport.ok`.

    ``shard_procs=N`` (N > 1) replaces the in-process deployment with N
    ``repro shard-host`` child processes behind the same coordinator —
    real sockets, real process boundaries; ``shards`` is ignored.
    """
    from repro.service import LoadgenConfig, in_process_client, run_loadgen
    from repro.service.core import ServiceConfig
    from repro.service.sharding import deploy

    supervisor, manager = await deploy(
        make_catalog(spec), protocol, ServiceConfig(max_sessions=max_sessions),
        shards=shards, shard_procs=shard_procs, partitioner=partitioner,
    )

    async def connect() -> Any:
        return in_process_client(manager)

    try:
        load = await run_loadgen(
            LoadgenConfig(clients=1, seed=spec.seed), connect,
            iter_arrivals(spec),
        )
        report = StressReport(
            spec=spec, load=load,
            shards=shard_procs if shard_procs > 1 else shards,
            procs=shard_procs,
        )
        _audit_conservation(report, len(manager.live_sessions()))
        _audit_bounds(report)
    finally:
        await manager.shutdown()
        if supervisor is not None:
            await supervisor.stop()
    return report


def _audit_conservation(report: StressReport, live: int) -> None:
    """Exact begun = committed + aborted accounting, driver vs service,
    and one history install per item a committed transaction wrote.

    ``live`` is the deployment's live-session count after the run.
    """
    doc = report.stats_doc
    problems: List[str] = []
    if report.transport_errors:
        problems.append(
            f"transport_errors={report.transport_errors} in an in-process "
            "run"
        )
    driver_total = (
        report.completed + report.client_aborts + report.forced_aborts
        + report.deadline_misses + report.transport_errors
    )
    if report.begun != driver_total:
        problems.append(
            f"driver: begun={report.begun} != resolved={driver_total}"
        )
    service_total = (
        doc["commits"] + doc["client_aborts"] + doc["forced_aborts"]
    )
    if doc["sessions_started"] != service_total:
        problems.append(
            f"service: sessions_started={doc['sessions_started']} != "
            f"commits+aborts={service_total}"
        )
    if doc["sessions_started"] != report.begun:
        problems.append(
            f"driver begun={report.begun} != "
            f"service sessions_started={doc['sessions_started']}"
        )
    if doc["commits"] != report.completed:
        problems.append(
            f"driver committed={report.completed} != "
            f"service commits={doc['commits']}"
        )
    if report.installs != report.written_items:
        problems.append(
            f"history installs={report.installs} != items written by "
            f"committed transactions={report.written_items}"
        )
    if live:
        problems.append(f"{live} session(s) still live after the run")
    if problems:
        report.conservation_ok = False
        report.conservation_detail = "; ".join(problems)


def _audit_bounds(report: StressReport) -> None:
    """Every forced abort must be attributable to a documented cause.

    Under a served protocol the live service aborts only as a deadlock
    victim of a gate/guard cycle (one victim per resolved cycle, counted
    in ``deadlocks`` / ``cross_shard_deadlocks``) or as a sharded cascade
    of such a victim's other legs (``cascade_aborts``).
    A forced abort beyond that budget means the service invented an abort
    the protocol's documentation does not allow.
    """
    doc = report.stats_doc
    budget = doc.get("deadlocks", 0)
    coordinator = doc.get("coordinator") or {}
    budget += coordinator.get("cross_shard_deadlocks", 0)
    budget += coordinator.get("cascade_aborts", 0)
    if report.forced_aborts > budget:
        report.bounds_ok = False
        report.bounds_detail = (
            f"forced_aborts={report.forced_aborts} exceeds the "
            f"deadlock/cascade budget {budget}"
        )


def simulator_stress_check(
    spec: StressSpec,
    protocol: str = "pcp-da",
    *,
    limit: Optional[int] = 500,
) -> "Any":
    """Replay a schedule prefix in the simulator and run the oracles.

    The virtual-time execution is where the paper's scheduler-dependent
    guarantees hold exactly, so this leg asserts the strongest battery:
    both kernel modes must produce byte-identical traces, the history
    must be serializable (Theorem 3), deadlock-free protocols must not
    deadlock (Theorem 2), and PCP-DA runs additionally get the
    single-blocking and no-restart oracles (Theorem 1).  Returns the
    kernel-mode :class:`~repro.engine.simulator.SimulationResult`.

    Raises:
        InvariantViolation: a kernel/object divergence or a failed
            Theorem 1/2 oracle.
        SerializationViolation: a failed Theorem 3 oracle.
    """
    from repro.engine.simulator import SimConfig, Simulator
    from repro.exceptions import InvariantViolation
    from repro.protocols import make_protocol
    from repro.trace.export import result_to_json
    from repro.verify.invariants import (
        assert_deadlock_free,
        assert_serializable,
        verify_pcp_da_run,
    )

    taskset = build_taskset(spec, limit=limit)
    results = {}
    payloads = {}
    for kernel in (True, False):
        config = SimConfig(kernel=kernel)
        result = Simulator(
            taskset, make_protocol(protocol), config
        ).run()
        results[kernel] = result
        payloads[kernel] = result_to_json(result)
    if payloads[True] != payloads[False]:
        raise InvariantViolation(
            f"kernel/object trace divergence under {protocol} on the "
            f"stress schedule (seed={spec.seed})"
        )
    result = results[True]
    if protocol in ("pcp-da", "pcp-da-checked"):
        verify_pcp_da_run(result)
    else:
        assert_serializable(result)
        if protocol in DEADLOCK_FREE_CEILING:
            assert_deadlock_free(result)
    return result


__all__ = [
    "Arrival",
    "CEILING_FAMILY",
    "DEADLOCK_FREE_CEILING",
    "StressReport",
    "StressSpec",
    "build_taskset",
    "iter_arrivals",
    "make_catalog",
    "run_stress",
    "simulator_stress_check",
    "zipf_weights",
]
