"""The common closed-loop driver: one checked repetition of a service workload.

Every service workload goes through :class:`~repro.service.ServiceClient`
(``in_process_client`` or ``connect_tcp``), so ``wire.dispatch_request``
is on every path and every operation yields to the event loop — unlike
``repro stress``, which calls the manager directly and never interleaves.

A repetition is: build a fresh deployment, warm it up, run a fixed number
of transactions from ``clients`` closed-loop workers, then *check* the
run (serializability of the shipped history, conservation of every
transaction the driver started) and tear the deployment down.  Latencies
are kept as raw samples; nothing here uses ``LatencyHistogram``, whose
power-of-two buckets can only answer 1.024 or 2.048 ms.

A transaction whose attempt is aborted by the service (deadlock victim,
shard cascade, a wait-cycle error) is aborted if still live and retried,
as a real client would; its latency runs from the first ``begin`` to the
final commit.  It *fails* only if :data:`MAX_ATTEMPTS` attempts abort.
The retry backs off for a few milliseconds first: a cross-shard deadlock
victim that restarts at once re-enters the same cycle against the same
waiting partner, twenty times in a row.
"""

from __future__ import annotations

import asyncio
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.db.serializability import check_serializable_fast
from repro.exceptions import (
    DeadlineExceeded,
    SerializationViolation,
    ServiceError,
    TransactionAborted,
)
from repro.service import ServiceClient
from repro.service.loadgen import history_from_events

import workloads
from deploy import deployment
from tracer import CURRENT_TXN, Tracer, summarize
from workloads import Workload

#: Fewest commits per slice of the timed phase (see :func:`timing_rows`).
MIN_SLICE = 32
MAX_ATTEMPTS = 20
#: Mean back-off before retry number ``k`` is ``k`` times this.
BACKOFF_S = 0.002
PING_SAMPLES = 200
OPS = ("begin", "read", "write", "commit")


@dataclass
class Rep:
    """What one repetition measured.

    ``scalars`` are per-repetition values (the run reports their median
    over repetitions); ``samples`` are raw per-transaction, per-slice or
    per-cell measurements (the run pools them over repetitions before it
    takes a percentile or a quiet quartile);
    ``problems`` names every failed correctness check; ``fingerprint``,
    when set, must be identical in every repetition of a run.
    """

    scalars: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    traced: bool = False
    problems: List[str] = field(default_factory=list)
    fingerprint: Optional[Tuple[Any, ...]] = None


def children_cpu_seconds() -> float:
    """User + system CPU seconds of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set, this process plus its largest reaped child."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def _slice_steps(readings: Sequence[float], size: int) -> List[float]:
    """Clock advance over each full slice of ``size`` commits."""
    marks = readings[::size]
    return [later - earlier for earlier, later in zip(marks, marks[1:])]


def quiet(values: Sequence[float], better: str) -> Dict[str, Any]:
    """The quiet quartile of timing samples, as a metric row.

    The host's interference only ever slows a sample down, and it comes in
    bursts: over 60 s of a fixed spin loop the *median* of 10 ms slices
    moved 10.6-11.6 ms between 10-second windows while their *lower
    quartile* stayed within 10.2-10.6 ms.  So a time is reported as the
    first quartile of its samples and a rate as the third; the row keeps
    the median and the noisy quartile beside it.  (README, "the quiet
    quartile", has what this cannot see.)
    """
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    value = q3 if better == "higher" else q1
    return {"value": value, "q1": q1, "median": median, "q3": q3,
            "n": len(values)}


def pooled(reps: Sequence[Rep], key: str) -> List[float]:
    """One sample list of every repetition, concatenated."""
    return [sample for rep in reps for sample in rep.samples.get(key, ())]


def timing_rows(reps: Sequence[Rep]) -> Dict[str, Dict[str, Any]]:
    """The gated timing metrics of a service workload (see :func:`quiet`).

    The timed phase is cut into slices of consecutive commits (at least
    :data:`MIN_SLICE`, and two per client); ``txn_per_s`` is the upper
    quartile of the slices' rates, pooled over repetitions, and
    ``cpu_ms_per_txn`` the lower quartile of this process's CPU per
    transaction over the same slices, plus the children's (per
    repetition: their CPU is known only at reaping).
    """
    cpu = quiet(pooled(reps, "slice_cpu_s"), "lower")
    children = quiet(pooled(reps, "children_cpu_s"), "lower")
    for field in ("value", "q1", "median", "q3"):
        cpu[field] = (cpu[field] + children[field]) * 1e3
    return {
        "txn_per_s": quiet(pooled(reps, "slice_txn_per_s"), "higher"),
        "cpu_ms_per_txn": cpu,
        "setup_s": quiet(pooled(reps, "setup_s"), "lower"),
    }


class _Phase:
    """One closed-loop phase (warm-up or timed): counters and samples."""

    def __init__(self, budget: int, hi_floor: int):
        self.budget = budget
        self.hi_floor = hi_floor
        self.taken = 0
        self.begun = 0
        self.committed = 0
        self.aborted_attempts = 0
        self.failed = 0
        self.live = 0
        self.live_peak = 0
        #: Wall and CPU clock readings at every commit (for slicing).
        self.commit_at: List[float] = []
        self.cpu_at: List[float] = []
        self.commit: List[float] = []
        self.hi_commit: List[float] = []
        self.ops: Dict[str, List[float]] = {op: [] for op in OPS}

    async def worker(self, client: ServiceClient, stream: str,
                     catalog: Sequence[Dict[str, Any]]) -> None:
        """Run transactions until the shared budget is spent.

        Back-off draws come from their own generator, so the sequence of
        transaction types never depends on how many retries timing caused.
        """
        rng = random.Random(stream)
        backoff = random.Random(stream + ":backoff")
        while self.taken < self.budget:
            self.taken += 1
            await self._transaction(
                client, rng.choice(catalog), self.taken, backoff
            )

    async def _transaction(self, client: ServiceClient, spec: Dict[str, Any],
                           number: int, backoff: random.Random) -> None:
        clock = time.perf_counter
        ops = self.ops
        CURRENT_TXN.set(f"{spec['name']}/{number}")
        first = clock()
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                await asyncio.sleep(
                    backoff.uniform(0.5, 1.5) * BACKOFF_S * attempt
                )
            txn = None
            try:
                began = clock()
                txn = await client.begin(spec["name"])
                ops["begin"].append(clock() - began)
                self.begun += 1
                self.live += 1
                self.live_peak = max(self.live_peak, self.live)
                for op in spec["operations"]:
                    began = clock()
                    if op["kind"] == "read":
                        await txn.read(op["item"])
                    else:
                        await txn.write(
                            op["item"], f"{txn.name}@{op['item']}"
                        )
                    ops[op["kind"]].append(clock() - began)
                began = clock()
                await txn.commit()
                now = clock()
                ops["commit"].append(now - began)
                self.committed += 1
                self.commit_at.append(now)
                self.cpu_at.append(time.process_time())
                self.commit.append(now - first)
                if spec["priority"] >= self.hi_floor:
                    self.hi_commit.append(now - first)
                return
            except (TransactionAborted, DeadlineExceeded):
                self.aborted_attempts += 1  # the service tore it down
            except ServiceError:
                self.aborted_attempts += 1
                if txn is not None:
                    # Any other error (a wait cycle reported to the
                    # requester) leaves the session live, holding locks.
                    try:
                        await txn.abort("benchmark-retry")
                    except ServiceError:
                        pass  # raced with a service-side abort
            finally:
                if txn is not None:
                    self.live -= 1
        self.failed += 1


async def _run_phase(phase: _Phase, clients: Sequence[ServiceClient],
                     catalog: Sequence[Dict[str, Any]], stream: str) -> None:
    await asyncio.gather(*(
        phase.worker(client, f"{stream}:{index}", catalog)
        for index, client in enumerate(clients)
    ))


async def service_rep(
    workload: Workload, seed: int, rep: int, *,
    transactions: Optional[int] = None, tracer: Optional[Tracer] = None,
) -> Rep:
    """One repetition of a service workload, checked.

    ``transactions`` overrides the workload's repetition size (smoke
    runs).  With ``tracer`` the wrappers are already installed; the
    layer metrics are derived from its spans.
    """
    out = Rep(traced=tracer is not None)
    budget = transactions or workload.transactions
    warmup_budget = min(workloads.WARMUP_TRANSACTIONS, budget)
    children_before = children_cpu_seconds()
    async with deployment(workload) as deployed:
        clients = [await deployed.connect() for _ in range(workload.clients)]
        control = await deployed.connect()
        try:
            catalog = (await control.catalog())["transactions"]
            priorities = sorted(spec["priority"] for spec in catalog)
            # Top quarter of the catalog's priorities (distinct by design).
            hi_floor = priorities[len(priorities) - len(priorities) // 4]

            warmup = _Phase(warmup_budget, hi_floor)
            await _run_phase(warmup, clients, catalog,
                             f"{seed}:{rep}:warmup")
            timed = _Phase(budget, hi_floor)
            first_span = len(tracer.spans) if tracer else 0
            cpu_started = time.process_time()
            started = time.perf_counter()
            await _run_phase(timed, clients, catalog, f"{seed}:{rep}")
            wall = time.perf_counter() - started
            last_span = len(tracer.spans) if tracer else 0

            rtts: List[float] = []
            if deployed.ping is not None:
                for _ in range(PING_SAMPLES):
                    began = time.perf_counter()
                    await deployed.ping[1]()
                    rtts.append(time.perf_counter() - began)
            events = await control.history()
            stats = await control.stats()
        finally:
            for client in (*clients, control):
                await client.close()
    children_cpu = children_cpu_seconds() - children_before

    out.attempted = warmup.taken + timed.taken
    out.failed = warmup.failed + timed.failed
    committed = max(timed.committed, 1)
    out.scalars.update(deployed.extras)
    out.scalars.update({
        "driver.wall_s": wall,
        "driver.txn_per_s_mean": timed.committed / wall,
        "driver.retry_share": timed.aborted_attempts / max(timed.begun, 1),
        "driver.live_sessions_peak": float(timed.live_peak),
    })
    # A closed loop of c clients completes in waves of up to c commits;
    # a slice shorter than two waves measures the wave, not the rate.
    size = min(max(MIN_SLICE, 2 * workload.clients), committed)
    out.samples.update({
        "setup_s": [deployed.setup_s],
        "slice_txn_per_s": [
            size / step
            for step in _slice_steps([started, *timed.commit_at], size)
        ],
        "slice_cpu_s": [
            step / size
            for step in _slice_steps([cpu_started, *timed.cpu_at], size)
        ],
        # Children are charged their whole life (start-up, warm-up and
        # history fetch too): their CPU is known only once they are reaped.
        "children_cpu_s": [children_cpu / committed],
        "commit": timed.commit, "hi_commit": timed.hi_commit,
        **{f"op_{op}": samples for op, samples in timed.ops.items()},
    })
    if deployed.ping is not None:
        out.samples[f"{deployed.ping[0]}.ping_rtt"] = rtts
        out.scalars["host.cpu_ms_per_txn"] = children_cpu * 1e3 / committed
    commits = warmup.committed + timed.committed
    _stats_scalars(out, stats, commits)
    _check(out, events, stats, commits, warmup.begun + timed.begun)
    if tracer is not None:
        out.scalars.update(layer_scalars(
            tracer.spans[first_span:last_span], wall, committed
        ))
    return out


def _stats_scalars(out: Rep, stats: Dict[str, Any], commits: int) -> None:
    """Layer metrics the service counts itself (``stats_document()``)."""
    commits = max(commits, 1)
    decisions = stats["grants"] + stats["denials"]
    out.scalars.update({
        "manager.denied_share": stats["denials"] / max(decisions, 1),
        "manager.lock_wait_ms_per_txn":
            stats["lock_wait"]["sum_s"] * 1e3 / commits,
        "manager.deadlocks": float(stats["deadlocks"]),
    })
    coordinator = stats.get("coordinator")
    if coordinator:
        victims = (
            coordinator["cross_shard_deadlocks"]
            + coordinator["cascade_aborts"]
        )
        out.scalars.update({
            "coordinator.cross_shard_ratio": coordinator["cross_shard_ratio"],
            "coordinator.gate_wait_ms_per_txn":
                coordinator["gate_wait"]["sum_s"] * 1e3 / commits,
            "coordinator.guard_wait_ms_per_txn":
                coordinator["guard_wait"]["sum_s"] * 1e3 / commits,
            "coordinator.deadlock_victims_per_ktxn": victims * 1e3 / commits,
        })


def _check(out: Rep, events: List[Dict[str, Any]], stats: Dict[str, Any],
           commits: int, begun: int) -> None:
    """Serializability of the shipped history, and conservation.

    ``commits`` and ``begun`` are the driver's own counts over warm-up
    and timed phase together, to hold against the service's.
    """
    started = time.perf_counter()
    history = history_from_events(events)
    rebuilt = time.perf_counter()
    try:
        check_serializable_fast(history)
    except SerializationViolation as exc:
        out.problems.append(f"serializability: {exc}")
    checked = time.perf_counter()
    out.scalars["db.history_rebuild.us_per_event"] = (
        (rebuilt - started) * 1e6 / max(len(events), 1)
    )
    out.scalars["db.check_fast.ms_per_ktxn"] = (
        (checked - rebuilt) * 1e6 / max(commits, 1)
    )
    if out.attempted != commits + out.failed:
        out.problems.append(
            f"conservation: attempted={out.attempted} != committed="
            f"{commits} + failed={out.failed}"
        )
    if stats["commits"] != commits:
        out.problems.append(
            f"conservation: service commits={stats['commits']} != "
            f"driver commits={commits}"
        )
    resolved = (
        stats["commits"] + stats["client_aborts"] + stats["forced_aborts"]
    )
    if not stats["sessions_started"] == begun == resolved:
        out.problems.append(
            f"conservation: sessions_started={stats['sessions_started']}, "
            f"driver begun={begun}, service commits+aborts={resolved}"
        )
    if stats["live_sessions"]:
        out.problems.append(
            f"conservation: {stats['live_sessions']} session(s) still live"
        )


#: Spans that are a layer of their own; any other span belongs to the
#: layer named by its first dotted component (``manager.read`` -> manager).
_OWN_LAYER = ("wire.dispatch_request", "client.request", "wire.encode",
              "wire.decode")


def layer_scalars(spans: List[List[Any]], wall: float,
                  transactions: int) -> Dict[str, float]:
    """Per-layer metrics of one traced interval, from its spans."""
    rows = summarize(spans)
    scalars: Dict[str, float] = {}
    layer_self: Dict[str, float] = {}
    for name, row in rows.items():
        scalars[f"{name}.us_per_call"] = row["busy_s"] * 1e6 / row["calls"]
        scalars[f"{name}.calls_per_txn"] = row["calls"] / transactions
        layer = name if name in _OWN_LAYER else name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    for layer, self_s in layer_self.items():
        scalars[f"{layer}.self_us_per_txn"] = self_s * 1e6 / transactions
    batch = rows.get("kernel.decide_batch")
    if batch:
        scalars["kernel.decide_batch.requests_per_call"] = (
            batch["n"] / batch["calls"]
        )
    moved = [rows[name]["n"] for name in ("wire.encode", "wire.decode")
             if name in rows]
    if moved:
        scalars["wire.bytes_per_txn"] = sum(moved) / transactions
    scalars["driver.unattributed_share"] = (
        1.0 - sum(layer_self.values()) / wall
    )
    return scalars
