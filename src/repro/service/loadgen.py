"""Open/closed-loop load generation against a lock-manager service.

The generator plays the role the periodic task releases play in the
simulator: it drives many concurrent transaction instances through the
service and then *proves* the run correct by replaying the service's
observable history through the same serializability oracle the simulator
uses (:func:`repro.db.serializability.check_serializable`).

Two loop disciplines:

* **closed loop** (default): each of ``clients`` workers runs one
  transaction at a time — begin, execute the catalog program, commit —
  then optionally thinks for ``think_time_s`` before the next.  Offered
  load tracks service speed; contention scales with ``clients``.
* **open loop** (``arrival_rate_hz``): each worker fires transaction
  *starts* at exponentially distributed intervals regardless of
  completions, so in-flight transactions pile up when the service lags —
  the classic overload probe.  ``burst_factor``/``burst_period_s``/
  ``burst_duty`` overlay a square-wave arrival burst on the open loop
  (rate × factor for the first ``duty`` fraction of every period), the
  same burst model the stress harness (:mod:`repro.verify.stress`) uses
  for its overload traces.

Workers are deterministic per seed: worker ``i`` draws from
``random.Random(seed * 10007 + i)``, so a report is reproducible against
the same catalog and protocol (timings vary, decisions replayed by the
oracle do not need to match across runs).
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence

from repro.db.history import History
from repro.db.serializability import check_serializable, check_serializable_fast
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    SerializationViolation,
    ServiceError,
    SpecificationError,
    TransactionAborted,
)
from repro.service.client import ServiceClient
from repro.service.stats import (
    LatencyHistogram,
    ServiceStats,
    ShardingStats,
    _fmt_s,
)

#: Async factory producing one connected client per worker.
ClientFactory = Callable[[], Awaitable[ServiceClient]]

#: History size above which the oracle switches to the sparse
#: serialization graph (same verdict, near-linear) and skips the
#: O(n² log n) topological order — overload traces reach millions of
#: events, where the dense replay would dominate the run's wall time.
FAST_CHECK_THRESHOLD = 20_000


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run.

    Attributes:
        clients: number of concurrent workers (separate clients).
        transactions_per_client: closed-loop transaction budget per worker
            (also caps the open loop).
        duration_s: optional wall-clock cap; whichever of budget/duration
            hits first ends the worker.
        think_time_s: closed-loop pause between a worker's transactions.
        arrival_rate_hz: when set, switches to the open loop — each worker
            starts transactions at this mean rate (exponential gaps).
        burst_factor: open-loop arrival-rate multiplier during the burst
            phase (1.0, the default, disables bursts).
        burst_period_s: length of one burst cycle.
        burst_duty: fraction of each cycle spent at the bursty rate.
        deadline_s: per-session relative deadline passed to ``begin``.
        mix: transaction-name → weight for the draw; default uniform over
            the catalog.
        seed: base RNG seed (worker ``i`` uses ``seed * 10007 + i``).
        abort_probability: chance a worker deliberately aborts instead of
            committing (exercises the abort path under load).
    """

    clients: int = 8
    transactions_per_client: int = 25
    duration_s: Optional[float] = None
    think_time_s: float = 0.0
    arrival_rate_hz: Optional[float] = None
    burst_factor: float = 1.0
    burst_period_s: float = 0.5
    burst_duty: float = 0.25
    deadline_s: Optional[float] = None
    mix: Optional[Dict[str, float]] = None
    seed: int = 0
    abort_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise SpecificationError("clients must be >= 1")
        if self.transactions_per_client < 1:
            raise SpecificationError("transactions_per_client must be >= 1")
        if self.arrival_rate_hz is not None and self.arrival_rate_hz <= 0:
            raise SpecificationError("arrival_rate_hz must be positive")
        if self.burst_factor < 1.0:
            raise SpecificationError("burst_factor must be >= 1")
        if self.burst_period_s <= 0:
            raise SpecificationError("burst_period_s must be positive")
        if not 0.0 < self.burst_duty <= 1.0:
            raise SpecificationError("burst_duty must be in (0, 1]")
        if not 0.0 <= self.abort_probability <= 1.0:
            raise SpecificationError("abort_probability must be in [0, 1]")


@dataclass
class LoadReport:
    """Everything a load-generation run learned.

    ``serializable`` is the run's verdict from replaying the service
    history through ``check_serializable``; ``violation`` carries the
    cycle message when it fails (and the CLI exits non-zero).
    """

    config: LoadgenConfig
    protocol: str
    wall_s: float
    completed: int = 0
    client_aborts: int = 0
    forced_aborts: int = 0
    deadline_misses: int = 0
    admission_rejects: int = 0
    transport_errors: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    blocking_s: float = 0.0
    serializable: bool = True
    violation: str = ""
    serialization_order: tuple = ()
    order_omitted: bool = False
    stats: Optional[ServiceStats] = None
    stats_doc: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_tps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def render(self) -> str:
        """The ``repro loadgen`` text report."""
        lines = [
            f"loadgen: protocol={self.protocol} clients={self.config.clients} "
            f"loop={'open' if self.config.arrival_rate_hz else 'closed'} "
            f"wall={self.wall_s:.2f}s",
            f"  committed={self.completed} ({self.throughput_tps:.1f} txn/s) "
            f"client_aborts={self.client_aborts} "
            f"forced_aborts={self.forced_aborts} "
            f"deadline_misses={self.deadline_misses} "
            f"admission_rejects={self.admission_rejects} "
            f"transport_errors={self.transport_errors}",
            f"  total lock blocking (client-observed commits): "
            f"{self.blocking_s:.4f}s",
            "",
            self.latency.render("end-to-end commit latency (client-observed)"),
        ]
        if self.stats is not None:
            lines += ["", self.stats.render()]
        lines.extend(self._render_shards())
        lines.append("")
        if self.serializable and self.order_omitted:
            lines.append(
                "serializability: OK (sparse check; equivalent serial "
                "order omitted at this history size)"
            )
        elif self.serializable:
            order = " < ".join(self.serialization_order[:12])
            suffix = " ..." if len(self.serialization_order) > 12 else ""
            lines.append(
                f"serializability: OK "
                f"({len(self.serialization_order)} committed transactions"
                f"{'; order: ' + order + suffix if order else ''})"
            )
        else:
            lines.append(f"serializability: VIOLATION — {self.violation}")
        return "\n".join(lines)

    def _render_shards(self) -> List[str]:
        """Per-shard commit/grant table + the silent-misrouting detector.

        Present only when the stats document came from a sharded
        deployment.  A shard that granted zero lock requests over a run
        that committed work is suspicious — either the partitioner
        assigned it no items (intentional but worth seeing) or requests
        are being misrouted — so the report calls it out explicitly.
        """
        shards = self.stats_doc.get("shards") or []
        if not shards:
            return []
        lines = ["", "per-shard breakdown:"]
        if self.stats_doc.get("deployment") == "multiprocess":
            procs = self.stats_doc.get("shard_procs", len(shards))
            lines[-1] = (
                f"per-shard breakdown ({procs} shard host processes, "
                "one per shard):"
            )
        # Shard lock-wait is listed per shard, while coordinator
        # gate/guard park time lives in the coordinator paragraph below
        # (ShardingStats.gate_wait / guard_wait) — the two are no longer
        # folded into one histogram, so regressions stay attributable.
        lines.append(
            f"  {'shard':>5} {'items':>6} {'sessions':>9} {'grants':>7} "
            f"{'denies':>7} {'commits':>8} {'commit p95':>11} "
            f"{'lock-wait p95':>14}"
        )
        for entry in shards:
            hist = LatencyHistogram.from_dict(entry["commit_latency"])
            wait_doc = entry.get("lock_wait")
            waits = (LatencyHistogram.from_dict(wait_doc) if wait_doc
                     else LatencyHistogram())
            lines.append(
                f"  {entry['shard']:>5} {entry['items']:>6} "
                f"{entry['sessions']:>9} {entry['grants']:>7} "
                f"{entry['denials']:>7} {entry['commits']:>8} "
                f"{_fmt_s(hist.percentile(95)):>11} "
                f"{_fmt_s(waits.percentile(95)):>14}"
            )
        idle = [str(entry["shard"]) for entry in shards
                if not entry.get("grants")]
        if idle and self.completed:
            lines.append(
                f"  WARNING: shard(s) {', '.join(idle)} granted zero lock "
                "requests — possible silent misrouting (or an empty "
                "partition; check the topology)"
            )
        coordinator = self.stats_doc.get("coordinator")
        if coordinator:
            lines += ["", ShardingStats.from_dict(coordinator).render()]
        return lines


def history_from_events(events: Sequence[Dict[str, Any]]) -> History:
    """Rebuild a :class:`History` from ``history`` wire rows.

    The rows arrive in global history order, so replaying ``record_*``
    calls reproduces the exact event sequence the service recorded —
    which is what makes the client-side serializability verdict honest:
    the oracle runs on shipped data, not on server-side say-so.
    """
    history = History()
    for row in events:
        kind = row["kind"]
        if kind == "read":
            history.record_read(
                row["job"], row["item"], row["version_seq"], row["time"]
            )
        elif kind == "install":
            history.record_install(
                row["job"], row["item"], row["version_seq"], row["time"]
            )
        elif kind == "commit":
            history.record_commit(row["job"], row["time"])
        elif kind == "abort":
            history.record_abort(row["job"], row["time"])
        else:
            raise ValueError(f"unknown history event kind {kind!r}")
    return history


class _Worker:
    """One load-generation worker: a client plus its RNG and counters."""

    def __init__(self, index: int, client: ServiceClient,
                 config: LoadgenConfig, catalog: List[Dict[str, Any]],
                 report: "LoadReport", stop_at: Optional[float]):
        self.index = index
        self.client = client
        self.config = config
        self.catalog = catalog
        self.report = report
        self.stop_at = stop_at
        self.rng = random.Random(config.seed * 10007 + index)
        names = [spec["name"] for spec in catalog]
        if config.mix:
            unknown = sorted(set(config.mix) - set(names))
            if unknown:
                raise SpecificationError(
                    f"mix references unknown transactions: {unknown}"
                )
            self.names = [n for n in names if config.mix.get(n, 0) > 0]
            self.weights = [config.mix[n] for n in self.names]
        else:
            self.names = names
            self.weights = [1.0] * len(names)
        # Compute ops are skipped: contention comes from data access
        # order alone.
        self.programs = {
            spec["name"]: [
                op for op in spec["operations"] if op["kind"] != "compute"
            ]
            for spec in catalog
        }

    def _expired(self) -> bool:
        return self.stop_at is not None and time.monotonic() >= self.stop_at

    async def run(self) -> None:
        if self.config.arrival_rate_hz is not None:
            await self._open_loop()
        else:
            await self._closed_loop()

    async def _closed_loop(self) -> None:
        for _ in range(self.config.transactions_per_client):
            if self._expired():
                return
            await self._one_transaction()
            if self.config.think_time_s > 0:
                await asyncio.sleep(
                    self.rng.uniform(0, 2 * self.config.think_time_s)
                )

    def _current_rate(self, elapsed_s: float) -> float:
        """The open-loop arrival rate at ``elapsed_s`` into the run.

        A square wave: ``rate × burst_factor`` for the first
        ``burst_duty`` fraction of every ``burst_period_s`` cycle, the
        base rate otherwise.  With ``burst_factor == 1`` (the default)
        this is constant — the historical open-loop behaviour.
        """
        rate = self.config.arrival_rate_hz
        assert rate is not None
        if self.config.burst_factor <= 1.0:
            return rate
        phase = elapsed_s % self.config.burst_period_s
        if phase < self.config.burst_period_s * self.config.burst_duty:
            return rate * self.config.burst_factor
        return rate

    async def _open_loop(self) -> None:
        started = time.monotonic()
        inflight: set = set()
        for _ in range(self.config.transactions_per_client):
            if self._expired():
                break
            task = asyncio.ensure_future(self._one_transaction())
            inflight.add(task)
            task.add_done_callback(inflight.discard)
            rate = self._current_rate(time.monotonic() - started)
            await asyncio.sleep(self.rng.expovariate(rate))
        if inflight:
            await asyncio.gather(*inflight, return_exceptions=True)

    async def _one_transaction(self) -> None:
        name = self.rng.choices(self.names, weights=self.weights, k=1)[0]
        started = time.monotonic()
        try:
            txn = await self.client.begin(
                name, deadline_s=self.config.deadline_s
            )
        except AdmissionError:
            self.report.admission_rejects += 1
            await asyncio.sleep(self.rng.uniform(0.001, 0.01))  # back off
            return
        except ServiceError:
            self.report.transport_errors += 1
            return
        try:
            for op in self.programs[name]:
                if op["kind"] == "read":
                    await txn.read(op["item"])
                else:
                    await txn.write(op["item"], f"{txn.name}@{op['item']}")
            if self.rng.random() < self.config.abort_probability:
                await txn.abort("loadgen-chaos")
                self.report.client_aborts += 1
                return
            result = await txn.commit()
            self.report.completed += 1
            self.report.latency.record(time.monotonic() - started)
            self.report.blocking_s += float(result.get("blocking_s", 0.0))
        except DeadlineExceeded:
            self.report.deadline_misses += 1
        except TransactionAborted:
            self.report.forced_aborts += 1
        except ServiceError:
            self.report.transport_errors += 1


async def run_loadgen(
    config: LoadgenConfig, connect: ClientFactory
) -> LoadReport:
    """Drive a service with ``config.clients`` workers; return the report.

    ``connect`` is called once per worker (plus once for the control
    client that fetches the catalog up front and the stats/history at the
    end), so each worker owns its transport — over TCP that means real
    per-client connections, matching how independent clients would load a
    deployment.
    """
    control = await connect()
    try:
        catalog_doc = await control.catalog()
        protocol = catalog_doc["protocol"]
        catalog = catalog_doc["transactions"]
        if not catalog:
            raise SpecificationError("service catalog is empty")

        report = LoadReport(config=config, protocol=protocol, wall_s=0.0)
        started = time.monotonic()
        stop_at = (
            started + config.duration_s if config.duration_s is not None
            else None
        )
        clients = [await connect() for _ in range(config.clients)]
        workers = [
            _Worker(i, clients[i], config, catalog, report, stop_at)
            for i in range(config.clients)
        ]
        try:
            outcomes = await asyncio.gather(
                *(w.run() for w in workers), return_exceptions=True
            )
        finally:
            for client in clients:
                await client.close()
        report.wall_s = time.monotonic() - started
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

        # --- the oracle: replay the service history client-side --------
        events = await control.history()
        history = history_from_events(events)
        try:
            if len(events) > FAST_CHECK_THRESHOLD:
                check_serializable_fast(history)
                report.serializable = True
                # the equivalent serial order is omitted at this scale —
                # topological_order() is quadratic in committed jobs
                report.order_omitted = True
            else:
                graph = check_serializable(history)
                report.serializable = True
                report.serialization_order = tuple(
                    graph.topological_order() or ()
                )
        except SerializationViolation as exc:
            report.serializable = False
            report.violation = str(exc)

        report.stats_doc = await control.stats()
        report.stats = ServiceStats.from_dict(report.stats_doc)
        return report
    finally:
        await control.close()
