"""The one load driver for a lock-manager service, with its live oracle.

The generator plays the role the periodic task releases play in the
simulator: it drives many concurrent transaction instances through the
service's client API and then *proves* the run correct by replaying the
service's observable history through the sparse Theorem 3 oracle
(:func:`repro.db.serializability.check_serializable_fast` — the same
verdict as the dense check, near-linear in history events, so overload
traces of millions of events verify in seconds).

Two loops share one transaction body (begin, the catalog program, then
commit or a chaos abort):

* **closed loop** (``arrivals=None``, the default): each of ``clients``
  workers runs one transaction at a time, then optionally thinks for
  ``think_time_s`` before the next.  Offered load tracks service speed;
  contention scales with ``clients``.  Workers are deterministic per
  seed: worker ``i`` draws from ``random.Random(seed * 10007 + i)``.
* **open loop** (``arrivals=`` a schedule of
  :class:`~repro.verify.stress.Arrival`): each arrival starts at
  ``at_s`` into the run on client ``seq % clients`` whether or not
  earlier ones finished, and aborts instead of committing when its
  ``chaos_abort`` flag is set, so in-flight transactions pile up when
  the service lags — the overload probe.
  :func:`repro.verify.stress.iter_arrivals` generates such schedules
  (exponential gaps, square-wave bursts, an overload factor).

``duration_s`` caps either loop.  Timings vary from run to run; the
oracle needs no cross-run agreement, only the run's own history.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Iterable, List, Optional

from repro.db.history import History
from repro.db.serializability import check_serializable_fast
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    SerializationViolation,
    ServiceError,
    SpecificationError,
    TransactionAborted,
)
from repro.service.client import ServiceClient
from repro.service.core import check_deadline
from repro.service.stats import (
    LatencyHistogram,
    ServiceStats,
    ShardingStats,
    _fmt_s,
)

#: Async factory producing one connected client per worker.
ClientFactory = Callable[[], Awaitable[ServiceClient]]


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one load-generation run.

    Attributes:
        clients: number of clients (one worker each in the closed loop;
            the open loop spreads arrivals over them round-robin).
        transactions_per_client: closed loop only — the per-worker
            transaction budget.
        duration_s: optional wall-clock cap on either loop; in the closed
            loop whichever of budget/duration hits first ends the worker,
            in the open loop it stops the dispatch of further arrivals.
        think_time_s: closed loop only — pause between a worker's
            transactions.
        deadline_s: per-session relative deadline passed to ``begin``.
        mix: closed loop only — transaction-name → weight for the draw;
            default uniform over the catalog.
        seed: base RNG seed (worker ``i`` uses ``seed * 10007 + i``).
        abort_probability: closed loop only — chance a worker
            deliberately aborts instead of committing (exercises the abort
            path under load; the open loop takes ``Arrival.chaos_abort``).
    """

    clients: int = 8
    transactions_per_client: int = 25
    duration_s: Optional[float] = None
    think_time_s: float = 0.0
    deadline_s: Optional[float] = None
    mix: Optional[Dict[str, float]] = None
    seed: int = 0
    abort_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise SpecificationError("clients must be >= 1")
        if self.transactions_per_client < 1:
            raise SpecificationError("transactions_per_client must be >= 1")
        if not 0.0 <= self.abort_probability <= 1.0:
            raise SpecificationError("abort_probability must be in [0, 1]")
        check_deadline(self.deadline_s)
        check_deadline(self.duration_s, "duration_s")
        if not self.think_time_s >= 0.0:
            raise SpecificationError("think_time_s must be >= 0")


@dataclass
class LoadReport:
    """Everything a load-generation run learned.

    ``serializable`` is the run's verdict from replaying the service
    history through ``check_serializable_fast``; ``violation`` carries the
    cycle message when it fails (and the CLI exits non-zero).  ``begun``,
    ``written_items`` (distinct items written by committed transactions),
    ``installs`` and ``history_events`` are what a conservation audit
    needs (:mod:`repro.verify.stress`).
    """

    config: LoadgenConfig
    protocol: str
    wall_s: float
    begun: int = 0
    completed: int = 0
    client_aborts: int = 0
    forced_aborts: int = 0
    deadline_misses: int = 0
    admission_rejects: int = 0
    transport_errors: int = 0
    written_items: int = 0
    installs: int = 0
    history_events: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    blocking_s: float = 0.0
    serializable: bool = True
    violation: str = ""
    stats: Optional[ServiceStats] = None
    stats_doc: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput_tps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def render(self) -> str:
        """The ``repro loadgen`` text report."""
        lines = [
            f"loadgen: protocol={self.protocol} clients={self.config.clients} "
            f"wall={self.wall_s:.2f}s",
            f"  begun={self.begun} "
            f"committed={self.completed} ({self.throughput_tps:.1f} txn/s) "
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
        lines.append(self.render_verdict())
        return "\n".join(lines)

    def render_verdict(self) -> str:
        """The one-line serializability verdict of the run."""
        if not self.serializable:
            return f"serializability: VIOLATION — {self.violation}"
        return (
            f"serializability: OK ({self.completed} committed transactions, "
            f"{self.history_events} history events)"
        )

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
            waits = LatencyHistogram.from_dict(entry["lock_wait"])
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


def history_from_events(events: Iterable[Dict[str, Any]]) -> History:
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


class _Driver:
    """One run's shared state: the catalog programs, the report, the cap."""

    def __init__(self, config: LoadgenConfig, catalog: List[Dict[str, Any]],
                 report: LoadReport):
        self.config = config
        self.report = report
        self.stop_at: Optional[float] = None
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
        self.writes = {
            name: len({op["item"] for op in ops if op["kind"] == "write"})
            for name, ops in self.programs.items()
        }

    def _expired(self) -> bool:
        return self.stop_at is not None and time.monotonic() >= self.stop_at

    async def transaction(self, client: ServiceClient, name: str,
                          abort: Callable[[], bool]) -> bool:
        """Run one instance of ``name``; False when admission shed it.

        ``abort`` is asked after the program whether to abort instead of
        committing — the closed loop draws it only then, keeping its
        per-worker RNG order.
        """
        report = self.report
        started = time.monotonic()
        try:
            txn = await client.begin(name, deadline_s=self.config.deadline_s)
        except AdmissionError:
            report.admission_rejects += 1
            return False
        except ServiceError:
            report.transport_errors += 1
            return True
        report.begun += 1
        try:
            for op in self.programs[name]:
                if op["kind"] == "read":
                    await txn.read(op["item"])
                else:
                    await txn.write(op["item"], f"{txn.name}@{op['item']}")
            if abort():
                await txn.abort("loadgen-chaos")
                report.client_aborts += 1
                return True
            result = await txn.commit()
            report.completed += 1
            report.written_items += self.writes[name]
            report.latency.record(time.monotonic() - started)
            report.blocking_s += float(result.get("blocking_s", 0.0))
        except DeadlineExceeded:
            report.deadline_misses += 1
        except TransactionAborted:
            report.forced_aborts += 1
        except ServiceError:
            report.transport_errors += 1
        return True

    async def closed_loop(self, index: int, client: ServiceClient) -> None:
        config = self.config
        rng = random.Random(config.seed * 10007 + index)

        def chaos() -> bool:
            return rng.random() < config.abort_probability

        for _ in range(config.transactions_per_client):
            if self._expired():
                return
            name = rng.choices(self.names, weights=self.weights, k=1)[0]
            if not await self.transaction(client, name, chaos):
                await asyncio.sleep(rng.uniform(0.001, 0.01))  # back off
            if config.think_time_s > 0:
                await asyncio.sleep(rng.uniform(0, 2 * config.think_time_s))

    async def open_loop(self, clients: List[ServiceClient],
                        arrivals: Iterable[Any], started: float) -> list:
        """Start every arrival at its schedule time; returns the errors.

        Falling behind is expected under overload: late arrivals then
        start as fast as the loop runs.  Only running transactions are
        held, so a schedule of millions streams in O(in-flight) memory.
        """
        inflight: set = set()
        errors: list = []

        def settle(task: asyncio.Future) -> None:
            inflight.discard(task)
            if not task.cancelled() and task.exception() is not None:
                errors.append(task.exception())

        for arrival in arrivals:
            delay = started + arrival.at_s - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._expired():
                break
            task = asyncio.ensure_future(self.transaction(
                clients[arrival.seq % len(clients)], arrival.name,
                lambda flag=arrival.chaos_abort: flag,
            ))
            inflight.add(task)
            task.add_done_callback(settle)
        await asyncio.gather(*inflight, return_exceptions=True)
        return errors


async def run_loadgen(
    config: LoadgenConfig,
    connect: ClientFactory,
    arrivals: Optional[Iterable[Any]] = None,
) -> LoadReport:
    """Drive a service with ``config.clients`` clients; return the report.

    ``connect`` is called once per client (plus once for the control
    client that fetches the catalog up front and the stats/history at the
    end), so each client owns its transport — over TCP that means real
    per-client connections, matching how independent clients would load a
    deployment.  ``arrivals`` selects the open loop (module docstring);
    ``None`` runs the closed loop.
    """
    control = await connect()
    try:
        catalog_doc = await control.catalog()
        catalog = catalog_doc["transactions"]
        if not catalog:
            raise SpecificationError("service catalog is empty")
        report = LoadReport(
            config=config, protocol=catalog_doc["protocol"], wall_s=0.0
        )
        driver = _Driver(config, catalog, report)
        clients = [await connect() for _ in range(config.clients)]
        started = time.monotonic()
        if config.duration_s is not None:
            driver.stop_at = started + config.duration_s
        try:
            if arrivals is None:
                outcomes = await asyncio.gather(
                    *(driver.closed_loop(i, client)
                      for i, client in enumerate(clients)),
                    return_exceptions=True,
                )
            else:
                outcomes = await driver.open_loop(clients, arrivals, started)
        finally:
            for client in clients:
                await client.close()
        report.wall_s = time.monotonic() - started
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

        # --- the oracle: replay the service history client-side --------
        events = await control.history()
        report.history_events = len(events)
        report.installs = sum(1 for row in events if row["kind"] == "install")
        try:
            check_serializable_fast(history_from_events(events))
        except SerializationViolation as exc:
            report.serializable = False
            report.violation = str(exc)

        report.stats_doc = await control.stats()
        report.stats = ServiceStats.from_dict(report.stats_doc)
        return report
    finally:
        await control.close()
