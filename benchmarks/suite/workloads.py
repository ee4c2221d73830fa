"""The workload table: what each benchmark workload deploys and offers.

A workload is a deployment (which execution path serves the requests), a
catalog (which transaction types exist and how much they conflict), a
client count, and a repetition size.  ``BENCHMARK.json`` names the same
eight workloads; ``test_suite_smoke.py`` pins the two lists together.

Catalogs are part of a workload's *definition* and are generated from the
fixed ``CATALOG_SEED`` — ``--seed`` drives the client request streams
(and the cell order of ``sim-grid``).  A catalog drawn from ``--seed``
would be a different workload per seed: with 8 transaction types of 2–5
operations the mean program length alone moves ±11% between seeds, and
the simulator grid moves 17k–35k events/s between task-set seeds, so the
ten-seed spread would measure the generator, not the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.model.spec import TaskSet
from repro.verify.stress import StressSpec, make_catalog

CATALOG_SEED = 1
PROTOCOL = "pcp-da"
MAX_SESSIONS = 512
WARMUP_TRANSACTIONS = 200

#: Catalog shapes.  ``hot`` is the stress harness's default contention
#: regime (Zipf 1.1 over 24 items, ~17% of lock requests denied at 8
#: clients); ``wide`` is near conflict-free (uniform over 512 items).
CATALOGS: Dict[str, Dict[str, object]] = {
    "hot": dict(txn_types=8, items=24, min_ops=2, max_ops=5,
                write_probability=0.3, zipf_s=1.1),
    "wide": dict(txn_types=32, items=512, min_ops=3, max_ops=6,
                 write_probability=0.1, zipf_s=0.0),
}


def catalog_for(kind: str) -> TaskSet:
    """The fixed catalog of one shape (see the module docstring)."""
    return make_catalog(StressSpec(seed=CATALOG_SEED, **CATALOGS[kind]))


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    Attributes:
        name: the key used on the command line and in ``BENCHMARK.json``.
        deployment: ``sim`` | ``manager`` | ``sharded`` | ``tcp`` | ``procs``.
        catalog: key into :data:`CATALOGS` (``None`` for ``sim-grid``).
        clients: closed-loop client count (in the name, too).
        transactions: timed transactions per repetition (``R``); for
            ``sim-grid`` the number of grid passes per repetition.
        shards: shard count for the two sharded deployments.
        expected_s: expected wall time of one repetition including set-up,
            warm-up and checks; a repetition is killed at four times this.
        why: the one-line reason the workload exists.
    """

    name: str
    deployment: str
    catalog: Optional[str]
    clients: int
    transactions: int
    shards: int
    expected_s: float
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "sim-grid", "sim", None, 1, 2, 1, 3.0,
        "Simulator over the perf_report grid: all work in engine.* and "
        "protocols, none in service.*; guards the one-ceiling-engine "
        "collapse",
    ),
    Workload(
        "svc-wide-c8", "manager", "wide", 8, 3200, 1, 4.0,
        "LockManager, almost no lock waits: the per-op floor of wire "
        "dispatch + manager + kernel grant path",
    ),
    Workload(
        "svc-wide-c128", "manager", "wide", 128, 1536, 1, 8.0,
        "same layers and conflict rate as svc-wide-c8 with 16x the live "
        "sessions: isolates per-op cost that grows with live sessions",
    ),
    Workload(
        "svc-hot-c8", "manager", "hot", 8, 3200, 1, 4.0,
        "about 17% of requests denied: grant-queue re-decide, inheritance, "
        "constraint graph and commit gate, reads and writes side by side",
    ),
    Workload(
        "svc-hot-c32", "manager", "hot", 32, 1600, 1, 5.0,
        "overload regime: low priority queues while the top band stays "
        "fast, the paper's single-blocking claim as a number",
    ),
    Workload(
        "shard4-hot-c8", "sharded", "hot", 8, 2400, 4, 5.0,
        "4 in-process shards: coordinator routing, gate, guard and "
        "cross-shard deadlock pass with no sockets",
    ),
    Workload(
        "tcp-wide-c2", "tcp", "wide", 2, 2000, 1, 8.0,
        "LockServer in a child process, 2 connections x 1 in flight: "
        "round-trip bound, covers wire encode/decode, server batching and "
        "the client pump",
    ),
    Workload(
        "proc2-wide-c8", "procs", "wide", 8, 1200, 2, 10.0,
        "2 shard-host processes + coordinator: proxy, v2 frames, commit "
        "fence and supervisor, the path ROADMAP wants explained",
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
