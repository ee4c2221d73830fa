"""Theorem 1 on the live service, per request.

The paper bounds each job's blocking by one lower-priority transaction
over its whole execution.  Its proof assumes one CPU, where a
lower-priority job cannot run while a higher-priority one is ready;
concurrent clients remove that premise, and per job the bound does not
hold on the service (ROADMAP item 2).  Per request it does: every block
interval — one wait of one request, whose blame the grant queue
rewrites in place as the denial moves — names at most one
lower-priority transaction.  That is the form of Theorem 1 the service
keeps (docs/SERVICE.md, "Theorem 1 on the service").

Finished jobs reach the test through the ``finish`` / ``abort`` churn
listener: the core itself keeps none (docs/SERVICE.md, "What a finished
transaction leaves behind").
"""

import asyncio

import pytest

from repro.service import LockManager
from repro.service.client import in_process_client
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.verify.stress import StressSpec, make_catalog

#: The benchmark suite's ``hot`` catalog (benchmarks/suite/README.md).
HOT = StressSpec(seed=1, txn_types=8, items=24, min_ops=2, max_ops=5,
                 write_probability=0.3, zipf_s=1.1)

TRANSACTIONS = 1600


def finished_jobs(protocol, clients):
    """Run ``TRANSACTIONS`` closed-loop transactions over ``clients``
    in-process clients; return the catalog and every finished job."""
    catalog = make_catalog(HOT)
    manager = LockManager(catalog, protocol)
    jobs = []
    manager.churn_listeners.append(
        lambda kind, job, other: kind in ("finish", "abort")
        and jobs.append(job)
    )

    async def body():
        async def connect():
            return in_process_client(manager)

        try:
            report = await run_loadgen(
                LoadgenConfig(clients=clients, seed=1,
                              transactions_per_client=TRANSACTIONS // clients),
                connect,
            )
        finally:
            await manager.shutdown()
        assert report.serializable, report.violation
        assert report.begun == TRANSACTIONS

    asyncio.run(body())
    return catalog, jobs


def lower(catalog, job, blockers):
    """The transactions among ``blockers`` (instance names) whose base
    priority is below ``job``'s."""
    return {
        name for name in (b.split("#", 1)[0] for b in blockers)
        if catalog[name].priority < job.base_priority
    }


@pytest.mark.parametrize("protocol", ["pcp-da", "rw-pcp"])
@pytest.mark.parametrize("clients", [8, 32], ids=["c8", "c32"])
def test_each_block_interval_names_one_lower_priority_transaction(
    protocol, clients, record_property
):
    catalog, jobs = finished_jobs(protocol, clients)
    assert len(jobs) == TRANSACTIONS
    intervals = [(job, i) for job in jobs for i in job.block_intervals]
    assert intervals, "the hot catalog must make requests wait"
    worst = max(len(lower(catalog, job, i.blockers)) for job, i in intervals)
    assert worst <= 1
    # Per job the bound does not hold on the service; report by how much.
    excess = sum(
        1 for job in jobs
        if len(set().union(
            *(lower(catalog, job, i.blockers) for i in job.block_intervals)
        )) > 1
    )
    record_property("jobs_over_one_lower_priority_blocker", excess)
    print(f"{protocol} c{clients}: {excess} of {len(jobs)} jobs blocked by "
          "more than one lower-priority transaction")
