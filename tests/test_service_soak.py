"""TCP + loadgen soak battery (``service_soak`` marker, not tier-1).

The acceptance scenario from the service design: a real ``LockServer``
on a loopback socket, 32 concurrent loadgen clients each on their own
TCP connection, PCP-DA deciding every lock — and the run must finish
deadlock-free with its client-side serializability verdict ``OK``.

Run with ``make verify-service SOAK=1`` (or
``pytest -m service_soak --override-ini 'addopts=-q'``).
"""

import asyncio

import pytest

from repro.service import LockManager, ServiceConfig
from repro.service.client import connect_tcp
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.server import LockServer
from repro.verify.stress import StressSpec, iter_arrivals, make_catalog
from repro.workloads.generator import WorkloadConfig, generate_taskset

pytestmark = pytest.mark.service_soak


def serve_and_load(protocol, catalog, loadcfg, *, service=None,
                   arrivals=None):
    """Start a TCP server, run the loadgen against it, return the report."""

    async def body():
        manager = LockManager(catalog, protocol, service or ServiceConfig())
        server = LockServer(manager, port=0)
        await server.start()
        try:
            async def connect():
                return await connect_tcp("127.0.0.1", server.port)

            return await run_loadgen(loadcfg, connect, arrivals)
        finally:
            await server.close()

    return asyncio.run(body())


class TestAcceptanceSoak:
    def test_pcp_da_32_clients_serializable(self):
        report = serve_and_load(
            "pcp-da",
            generate_taskset(WorkloadConfig(
                n_transactions=6, n_items=8, write_probability=0.5, seed=11
            )),
            LoadgenConfig(clients=32, transactions_per_client=8, seed=5),
        )
        assert report.serializable, report.violation
        assert report.completed == 32 * 8
        assert report.stats is not None
        assert report.stats.deadlocks == 0
        assert report.transport_errors == 0
        # The report renders the full observability surface.
        text = report.render()
        assert "serializability: OK" in text
        assert "blocking by priority band" in text

    def test_open_loop_overload_probe(self):
        # 24 connections share a steady 1,200 arrivals/s schedule over a
        # 4-item, write-heavy catalog
        spec = StressSpec(
            seed=3, transactions=24 * 10, items=4, max_ops=4,
            write_probability=0.7, arrival_rate_hz=1200.0, burst_factor=1.0,
        )
        report = serve_and_load(
            "pcp-da", make_catalog(spec),
            LoadgenConfig(clients=24, seed=7), arrivals=iter_arrivals(spec),
        )
        assert report.serializable, report.violation
        assert report.completed == 24 * 10

    def test_chaos_with_deadlines_stays_serializable(self):
        report = serve_and_load(
            "pcp-da",
            generate_taskset(WorkloadConfig(
                n_transactions=6, n_items=6, write_probability=0.6, seed=29
            )),
            LoadgenConfig(
                clients=16, transactions_per_client=8, seed=13,
                abort_probability=0.15, deadline_s=5.0,
            ),
        )
        assert report.serializable, report.violation
        assert report.client_aborts > 0

    @pytest.mark.parametrize("protocol", ["rw-pcp", "pcp"])
    def test_other_served_protocols_serializable_over_tcp(self, protocol):
        report = serve_and_load(
            protocol,
            generate_taskset(WorkloadConfig(
                n_transactions=5, n_items=6, write_probability=0.5, seed=11
            )),
            LoadgenConfig(clients=12, transactions_per_client=6, seed=9),
        )
        assert report.serializable, report.violation
