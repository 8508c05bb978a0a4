"""Server behaviour over the deterministic in-process transport.

The headline acceptance check lives here: HDD Protocol A and Protocol C
reads are served without ever acquiring the single-writer gate, and the
server's ``gate_free_reads`` counter reconciles *exactly* with the
scheduler's own per-protocol read events — while every baseline read
pays the gate.
"""

import asyncio

import pytest

from repro.cli import _build_workload
from repro.obs import MetricsRegistry
from repro.serve import (
    ClientPool,
    LoadGenerator,
    ServeClient,
    TransactionServer,
)
from repro.sweep.spec import SCHEDULER_FACTORIES


def _served_load(name, connections=4, transactions=80, seed=5):
    """Run one seeded open-loop load in-process; returns everything."""

    async def go():
        partition, workload = _build_workload(ro_share=0.6, skew=3.0)
        scheduler = SCHEDULER_FACTORIES[name](partition)
        registry = MetricsRegistry()
        scheduler.set_sink(registry)
        server = TransactionServer(scheduler)
        pool = ClientPool.connect_memory(server, connections)
        try:
            report = await LoadGenerator(
                pool, workload, transactions=transactions, seed=seed
            ).run()
        finally:
            await pool.close()
            await server.close()
        return server, scheduler, registry, report

    return asyncio.run(go())


class TestGateFreeReads:
    def test_hdd_counter_reconciles_with_protocol_events(self):
        """gate_free_reads == every Protocol A + Protocol C read the
        scheduler logged; gated_reads == every Protocol B read (the
        ones that register a timestamp).  Exact equality — a read
        dispatched down the wrong path breaks the ledger."""
        server, scheduler, registry, report = _served_load("hdd")
        assert report.commits == report.offered
        a_reads = registry.counters.get("read.protocol.A", 0)
        b_reads = registry.counters.get("read.protocol.B", 0)
        c_reads = registry.counters.get("read.protocol.C", 0)
        assert server.stats.gate_free_reads > 0
        assert server.stats.gate_free_reads == a_reads + c_reads
        assert server.stats.gated_reads == b_reads
        # The same ledger in scheduler terms: gate-free reads are
        # exactly the reads that never registered anywhere.
        assert (
            server.stats.gate_free_reads
            == scheduler.stats.unregistered_reads
        )
        assert server.stats.gated_reads == scheduler.stats.read_registrations

    @pytest.mark.parametrize("name", ["mv2pl", "to", "2pl"])
    def test_baselines_never_take_the_fast_path(self, name):
        """Lock- and timestamp-based baselines register every read, so
        every read pays the gate and the fast-path counter stays 0."""
        server, scheduler, registry, report = _served_load(name)
        assert report.commits == report.offered
        assert server.stats.gate_free_reads == 0
        assert server.stats.gated_reads > 0

    def test_every_run_stays_serializable(self):
        for name in ("hdd", "mv2pl"):
            server, _, _, _ = _served_load(name, transactions=60)
            assert server.audit()


class TestPipelining:
    def test_reads_pipeline_on_one_connection(self):
        """Three reads submitted without awaiting resolve independently
        and all grant — the pipelining primitive works end to end."""

        async def go():
            partition, _ = _build_workload(ro_share=0.6, skew=3.0)
            scheduler = SCHEDULER_FACTORIES["hdd"](partition)
            server = TransactionServer(scheduler)
            client = ServeClient.connect_memory(server)
            try:
                txn = await client.begin(profile="report", read_only=True)
                futures = [
                    client.read(txn, "events:g0"),
                    client.read(txn, "inventory:g2"),
                    client.read(txn, "orders:g1"),
                ]
                responses = await asyncio.gather(*futures)
                commit = await client.commit(txn)
                return server, responses, commit
            finally:
                await client.close()
                await server.close()

        server, responses, commit = asyncio.run(go())
        assert [r["status"] for r in responses] == ["granted"] * 3
        assert all("value" in r for r in responses)
        assert commit["status"] == "granted"
        assert server.stats.max_queue_depth >= 3

    def test_two_transactions_interleave_on_one_connection(self):
        async def go():
            partition, _ = _build_workload(ro_share=0.6, skew=3.0)
            scheduler = SCHEDULER_FACTORIES["hdd"](partition)
            server = TransactionServer(scheduler)
            client = ServeClient.connect_memory(server)
            try:
                first = await client.begin(profile="report", read_only=True)
                second = await client.begin(
                    profile="level_check", read_only=True
                )
                responses = await asyncio.gather(
                    client.read(first, "events:g0"),
                    client.read(second, "inventory:g2"),
                    client.read(first, "orders:g1"),
                )
                commits = await asyncio.gather(
                    client.commit(first), client.commit(second)
                )
                return responses, commits
            finally:
                await client.close()
                await server.close()

        responses, commits = asyncio.run(go())
        assert [r["status"] for r in responses] == ["granted"] * 3
        assert [c["status"] for c in commits] == ["granted"] * 2


class TestProtocolErrors:
    def test_bad_requests_answered_not_fatal(self):
        """Schema violations come back as structured errors and the
        connection keeps working afterwards."""

        async def go():
            partition, _ = _build_workload(ro_share=0.6, skew=3.0)
            scheduler = SCHEDULER_FACTORIES["hdd"](partition)
            server = TransactionServer(scheduler)
            client = ServeClient.connect_memory(server)
            try:
                unknown_op = await client.submit("freeze")
                unknown_txn = await client.submit(
                    "read", txn=999, granule="events:g0"
                )
                # The connection survived both errors:
                txn = await client.begin(profile="report", read_only=True)
                commit = await client.commit(txn)
                return server, unknown_op, unknown_txn, commit
            finally:
                await client.close()
                await server.close()

        server, unknown_op, unknown_txn, commit = asyncio.run(go())
        assert unknown_op["status"] == "error"
        assert "unknown op" in unknown_op["error"]
        assert unknown_txn["status"] == "error"
        assert commit["status"] == "granted"
        assert server.stats.protocol_errors == 2

    def test_rejected_read_is_gated_and_counters_reconcile(self):
        """A read the access rule rejects (outside the declared set) or
        cannot place (unknown segment) is not a Protocol A/C dispatch:
        it pays the gate, so ``gate_free_reads`` keeps reconciling with
        the scheduler's ``unregistered_reads`` after a violation."""

        async def go():
            partition, _ = _build_workload(ro_share=0.6, skew=3.0)
            scheduler = SCHEDULER_FACTORIES["hdd"](partition)
            server = TransactionServer(scheduler)
            client = ServeClient.connect_memory(server)
            try:
                txn = await client.begin(profile="level_check", read_only=True)
                undeclared = await client.read(txn, "orders:g0")
                unplaced = await client.read(txn, "nowhere:g0")
                legal = await client.read(txn, "events:g0")
                return server, scheduler, undeclared, unplaced, legal
            finally:
                await client.close()
                await server.close()

        server, scheduler, undeclared, unplaced, legal = asyncio.run(go())
        assert undeclared["status"] == "error"
        assert "ProtocolViolation" in undeclared["error"]
        assert unplaced["status"] == "error"
        assert legal["status"] == "granted"
        assert server.stats.gated_reads == 2
        assert server.stats.gate_free_reads == 1
        assert (
            server.stats.gate_free_reads == scheduler.stats.unregistered_reads
        )

    def test_stats_op_merges_server_and_scheduler_counters(self):
        async def go():
            partition, workload = _build_workload(ro_share=0.6, skew=3.0)
            scheduler = SCHEDULER_FACTORIES["hdd"](partition)
            server = TransactionServer(scheduler)
            pool = ClientPool.connect_memory(server, 2)
            try:
                await LoadGenerator(
                    pool, workload, transactions=30, seed=2
                ).run()
                stats = await pool.next().stats()
            finally:
                await pool.close()
                await server.close()
            return stats

        stats = asyncio.run(go())
        assert stats["scheduler"]
        assert stats["commits"] == 30
        assert stats["steps"] > 0
        assert stats["connections_opened"] == 2
        assert stats["requests"] > 0
        assert "gate_free_reads" in stats
        assert "blocked_client_steps" in stats
