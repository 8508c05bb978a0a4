"""Causal tracing: free when off, invisible when on, exact always.

Three acceptance properties of the dist observability layer:

* **non-perturbation** — enabling tracing leaves the committed
  schedule and the canonical message log *byte-identical* to the
  untraced run (the causal metadata is computed unconditionally; only
  event emission is sink-gated);
* **soundness** — the emitted trace is a valid happens-before DAG
  (Lamport stamps increase per sender, every delivery pairs with a
  send, parent/retransmit edges resolve);
* **exactness** — for every committed transaction of a faulty-plan
  run, the critical-path bucket sums equal the measured commit latency
  tick for tick.
"""

import pytest

from repro.dist import Crash, DistributedRuntime, FaultPlan, node_name
from repro.errors import ProtocolViolation
from repro.obs import (
    CausalTrace,
    CriticalPathAnalyzer,
    MemorySink,
    MessageSentEvent,
    OpSpanEvent,
    is_dist_trace,
)
from repro.obs.metrics import abort_kind
from repro.sim.engine import Simulator
from repro.sim.hierarchies import chain_partition
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)

from test_faults import hostile_plan


def run_traced(plan_factory=hostile_plan, commits=60, traced=True):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    runtime = DistributedRuntime(
        partition, mode="hdd", plan=plan_factory(partition), seed=0
    )
    sink = MemorySink() if traced else None
    result = Simulator(
        runtime,
        workload,
        clients=8,
        seed=42,
        target_commits=commits,
        max_steps=200_000,
        audit=True,
        trace_sink=sink,
    ).run()
    return runtime, result, sink


@pytest.fixture(scope="module")
def hostile_traced():
    return run_traced()


def long_crash_plan(_partition):
    return FaultPlan(
        latency=2,
        jitter=1,
        drop_rate=0.02,
        crashes=(Crash(node_name("orders"), 100, 420),),
    )


class TestNonPerturbation:
    def test_tracing_is_byte_invisible(self, hostile_traced):
        traced_runtime, traced_result, _sink = hostile_traced
        bare_runtime, bare_result, _none = run_traced(traced=False)
        assert traced_result.commits == bare_result.commits
        assert (
            traced_runtime.network.log_lines()
            == bare_runtime.network.log_lines()
        )
        assert str(traced_runtime.schedule) == str(bare_runtime.schedule)


class TestCausalSoundness:
    def test_trace_validates(self, hostile_traced):
        _runtime, _result, sink = hostile_traced
        trace = CausalTrace(sink.events)
        assert trace.validate() == []
        assert trace.is_dist
        assert is_dist_trace(sink.events)

    def test_reliable_exchanges_pair_and_dedupe(self, hostile_traced):
        _runtime, _result, sink = hostile_traced
        trace = CausalTrace(sink.events)
        reliable = [
            e for e in trace.exchanges.values() if e.kind != "POLL"
        ]
        assert reliable
        retransmitted = 0
        for exchange in reliable:
            # Every reliable RPC was eventually answered ...
            response = exchange.first_response()
            assert response is not None, exchange.req
            # ... by a RESP whose parent edge names a real attempt.
            winner = exchange.winning_attempt()
            assert winner is not None
            assert winner.req == exchange.req
            for attempt in exchange.attempts[1:]:
                retransmitted += 1
                assert attempt.retransmit_of == exchange.origin.seq
        # A hostile wire forces at least some retransmissions.
        assert retransmitted > 0

    def test_regions_tile_the_network_ticks(self, hostile_traced):
        """Op spans partition the tick axis: a message send inside a
        region never falls outside its span's tick range."""
        _runtime, _result, sink = hostile_traced
        trace = CausalTrace(sink.events)
        checked = 0
        for region in trace.regions:
            for event in region.events:
                if isinstance(event, MessageSentEvent):
                    assert (
                        region.span.start_tick
                        <= event.ts
                        <= region.span.end_tick
                    )
                    checked += 1
        assert checked > 0

    def test_gossip_chains_carry_parent_edges(self, hostile_traced):
        _runtime, _result, sink = hostile_traced
        trace = CausalTrace(sink.events)
        children = trace.children()
        assert children  # deliveries cause sends
        # RESP messages always descend from a request delivery.
        responses = [
            v for v in trace.messages.values() if v.is_response
        ]
        assert responses
        assert all(r.parent_span is not None for r in responses)


class TestExactness:
    def test_every_commit_reconciles_exactly(self, hostile_traced):
        _runtime, result, sink = hostile_traced
        analyzer = CriticalPathAnalyzer(CausalTrace(sink.events))
        paths = analyzer.paths()
        assert len(paths) == result.commits
        assert analyzer.skipped == []
        assert analyzer.check() == []
        for path in paths.values():
            assert path.attributed == path.latency

    def test_faults_show_up_in_the_buckets(self, hostile_traced):
        _runtime, _result, sink = hostile_traced
        analyzer = CriticalPathAnalyzer(CausalTrace(sink.events))
        totals = analyzer.totals()
        assert totals["link_latency"] > 0
        assert totals["retransmit_backoff"] > 0  # drops cost real ticks
        assert sum(totals.values()) == sum(
            p.latency for p in analyzer.paths().values()
        )

    def test_render_smoke(self, hostile_traced):
        _runtime, _result, sink = hostile_traced
        analyzer = CriticalPathAnalyzer(CausalTrace(sink.events))
        text = analyzer.render()
        assert "where the ticks go" in text
        assert "exact" in text
        some_txn = next(iter(analyzer.paths()))
        assert f"txn {some_txn}" in analyzer.render_txn(some_txn)

    def test_wal_replay_attribution(self):
        """A Protocol A read issued while the target node is down waits
        through recovery — those ticks land in ``wal_replay``."""
        partition = chain_partition(2)
        plan = FaultPlan(
            latency=2, crashes=(Crash(node_name("L0"), 40, 160),)
        )
        runtime = DistributedRuntime(
            partition, mode="hdd", plan=plan, seed=0
        )
        sink = MemorySink()
        runtime.set_sink(sink)
        setup = runtime.begin(profile="update_L0")
        assert runtime.write(
            setup, partition.granule("L0", "g0"), 1
        ).granted
        assert runtime.commit(setup).granted
        reader = runtime.begin(profile="update_L1")
        assert runtime.write(
            reader, partition.granule("L1", "g0"), 2
        ).granted
        while runtime.network.tick_now < 42:
            runtime.poll_walls()
        assert runtime.network.is_down(node_name("L0"))
        assert runtime.read(
            reader, partition.granule("L0", "g0")
        ).granted
        assert runtime.commit(reader).granted
        trace = CausalTrace(sink.events)
        analyzer = CriticalPathAnalyzer(trace)
        assert analyzer.check() == []
        path = analyzer.paths()[reader.txn_id]
        # The read began at ~tick 42 and the node recovered at 160.
        assert path.buckets["wal_replay"] > 100
        assert path.attributed == path.latency


class TestDeadOnWire:
    def test_dead_on_wire_fast_abandon(self):
        """A transaction whose stateful node is down at its next
        operation aborts immediately (it is provably doomed) instead of
        stalling the coordinator until recovery."""
        runtime, result, sink = run_traced(
            plan_factory=long_crash_plan, commits=60
        )
        reasons = runtime.stats.aborts_by_reason
        dead = [r for r in reasons if r.startswith("dead on wire")]
        assert dead, f"no wire-fence aborts in {sorted(reasons)}"
        assert result.commits == 60
        # The buckets still reconcile exactly under the fast abandon.
        analyzer = CriticalPathAnalyzer(CausalTrace(sink.events))
        assert analyzer.check() == []

    def test_dead_on_wire_buckets_distinctly(self):
        assert abort_kind("dead on wire: node:orders is down "
                          "with in-flight state") == "dead on wire"
        assert abort_kind("node restart: node:orders lost "
                          "in-flight state") == "node restart"
        assert abort_kind("transaction killed by a node restart") == (
            "node restart"
        )


class TestSpans:
    def test_committed_txn_spans_start_with_begin(self, hostile_traced):
        _runtime, _result, sink = hostile_traced
        trace = CausalTrace(sink.events)
        for txn_id in trace.commits:
            regions = trace.regions_by_txn[txn_id]
            assert regions[0].span.op == "begin"
            last_commit = [
                r
                for r in regions
                if r.span.op == "commit" and r.span.status == "granted"
            ]
            assert last_commit

    def test_idle_polls_have_no_txn(self):
        """A top-level wall poll (what the simulator runs while all
        clients block) gets its own txn-less span; polls nested inside
        begin/commit funnels stay silent."""
        partition = chain_partition(2)
        runtime = DistributedRuntime(partition, mode="hdd", seed=0)
        sink = MemorySink()
        runtime.set_sink(sink)
        txn = runtime.begin(profile="update_L1")  # nested poll inside
        runtime.poll_walls()  # the simulator's idle poll
        polls = [
            e
            for e in sink.events
            if isinstance(e, OpSpanEvent) and e.op == "poll"
        ]
        assert len(polls) == 1
        assert polls[0].txn_id is None
        begins = [
            e
            for e in sink.events
            if isinstance(e, OpSpanEvent) and e.op == "begin"
        ]
        assert len(begins) == 1
        assert begins[0].txn_id == txn.txn_id

    def test_a_raising_funnel_still_closes_its_span(self):
        """A ``ProtocolViolation`` out of ``read`` must not leave the
        funnel depth raised: the failed operation reports an ``error``
        span and the next operation's span is emitted as usual."""
        runtime = DistributedRuntime(chain_partition(2), mode="hdd", seed=0)
        sink = MemorySink()
        runtime.set_sink(sink)
        txn = runtime.begin(profile="update_L0")
        with pytest.raises(ProtocolViolation):
            runtime.read(txn, "L1:g0")  # L1 is below L0: not readable
        assert runtime._op_depth == 0
        assert runtime.write(txn, "L0:g0", 1).granted
        assert runtime.commit(txn).granted
        spans = [
            (e.op, e.status)
            for e in sink.events
            if isinstance(e, OpSpanEvent)
        ]
        assert spans == [
            ("begin", ""),
            ("read", "error"),
            ("write", "granted"),
            ("commit", "granted"),
        ]
