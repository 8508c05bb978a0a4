"""§7.5 on a real wire: analytic message pricing vs counted messages.

The analytic model in :mod:`repro.sim.messages` prices a monolithic
execution as if each segment had its own controller.  The distributed
runtime IS that architecture, so its network log lets us check the
model against messages actually sent.  Per scheduler we record the
analytic report, the measured report (same categories, counted from
the wire), their ratios, and the runtime-overhead kinds the model
deliberately does not price (BEGIN registration, wall polling, gossip)
— all into ``BENCH_dist_messages.json``.

The headline assertions: data traffic is priced *exactly* (ratio 1.0 —
every granted op is one request/response pair); measured registration
traffic is zero (it piggybacks on the read request, making the
analytic charge an upper bound); and on the wire HDD beats both
timestamp baselines on *total* priced traffic — chiefly because a
transaction's writes all land on its class's one controller (commit
fan-out 1 node) where the baselines finalize at every touched segment.

Sections are keyed by plan, because the plan chooses the wire: every
mode runs on the ideal plan (where HDD speaks the coalesced, governed
wire and sends no WALL broadcast), and ``hdd-latency1`` runs HDD on a
lossless ``FaultPlan(latency=1)`` — the eager wire, with the paper's
per-segment wall distribution on it.  The ideal-plan wire must carry at
least 30% fewer messages for the same number of commits.
"""

import json
from pathlib import Path

from repro.dist import DistributedRuntime, FaultPlan
from repro.sim.engine import Simulator
from repro.sim.inventory import (
    build_inventory_partition,
    build_inventory_workload,
)
from repro.sim.messages import measured_message_report, message_report
from repro.sim.metrics import format_table

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_dist_messages.json"

COMMITS = 300
MODES = ["hdd", "hdd-to", "to", "mvto"]


#: The lossless non-ideal plan whose wire the ideal plan's is compared
#: against (any latency >= 1 keeps the eager wire).
EAGER_PLAN = FaultPlan(latency=1)


def run_dist(mode: str, plan: FaultPlan = FaultPlan()):
    partition = build_inventory_partition()
    workload = build_inventory_workload(
        partition, read_only_share=0.25, skew=1.0
    )
    runtime = DistributedRuntime(partition, mode=mode, plan=plan, seed=0)
    result = Simulator(
        runtime,
        workload,
        clients=8,
        seed=42,
        target_commits=COMMITS,
        max_steps=400_000,
        audit=False,
    ).run()
    return partition, runtime, result


def report_fields(report) -> dict[str, int]:
    return {
        "data": report.data_messages,
        "registration": report.registration_messages,
        "blocking": report.blocking_messages,
        "rejection": report.rejection_messages,
        "commit_fanout": report.commit_fanout_messages,
        "wall_broadcast": report.wall_broadcast_messages,
        "sync": report.synchronization_messages,
        "total": report.total,
    }


def ratio(measured: int, analytic: int) -> float:
    if analytic == 0:
        return 0.0 if measured == 0 else float("inf")
    return round(measured / analytic, 3)


def section_for(mode: str, plan: FaultPlan = FaultPlan()) -> dict:
    partition, runtime, result = run_dist(mode, plan)
    analytic = message_report(runtime, partition.segment_of)
    measured, extras = measured_message_report(runtime)
    return {
        "commits": result.commits,
        "analytic": report_fields(analytic),
        "measured": report_fields(measured),
        "ratios": {
            key: ratio(
                report_fields(measured)[key],
                report_fields(analytic)[key],
            )
            for key in ("data", "sync", "commit_fanout", "total")
        },
        "runtime_overhead": dict(sorted(extras.items())),
        "wire_sends": len(runtime.network.log),
    }


def test_analytic_vs_measured_messages(benchmark, show):
    def run_all():
        sections = {mode: section_for(mode) for mode in MODES}
        sections["hdd-latency1"] = section_for("hdd", EAGER_PLAN)
        return sections

    sections = benchmark.pedantic(run_all, rounds=1, iterations=1)
    BENCH_PATH.write_text(
        json.dumps(
            {"bench": "dist_messages", "commits": COMMITS, **sections},
            indent=2,
        )
        + "\n"
    )
    rows = [
        {
            "scheduler": mode,
            "data(meas/anal)": section["ratios"]["data"],
            "sync(meas/anal)": section["ratios"]["sync"],
            "meas sync": section["measured"]["sync"],
            "overhead": sum(
                count
                for key, count in section["runtime_overhead"].items()
                if key.startswith(("pair.", "oneway."))
                or key == "retransmit"
            ),
            "wire": section["wire_sends"],
        }
        for mode, section in sections.items()
    ]
    show(
        "Section 7.5 on the wire: analytic vs measured",
        format_table(rows),
    )
    for mode, section in sections.items():
        # Data traffic is priced exactly: one pair per granted op.
        assert section["ratios"]["data"] == 1.0, mode
        # Registration piggybacks on the read request on a real wire.
        assert section["measured"]["registration"] == 0, mode
    # The paper's claim survives measurement: on the same wire and mix
    # HDD's total priced traffic undercuts both timestamp baselines,
    # and its commit fan-out collapses to one controller per commit.
    for baseline in ("to", "mvto"):
        assert (
            sections["hdd"]["measured"]["total"]
            < sections[baseline]["measured"]["total"]
        )
        assert (
            sections["hdd"]["measured"]["commit_fanout"]
            < sections[baseline]["measured"]["commit_fanout"]
        )
    # The ideal plan's wire against the eager one: as many commits, the
    # dead WALL broadcast gone entirely (the one category HDD adds is
    # on the eager wire only), and at least 30% fewer messages — gossip
    # ships coalesced per link and the governor skips provably no-op
    # polls.
    ideal, eager = sections["hdd"], sections["hdd-latency1"]
    assert ideal["commits"] == eager["commits"]
    assert ideal["measured"]["wall_broadcast"] == 0
    assert eager["measured"]["wall_broadcast"] > 0
    assert ideal["runtime_overhead"]["polls_skipped"] > 0
    assert "polls_skipped" not in eager["runtime_overhead"]
    assert ideal["wire_sends"] <= 0.7 * eager["wire_sends"], (
        ideal["wire_sends"],
        eager["wire_sends"],
    )
