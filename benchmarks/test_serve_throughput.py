"""Serve-path throughput: gate-free Protocol A/C reads under real clients.

``BENCH_serve_throughput.json`` records the transaction server
(:mod:`repro.serve`) driving HDD against the MV2PL and TO baselines
over the deterministic in-process transport, sweeping **connections**
(the open-loop generator's multiprogramming knob) and **read ratio**.

The measurable claim is efficiency under growing concurrency, not
wall-clock parallelism — this box runs every connection on one asyncio
event loop (see ``parallelism_note``).  The deterministic metric is
**read-only goodput**: read-only transactions committed per 1000 server
steps (a step = one scheduler-op attempt, retries included).  HDD's
Protocol A/C reads enter no lock table and no timestamp registry —
they bypass the server's single-writer gate entirely — so its goodput
holds flat as connections multiply, while MV2PL pays lock waits and TO
pays restarts for the same mix.  The bench asserts HDD's goodput slope
(conns=8 relative to conns=1) strictly beats MV2PL's, with the ratio
recorded, and that read-only transactions never restarted under HDD.

Wall-clock throughput and latency percentiles (measured from arrival,
so queueing counts) are recorded per cell for the record but never
asserted — they are 1-core numbers.
"""

import asyncio
import json
from pathlib import Path

from repro.cli import _build_workload
from repro.serve import ClientPool, LoadGenerator, TransactionServer
from repro.sweep.runner import usable_cpus
from repro.sweep.spec import SCHEDULER_FACTORIES

BENCH_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_serve_throughput.json"
)

PROTOCOLS = ["hdd", "mv2pl", "to"]
CONNECTIONS = [1, 2, 4, 8]
READ_RATIOS = [0.3, 0.6, 0.9]
RO_SHARE = 0.6
SKEW = 3.0
TRANSACTIONS = 400
SEED = 3
#: HDD's goodput slope must beat MV2PL's by at least this factor.
MIN_SLOPE_RATIO = 1.03


async def _run_cell(
    name: str, connections: int, ro_share: float
) -> dict[str, object]:
    partition, workload = _build_workload(ro_share=ro_share, skew=SKEW)
    scheduler = SCHEDULER_FACTORIES[name](partition)
    server = TransactionServer(scheduler)
    pool = ClientPool.connect_memory(server, connections)
    try:
        report = await LoadGenerator(
            pool, workload, transactions=TRANSACTIONS, seed=SEED
        ).run()
        serializable = server.audit()
    finally:
        await pool.close()
        await server.close()
    steps = int(report.server["steps"])
    lat = report.latency_summary(report.latencies)
    ro_lat = report.latency_summary(report.ro_latencies)
    return {
        "scheduler": name,
        "connections": connections,
        "ro_share": ro_share,
        "commits": report.commits,
        "ro_commits": report.ro_commits,
        "steps": steps,
        "restarts": report.restarts,
        "ro_restarts": report.ro_restarts,
        "failures": report.failures,
        "parked_ops": report.server["parked_ops"],
        "gate_free_reads": report.server["gate_free_reads"],
        "gated_reads": report.server["gated_reads"],
        "protocol_errors": report.server["protocol_errors"],
        "ro_goodput_per_kstep": round(1000 * report.ro_commits / steps, 2),
        "throughput_txn_per_s": round(report.throughput, 1),
        "latency_ms": _in_ms(lat),
        "ro_latency_ms": _in_ms(ro_lat),
        "serializable": serializable,
    }


def _in_ms(summary: dict[str, float]) -> dict[str, float]:
    """A latency summary in milliseconds; ``samples`` is a count."""
    return {
        key: value if key == "samples" else round(value * 1000, 3)
        for key, value in summary.items()
    }


def _cell(name: str, connections: int, ro_share: float) -> dict[str, object]:
    return asyncio.run(_run_cell(name, connections, ro_share))


def test_serve_throughput(benchmark, show):
    def run_grid():
        conn_sweep = {
            name: [_cell(name, conns, RO_SHARE) for conns in CONNECTIONS]
            for name in PROTOCOLS
        }
        ratio_sweep = {
            name: [
                _cell(name, max(CONNECTIONS), share) for share in READ_RATIOS
            ]
            for name in PROTOCOLS
        }
        return conn_sweep, ratio_sweep

    conn_sweep, ratio_sweep = benchmark.pedantic(
        run_grid, rounds=1, iterations=1
    )

    all_cells = [
        cell
        for sweep in (conn_sweep, ratio_sweep)
        for cells in sweep.values()
        for cell in cells
    ]
    slopes = {
        name: round(
            conn_sweep[name][-1]["ro_goodput_per_kstep"]
            / conn_sweep[name][0]["ro_goodput_per_kstep"],
            4,
        )
        for name in PROTOCOLS
    }
    slope_ratio = round(slopes["hdd"] / slopes["mv2pl"], 4)
    ro_restarts = {
        name: sum(cell["ro_restarts"] for cell in conn_sweep[name])
        for name in PROTOCOLS
    }
    cores = usable_cpus()
    note = (
        f"asyncio event loop on {cores} core(s): all connections "
        "multiplex one thread, so wall-clock numbers are 1-core; the "
        "asserted metric is read-only goodput per scheduler step, "
        "which is deterministic and core-count-independent"
    )

    payload = {
        "bench": "serve_throughput",
        "cpu_count": cores,
        "parallelism_note": note,
        "workload": (
            f"inventory mix over memory transport, skew={SKEW}, "
            f"{TRANSACTIONS} open-loop arrivals, seed={SEED}; "
            f"connection sweep at ro_share={RO_SHARE}, read-ratio sweep "
            f"at {max(CONNECTIONS)} connections"
        ),
        "connection_sweep": conn_sweep,
        "read_ratio_sweep": ratio_sweep,
        "slopes": {**slopes, "ratio_hdd_over_mv2pl": slope_ratio},
        "ro_restarts": ro_restarts,
        "protocol_errors": sum(
            int(cell["protocol_errors"]) for cell in all_cells
        ),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = "\n".join(
        f"{name:>6} conns={cell['connections']} "
        f"ro_goodput={cell['ro_goodput_per_kstep']:>7} "
        f"restarts={cell['restarts']:>3} parked={cell['parked_ops']:>3} "
        f"gate_free={cell['gate_free_reads']:>4}"
        for name in PROTOCOLS
        for cell in conn_sweep[name]
    )
    show(
        f"Serve: {len(all_cells)} cells, slopes {slopes} "
        f"(hdd/mv2pl {slope_ratio}x)",
        rows,
    )

    # Every cell finished clean and serializable.
    for cell in all_cells:
        assert cell["protocol_errors"] == 0, cell
        assert cell["failures"] == 0, cell
        assert cell["serializable"], cell
        assert cell["commits"] == TRANSACTIONS, cell
    # HDD's read path is gate-free and its counters reconcile with the
    # scheduler's own registration accounting; baselines never take the
    # fast path.
    for cell in all_cells:
        if cell["scheduler"] == "hdd":
            assert cell["gate_free_reads"] > 0, cell
        else:
            assert cell["gate_free_reads"] == 0, cell
    # Read-only transactions never restart under HDD (Protocol A/C),
    # at any connection count or read ratio.
    for cell in all_cells:
        if cell["scheduler"] == "hdd":
            assert cell["ro_restarts"] == 0, cell
    # The headline: HDD's read-only goodput holds its slope as
    # connections scale, strictly better than MV2PL's (and it dominates
    # cell-for-cell along the connection sweep).
    assert slopes["hdd"] > slopes["mv2pl"]
    assert slope_ratio >= MIN_SLOPE_RATIO, slopes
    for hdd_cell, mv_cell in zip(conn_sweep["hdd"], conn_sweep["mv2pl"]):
        assert (
            hdd_cell["ro_goodput_per_kstep"]
            >= mv_cell["ro_goodput_per_kstep"]
        ), (hdd_cell, mv_cell)
