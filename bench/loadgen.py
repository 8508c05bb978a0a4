"""The serve workloads' load driver: lanes, pacing, and what it measured.

One driver for both loops, on top of the public
``run_transaction``/``ClientPool`` API, with the lane model of
``repro.serve.LoadGenerator`` (arrivals round-robin over the
connections, each connection runs its queue serially, an aborted
transaction retries with the same spec, same retry budget).  The
program's generator is not used, for either loop, because it cannot
report what this benchmark bounds and refuses on:

* with ``rate=None`` it stamps every arrival at time zero, so its
  latencies measure a transaction's position in the backlog, not the
  server.  Here ``rate=None`` is a *closed loop*: every connection
  always has a next transaction and latency is timed from dispatch
  (service time, retries included);
* it keeps read-only latencies but not the update class's, and neither
  how late it ran nor how deep its backlog grew;
* its paced mode sleeps on the event loop's timer, whose one-millisecond
  granularity is the whole inter-arrival time at 1,000 txn/s.  Here
  ``rate=<txn/s>`` is an *open loop*: arrival ``i`` is due at
  ``start + i / rate`` whatever the server is doing, latency is timed
  from the due time (a stall taxes every arrival behind it), and the
  generator records its own lateness (``lags``) and the deepest backlog.
  It waits for a due time by yielding to the loop — server and
  generator share one loop, so the server's tasks run in the yield and
  an idle loop spins instead of sleeping past the arrival.

Two lane models would have to be kept in step with each other; one has
only to be kept in step with ``LoadGenerator``'s.
"""

from __future__ import annotations

import asyncio
import inspect
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.serve.client import ClientPool, run_transaction
from repro.serve.loadgen import LoadGenerator
from repro.sim.workload import TxnSpec

#: Restart budget per transaction before it counts as failed: whatever
#: ``LoadGenerator`` (and so ``repro load``) defaults to.
MAX_RETRIES: int = (
    inspect.signature(LoadGenerator).parameters["max_retries"].default
)


@dataclass
class LoadResult:
    """What one drive measured; latencies in seconds, in commit order."""

    wall_s: float = 0.0
    commits: int = 0
    restarts: int = 0
    failures: int = 0
    latencies: list[float] = field(default_factory=list)
    ro_latencies: list[float] = field(default_factory=list)
    update_latencies: list[float] = field(default_factory=list)
    #: Open loop only: seconds each arrival was enqueued after it was due.
    lags: list[float] = field(default_factory=list)
    backlog_max: int = 0


async def drive(
    pool: ClientPool, specs: Sequence[TxnSpec], rate: Optional[float]
) -> LoadResult:
    """Run ``specs`` through ``pool``; closed loop if ``rate`` is None."""
    lanes: list[asyncio.Queue] = [asyncio.Queue() for _ in range(len(pool))]
    result = LoadResult()
    workers = [
        asyncio.ensure_future(_lane(pool.next(), queue, result))
        for queue in lanes
    ]
    started = time.perf_counter()
    if rate is None:
        for index, spec in enumerate(specs):
            lanes[index % len(lanes)].put_nowait((spec, None))
    else:
        interval = 1.0 / rate
        for index, spec in enumerate(specs):
            due = started + index * interval
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            result.lags.append(time.perf_counter() - due)
            lanes[index % len(lanes)].put_nowait((spec, due))
            backlog = sum(queue.qsize() for queue in lanes)
            if backlog > result.backlog_max:
                result.backlog_max = backlog
    for queue in lanes:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    result.wall_s = time.perf_counter() - started
    return result


async def _lane(client, queue: asyncio.Queue, result: LoadResult) -> None:
    """One connection's serial transaction loop."""
    while True:
        item = await queue.get()
        if item is None:
            return
        spec, due = item
        origin = time.perf_counter() if due is None else due
        for _attempt in range(MAX_RETRIES + 1):
            outcome = await run_transaction(client, spec)
            if outcome["committed"]:
                latency = time.perf_counter() - origin
                result.commits += 1
                result.latencies.append(latency)
                if spec.read_only:
                    result.ro_latencies.append(latency)
                else:
                    result.update_latencies.append(latency)
                break
            result.restarts += 1
        else:
            result.failures += 1
