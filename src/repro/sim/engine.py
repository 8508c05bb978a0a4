"""A deterministic closed-loop simulator for concurrency-control schedulers.

The GIL makes real threads useless for studying scheduler behaviour
(DESIGN.md §2), so concurrency is modelled the way concurrency-control
theory models it anyway: as an interleaving of operation steps.  ``N``
clients each run transactions drawn from a :class:`~repro.sim.workload.
Workload`; at every engine step exactly one runnable client performs its
next operation against the scheduler.  Blocked clients retry after the
next state-changing event (commit, abort, lock release, time-wall
release — all tracked through a single event epoch); aborted
transactions restart after a backoff with the *same* operations, as a
real application would.

Everything is driven by one seeded RNG and a round-robin cursor, so runs
are exactly reproducible — a property both the tests and the paper-
figure benchmarks rely on.

Two interchangeable main loops implement the same semantics:

* ``loop="event"`` (default) — the production hot loop.  Clients live
  in event-driven structures (a ready set, an idle-ready set, a
  countdown min-heap for think/backoff timers, and a blocked set woken
  only on event-epoch bumps), so an engine step costs O(runnable)
  instead of O(clients); blocked client-steps are computed from
  block/wake intervals instead of per-step counting.
* ``loop="scan"`` — the original per-step all-clients scan, kept as the
  executable reference semantics.  The equivalence tests assert both
  loops produce the exact same committed schedule for every scheduler.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from repro.errors import ConfigError, NotSerializableError, ReproError
from repro.obs.events import EventSink, RunEndEvent
from repro.scheduling import BaseScheduler, Outcome, OutcomeKind
from repro.sim.metrics import SimulationResult
from repro.sim.workload import TxnSpec, Workload
from repro.txn.depgraph import (
    closing_step,
    find_dependency_cycle,
    is_serializable,
)
from repro.txn.transaction import Transaction


class _ClientState(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    BLOCKED = "blocked"
    RESTART_WAIT = "restart-wait"


@dataclass
class _Client:
    client_id: int
    state: _ClientState = _ClientState.IDLE
    spec: Optional[TxnSpec] = None
    txn: Optional[Transaction] = None
    pc: int = 0
    countdown: int = 0  # think time or restart backoff
    wake_epoch: int = -1  # blocked since this event epoch
    block_step: int = 0  # step the current blocked episode began (event loop)
    latency_start: int = 0
    first_attempt: bool = True
    #: Value read by the first half of an in-flight RMW operation.
    rmw_value: Optional[int] = None


class Simulator:
    """Run one scheduler against one workload.

    Parameters
    ----------
    scheduler:
        Any :class:`~repro.scheduling.BaseScheduler`.
    workload:
        The transaction mix.
    clients:
        Multiprogramming level (concurrent transactions).
    seed:
        RNG seed; identical seeds give identical runs.
    max_steps:
        Hard stop.
    target_commits:
        Optional early stop once this many transactions committed.
    think_time:
        Idle steps between a client's transactions.
    restart_backoff:
        Steps an aborted transaction waits before retrying.
    audit:
        Verify the recorded schedule with the serializability oracle at
        the end of the run (O(steps), about a sixth of the run's own
        cost); a failure raises :class:`NotSerializableError` naming
        the cycle and the commit that closed it.
    gc_interval:
        Run the scheduler's garbage collector (version pruning plus
        time-wall retirement, where the scheduler has one) every this
        many engine steps.  ``None`` (default) never collects — the
        long-run memory profile is then unbounded by design, which is
        what the wall-lifecycle benchmark measures against.
    trace_sink:
        An :class:`~repro.obs.events.EventSink` to attach to the
        scheduler for this run (``None`` or a ``NullSink`` keeps
        tracing off).  The simulator stamps every event with the engine
        step and appends a :class:`~repro.obs.events.RunEndEvent`
        carrying its authoritative totals.
    loop:
        ``"event"`` (default) runs the event-driven hot loop;
        ``"scan"`` runs the original per-step all-clients scan kept as
        the reference semantics.  Both produce identical schedules and
        metrics (asserted by the equivalence tests).
    """

    #: Consecutive idle engine steps tolerated before declaring a stall.
    STALL_LIMIT = 1000

    def __init__(
        self,
        scheduler: BaseScheduler,
        workload: Workload,
        clients: int = 8,
        seed: int = 0,
        max_steps: int = 50_000,
        target_commits: Optional[int] = None,
        think_time: int = 0,
        restart_backoff: int = 3,
        audit: bool = False,
        track_staleness: bool = False,
        arrival_rate: Optional[float] = None,
        gc_interval: Optional[int] = None,
        trace_sink: Optional[EventSink] = None,
        loop: str = "event",
        perturb: Optional[object] = None,
    ) -> None:
        if clients < 1:
            raise ConfigError("need at least one client")
        if loop not in ("event", "scan"):
            raise ConfigError(f"unknown loop implementation {loop!r}")
        if perturb is not None and loop != "event":
            raise ConfigError(
                "perturb requires the event loop (the scan loop is the "
                "frozen reference semantics)"
            )
        if gc_interval is not None and gc_interval < 1:
            raise ConfigError("gc_interval must be >= 1")
        if gc_interval is not None and track_staleness:
            raise ConfigError(
                "track_staleness is incompatible with mid-run GC: pruned "
                "versions would undercount staleness"
            )
        self.scheduler = scheduler
        self.workload = workload
        self.rng = random.Random(seed)
        self.clients = [_Client(i) for i in range(clients)]
        self.max_steps = max_steps
        self.target_commits = target_commits
        self.think_time = think_time
        self.restart_backoff = restart_backoff
        self.audit = audit
        #: Sample read staleness (committed versions missed per read).
        #: Incompatible with running GC mid-simulation (pruned versions
        #: would undercount).
        self.track_staleness = track_staleness
        #: Open-loop mode: expected transaction arrivals per engine step
        #: (``None`` = closed loop, each client immediately starts its
        #: next transaction).  Arrivals queue; the ``clients`` parameter
        #: becomes the in-flight concurrency cap, and latency counts
        #: queueing delay from the arrival step.
        self.arrival_rate = arrival_rate
        self.gc_interval = gc_interval
        self._pending: deque[tuple[TxnSpec, int]] = deque()
        if arrival_rate is not None and arrival_rate <= 0:
            raise ConfigError("arrival_rate must be positive")
        if trace_sink is not None:
            scheduler.set_sink(trace_sink)
        #: Tracing is on iff the scheduler kept a real sink (NullSink is
        #: normalised away); cached so the hot loop pays one bool check.
        self._tracing = scheduler.sink is not None
        self._epoch = 0
        self._cursor = 0
        #: Event-loop client structures.  Every client is in exactly one
        #: of: ``_ready`` (RUNNING, retry-ready RESTART_WAIT, or a
        #: BLOCKED client woken by an epoch bump), ``_idle_ready``
        #: (IDLE, think time over — runnable unless the open loop has
        #: no queued work), ``_blocked`` (BLOCKED, not yet woken), or
        #: the ``_timers`` heap (IDLE/RESTART_WAIT waiting out a
        #: countdown, keyed by absolute wake step).
        self._event_loop = loop == "event"
        #: Schedule-space exploration hook (``repro.explore``): when
        #: set, the ready-set pick and the arrival draw offer their
        #: legal candidate sets to the perturber.  ``None`` (default)
        #: keeps every run byte-identical to the unhooked engine.
        self._perturb = perturb
        #: Closed-loop arrival lookahead (armed runs only): specs drawn
        #: from the workload but not yet handed to a client, in draw
        #: order — picking index 0 is the unperturbed arrival order.
        self._spec_lookahead: deque[TxnSpec] = deque()
        self._ready: set[int] = set()
        self._idle_ready: set[int] = set(range(clients))
        self._blocked: set[int] = set()
        self._timers: list[tuple[int, int]] = []
        self._result = SimulationResult(
            scheduler_name=scheduler.name, steps=0, commits=0, restarts=0
        )
        self._wall_count = 0
        #: Transaction id -> the TxnSpec it committed; feeds the
        #: serial-replay oracle (:mod:`repro.sim.oracle`).
        self.committed_specs: dict[int, TxnSpec] = {}

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        steps = self._loop_event() if self._event_loop else self._loop_scan()
        self._result.steps = steps
        if self._tracing:
            self.scheduler.sink.emit(
                RunEndEvent(
                    step=steps,
                    ts=self.scheduler.clock.now,
                    steps=steps,
                    commits=self._result.commits,
                    restarts=self._result.restarts,
                    blocked_client_steps=self._result.blocked_client_steps,
                )
            )
        self._result.stats = self.scheduler.stats
        self._result.backlog = len(self._pending)
        walls = getattr(self.scheduler, "walls", None)
        if walls is not None:
            self._result.wall_releases = walls.total_released
            self._result.retained_walls = len(walls.released)
        self._result.retained_versions = self.scheduler.store.total_versions()
        # Audit with the full Bernstein–Goodman MVSG: it subsumes the
        # paper's TG (which, read literally, can miss write-write lost
        # updates between blind read-modify-write pairs — see the
        # Figure 1 scenario test).
        schedule = self.scheduler.schedule
        if self.audit and not is_serializable(schedule, mode="mvsg"):
            raise NotSerializableError(
                self.scheduler.name,
                find_dependency_cycle(schedule, mode="mvsg"),
                closing_step(schedule, mode="mvsg"),
            )
        return self._result

    # ------------------------------------------------------------------
    # Event-driven main loop (the production hot path)
    # ------------------------------------------------------------------
    def _loop_event(self) -> int:
        steps = 0
        idle_streak = 0
        forced_wake = False
        scheduler = self.scheduler
        clock = scheduler.clock
        result = self._result
        timers = self._timers
        clients = self.clients
        n_clients = len(clients)
        tracing = self._tracing
        gc_interval = self.gc_interval
        open_loop = self.arrival_rate is not None
        max_steps = self.max_steps
        target = self.target_commits
        blocked_state = _ClientState.BLOCKED
        while steps < max_steps:
            if target is not None and result.commits >= target:
                break
            steps += 1
            if tracing:
                scheduler.current_step = steps
            clock.tick()
            if gc_interval is not None and steps % gc_interval == 0:
                self._run_gc()
            if open_loop:
                self._draw_arrivals(steps)
            while timers and timers[0][0] <= steps:
                self._timer_expired(heappop(timers)[1])
            client = self._pick_ready()
            if client is None:
                if (
                    open_loop
                    and not self._pending
                    and len(self._idle_ready) == n_clients
                ):
                    # Open loop with no offered work: legitimate idleness.
                    continue
                idle_streak += 1
                self._poll_scheduler()
                if idle_streak > self.STALL_LIMIT:
                    if not forced_wake:
                        # One amnesty: wake everyone and try again (a
                        # wall may have released without an epoch bump).
                        self._wake_all_blocked()
                        forced_wake = True
                        idle_streak = 0
                        continue
                    raise ReproError(
                        f"simulation stalled at step {steps}: "
                        + self._stall_report()
                    )
                continue
            idle_streak = 0
            forced_wake = False
            if client.state is blocked_state:
                # The blocked episode ends the step the client acts
                # again; the per-step reference loop counted it on
                # every tick in between.
                result.blocked_client_steps += steps - client.block_step
            self._act(client, steps)
            self._sync_client(client, steps)
        for client in clients:
            if client.state is blocked_state:
                result.blocked_client_steps += steps - client.block_step
        return steps

    def _pick_ready(self) -> Optional[_Client]:
        """The runnable client closest after the round-robin cursor.

        Scans only the ready structures (O(runnable)), never the full
        client list; mod-distance minimisation reproduces the reference
        loop's first-from-cursor scan order exactly.
        """
        n = len(self.clients)
        cursor = self._cursor
        idle_ok = bool(self._idle_ready) and (
            self.arrival_rate is None or bool(self._pending)
        )
        if self._perturb is not None:
            return self._pick_ready_perturbed(idle_ok)
        # Fast path: the cursor's own client is runnable (distance 0) —
        # the common case in a closed loop with every client running.
        if cursor in self._ready or (idle_ok and cursor in self._idle_ready):
            best = cursor
        else:
            best = -1
            best_dist = n
            for cid in self._ready:
                dist = (cid - cursor) % n
                if dist < best_dist:
                    best_dist = dist
                    best = cid
            if idle_ok:
                for cid in self._idle_ready:
                    dist = (cid - cursor) % n
                    if dist < best_dist:
                        best_dist = dist
                        best = cid
            if best < 0:
                return None
        self._cursor = (best + 1) % n
        self._ready.discard(best)
        self._idle_ready.discard(best)
        return self.clients[best]

    def _pick_ready_perturbed(self, idle_ok: bool) -> Optional[_Client]:
        """Armed variant of :meth:`_pick_ready` for ``repro explore``.

        Candidates are the runnable clients sorted by mod-distance from
        the cursor, so candidate 0 is exactly the client the disarmed
        pick would have chosen — an all-zeros perturber reproduces the
        baseline schedule byte-identically.
        """
        n = len(self.clients)
        cursor = self._cursor
        runnable = set(self._ready)
        if idle_ok:
            runnable |= self._idle_ready
        if not runnable:
            return None
        candidates = sorted(runnable, key=lambda cid: (cid - cursor) % n)
        pick = self._perturb.choose("ready", len(candidates))
        best = candidates[min(pick, len(candidates) - 1)]
        self._cursor = (best + 1) % n
        self._ready.discard(best)
        self._idle_ready.discard(best)
        return self.clients[best]

    def _timer_expired(self, cid: int) -> None:
        """A think-time or restart-backoff countdown ran out."""
        client = self.clients[cid]
        client.countdown = 0
        if client.state is _ClientState.IDLE:
            self._idle_ready.add(cid)
        else:  # RESTART_WAIT
            self._ready.add(cid)

    def _sync_client(self, client: _Client, step: int) -> None:
        """Re-file a client into the right structure after it acted."""
        state = client.state
        cid = client.client_id
        if state is _ClientState.RUNNING:
            self._ready.add(cid)
        elif state is _ClientState.BLOCKED:
            client.block_step = step
            if client.wake_epoch < self._epoch:
                # Still wake-eligible: the client was woken and acted
                # without re-blocking (e.g. a granted RMW read half
                # leaves the state untouched until the write half).
                self._ready.add(cid)
            else:
                self._blocked.add(cid)
        elif client.countdown > 0:  # IDLE think time or restart backoff
            heappush(self._timers, (step + client.countdown, cid))
        elif state is _ClientState.IDLE:
            self._idle_ready.add(cid)
        else:  # RESTART_WAIT with zero backoff
            self._ready.add(cid)

    def _wake_all_blocked(self) -> None:
        """Stall amnesty: force every blocked client runnable again."""
        for client in self.clients:
            client.wake_epoch = -1
        if self._blocked:
            self._ready |= self._blocked
            self._blocked.clear()

    def _bump_epoch(self) -> None:
        self._epoch += 1
        if self._blocked:
            self._ready |= self._blocked
            self._blocked.clear()

    # ------------------------------------------------------------------
    # Reference main loop: per-step scans (the seed engine's semantics)
    # ------------------------------------------------------------------
    def _loop_scan(self) -> int:
        steps = 0
        idle_streak = 0
        forced_wake = False
        while steps < self.max_steps:
            if (
                self.target_commits is not None
                and self._result.commits >= self.target_commits
            ):
                break
            steps += 1
            if self._tracing:
                self.scheduler.current_step = steps
            self.scheduler.clock.tick()
            if self.gc_interval is not None and steps % self.gc_interval == 0:
                self._run_gc()
            self._draw_arrivals(steps)
            self._tick_countdowns()
            client = self._next_runnable()
            if client is None:
                if self.arrival_rate is not None and self._drained():
                    # Open loop with no offered work: legitimate idleness.
                    continue
                idle_streak += 1
                self._poll_scheduler()
                if idle_streak > self.STALL_LIMIT:
                    if not forced_wake:
                        # One amnesty: wake everyone and try again (a
                        # wall may have released without an epoch bump).
                        self._wake_all_blocked()
                        forced_wake = True
                        idle_streak = 0
                        continue
                    raise ReproError(
                        f"simulation stalled at step {steps}: "
                        + self._stall_report()
                    )
                continue
            idle_streak = 0
            forced_wake = False
            self._act(client, steps)
        return steps

    # ------------------------------------------------------------------
    # Client scheduling
    # ------------------------------------------------------------------
    def _tick_countdowns(self) -> None:
        for client in self.clients:
            if client.countdown > 0:
                client.countdown -= 1
            if client.state is _ClientState.BLOCKED:
                self._result.blocked_client_steps += 1

    def _draw_arrivals(self, step: int) -> None:
        if self.arrival_rate is None:
            return
        count = int(self.arrival_rate)
        fraction = self.arrival_rate - count
        if fraction > 0 and self.rng.random() < fraction:
            count += 1
        for _ in range(count):
            self._pending.append(
                (self.workload.next_transaction(self.rng), step)
            )

    def _drained(self) -> bool:
        """Open loop: no queued work and every client is at rest.

        Reference-loop helper.  The event loop answers the same
        question in O(1) from its structures (``_idle_ready`` holding
        every client) instead of re-scanning the client list on every
        idle step.
        """
        return not self._pending and all(
            c.state is _ClientState.IDLE and c.countdown == 0
            for c in self.clients
        )

    def _runnable(self, client: _Client) -> bool:
        if client.state is _ClientState.IDLE:
            if client.countdown:
                return False
            return self.arrival_rate is None or bool(self._pending)
        if client.state is _ClientState.RESTART_WAIT:
            return client.countdown == 0
        if client.state is _ClientState.BLOCKED:
            return client.wake_epoch < self._epoch
        return True  # RUNNING

    def _next_runnable(self) -> Optional[_Client]:
        n = len(self.clients)
        for offset in range(n):
            client = self.clients[(self._cursor + offset) % n]
            if self._runnable(client):
                self._cursor = (self._cursor + offset + 1) % n
                return client
        return None

    # ------------------------------------------------------------------
    # One client action
    # ------------------------------------------------------------------
    def _act(self, client: _Client, step: int) -> None:
        if client.state in (_ClientState.IDLE, _ClientState.RESTART_WAIT):
            self._begin(client, step)
            return
        assert client.spec is not None and client.txn is not None
        if not client.txn.is_active:
            # Killed externally since this client's last turn (wounded
            # by an older transaction, cascading abort, ...): restart.
            self._after_event()
            self._handle(
                client,
                step,
                Outcome(kind=OutcomeKind.ABORTED, reason="killed externally"),
                is_commit=False,
            )
            return
        if client.pc >= len(client.spec.ops):
            outcome = self.scheduler.commit(client.txn)
            self._after_event()
            self._handle(client, step, outcome, is_commit=True)
            return
        op = client.spec.ops[client.pc]
        if op.kind == "r":
            outcome = self.scheduler.read(client.txn, op.granule)
            if outcome.granted:
                self._sample_staleness(op.granule, outcome)
        elif op.kind == "w":
            outcome = self.scheduler.write(client.txn, op.granule, op.value)
        else:  # "m": read-modify-write, split across two engine steps
            if client.rmw_value is None:
                outcome = self.scheduler.read(client.txn, op.granule)
                if outcome.granted:
                    self._sample_staleness(op.granule, outcome)
                    client.rmw_value = outcome.value
                    return  # the write half runs on a later turn
            else:
                assert op.value is not None
                outcome = self.scheduler.write(
                    client.txn, op.granule, client.rmw_value + op.value
                )
                if outcome.granted:
                    client.rmw_value = None
        if outcome.aborted:
            self._after_event()
        self._handle(client, step, outcome, is_commit=False)

    def _begin(self, client: _Client, step: int) -> None:
        if client.state is _ClientState.IDLE:
            if self.arrival_rate is None:
                if self._perturb is not None:
                    client.spec = self._next_spec_perturbed()
                else:
                    client.spec = self.workload.next_transaction(self.rng)
                client.latency_start = step
            else:
                if self._perturb is not None and len(self._pending) > 1:
                    pick = self._perturb.choose("arrival", len(self._pending))
                    pick = min(pick, len(self._pending) - 1)
                    entry = self._pending[pick]
                    del self._pending[pick]
                    spec, arrived = entry
                else:
                    spec, arrived = self._pending.popleft()
                client.spec = spec
                client.latency_start = arrived  # include queueing delay
            client.first_attempt = True
        assert client.spec is not None
        client.txn = self.scheduler.begin(
            profile=client.spec.profile, read_only=client.spec.read_only
        )
        client.pc = 0
        client.state = _ClientState.RUNNING
        self._check_walls()

    def _next_spec_perturbed(self) -> TxnSpec:
        """Closed-loop arrival-order perturbation for ``repro explore``.

        A small lookahead buffer is filled *in order* from the workload
        generator, and the perturber picks which buffered spec starts
        next.  Index 0 is the oldest draw — the disarmed order — so an
        all-zeros perturber is byte-identical to the unhooked engine.
        The buffer only ever draws via ``workload.next_transaction``, so
        the shared ``self.rng`` stream is consumed in exactly the
        baseline order regardless of pick.
        """
        while len(self._spec_lookahead) < 4:
            self._spec_lookahead.append(
                self.workload.next_transaction(self.rng)
            )
        pick = self._perturb.choose("arrival", len(self._spec_lookahead))
        pick = min(pick, len(self._spec_lookahead) - 1)
        spec = self._spec_lookahead[pick]
        del self._spec_lookahead[pick]
        return spec

    def _handle(
        self, client: _Client, step: int, outcome: Outcome, is_commit: bool
    ) -> None:
        if outcome.granted:
            if is_commit:
                assert client.txn is not None and client.spec is not None
                self.committed_specs[client.txn.txn_id] = client.spec
                self._result.commits += 1
                self._result.latencies.append(step - client.latency_start)
                client.state = _ClientState.IDLE
                client.spec = None
                client.txn = None
                client.countdown = self.think_time
            else:
                client.pc += 1
                client.state = _ClientState.RUNNING
            return
        if outcome.blocked:
            client.state = _ClientState.BLOCKED
            client.wake_epoch = self._epoch
            return
        # Aborted: restart the same spec after a backoff.
        self._result.restarts += 1
        client.txn = None
        client.pc = 0
        client.rmw_value = None
        client.first_attempt = False
        client.state = _ClientState.RESTART_WAIT
        client.countdown = self.restart_backoff

    def _sample_staleness(self, granule, outcome: Outcome) -> None:
        if not self.track_staleness or outcome.version_ts is None:
            return
        chain = self.scheduler.store.chain(granule)
        self._result.staleness_samples.append(
            chain.committed_count_after(outcome.version_ts)
        )

    # ------------------------------------------------------------------
    # Event epoch
    # ------------------------------------------------------------------
    def _after_event(self) -> None:
        """A commit or abort happened: wake blocked clients via the epoch."""
        self._bump_epoch()
        self._check_walls()

    def _poll_scheduler(self) -> None:
        poll = getattr(self.scheduler, "poll_walls", None)
        if poll is not None:
            poll()
            self._check_walls()

    def _run_gc(self) -> None:
        collect = getattr(self.scheduler, "collect_garbage", None)
        if collect is None:
            return
        report = collect()
        self._result.gc_pruned_versions += report.pruned_versions
        self._result.gc_walls_retired += getattr(report, "walls_retired", 0)
        walls = getattr(self.scheduler, "walls", None)
        if walls is not None:
            self._result.peak_retained_walls = max(
                self._result.peak_retained_walls, len(walls.released)
            )
        self._result.peak_retained_versions = max(
            self._result.peak_retained_versions,
            self.scheduler.store.total_versions(),
        )
        # collect_garbage may have released a fresh wall: wake sleepers.
        self._check_walls()

    def _check_walls(self) -> None:
        walls = getattr(self.scheduler, "walls", None)
        if walls is None:
            return
        # The monotonic counter, never ``len(released)`` — retirement
        # shrinks the list, which would mask a release (a
        # retire-then-release step leaves the length unchanged) and
        # leave blocked clients asleep forever.
        count = walls.total_released
        if count != self._wall_count:
            self._wall_count = count
            self._bump_epoch()

    def _stall_report(self) -> str:
        parts = []
        for client in self.clients:
            txn_id = client.txn.txn_id if client.txn else None
            parts.append(
                f"c{client.client_id}={client.state.value}"
                f"(txn={txn_id}, pc={client.pc}, cd={client.countdown})"
            )
        return ", ".join(parts)
