"""The serial-replay oracle: end-state equivalence checking.

The dependency-graph oracle (:mod:`repro.txn.depgraph`) certifies that
*some* equivalent serial order exists.  This module closes the loop
with an independent check: take the serialization order the dependency
graph yields, **replay the committed transactions serially** from the
initial database state, and demand the replayed final state equal the
state the scheduler actually produced.

With blind writes alone the check is weak (last writer wins either
way); the workload generator's read-modify-write operations (`Op.kind
== "m"`) make the final state a function of what each transaction
*read*, so a scheduler that served a stale read that the claimed serial
order does not explain will fail the comparison.  The classic instance:
a counter granule incremented by RMW transactions must end at exactly
the sum of the committed deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.scheduling import BaseScheduler
from repro.sim.workload import TxnSpec
from repro.txn.depgraph import serialization_order
from repro.txn.schedule import ScheduleIndex
from repro.txn.transaction import GranuleId


@dataclass
class ReplayReport:
    """Outcome of a serial-replay comparison."""

    granules_checked: int = 0
    transactions_replayed: int = 0
    mismatches: dict[GranuleId, tuple[object, object]] = field(
        default_factory=dict
    )  # granule -> (replayed, actual)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        if self.ok:
            return (
                f"serial replay OK: {self.transactions_replayed} txns, "
                f"{self.granules_checked} granules match"
            )
        lines = [
            f"serial replay MISMATCH on {len(self.mismatches)} granules:"
        ]
        for granule, (replayed, actual) in sorted(self.mismatches.items()):
            lines.append(f"  {granule}: replayed={replayed!r} actual={actual!r}")
        return "\n".join(lines)


def replay_serially(
    scheduler: BaseScheduler,
    committed_specs: dict[int, TxnSpec],
    initial_value: int = 0,
) -> ReplayReport:
    """Replay committed transactions in the oracle's serial order.

    ``committed_specs`` maps committed transaction ids to their specs
    (the simulator collects this).  Transactions without a spec (e.g.
    hand-driven ones) are skipped, which weakens the check — drive
    everything through the simulator for full coverage.

    Raises :class:`ReproError` if the schedule is not serializable
    (there is no order to replay).
    """
    order = serialization_order(scheduler.schedule)
    state: dict[GranuleId, object] = {}
    #: (txn, granule) -> last value the txn left there during replay.
    left_by: dict[tuple[int, GranuleId], object] = {}
    replayed = 0
    for txn_id in order:
        spec = committed_specs.get(txn_id)
        if spec is None:
            continue
        replayed += 1
        for op in spec.ops:
            if op.kind == "w":
                state[op.granule] = op.value
                left_by[(txn_id, op.granule)] = op.value
            elif op.kind == "m":
                current = state.get(op.granule, initial_value)
                if not isinstance(current, int):
                    raise ReproError(
                        f"RMW on non-integer value {current!r} at {op.granule}"
                    )
                assert op.value is not None
                state[op.granule] = current + op.value
                left_by[(txn_id, op.granule)] = state[op.granule]
            # reads do not change state

    # Final-state comparison.  Blind writes with no intervening reads
    # are legitimately unordered by the dependency graph (one-copy
    # equivalence only constrains reads-from), so the expected final
    # value of each granule is what the *actual* final-version writer
    # computed during the replay — order-sensitive exactly where value
    # flow (reads, RMW chains) makes it observable.
    report = ReplayReport(transactions_replayed=replayed)
    index = ScheduleIndex(scheduler.schedule.steps)
    for granule, versions in index.versions.items():
        key = (index.writer_of[(granule, versions[-1])], granule)
        if key not in left_by:
            continue  # writer not driven through the simulator
        expected = left_by[key]
        actual = scheduler.store.chain(granule).latest_committed().value
        report.granules_checked += 1
        if actual != expected:
            report.mismatches[granule] = (expected, actual)
    return report


def verify_serial_equivalence(
    scheduler: BaseScheduler,
    committed_specs: dict[int, TxnSpec],
    initial_value: int = 0,
) -> None:
    """Assert-style wrapper: raises :class:`ReproError` on mismatch."""
    report = replay_serially(scheduler, committed_specs, initial_value)
    if not report.ok:
        raise ReproError(str(report))


def counter_invariant(
    scheduler: BaseScheduler,
    committed_specs: dict[int, TxnSpec],
    granule: GranuleId,
    initial_value: int = 0,
) -> tuple[int, int]:
    """The lost-update litmus test for one counter granule.

    Returns ``(expected, actual)`` where expected is the initial value
    plus the sum of all committed RMW deltas on the granule.  Blind
    writes to the granule would invalidate the invariant, so the caller
    should only use counter granules touched by RMW operations.
    """
    expected = initial_value
    for spec in committed_specs.values():
        for op in spec.ops:
            if op.granule != granule:
                continue
            if op.kind == "w":
                raise ReproError(
                    f"{granule} is blind-written; counter invariant invalid"
                )
            if op.kind == "m":
                assert op.value is not None
                expected += op.value
    actual = scheduler.store.chain(granule).latest_committed().value
    if not isinstance(actual, int):
        raise ReproError(f"{granule} holds non-integer {actual!r}")
    return expected, actual
