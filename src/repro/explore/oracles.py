"""What "broken" means: the oracle layer behind every explored run.

Every executed :class:`~repro.explore.cases.RunReport` passes through
:func:`check_case`, which applies each oracle that is *valid* for the
case's shape and returns the violations found:

* ``serializability`` — the full Bernstein–Goodman MVSG audit over the
  recorded schedule (the same criterion ``audit=True`` enforces, run
  here explicitly so a failure is data rather than an exception).
* ``engine-error`` — the run died in a stall or an internal exception.
  Mutants usually fail this way: corrupted scheduler state rarely makes
  it all the way to a cleanly non-serializable schedule.
* ``digest-conservatism`` — every released time wall's components must
  be at most the *omniscient* ``E`` values recomputed after the fact
  from every node's full journal (only meaningful under a non-ideal
  plan: ideal plans use oracle-clock horizons, so the clamps are
  no-ops).  This catches a node that admits stale digest raises.
* ``critical-path`` — the PR-7 exactness invariant: every committed
  transaction's latency must be fully attributed to buckets.
* ``dist-monolith`` — a distributed run on an ideal plan must commit
  the exact same schedule as the monolithic scheduler it distributes
  (such cases are perturbed at the simulator level only, so both runs
  see the same decision stream).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import NotComputableError
from repro.explore.cases import ExploreCase, RunReport, run_case
from repro.txn.depgraph import closing_step, find_dependency_cycle


@dataclass(frozen=True)
class Violation:
    """One oracle failure: which property broke and how."""

    kind: str
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {"kind": self.kind, "detail": self.detail}


def check_serializability(report: RunReport) -> Optional[Violation]:
    schedule = getattr(report.scheduler, "schedule", None)
    if schedule is None:
        return None
    cycle = find_dependency_cycle(schedule, mode="mvsg")
    if cycle is None:
        return None
    return Violation(
        "serializability",
        f"the commit at step {closing_step(schedule, mode='mvsg')} closed "
        "the MVSG cycle " + "; ".join(map(str, cycle)),
    )


def check_engine_error(report: RunReport) -> Optional[Violation]:
    if report.error is None:
        return None
    return Violation("engine-error", report.error)


def check_digest_conservatism(report: RunReport) -> Optional[Violation]:
    """Released wall components vs. post-hoc omniscient recomputation.

    ``E(s, i, m)`` depends only on activity at or before ``m``-ish
    times, so recomputing it from the *complete* journals after the run
    yields the true value at each wall's base time — a wall released
    with a larger component admitted a digest raise the real activity
    never justified.  Computed per released wall, per component class;
    ``NotComputableError`` means the omniscient tracker cannot settle
    the value either, in which case conservative withholding was the
    only legal behaviour and the component is skipped.
    """
    runtime = report.scheduler
    nodes = getattr(runtime, "nodes", None)
    if not nodes or not report.walls:
        return None
    plan = getattr(runtime, "plan", None)
    if plan is None or plan.is_ideal:
        return None  # oracle-clock horizons: clamps are no-ops
    from repro.core.activity import ActivityTracker

    omniscient = ActivityTracker(runtime.partition.index)
    for class_id, node in nodes.items():
        for entry in node.journal:
            if entry["kind"] == "begin":
                omniscient.record_begin(
                    class_id, entry["txn"], entry["ts"]
                )
            else:
                omniscient.record_end(class_id, entry["txn"], entry["ts"])
    for wall in report.walls:
        for class_id, component in wall.components.items():
            try:
                truth = omniscient.e_func(
                    wall.start_class, class_id, wall.base_time
                )
            except NotComputableError:
                continue
            if component > truth:
                return Violation(
                    "digest-conservatism",
                    f"wall seq={wall.seq} base={wall.base_time} "
                    f"component[{class_id}]={component} exceeds "
                    f"omniscient E={truth}",
                )
    return None


def check_critical_path(report: RunReport) -> Optional[Violation]:
    if not report.events or not report.case.dist:
        return None
    from repro.obs import CausalTrace, CriticalPathAnalyzer

    try:
        problems = CriticalPathAnalyzer(
            CausalTrace(list(report.events))
        ).check()
    except Exception as exc:  # noqa: BLE001 - a broken DAG is a finding
        return Violation(
            "critical-path", f"analyzer failed: {type(exc).__name__}: {exc}"
        )
    if not problems:
        return None
    return Violation("critical-path", "; ".join(problems[:3]))


def check_dist_monolith(
    report: RunReport,
    runner: Callable[[ExploreCase], RunReport] = run_case,
) -> Optional[Violation]:
    """A dist run on an ideal plan against the same case on the genuine
    monolithic scheduler.  Both see the same decision stream: such a
    case is perturbed at the simulator level only."""
    if not report.case.sim_level_only:
        return None
    mono = runner(replace(report.case, dist=False, mutant=None))
    if report.schedule_lines == mono.schedule_lines:
        return None
    divergence = next(
        (
            i
            for i, (a, b) in enumerate(
                zip(report.schedule_lines, mono.schedule_lines)
            )
            if a != b
        ),
        min(len(report.schedule_lines), len(mono.schedule_lines)),
    )
    return Violation(
        "dist-monolith",
        f"dist and monolith schedules diverge at step {divergence} "
        f"(dist={len(report.schedule_lines)} steps, "
        f"monolith={len(mono.schedule_lines)} steps)",
    )


def check_case(
    report: RunReport,
    runner: Callable[[ExploreCase], RunReport] = run_case,
) -> list[Violation]:
    """All valid oracles over one run, in severity order."""
    violations = []
    for check in (
        check_serializability,
        check_engine_error,
        check_digest_conservatism,
        check_critical_path,
    ):
        violation = check(report)
        if violation is not None:
            violations.append(violation)
    violation = check_dist_monolith(report, runner)
    if violation is not None:
        violations.append(violation)
    return violations
