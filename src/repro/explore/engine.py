"""The budgeted search loop: baseline, random, neighborhood, fuzz.

One :func:`explore` call hunts one target (a case template) within an
:class:`ExploreBudget`:

1. **Baseline** — run the unperturbed case through every oracle.  A
   badly broken mutant fails right here; the run also records the
   complete menu of choice points for neighborhood search.
2. **Random episodes** — seeded :class:`RandomPerturber` runs at a low
   deviation rate; each episode's nonzero decisions become a replayable
   case checked through the oracles.
3. **Neighborhood** — systematic single-deviation probes of the
   baseline's recorded choice points (the smallest possible schedule
   changes, spread across the run by stride).
4. **Fault fuzzing** — for faulty-plan distributed targets, plan mutations
   inside the declared :class:`FaultBudget`, frontier-prioritised by
   coverage novelty.

The first violation (or every violation, with ``stop_on_first=False``)
is verified by deterministic replay of its recorded decision trace and
then shrunk with :func:`repro.explore.minimize.minimize` to a 1-minimal
case, using "same violation kind still present" as the shrink
predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.explore.cases import ExploreCase, RunReport, run_case
from repro.explore.fuzz import CoverageMap, FaultBudget, PlanFuzzer
from repro.explore.minimize import MinimizeResult, minimize
from repro.explore.oracles import Violation, check_case
from repro.explore.perturb import (
    RandomPerturber,
    ZeroPerturber,
    neighborhood,
)
from repro.obs.metrics import coverage_features


@dataclass(frozen=True)
class ExploreBudget:
    """How much searching one target gets."""

    episodes: int = 30
    neighborhood: int = 20
    fuzz: int = 0
    rate: float = 0.05
    minimize_tests: int = 300
    stop_on_first: bool = True
    fault_budget: FaultBudget = field(default_factory=FaultBudget)


@dataclass
class Finding:
    """One verified, minimized violation."""

    case: ExploreCase
    violations: list[Violation]
    minimized: ExploreCase
    #: The target violations as they present on the *minimized* case —
    #: what a saved artifact records.
    minimized_violations: list[Violation]
    minimize_tests: int
    report: RunReport
    phase: str


@dataclass
class ExploreResult:
    target: str
    runs: int = 0
    findings: list[Finding] = field(default_factory=list)
    coverage: int = 0
    replay_failures: list[str] = field(default_factory=list)

    @property
    def caught(self) -> bool:
        return bool(self.findings)


def _target_label(case: ExploreCase) -> str:
    if case.mutant:
        return case.mutant
    suffix = "" if not case.dist else (
        "-dist-ideal" if case.sim_level_only else "-dist"
    )
    return f"real-{case.scheduler}{suffix}"


def explore(
    template: ExploreCase,
    budget: ExploreBudget,
    base_seed: int = 0,
    log: Optional[Callable[[str], None]] = None,
) -> ExploreResult:
    result = ExploreResult(target=_target_label(template))
    coverage = CoverageMap()

    def note(message: str) -> None:
        if log is not None:
            log(f"[{result.target}] {message}")

    def probe(case: ExploreCase, report: RunReport, phase: str) -> bool:
        """Oracle-check one executed case; True to stop the search."""
        # Live-perturbed runs execute the *template* while the recorded
        # decisions land in ``case`` afterwards; the oracles must see
        # the choice-ful case (dist≡monolith rebuilds its monolithic
        # twin from it — comparing a perturbed dist run against an
        # unperturbed monolith is a spurious violation).
        report.case = case
        result.runs += 1
        coverage.observe(coverage_features(report.metrics))
        violations = check_case(report)
        if not violations:
            return False
        # Verify by deterministic replay of the recorded trace before
        # claiming a catch: if the replay loses the violation, the
        # decision stream failed to capture the run — an explorer bug
        # worth surfacing loudly, never silently.
        replay_report = run_case(case)
        replay_kinds = {v.kind for v in check_case(replay_report)}
        kinds = {v.kind for v in violations}
        if not kinds & replay_kinds:
            result.replay_failures.append(
                f"{phase}: {sorted(kinds)} not reproduced by replay"
            )
            note(f"replay failed to reproduce {sorted(kinds)}")
            return False

        def still_violates(candidate: ExploreCase) -> bool:
            return bool(
                kinds & {v.kind for v in check_case(run_case(candidate))}
            )

        shrunk: MinimizeResult = minimize(
            case, still_violates, max_tests=budget.minimize_tests
        )
        result.runs += shrunk.tests
        minimized_report = run_case(shrunk.case)
        minimized_violations = [
            v for v in check_case(minimized_report) if v.kind in kinds
        ]
        result.findings.append(
            Finding(
                case=case,
                violations=list(violations),
                minimized=shrunk.case,
                minimized_violations=minimized_violations,
                minimize_tests=shrunk.tests,
                report=minimized_report,
                phase=phase,
            )
        )
        note(
            f"violation {sorted(kinds)} found in phase {phase}; "
            f"minimized to {len(shrunk.case.choices)} choices + "
            f"{len(dict(shrunk.case.plan))} plan keys "
            f"in {shrunk.tests} tests"
        )
        return budget.stop_on_first or not minimized_violations
        # (minimized_violations is non-empty whenever still_violates
        # held at the end of shrinking, which minimize guarantees.)

    # -- phase 1: baseline --------------------------------------------
    zero = ZeroPerturber()
    baseline = run_case(template, perturber=zero)
    if probe(template, baseline, "baseline"):
        result.coverage = len(coverage.features)
        return result

    # -- phase 2: random episodes -------------------------------------
    for episode in range(budget.episodes):
        perturber = RandomPerturber(
            seed=base_seed * 100_003 + episode,
            rate=budget.rate,
            points=template.perturb_points,
        )
        report = run_case(template, perturber=perturber)
        case = template.with_choices(perturber.recorded)
        if probe(case, report, f"random-{episode}"):
            result.coverage = len(coverage.features)
            return result

    # -- phase 3: neighborhood ----------------------------------------
    addresses = sum(
        1
        for key, n in zero.seen.items()
        if key[0] in template.perturb_points and n > 1
    )
    stride = max(1, addresses // max(1, budget.neighborhood))
    probes = 0
    for choices in neighborhood(
        zero.seen, points=template.perturb_points, stride=stride
    ):
        if probes >= budget.neighborhood:
            break
        probes += 1
        case = template.with_choices(choices)
        report = run_case(case)
        if probe(case, report, f"neighborhood-{probes}"):
            result.coverage = len(coverage.features)
            return result

    # -- phase 4: fault fuzzing (faulty-plan dist targets only: a fuzzed
    # plan is never ideal, so it would move an ideal-plan target off the
    # coalesced wire the target exists to exercise) --------------------
    if budget.fuzz and template.dist and not template.sim_level_only:
        from repro.dist.node import node_name
        from repro.sweep.spec import build_workload

        nodes = [
            node_name(segment)
            for segment in build_workload(
                template.workload
            ).partition.segments
        ]
        fuzzer = PlanFuzzer(
            budget.fault_budget,
            seed=base_seed * 7 + 13,
            nodes=nodes,
            base=template.plan,
        )
        for episode in range(budget.fuzz):
            plan = fuzzer.propose()
            fuzz_template = replace(template, plan=plan)
            perturber = RandomPerturber(
                seed=base_seed * 90_001 + episode,
                rate=budget.rate,
                points=fuzz_template.perturb_points,
            )
            report = run_case(fuzz_template, perturber=perturber)
            case = fuzz_template.with_choices(perturber.recorded)
            signature = coverage_features(report.metrics)
            if not signature <= coverage.features:
                fuzzer.accept(plan)  # novel behaviour: keep this lineage
            if probe(case, report, f"fuzz-{episode}"):
                result.coverage = len(coverage.features)
                return result

    result.coverage = len(coverage.features)
    return result
