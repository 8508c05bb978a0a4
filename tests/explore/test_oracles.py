"""Oracle-layer unit behaviour (the corpus tests cover end-to-end)."""

from repro.baselines.timestamp_ordering import TimestampOrdering
from repro.explore.cases import ExploreCase, RunReport
from repro.explore.oracles import (
    Violation,
    check_case,
    check_dist_monolith,
    check_engine_error,
    check_serializability,
)


def test_violation_round_trip():
    violation = Violation("serializability", "MVSG has a cycle")
    assert violation.to_dict() == {
        "kind": "serializability",
        "detail": "MVSG has a cycle",
    }


def test_engine_error_oracle_reports_run_errors():
    case = ExploreCase()
    clean = RunReport(case=case)
    assert check_engine_error(clean) is None
    dead = RunReport(case=case, error="KeyError: 'granule'")
    violation = check_engine_error(dead)
    assert violation is not None and violation.kind == "engine-error"


def test_serializability_oracle_needs_a_schedule():
    assert check_serializability(RunReport(case=ExploreCase())) is None


def test_serializability_oracle_names_the_cycle_and_its_closing_commit():
    scheduler = TimestampOrdering(register_reads=False)  # Figure 4
    t1, t2, t3 = scheduler.begin(), scheduler.begin(), scheduler.begin()
    scheduler.read(t3, "e")
    scheduler.write(t1, "e", 1)
    scheduler.commit(t1)
    scheduler.read(t2, "e")
    scheduler.write(t2, "i", 2)
    scheduler.commit(t2)
    scheduler.read(t3, "i")
    scheduler.commit(t3)
    violation = check_serializability(
        RunReport(case=ExploreCase(), scheduler=scheduler)
    )
    assert violation is not None and violation.kind == "serializability"
    last = len(scheduler.schedule) - 1
    assert f"the commit at step {last} closed" in violation.detail
    for arc in ("t1 -> t3", "t2 -> t1", "t3 -> t2"):
        assert arc in violation.detail


def test_dist_monolith_oracle_compares_against_the_real_monolith():
    case = ExploreCase(dist=True, mutant="dist-skip-barrier")
    twins = []

    def runner(twin):
        twins.append(twin)
        return RunReport(case=twin, schedule_lines=("r1", "w1", "c1"))

    same = RunReport(case=case, schedule_lines=("r1", "w1", "c1"))
    assert check_dist_monolith(same, runner) is None
    # the twin is the same case on the genuine monolithic scheduler
    assert twins == [ExploreCase()]
    diverged = RunReport(case=case, schedule_lines=("r1", "w2"))
    violation = check_dist_monolith(diverged, runner)
    assert violation is not None and violation.kind == "dist-monolith"
    assert "diverge at step 1" in violation.detail
    # faulty plans and monolithic runs are out of scope: no twin is run
    for other in (ExploreCase(dist=True, plan={"latency": 1}), ExploreCase()):
        report = RunReport(case=other, schedule_lines=("r1",))
        assert check_dist_monolith(report, runner) is None
    assert len(twins) == 2


def test_check_case_on_error_only_report():
    report = RunReport(case=ExploreCase(), error="RuntimeError: stalled")
    kinds = [v.kind for v in check_case(report)]
    assert kinds == ["engine-error"]
