"""Disarmed ≡ all-zeros ≡ byte-identical: the hooks must be invisible.

The exploration hooks in the simulator, the network and the runtime are
only sound if index 0 reproduces exactly what the unhooked code does —
otherwise every recorded schedule and committed BENCH number in this
repo would silently change underneath the explorer.  Each test runs a
case twice: once truly disarmed (``perturb=None``, the pre-explore code
path) and once through ``run_case`` with an armed all-zeros perturber,
and requires byte-identical canonical outputs.
"""

from repro.explore.cases import ExploreCase, run_case
from repro.explore.perturb import Choice, RandomPerturber, ZeroPerturber
from repro.sim.engine import Simulator
from repro.sweep.spec import build_workload


def _armed_lines(case, perturber):
    report = run_case(case, perturber=perturber)
    assert report.error is None, report.error
    return report.schedule_lines, report.message_lines


def _disarmed_lines(case):
    """Execute a case along the pre-explore code path: no perturber
    object anywhere, hooks never branch."""
    from repro.explore.cases import _build_scheduler

    workload = build_workload(case.workload)
    scheduler = _build_scheduler(case, workload.partition)
    Simulator(
        scheduler,
        workload,
        clients=case.clients,
        seed=case.seed,
        max_steps=case.max_steps,
        target_commits=case.target_commits,
        audit=False,
    ).run()
    schedule_lines = tuple(str(step) for step in scheduler.schedule)
    network = getattr(scheduler, "network", None)
    message_lines = (
        tuple(network.log_lines()) if network is not None else ()
    )
    return schedule_lines, message_lines


def test_sim_zero_perturber_matches_disarmed():
    case = ExploreCase(scheduler="hdd", clients=6, target_commits=40)
    assert _armed_lines(case, ZeroPerturber()) == _disarmed_lines(case)


def test_sim_replay_of_empty_trace_matches_disarmed():
    # run_case with no perturber replays the (empty) recorded trace —
    # the artifact-replay code path must also be baseline-identical.
    case = ExploreCase(scheduler="to", clients=5, target_commits=30, seed=3)
    assert _armed_lines(case, None) == _disarmed_lines(case)


def test_dist_zero_perturber_matches_disarmed():
    """Schedule AND canonical message log, eager gossip with faults."""
    case = ExploreCase(
        scheduler="hdd",
        dist=True,
        clients=6,
        target_commits=30,
        plan={"latency": 2, "jitter": 2, "drop_rate": 0.02},
    )
    armed_schedule, armed_messages = _armed_lines(case, ZeroPerturber())
    plain_schedule, plain_messages = _disarmed_lines(case)
    assert armed_schedule == plain_schedule
    assert armed_messages == plain_messages
    assert armed_messages, "dist run produced no messages?"


def test_dist_batched_zero_perturber_matches_disarmed():
    """The ideal plan: the coalesced, governed wire."""
    case = ExploreCase(
        scheduler="hdd",
        dist=True,
        clients=6,
        target_commits=30,
    )
    assert _armed_lines(case, ZeroPerturber()) == _disarmed_lines(case)


def test_net_level_choices_are_inert_on_an_ideal_plan():
    """The governed wire's contract assumes baseline delivery order, so
    an ideal-plan case is perturbed at the simulator level only — also
    on replay, where the minimizer can leave net-level choices behind
    after shrinking a faulty plan to the ideal one."""
    case = ExploreCase(
        scheduler="hdd", dist=True, clients=6, target_commits=30
    )
    leftover = case.with_choices(
        [Choice("deliver", index, 1) for index in range(400)]
    )
    report = run_case(leftover)
    assert report.perturber.recorded == []
    assert (report.schedule_lines, report.message_lines) == _disarmed_lines(
        case
    )


def test_nonzero_choice_actually_changes_a_schedule():
    """The hooks must also *do* something when armed — otherwise the
    search space is empty and the corpus numbers are vacuous."""
    case = ExploreCase(
        scheduler="hdd",
        workload={
            "schema": "inventory",
            "read_only_share": 0.3,
            "skew": 0.9,
            "granules_per_segment": 4,
        },
        clients=8,
        target_commits=40,
    )
    baseline = _disarmed_lines(case)[0]
    for seed in range(10):
        perturber = RandomPerturber(seed=seed, rate=0.3)
        perturbed = _armed_lines(case, perturber)[0]
        if perturber.recorded and perturbed != baseline:
            return
    raise AssertionError(
        "10 seeded perturbers never changed the schedule"
    )
