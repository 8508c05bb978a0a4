"""Differential properties: the linear-time verdicts vs. the definition.

``is_serializable`` / ``find_dependency_cycle`` / ``closing_step`` /
``serialization_order`` decide a relay-encoded graph of O(steps) arcs;
``build_dependency_graph`` stays the arc-per-rule-instance definition.
These properties pin the two together on schedules no scheduler would
emit but the oracle must still judge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn.depgraph import (
    build_dependency_graph,
    closing_step,
    find_dependency_cycle,
    is_serializable,
    serialization_order,
)
from repro.txn.schedule import Action, Schedule

MODES = ("paper", "mvsg")


@st.composite
def messy_schedules(draw, max_txns=6, max_steps=26):
    """Schedules with everything the relay encoding special-cases.

    Reads may name *any* version written so far — bootstrap, committed,
    aborted or not yet committed — and a transaction may read a granule
    and then write it.  ``w`` installs at the writer's id (one version
    per transaction and granule, as the multi-version engines do);
    ``W`` installs at a fresh, ever larger timestamp (as the
    single-version engines do), so one transaction can own two versions
    of a granule.  Transactions end mid-schedule or at its end by
    commit or abort, or are left open.
    """
    n_txns = draw(st.integers(1, max_txns))
    granules = ["x", "y", "z"][: draw(st.integers(1, 3))]
    schedule = Schedule()
    written = {g: [0] for g in granules}
    fresh_ts = 100
    live = list(range(1, n_txns + 1))

    def finish(txn):
        live.remove(txn)
        fate = draw(st.sampled_from("ccca."))
        if fate == "c":
            schedule.record_commit(txn)
        elif fate == "a":
            schedule.record_abort(txn)

    for _ in range(draw(st.integers(1, max_steps))):
        if not live:
            break
        txn = draw(st.sampled_from(live))
        granule = draw(st.sampled_from(granules))
        kind = draw(st.sampled_from("rrrwwWe"))
        if kind == "r":
            version = draw(st.sampled_from(written[granule]))
            schedule.record_read(txn, granule, version)
        elif kind == "e":
            finish(txn)
        else:
            if kind == "W":
                fresh_ts += 1
            version = txn if kind == "w" else fresh_ts
            schedule.record_write(txn, granule, version)
            written[granule].append(version)
    for txn in list(live):
        finish(txn)
    return schedule


@given(messy_schedules())
@settings(max_examples=600, deadline=None)
def test_fast_verdict_equals_the_definition(schedule):
    for mode in MODES:
        graph, _ = build_dependency_graph(schedule, mode=mode)
        assert is_serializable(schedule, mode=mode) == graph.is_acyclic()


@given(messy_schedules())
@settings(max_examples=600, deadline=None)
def test_reported_cycle_is_made_of_real_dependencies(schedule):
    for mode in MODES:
        graph, deps = build_dependency_graph(schedule, mode=mode)
        cycle = find_dependency_cycle(schedule, mode=mode)
        assert (cycle is None) == graph.is_acyclic()
        if cycle is None:
            continue
        assert len(cycle) >= 2
        for dep, following in zip(cycle, cycle[1:] + cycle[:1]):
            assert dep in deps
            assert dep.earlier == following.later


@given(messy_schedules())
@settings(max_examples=400, deadline=None)
def test_closing_step_is_the_commit_that_closed_the_cycle(schedule):
    for mode in MODES:
        step = closing_step(schedule, mode=mode)
        if is_serializable(schedule, mode=mode):
            assert step is None
            continue
        assert schedule.steps[step].action is Action.COMMIT
        assert not is_serializable(Schedule(schedule.steps[: step + 1]), mode)
        if mode == "mvsg":  # monotone in the prefix: this is the first
            assert is_serializable(Schedule(schedule.steps[:step]), mode)


@given(messy_schedules())
@settings(max_examples=400, deadline=None)
def test_serialization_order_respects_the_mvsg(schedule):
    graph, _ = build_dependency_graph(schedule, mode="mvsg")
    if not graph.is_acyclic():
        return
    order = serialization_order(schedule)
    assert sorted(order) == sorted(schedule.committed_txn_ids())
    position = {txn: i for i, txn in enumerate(order)}
    for later, earlier in graph.arcs:
        assert position[earlier] < position[later]
