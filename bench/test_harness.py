"""Tests of the benchmark harness itself (``python -m pytest bench -q``).

They use ``--smoke`` sizes (a twentieth of the full ones: a few thousand
steps), so the whole file runs in seconds; nothing here measures the
program.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SCHEDULER_OPS, Tracer, layer_patches  # noqa: E402

CONTRACT = run.load_contract()
SECONDS = CONTRACT["run_seconds"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
class FakeClock:
    """Advances only when the synthetic work says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


def test_self_times_sum_to_the_root_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.work(0.25)

    leaf = tracer.wrap("storage.chain.latest_before", leaf)

    def middle():
        clock.work(1.0)
        leaf()
        leaf()

    middle = tracer.wrap("core.activity.a_func", middle)

    def read(txn_id):
        clock.work(0.5)
        middle()
        return None

    read = tracer.wrap_op("read", read)

    def root():
        clock.work(2.0)
        read(41)
        read(42)

    root = tracer.wrap("sim.engine.run", root)
    root()

    assert tracer.root_s == pytest.approx(2.0 + 2 * (0.5 + 1.0 + 0.5))
    assert tracer.totals["sim.engine.run"] == [1, pytest.approx(2.0)]
    assert tracer.totals["scheduling.read"] == [2, pytest.approx(1.0)]
    assert tracer.totals["core.activity.a_func"] == [2, pytest.approx(2.0)]
    assert tracer.totals["storage.chain.latest_before"] == [
        4,
        pytest.approx(1.0),
    ]
    self_times = sum(self_s for _calls, self_s in tracer.totals.values())
    assert self_times == pytest.approx(tracer.root_s, abs=1e-12)
    # Op spans are individual, carry the txn id, and fold what ran
    # under them.
    assert [span[1] for span in tracer.op_spans] == [41, 42]
    name, _, parent, start, end, self_s, outcome, inner = tracer.op_spans[1]
    assert (name, parent, outcome) == ("read", None, "done")
    assert end - start == pytest.approx(2.0)
    assert self_s == pytest.approx(0.5)
    assert inner["storage.chain.latest_before"] == [2, pytest.approx(0.5)]


def test_breakdowns_do_not_count_twice():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    handle = tracer.wrap(
        "dist.node.handle",
        lambda kind: clock.work(1.0),
        sub=lambda args: args[0],
    )
    handle("POLL")
    handle("GOSSIP")
    assert tracer.totals["dist.node.handle"] == [2, pytest.approx(2.0)]
    assert tracer.breakdowns["dist.node.handle.POLL"] == [
        1,
        pytest.approx(1.0),
    ]
    assert tracer.root_s == pytest.approx(2.0)


def test_exceptions_close_their_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.work(1.0)
        raise ValueError("unsettled")

    boom = tracer.wrap("core.timewall.poll", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.totals["core.timewall.poll"] == [1, pytest.approx(1.0)]
    assert tracer.root_s == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------
def test_install_then_uninstall_restores_every_attribute():
    from repro.core.scheduler import HDDScheduler
    from repro.sim.hierarchies import star_partition

    patches = layer_patches()
    scheduler = HDDScheduler(star_partition(2))
    before = [vars(owner).get(attr) for owner, attr, *_ in patches]
    instance_before = dict(vars(scheduler))
    tracer = Tracer()
    tracer.install(patches)
    tracer.install_ops(scheduler, SCHEDULER_OPS)
    assert all(
        vars(owner)[attr] is not original
        for (owner, attr, *_), original in zip(patches, before)
    )
    tracer.uninstall()
    after = [vars(owner).get(attr) for owner, attr, *_ in patches]
    assert all(a is b for a, b in zip(after, before))
    assert vars(scheduler).keys() == instance_before.keys()
    assert all(vars(scheduler)[k] is v for k, v in instance_before.items())


def test_traced_run_commits_the_untraced_schedule_and_closes_the_ledger():
    # run_workload's traced mode runs the same inputs untraced and traced
    # and reports a differing schedule md5 as a failed check.
    result, lines = run.run_workload(
        "mono_mixed", seed=7, seconds=SECONDS, trace=True, smoke=True
    )
    assert result["correct"], lines
    value = {name: cell["value"] for name, cell in result["metrics"].items()}
    assert set(value) == {m["name"] for m in CONTRACT["per_layer"]}
    assert value["scheduling.read.calls"] > 0
    assert value["storage.chain.latest_before.self_s"] > 0
    assert value["dist.net.send.calls"] == 0  # no such layer in mono_*
    assert value["ledger.root_s"] > 0
    assert abs(value["ledger.residual_s"]) <= 0.01 * value["ledger.root_s"]
    # ... and nothing stays patched behind it.
    from repro.sim.engine import Simulator

    assert Simulator.run.__qualname__ == "Simulator.run"
    assert not hasattr(Simulator.run, "__wrapped__")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_and_passes_its_checks(name):
    result, lines = run.run_workload(
        name, seed=11, seconds=SECONDS, trace=False, smoke=True
    )
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_deterministic_workloads_repeat_exactly():
    first = workloads.WORKLOADS["serve_saturated"]
    sizes = first.sizes(run.size_scale(SECONDS, smoke=True))
    one, two = first.run(5, sizes), first.run(5, sizes)
    assert (one.commits, one.steps, one.schedule_md5) == (
        two.commits,
        two.steps,
        two.schedule_md5,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json and its companions
# ----------------------------------------------------------------------
def test_contract_is_well_formed():
    assert set(CONTRACT) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        workloads.WORKLOADS
    )
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(
        m["better"] in ("lower", "higher")
        for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    )
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in CONTRACT["end_to_end"]
    )


def test_every_layer_metric_has_a_prediction():
    layers = json.loads((BENCH_DIR / "predictions.json").read_text())["layers"]
    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    known = {w["name"] for w in CONTRACT["workloads"]}
    for layer, prediction in layers.items():
        assert set(prediction["moves"]) <= end_to_end, layer
        assert set(prediction["workloads"]) <= known, layer
    for metric in CONTRACT["per_layer"]:
        covering = [
            layer
            for layer in layers
            if (metric["name"] + ".").startswith(layer + ".")
        ]
        assert covering, f"no prediction covers {metric['name']}"


def test_golden_pins_name_deterministic_workloads():
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    assert golden["seed"] == run.DEFAULT_SEED
    assert golden["seconds"] == SECONDS == workloads.NOMINAL_SECONDS
    assert set(golden["workloads"]) == {
        name for name, w in workloads.WORKLOADS.items() if w.deterministic
    }


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", 0.05) == "ok"
    slower = [v * 0.9 for v in steady]
    assert compare.verdict(steady, slower, "higher", 0.05) == "regressed"
    assert compare.verdict(steady, slower, "lower", 0.05) == "ok"
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert compare.verdict(steady, noisy, "higher", 0.05) == "unresolved"
    # Wide spread, but every B run beats every A run: resolved.
    much_better = [v * 2 for v in noisy]
    assert compare.verdict(steady, much_better, "higher", 0.05) == "ok"
