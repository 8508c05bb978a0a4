"""The ledger benchmark: one command, seven workloads, two kinds of run.

One workload (what the benchmark contract drives)::

    python3 bench/run.py --workload mono_mixed --seed 7 --seconds 5 --trace 0

sets the workload up, times one full-size region (about ``--seconds``
on the reference box: the sizes scale by ``seconds / 5``), prints the
end-to-end metrics by name and unit, runs the correctness checks, and
ends with one JSON object on the last line of standard output.
``--trace 1`` is the separate traced run: the same inputs untraced and
then traced, reporting the per-layer metrics and writing the span file
under ``bench/out/``.

Every workload (what a person comparing two commits runs)::

    python3 bench/run.py [--repeats 10] [--label parent]

runs each workload ``--repeats`` times in fresh subprocesses (seeds
``--seed``, ``--seed + 1``, ...), prints median and quartiles per
(workload, metric), and writes ``bench/out/results-<label>.json`` for
``bench/compare.py``.

Exit codes are the repository's: 0 clean, 1 operational (refused to
measure, bad arguments), 2 a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import compare

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 7
#: One invocation may not outlive the contract's 180 s per run.
RUN_TIMEOUT_S = 170
#: The open-loop generator, not the server, was the bottleneck above this.
MAX_GENERATOR_LAG_MS = 1.0
#: Latency is summarised per window of the run and the windows' median
#: reported.  In an open loop one stall of the box taxes every arrival
#: behind it, so a whole-run mean swings with a single hiccup
#: (``serve_paced`` read 0.89 and 1.56 ms on two runs of one seed; the
#: second's windows were 0.93 0.83 0.78 0.95 4.35 1.51).  The whole-run
#: mean and maximum are printed next to the metrics.
LATENCY_WINDOWS = 6
#: ``--smoke`` divides every size by this (the harness tests).
SMOKE_DIVISOR = 20

#: What every measuring process runs under (it re-executes itself once
#: to get it).  The hash seed fixes set and dict orders.  The glibc
#: settings keep large blocks on a heap that is never trimmed: asyncio
#: reads every socket into a fresh 256 KiB buffer, which glibc by
#: default maps and unmaps (or grows and trims the heap for) on every
#: receive until some later allocation happens to pin the heap top, so
#: the socket path cost 0.93 or 0.61 ms per transaction, flipping at an
#: arbitrary point of a run (README, "Environment").
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}

EXIT_OPERATIONAL = 1
EXIT_CORRECTNESS = 2


class Refusal(Exception):
    """The run would measure the wrong thing; nothing is reported."""


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int, seconds: int) -> dict:
    import_workloads()
    from repro.sweep.runner import usable_cpus

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "nproc": usable_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "seed": seed,
        "seconds": seconds,
    }


def import_workloads():
    """The workloads module, with this directory and the program's
    ``src/`` importable (neither is an installed package)."""
    for path in (ROOT / "src", BENCH_DIR):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    return workloads


def size_scale(seconds: int, smoke: bool) -> float:
    """What multiplies the workloads' full sizes."""
    scale = seconds / import_workloads().NOMINAL_SECONDS
    return scale / SMOKE_DIVISOR if smoke else scale


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def over_windows(samples: list[float], summarise) -> float:
    """Median of ``summarise`` over the run's ``LATENCY_WINDOWS``
    consecutive windows (``samples`` are in commit order)."""
    count = min(LATENCY_WINDOWS, len(samples))
    edges = [len(samples) * i // count for i in range(count + 1)]
    return statistics.median(
        summarise(samples[lo:hi]) for lo, hi in zip(edges, edges[1:])
    )


def end_to_end_metrics(run) -> dict[str, float]:
    from repro.sim.metrics import percentile

    attempts = run.commits + run.restarts + run.failures
    return {
        "setup_s": run.setup_s,
        "commits_per_s": run.commits / run.wall_s,
        "latency_ms_mean": over_windows(run.latencies_ms, statistics.fmean),
        "latency_ms_p95": over_windows(
            run.latencies_ms, lambda window: percentile(window, 0.95)
        ),
        "steps_per_commit": run.steps / run.commits,
        "committed_share": run.commits / attempts,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer_metrics(tracer, traced, untraced_wall_s, declared) -> dict:
    """Every declared per-layer metric; 0 where the layer did not run."""
    from repro.sim.metrics import percentile

    measured: dict[str, float] = {}
    for cells in (tracer.totals, tracer.breakdowns):
        for key, (calls, self_s) in cells.items():
            measured[f"{key}.calls"] = calls
            measured[f"{key}.self_s"] = self_s
    measured["storage.gc.passes"] = measured.get("storage.gc.calls", 0)
    measured.update(tracer.counts)
    measured.update(traced.layer)
    attempts = granted = 0
    for op in ("read", "write", "commit"):
        attempts += measured.get(f"scheduling.{op}.calls", 0)
        granted += measured.get(f"scheduling.{op}.granted", 0)
    measured["scheduling.granted_ratio"] = (
        granted / attempts if attempts else 0.0
    )
    measured["client.latency_ms_p50"] = percentile(traced.latencies_ms, 0.50)
    for kind, samples in (
        ("ro", traced.ro_latencies_ms),
        ("update", traced.update_latencies_ms),
    ):
        measured[f"client.{kind}_latency_ms_p50"] = percentile(samples, 0.50)
        measured[f"client.{kind}_latency_ms_p95"] = percentile(samples, 0.95)
    measured["trace.overhead_ratio"] = traced.wall_s / untraced_wall_s
    measured["ledger.root_s"] = tracer.root_s
    metrics = {name: float(measured.get(name, 0)) for name in declared}
    # The ledger must close over what is *reported*: a traced function
    # whose self time no declared metric carries shows up here.
    reported = sum(metrics.get(f"{key}.self_s", 0.0) for key in tracer.totals)
    metrics["ledger.residual_s"] = tracer.root_s - reported
    return metrics


def check_golden(name, workload, seed, seconds, run) -> list[str]:
    """Pinned commits/restarts/schedule for the default seed and size."""
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    if (
        not workload.deterministic
        or seed != golden["seed"]
        or seconds != golden["seconds"]
    ):
        return []
    got = {
        "commits": run.commits,
        "restarts": run.restarts,
        "schedule_md5": run.schedule_md5,
    }
    want = golden["workloads"].get(name)
    if got == want:
        return []
    return [f"golden pin mismatch: expected {want}, got {got}"]


def run_workload(
    name: str, seed: int, seconds: int, trace: bool, smoke: bool
) -> tuple[dict, list[str]]:
    """Measure one workload; returns (result object, human-readable lines)."""
    workloads = import_workloads()
    from repro.sweep.runner import usable_cpus
    from tracing import Tracer, layer_patches

    contract = load_contract()
    workload = workloads.WORKLOADS[name]
    sizes = workload.sizes(size_scale(seconds, smoke))
    if usable_cpus() < workload.connections:
        raise Refusal(
            f"{name} opens {workload.connections} connections but only "
            f"{usable_cpus()} core(s) are usable"
        )
    lines = [f"workload {name}: sizes {sizes}"]
    problems: list[str] = []
    if trace:
        section = contract["per_layer"]
        untraced = workload.run(seed, sizes)
        untraced_wall_s, untraced_md5 = untraced.wall_s, untraced.schedule_md5
        del untraced  # its schedule need not outlive it
        tracer = Tracer()
        tracer.install(layer_patches())
        try:
            run = workload.run(seed, sizes, tracer)
        finally:
            tracer.uninstall()
        if workload.deterministic and run.schedule_md5 != untraced_md5:
            problems.append("traced run committed a different schedule")
        metrics = per_layer_metrics(
            tracer, run, untraced_wall_s, [m["name"] for m in section]
        )
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        count = tracer.write_spans(span_file)
        lines.append(f"{count} op spans -> {span_file.relative_to(ROOT)}")
    else:
        section = contract["end_to_end"]
        run = workload.run(seed, sizes)
        if not smoke:
            problems.extend(check_golden(name, workload, seed, seconds, run))
        metrics = end_to_end_metrics(run)
        lines.append(
            "whole-run latency: mean "
            f"{statistics.fmean(run.latencies_ms):.4f} ms, "
            f"max {max(run.latencies_ms):.4f} ms, "
            f"{len(run.latencies_ms)} samples"
        )
    units = {m["name"]: m["unit"] for m in section}
    if set(metrics) != set(units):
        raise Refusal(
            "BENCHMARK.json names differ from what run.py measures: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    lag = run.layer.get("serve.loadgen.lag_ms_p95", 0.0)
    if lag > MAX_GENERATOR_LAG_MS:
        raise Refusal(
            f"{name}: the load generator ran {lag:.3f} ms late at p95 "
            f"(limit {MAX_GENERATOR_LAG_MS} ms): it, not the server, was "
            "the bottleneck"
        )
    problems.extend(run.problems)
    problems.extend(workload.check(seed, sizes, run))
    for metric, value in metrics.items():
        # A traced run declares every layer; most are idle in any one
        # workload, and the ledger lines are the point even when zero.
        if value or not trace or metric.startswith("ledger."):
            lines.append(f"  {metric:<40} {value:>16.6f} {units[metric]}")
    lines.extend(f"CHECK FAILED [{name}] {p}" for p in problems)
    result = {
        "correct": not problems,
        "attempted": run.commits + run.failures,
        "failed": run.failures,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    return result, lines


# ----------------------------------------------------------------------
# Every workload, each repeat in a fresh subprocess
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: int, trace: int, smoke: bool):
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(args) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    section = "per_layer" if args.trace else "end_to_end"
    repeats = 1 if args.trace else args.repeats
    env = environment(args.seed, args.seconds)
    env["repeats"] = repeats
    registry = import_workloads().WORKLOADS
    scale = size_scale(args.seconds, args.smoke)
    env["sizes"] = {name: registry[name].sizes(scale) for name in names}
    values: dict[str, dict[str, list[float]]] = {}
    for name in names:
        values[name] = {}
        for repeat in range(repeats):
            result = run_child(
                name, args.seed + repeat, args.seconds, args.trace, args.smoke
            )
            for metric, cell in result["metrics"].items():
                values[name].setdefault(metric, []).append(cell["value"])
            print(f"{name} seed {args.seed + repeat}: done", flush=True)
    print(f"\nenvironment: {json.dumps(env)}\n")
    header = f"{'metric':<40} {'unit':<6} {'n':>3} {'q1':>14} {'median':>14} {'q3':>14}"
    for name in names:
        print(f"== {name}\n{header}")
        for spec in contract[section]:
            samples = values[name][spec["name"]]
            idle = args.trace and not any(samples)
            if idle and not spec["name"].startswith("ledger."):
                continue
            median, q1, q3, _ = compare.summary(samples)
            print(
                f"{spec['name']:<40} {spec['unit']:<6} {len(samples):>3} "
                f"{q1:>14.6f} {median:>14.6f} {q3:>14.6f}"
            )
    OUT_DIR.mkdir(exist_ok=True)
    kind = "layers" if args.trace else "results"
    path = OUT_DIR / f"{kind}-{args.label}.json"
    path.write_text(
        json.dumps({"environment": env, "values": values}, indent=1) + "\n"
    )
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=int,
        help="timed-region length on the reference box (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--smoke", action="store_true", help="one-twentieth sizes (tests)"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args(argv)
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.exit(
            EXIT_OPERATIONAL,
            f"unknown workload {args.workload!r}; choose from {names}\n",
        )
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.seconds < 1 or args.repeats < 1:
        parser.exit(
            EXIT_OPERATIONAL, "--seconds and --repeats must be at least 1\n"
        )
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload is None:
        return run_suite(args)
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        env = dict(os.environ, **PINNED_ENV)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    try:
        result, lines = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    except Refusal as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return EXIT_OPERATIONAL
    print(f"environment: {json.dumps(environment(args.seed, args.seconds))}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_CORRECTNESS


if __name__ == "__main__":
    sys.exit(main())
