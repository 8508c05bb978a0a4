#!/usr/bin/env python
"""Validate the committed ``BENCH_*.json`` files and print the perf
trajectory table.

Each benchmark suite writes its headline numbers into a ``BENCH_*.json``
file at the repo root; README.md and ROADMAP.md quote those numbers.
Two silent failure modes have bitten similar setups:

* a bench file goes *malformed* (truncated write, schema drift) and the
  quoted numbers stop meaning what the prose says they mean;
* a bench file gets *silently dropped* (suite renamed, path typo) and
  CI keeps passing while the trajectory quietly loses a data point.

This script fails loudly on both.  CI runs it after the benchmark jobs;
it can also be run locally: ``python benchmarks/bench_history.py``.

Validation is deliberately minimal — a JSON object with a non-empty
``bench`` name, the per-file headline paths present with the right
types, at least one numeric leaf, and the few cross-field invariants a
wrong artifact has broken before (a latency summary's ``samples`` must
equal the cell's commit count; the ideal-plan dist wire must carry
fewer sends than the eager one).  Benches stay free to grow new fields
without touching this file.
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

# filename -> dotted paths that must exist, with the type they must
# carry.  These are exactly the numbers README.md's results table and
# the trajectory table below quote.
REQUIRED = {
    "BENCH_read_path.json": {
        "bench": str,
        "cached_vs_uncached": (int, float),
        "uncached.commits_per_s": (int, float),
        "cached.commits_per_s": (int, float),
        "uncached.schedule_md5": str,
        "cached.schedule_md5": str,
    },
    "BENCH_wall_lifecycle.json": {
        "bench": str,
        "before_unbounded.commits_per_s": (int, float),
        "after_bounded.commits_per_s": (int, float),
        "after_bounded.retained_walls": int,
        "before_unbounded.retained_walls": int,
    },
    "BENCH_sweep_throughput.json": {
        "bench": str,
        "parallel_sweep.speedup": (int, float),
        "parallel_sweep.byte_identical": bool,
        "hot_loop.event_over_scan": (int, float),
    },
    "BENCH_dist_messages.json": {
        "bench": str,
        "commits": int,
        "hdd.ratios.total": (int, float),
        "hdd.wire_sends": int,
        "hdd-latency1.wire_sends": int,
    },
    "BENCH_serve_throughput.json": {
        "bench": str,
        "parallelism_note": str,
        "slopes.hdd": (int, float),
        "slopes.mv2pl": (int, float),
        "slopes.ratio_hdd_over_mv2pl": (int, float),
        "ro_restarts.hdd": int,
        "protocol_errors": int,
    },
    "BENCH_multicore.json": {
        "bench": str,
        "cpu_count": int,
        "worker_procs": int,
        "sim_wall_s": (int, float),
        "proc_wall_s": (int, float),
        "speedup": (int, float),
        "parallelism_note": str,
        "byte_identical": bool,
    },
    "BENCH_explore_coverage.json": {
        "bench": str,
        "corpus.total": int,
        "corpus.caught": int,
        "corpus.all_minimized": bool,
        "clean.real_targets": int,
        "clean.violations": int,
        "runs": int,
        "replay_failures": int,
    },
}


def lookup(data, dotted):
    """Walk a dotted path through nested dicts; raise KeyError."""
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(dotted)
        node = node[part]
    return node


def numeric_leaves(data):
    if isinstance(data, bool):
        return 0
    if isinstance(data, (int, float)):
        return 1
    if isinstance(data, dict):
        return sum(numeric_leaves(v) for v in data.values())
    if isinstance(data, list):
        return sum(numeric_leaves(v) for v in data)
    return 0


def validate(path, spec):
    """Return a list of problem strings for one bench file."""
    if not path.exists():
        return [f"{path.name}: missing (bench silently dropped?)"]
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable JSON ({exc})"]
    if not isinstance(data, dict):
        return [f"{path.name}: top level is {type(data).__name__}, "
                "expected object"]
    problems = []
    for dotted, want in spec.items():
        try:
            value = lookup(data, dotted)
        except KeyError:
            problems.append(f"{path.name}: missing key {dotted!r}")
            continue
        # bool is an int subclass; require exact bool where asked.
        if want is bool or want is int:
            ok = type(value) is want
        else:
            ok = isinstance(value, want) and not isinstance(value, bool)
        if not ok:
            problems.append(
                f"{path.name}: {dotted!r} is "
                f"{type(value).__name__}, expected {want}"
            )
    if not data.get("bench"):
        problems.append(f"{path.name}: empty 'bench' name")
    if numeric_leaves(data) == 0:
        problems.append(f"{path.name}: no numeric metrics at all")
    return problems


def _serve_cells(data):
    for sweep in ("connection_sweep", "read_ratio_sweep"):
        for cells in data.get(sweep, {}).values():
            yield from cells


def cross_field_problems(name, data):
    """Invariants *between* fields: a file can carry every required key
    with the right type and still contradict itself."""
    problems = []
    if name == "BENCH_serve_throughput.json":
        for cell in _serve_cells(data):
            where = (
                f"{cell.get('scheduler')} conns={cell.get('connections')} "
                f"ro_share={cell.get('ro_share')}"
            )
            for summary, count in (
                ("latency_ms", "commits"),
                ("ro_latency_ms", "ro_commits"),
            ):
                samples = cell.get(summary, {}).get("samples")
                if samples != cell.get(count):
                    problems.append(
                        f"{name}: {where}: {summary}.samples is "
                        f"{samples}, expected {count} = {cell.get(count)}"
                    )
    if name == "BENCH_dist_messages.json":
        ideal = data["hdd"]["wire_sends"]
        eager = data["hdd-latency1"]["wire_sends"]
        if not ideal < eager:
            problems.append(
                f"{name}: ideal-plan wire_sends {ideal} is not below "
                f"the eager (latency 1) wire's {eager}"
            )
    return problems


def headline(name, data):
    """One quotable line per bench for the trajectory table."""
    if name == "BENCH_read_path.json":
        same = (data["uncached"]["schedule_md5"]
                == data["cached"]["schedule_md5"])
        return (
            f"snapshot cache {data['cached_vs_uncached']:.2f}x "
            f"({data['cached']['commits_per_s']:.0f} vs "
            f"{data['uncached']['commits_per_s']:.0f} commits/s), "
            f"schedule {'identical' if same else 'DIVERGED'}"
        )
    if name == "BENCH_wall_lifecycle.json":
        return (
            f"bounded GC {data['after_bounded']['commits_per_s']:.0f} "
            f"commits/s, retained walls "
            f"{data['before_unbounded']['retained_walls']} -> "
            f"{data['after_bounded']['retained_walls']}"
        )
    if name == "BENCH_sweep_throughput.json":
        return (
            f"event/scan {data['hot_loop']['event_over_scan']:.2f}x, "
            f"sweep speedup {data['parallel_sweep']['speedup']:.2f}x "
            f"(byte_identical={data['parallel_sweep']['byte_identical']})"
        )
    if name == "BENCH_serve_throughput.json":
        slopes = data["slopes"]
        return (
            f"serve ro-goodput slope hdd {slopes['hdd']:.3f} vs mv2pl "
            f"{slopes['mv2pl']:.3f} "
            f"({slopes['ratio_hdd_over_mv2pl']:.2f}x), hdd ro restarts "
            f"{data['ro_restarts']['hdd']}, protocol errors "
            f"{data['protocol_errors']}"
        )
    if name == "BENCH_dist_messages.json":
        ideal = data["hdd"]["wire_sends"]
        eager = data["hdd-latency1"]["wire_sends"]
        return (
            f"sync ratio {data['hdd']['ratios']['total']:.3f} vs "
            f"analytic, ideal-plan wire {ideal} sends vs {eager} eager "
            f"at latency 1"
        )
    if name == "BENCH_multicore.json":
        return (
            f"proc/sim {data['speedup']:.2f}x "
            f"({data['proc_wall_s']:.0f}s vs {data['sim_wall_s']:.0f}s, "
            f"{data['worker_procs']} procs on {data['cpu_count']} "
            f"core(s), byte_identical={data['byte_identical']})"
        )
    if name == "BENCH_explore_coverage.json":
        corpus = data["corpus"]
        clean = data["clean"]
        return (
            f"mutation corpus {corpus['caught']}/{corpus['total']} "
            f"caught (minimized={corpus['all_minimized']}), real "
            f"targets {clean['violations']} violation(s), "
            f"{data['runs']} runs"
        )
    return "?"


def main():
    problems = []
    rows = []
    for name, spec in sorted(REQUIRED.items()):
        path = REPO_ROOT / name
        file_problems = validate(path, spec)
        problems.extend(file_problems)
        if not file_problems:
            data = json.loads(path.read_text())
            file_problems = cross_field_problems(name, data)
            problems.extend(file_problems)
        if not file_problems:
            rows.append((data["bench"], headline(name, data)))
    # Unexpected BENCH files are a trajectory change too: either
    # register them here or they rot unvalidated.
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        if path.name not in REQUIRED:
            problems.append(
                f"{path.name}: not registered in bench_history.REQUIRED"
            )

    print("perf trajectory")
    print("---------------")
    if rows:
        width = max(len(bench) for bench, _ in rows)
        for bench, line in rows:
            print(f"{bench:<{width}}  {line}")
    else:
        print("(no valid bench files)")
    if problems:
        print()
        print("PROBLEMS")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print()
    print(f"{len(rows)} bench files valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
