"""Compare two result sets of ``bench/run.py``, metric by metric.

    python3 bench/compare.py bench/out/results-A.json bench/out/results-B.json

A is the base (the parent commit, or the first of two sets of the same
commit); B is what is judged.  One row per (workload, end-to-end metric):
both medians with their quartiles, the ratio B/A, and a verdict against
the bound ``BENCHMARK.json`` fixes for the metric:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  either side's spread (inter-quartile distance over the
                median) is wider than the bound, so the row cannot show
                "unchanged" — unless every B run beats every A run;
``ok``          otherwise.

Exits 1 if any row regressed.  ``--strict`` also fails on ``unresolved``
(the repeatability criterion: two sets of one commit must agree).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with the contract's quartile rule."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse = sign * (B - A) > 0
    a_median, _, _, a_spread = summary(a)
    b_median, _, _, b_spread = summary(b)
    if sign * (b_median - a_median) > bound * abs(a_median):
        return "regressed"
    if max(a_spread, b_spread) > bound:
        worst_b = max(sign * v for v in b)
        best_a = min(sign * v for v in a)
        if worst_b >= best_a:
            return "unresolved"
    return "ok"


def compare(a: dict, b: dict, contract: dict) -> tuple[list[str], dict]:
    rows = [
        f"{'workload':<16} {'metric':<17} {'unit':<6} "
        f"{'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
        f"{'B/A':>8} {'bound':>6}  verdict"
    ]
    tally = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in a["values"] or workload not in b["values"]:
            continue
        for spec in contract["end_to_end"]:
            a_values = a["values"][workload][spec["name"]]
            b_values = b["values"][workload][spec["name"]]
            a_median, a_q1, a_q3, _ = summary(a_values)
            b_median, b_q1, b_q3, _ = summary(b_values)
            result = verdict(a_values, b_values, spec["better"], spec["bound"])
            tally[result] += 1
            rows.append(
                f"{workload:<16} {spec['name']:<17} {spec['unit']:<6} "
                f"{a_median:>12.4f} [{a_q1:>9.4f}, {a_q3:>9.4f}] "
                f"{b_median:>12.4f} [{b_q1:>9.4f}, {b_q3:>9.4f}] "
                f"{b_median / a_median:>8.4f} {spec['bound']:>6.3f}  {result}"
            )
    return rows, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base result set")
    parser.add_argument("b", type=Path, help="result set under judgement")
    parser.add_argument("--strict", action="store_true")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    rows, tally = compare(a, b, contract)
    print("\n".join(rows))
    print(
        f"\nA: {args.a} ({a['environment']['git_sha'][:12]}, "
        f"n={a['environment']['repeats']})  "
        f"B: {args.b} ({b['environment']['git_sha'][:12]}, "
        f"n={b['environment']['repeats']})"
    )
    print(", ".join(f"{count} {name}" for name, count in tally.items()))
    failed = tally["regressed"] or (args.strict and tally["unresolved"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
