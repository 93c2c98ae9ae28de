"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories of run records (``perfbench/runs/`` after
``run.py`` runs; copy it aside between commits).  For every workload and
end-to-end metric it prints each side's median and quartiles over the
untraced runs and a verdict:

``better``      the median improved by more than BASE's own spread;
``worse``       the median got worse by more than the metric's bound;
``unchanged``   neither;
``unresolved``  either side's spread (quartile distance over median)
                exceeds the bound, unless every NEW run beats, or loses
                to, every BASE run.

From the traced runs it then names the layer whose self time per round
moved most, the answer to "which stage moved".  Runs of one seed whose
generated inputs differ between the sides are reported, since their
numbers are not comparable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

from layers import SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent


def load(directory) -> list:
    records = []
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and {"workload", "trace", "metrics"} <= set(record):
            records.append(record)
    return records


def summary(values: list) -> tuple:
    """``(median, first quartile, third quartile)``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list, new: list, better: str, bound: float) -> tuple:
    """``(verdict, improvement share)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    improvement = sign * (statistics.median(new) - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        if all(sign * n > sign * b for n in new for b in base):
            return "better", improvement
        if all(sign * n < sign * b for n in new for b in base):
            return "worse", improvement
        return "unresolved", improvement
    if improvement < -bound:
        return "worse", improvement
    if improvement > spread(base):
        return "better", improvement
    return "unchanged", improvement


def _inputs_digest(record: dict) -> str:
    text = json.dumps(record.get("inputs"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def compare(base: list, new: list, bench: dict) -> list:
    """The report, as lines of text."""
    lines = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        sides = [
            [r for r in records if r["workload"] == workload]
            for records in (base, new)
        ]
        if not all(sides):
            continue
        lines.append(f"== {workload}")
        by_seed = [{}, {}]
        for digests, side in zip(by_seed, sides):
            for record in side:
                digests.setdefault(record["seed"], set()).add(_inputs_digest(record))
        differing = sorted(
            seed for seed in set(by_seed[0]) & set(by_seed[1])
            if by_seed[0][seed] != by_seed[1][seed]
        )
        if differing:
            lines.append(f"  WARNING: generated inputs differ for seeds {differing}")
        untraced = [[r for r in side if not r["trace"]] for side in sides]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [
                [r["metrics"][name] for r in side if name in r["metrics"]]
                for side in untraced
            ]
            if not all(values):
                continue
            result, change = verdict(*values, metric["better"], metric["bound"])
            (bm, bq1, bq3), (nm, nq1, nq3) = (summary(v) for v in values)
            lines.append(
                f"  {name:<16} base {bm:.4g} [{bq1:.4g}, {bq3:.4g}] n={len(values[0])}"
                f"  new {nm:.4g} [{nq1:.4g}, {nq3:.4g}] n={len(values[1])}"
                f"  {change:+.1%} (bound {metric['bound']:.0%}) -> {result}"
            )
        traced = [[r for r in side if r["trace"]] for side in sides]
        moves = []
        for name in SELF_TIME_METRICS.values():
            values = [
                [r["metrics"][name] for r in side if name in r["metrics"]]
                for side in traced
            ]
            if all(values):
                before, after = (statistics.median(v) for v in values)
                moves.append((abs(after - before), name, before, after))
        moves.sort(reverse=True)
        for rank, (_, name, before, after) in enumerate(moves[:3]):
            label = "layer that moved most" if rank == 0 else "then"
            relative = f" ({(after - before) / before:+.1%})" if before else ""
            lines.append(
                f"  {label}: {name} {before:.4g} s -> {after:.4g} s per round{relative}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="directory of the base run records")
    parser.add_argument("new", help="directory of the new run records")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("no run records found", file=sys.stderr)
        return 2
    print("\n".join(compare(base, new, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
