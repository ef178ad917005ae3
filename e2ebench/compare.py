"""Summarise benchmark results, or compare two sets of them.

    python3 e2ebench/compare.py summary RUNS.jsonl [MORE.jsonl ...]
    python3 e2ebench/compare.py compare BASE.jsonl NEW.jsonl

The inputs are the JSON lines ``run.py --out`` appends.  ``summary``
prints, one row per workload, each metric's median and quartiles over the
runs, and flags (``!``) an end-to-end metric whose spread — the distance
between the quartiles as a share of the median — exceeds its bound in
``BENCHMARK.json``.  ``compare`` prints, one row per workload, how each
end-to-end metric's median moved from BASE to NEW as a share of BASE's
median (positive is worse), and calls it a regression when it worsened by
more than the bound; where BASE's own spread exceeds the bound the result
is "unresolved" unless every NEW run beats every BASE run.  Records whose
environment fingerprints differ (other than the commit) are refused.
Exit status: 0 when nothing is flagged, 1 otherwise, 2 on refusal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FREE_KEYS = ("commit",)


def load(paths: list[Path]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def environment(record: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in record["fingerprint"].items() if k not in FREE_KEYS))


def check_fingerprints(records: list[dict]) -> str | None:
    """Why the records may not be compared, or ``None`` when they may."""
    by_workload = defaultdict(set)
    for record in records:
        by_workload[record["workload"]].add(environment(record))
    for workload, environments in sorted(by_workload.items()):
        if len(environments) > 1:
            diffs = [dict(env) for env in environments]
            keys = sorted(k for k in diffs[0] if len({str(d.get(k)) for d in diffs}) > 1)
            return f"{workload}: fingerprints differ in {keys}"
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return values[0], median, values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def grouped(records: list[dict]) -> dict:
    """``{(workload, trace): {metric: [values...]}}`` plus run bookkeeping."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    for record in records:
        key = (record["workload"], record["trace"])
        for name, metric in record["metrics"].items():
            groups[key][name].append(metric["value"])
        groups[key]["#runs"].append(1)
        groups[key]["#failed"].append(record["failed"])
        groups[key]["#incorrect"].append(0 if record["correct"] else 1)
    return groups


def summary(records: list[dict]) -> int:
    specs = declared()
    flagged = 0
    for (workload, trace), metrics in sorted(grouped(records).items()):
        runs = len(metrics["#runs"])
        failed = sum(metrics["#failed"])
        incorrect = sum(metrics["#incorrect"])
        flagged += failed + incorrect
        cells = []
        for name, values in metrics.items():
            if name.startswith("#"):
                continue
            q1, median, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            share = spread(values)
            mark = ""
            if bound is not None and share > bound:
                mark = "!"
                flagged += 1
            cells.append(f"{name}={median:.5g} [{q1:.5g}, {q3:.5g}] {share:.1%}{mark}")
        label = "traced" if trace else "untraced"
        print(f"{workload} ({label}, {runs} runs, {failed} failed ops, {incorrect} incorrect): "
              + "; ".join(cells))
    return 1 if flagged else 0


def compare(base: list[dict], new: list[dict]) -> int:
    reason = check_fingerprints(base + new)
    if reason is not None:
        print(f"refused: {reason}", file=sys.stderr)
        return 2
    specs = declared()
    base_groups, new_groups = grouped(base), grouped(new)
    flagged = 0
    for key in sorted(set(base_groups) & set(new_groups)):
        workload, trace = key
        if trace:
            continue
        cells = []
        for name, spec in specs.items():
            if "bound" not in spec or name not in base_groups[key]:
                continue
            old, cur = base_groups[key][name], new_groups[key][name]
            old_median, cur_median = statistics.median(old), statistics.median(cur)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change = sign * (cur_median - old_median) / abs(old_median)
            if sign > 0:
                all_better = max(cur) < min(old)
            else:
                all_better = min(cur) > max(old)
            if spread(old) > spec["bound"] and not all_better:
                verdict = "unresolved"
            elif change > spec["bound"]:
                verdict = "REGRESSION"
                flagged += 1
            elif change < 0:
                verdict = "better"
            else:
                verdict = "within bound"
            cells.append(f"{name} {old_median:.5g} -> {cur_median:.5g} ({change:+.1%}, {verdict})")
        failed = sum(new_groups[key]["#failed"]) + sum(new_groups[key]["#incorrect"])
        flagged += failed
        print(f"{workload} ({len(new_groups[key]['#runs'])} vs {len(base_groups[key]['#runs'])} "
              f"runs, {failed} failures in NEW): " + "; ".join(cells))
    return 1 if flagged else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    summarise = sub.add_parser("summary", help="median and quartiles per workload")
    summarise.add_argument("runs", nargs="+", type=Path)
    versus = sub.add_parser("compare", help="NEW against BASE, per workload and metric")
    versus.add_argument("base", type=Path)
    versus.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "summary":
        records = load(args.runs)
        reason = check_fingerprints(records)
        if reason is not None:
            print(f"refused: {reason}", file=sys.stderr)
            return 2
        return summary(records)
    return compare(load([args.base]), load([args.new]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
