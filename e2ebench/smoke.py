"""The benchmark's own smoke check, at tiny scale (about a minute).

    python3 e2ebench/smoke.py

For every workload it runs ``run.py --scale smoke`` the way the benchmark
is run (a subprocess from the checkout root) and checks that

* every metric declared in ``BENCHMARK.json`` is emitted with its declared
  unit — end-to-end ones untraced, per-layer ones traced;
* every run is correct with zero failed operations and nothing leaked;
* two runs of one seed repeat the exact counts bit for bit
  (:data:`EXACT_METRICS` and :data:`EXACT_DETAILS`);
* a second seed runs clean;
* the traced run's spans reconcile within the tracer's stated tolerance.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("int_mixed", "bytes_scan", "ingest")

#: Metrics that are counts, not times: identical for one seed.
EXACT_METRICS = (
    "fp_reads_per_query",
    "filter_bits_per_key",
    "lsm.tree.routed_pairs_per_query",
    "lsm.tree.sst_groups_per_probe",
    "lsm.sstable.blocks_read_per_query",
    "lsm.online.write_amp",
    "lsm.online.filters_built",
    "core.cpfpr.candidates_per_filter",
)
EXACT_DETAILS = ("fp_reads", "routed_pairs", "filters_built", "flushed_entries")
RUN_TIMEOUT_S = 170


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(command[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    record = json.loads(lines[-2])
    record.update(json.loads(lines[-1]))
    return record


def check_record(record: dict, declared: list[dict], problems: list[str]) -> None:
    where = f"{record['workload']} seed {record['seed']} trace {record['trace']}"
    if not record["correct"] or record["failed"] != 0 or record["attempted"] < 1:
        problems.append(f"{where}: correct={record['correct']} failed={record['failed']} "
                        f"attempted={record['attempted']} leaks={record['leaks']}")
    emitted = record["metrics"]
    for metric in declared:
        got = emitted.get(metric["name"])
        if got is None:
            problems.append(f"{where}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{where}: {metric['name']} unit {got['unit']} != {metric['unit']}")
    extra = set(emitted) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    reconcile = record["details"].get("reconcile")
    if record["trace"] and not (reconcile and reconcile["reconciled"]):
        problems.append(f"{where}: spans do not reconcile: {reconcile}")


def check_repeat(first: dict, second: dict, problems: list[str]) -> None:
    where = f"{first['workload']} seed {first['seed']} trace {first['trace']}"
    for name in EXACT_METRICS:
        if name in first["metrics"]:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{where}: {name} not exact across runs: {a} != {b}")
    for name in EXACT_DETAILS:
        if first["details"].get(name) != second["details"].get(name):
            problems.append(f"{where}: details.{name} not exact across runs: "
                            f"{first['details'].get(name)} != {second['details'].get(name)}")
    if first["attempted"] != second["attempted"]:
        problems.append(
            f"{where}: attempted differs: {first['attempted']} != {second['attempted']}"
        )


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems: list[str] = []
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first, second = run(workload, 1, trace), run(workload, 1, trace)
            for record in (first, second):
                check_record(record, declared, problems)
            check_repeat(first, second, problems)
        check_record(run(workload, 2, 0), spec["end_to_end"], problems)
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
