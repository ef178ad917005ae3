"""Run one benchmark workload with one seed; the last stdout line is the result.

    python3 e2ebench/run.py --workload int_mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src``).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that records spans around each layer's public calls and reports the
per-layer metrics.  ``--out FILE`` appends the full record (metrics,
details and the environment fingerprint) as one JSON line, the input of
``e2ebench/compare.py``; traced runs also write their spans to
``.bench_out/``.

The amount of work is fixed by the workload and ``--seconds`` (which picks
a pass or epoch count), never by the clock, so every count repeats
exactly for one seed.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("int_mixed", "bytes_scan", "ingest")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is the tiny scale of smoke.py")
    parser.add_argument("--out", type=Path, help="append the full record to this JSONL file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _prepare() -> None:
    """Import the program from this checkout; keep the kernel cache inside it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _prepare()
    import common

    shm_before = common.shm_segments()
    scale = common.SCALES[args.scale]
    if args.workload == "ingest":
        import ingest as workload
    else:
        import reads as workload

    tracer = None
    try:
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            result = workload.run_traced(args.workload, args.seed, args.seconds, scale, tracer)
            units = common.PER_LAYER_UNITS
        else:
            result = workload.run(args.workload, args.seed, args.seconds, scale)
            units = common.END_TO_END_UNITS
    finally:
        common.stop_resource_tracker()
    leaks = common.leak_report(shm_before)
    shards = 0 if args.workload == "ingest" else common.NUM_SHARDS
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "fingerprint": common.fingerprint("spawn" if shards else "none", shards),
        "leaks": leaks,
        "details": result["details"],
    }
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    line = {
        "correct": bool(result["correct"] and leaks["clean"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    if tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**record, **line}, default=float) + "\n")
    print(json.dumps(record, default=float))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
