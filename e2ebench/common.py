"""Shared pieces of the benchmark: scales, seeds, statistics, units, hygiene.

Everything here is plain bookkeeping; the workloads live in
:mod:`reads` and :mod:`ingest`, span recording in :mod:`tracing`.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Units of every metric the runner emits; the smoke check compares them
#: against the declarations in ``BENCHMARK.json``.
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "batch_qps": "1/s",
    "fp_reads_per_query": "count",
    "filter_bits_per_key": "bits",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "serve.batcher.batch_size_mean": "count",
    "serve.batcher.size_flush_share": "ratio",
    "serve.batcher.queue_wait_ms_p50": "ms",
    "serve.service.serve_batch_ms_p50": "ms",
    "serve.service.serve_batch_ms_p99": "ms",
    "serve.service.ipc_ms_p50": "ms",
    "serve.service.start_s": "s",
    "serve.shard.fanout_per_query": "count",
    "lsm.tree.probe_ms_p50.b64": "ms",
    "lsm.tree.sst_groups_per_probe": "count",
    "lsm.tree.routed_pairs_per_query": "count",
    "lsm.tree.probe_us_per_query.b4096": "us",
    "lsm.sstable.exact_search_share": "ratio",
    "lsm.sstable.filter_probe_share": "ratio",
    "lsm.sstable.filter_negative_share": "ratio",
    "lsm.sstable.blocks_read_per_query": "count",
    "filters.proteus.probe_ns_per_pair": "ns",
    "kernels.bloom_contains_calls_per_query": "count",
    "workloads.coerce_us_per_query": "us",
    "keys.bytestr_share": "ratio",
    "api.build_filter_ms_p50": "ms",
    "core.design.ms_per_filter": "ms",
    "core.cpfpr.candidates_per_filter": "count",
    "core.cpfpr.us_per_candidate": "us",
    "core.cpfpr.obs_over_pred_median": "ratio",
    "lsm.online.flush_ms_p50": "ms",
    "lsm.online.filter_build_ms_total": "ms",
    "lsm.online.filters_built": "count",
    "lsm.online.write_amp": "ratio",
    "lsm.merge.ms_total": "ms",
    "lsm.memtable.put_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run; ``FULL`` is the benchmark, ``SMOKE`` the check."""

    num_keys: int
    design_queries: int
    held_out: int
    sst_keys: int
    callers: int
    micro_batch: int
    serve_batch: int
    prefill_ops: int
    epoch_ops: int
    probe_queries: int
    setup_repeats: int


FULL = Scale(
    num_keys=65_536,
    design_queries=4_096,
    held_out=16_384,
    sst_keys=512,
    callers=64,
    micro_batch=64,
    serve_batch=4_096,
    prefill_ops=16_384,
    epoch_ops=2_048,
    probe_queries=4_096,
    setup_repeats=3,
)

SMOKE = Scale(
    num_keys=4_096,
    design_queries=512,
    held_out=1_024,
    sst_keys=128,
    callers=16,
    micro_batch=16,
    serve_batch=256,
    prefill_ops=1_024,
    epoch_ops=512,
    probe_queries=512,
    setup_repeats=2,
)

SCALES = {"full": FULL, "smoke": SMOKE}

#: Global filter budget of every workload (Proteus, proportional split).
BITS_PER_KEY = 14.0
FANOUT = 4
NUM_SHARDS = 2


def sub_seed(seed: int, label: str) -> int:
    """An independent, reproducible seed for one input stream of a run."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def reference_answers(keys: np.ndarray, los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Exact answers by binary search on the sorted key array."""
    idx = np.searchsorted(keys, los, side="left")
    safe = np.minimum(idx, keys.size - 1)
    return (idx < keys.size) & np.asarray(keys[safe] <= his, dtype=bool)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else 0.0


#: Operations per latency block; 256 leave 12.8 beyond a block's p95.
LATENCY_BLOCK = 256
#: The tail percentile: the highest whole one with ten samples beyond it
#: in a block of :data:`LATENCY_BLOCK` operations.
TAIL_PERCENTILE = 95


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0))


def block_percentile(blocks, q: float) -> float:
    """Median over blocks of each block's ``q``-th percentile.

    A noisy stretch of a run (this machine's speed drifts by ~10% over
    seconds) then moves only the blocks it covers, not the reported value.
    """
    return float(np.median([percentile(block, q) for block in blocks])) if blocks else 0.0


def rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def worker_peak_rss_mb() -> float:
    """The largest live child process's peak RSS, in MB."""
    return max((rss_mb_of(child.pid) for child in multiprocessing.active_children()), default=0.0)


def shm_segments() -> set[str]:
    """Shared-memory segment names (``psm_*``) currently in ``/dev/shm``."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this process started one.

    The tracker is a helper process the shared-memory segments start; it
    would otherwise outlive the run until it notices the closed pipe.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def leak_report(shm_before: set[str]) -> dict:
    """Worker processes and ``/dev/shm`` segments this run left behind."""
    children = [child.pid for child in multiprocessing.active_children()]
    leaked = sorted(shm_segments() - shm_before)
    return {"live_children": children, "leaked_shm": leaked, "clean": not children and not leaked}


def source_digest() -> str:
    """The commit when the checkout is a git repository, else a hash of ``src``."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def fingerprint(start_method: str, shards: int) -> dict:
    """The environment a result was measured in.

    Every key except ``commit`` must match for two result sets to be
    compared (see :mod:`compare`).
    """
    from repro import kernels

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": kernels.get_backend_name(),
        "start_method": start_method,
        "shards": shards,
        "commit": source_digest(),
    }
