"""The ``ingest`` workload: writes beside reads on the online LSM tree.

One writer applies a seeded :func:`~repro.workloads.generators.write_stream`
(10% deletes) to an :class:`~repro.lsm.online.OnlineLSMTree` — Proteus at
14 bits/key against a 4,096-query mixed design sample, ``sst_keys`` and
memtable capacity 512, ``level0_runs=4``, ``fanout=4`` — in requests of
:data:`WRITE_REQUEST` writes through ``OnlineLSMTree.apply``, a closed loop
with one client.

Flush policy (the same on both sides of any comparison): synchronous.  The
write that fills the memtable flushes it inside its own call, and that
flush runs any compaction and every filter build it triggers before the
call returns, so their cost lands on the request that triggered them.

The prefill counts as set-up.  The timed part is a fixed number of
epochs of ``epoch_ops`` writes, each followed by an ``OnlineLSMTree.probe``
of fresh mixed queries drawn against the live set; every probe must have
zero missed reads, and the run ends with a ``lookup_many`` check of every
key the stream touched against the replayed live set.
"""

from __future__ import annotations

import random
import resource
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from common import (
    BITS_PER_KEY,
    FANOUT,
    LATENCY_BLOCK,
    TAIL_PERCENTILE,
    Scale,
    block_percentile,
    percentile,
    samples_beyond,
    sub_seed,
)

from repro import kernels
from repro.api import FilterSpec, build_filter
from repro.lsm.memtable import MemTable
from repro.lsm.merge import merge_entry_runs
from repro.lsm.online import OnlineLSMTree
from repro.obs.metrics import MetricsRegistry
from repro.workloads.batch import QueryBatch
from repro.workloads.generators import mixed_queries, write_stream

WORKLOADS = ("ingest",)

#: Nominal length of one epoch on the reference machine; ``--seconds``
#: picks the epoch count from it, so the work never depends on speed.
EPOCH_SECONDS = 1.0
#: Writes per request: enough that a request's median is real work
#: (a single put is near timer resolution), few enough that a run holds
#: 1,024 requests, so the 99th percentile has ten requests beyond it.
WRITE_REQUEST = 32
WIDTH = 32
LEVEL0_RUNS = 4
DELETE_FRACTION = 0.1
#: Untraced probes of each epoch's batch: one call takes ~15 ms, so the
#: repeats spread more ``batch_qps`` samples over the run.
PROBE_REPEATS = 4

#: Per-layer metrics of the serving path, which the ingest workload never runs.
PER_LAYER_ZERO_FOR_INGEST = (
    "serve.batcher.batch_size_mean",
    "serve.batcher.size_flush_share",
    "serve.batcher.queue_wait_ms_p50",
    "serve.service.serve_batch_ms_p50",
    "serve.service.serve_batch_ms_p99",
    "serve.service.ipc_ms_p50",
    "serve.service.start_s",
    "serve.shard.fanout_per_query",
    "lsm.tree.probe_ms_p50.b64",
)


@dataclass
class IngestInputs:
    prefill: list[list[tuple[str, int]]]
    epochs: list[list[list[tuple[str, int]]]]
    design: QueryBatch
    probes: list[QueryBatch]
    final_keys: list[int]
    final_live: np.ndarray


def epochs_for(seconds: int) -> int:
    return max(1, round(seconds / EPOCH_SECONDS))


def _apply_to(live: set[int], requests) -> None:
    for request in requests:
        for op, key in request:
            if op == "put":
                live.add(key)
            else:
                live.discard(key)


def make_inputs(seed: int, epochs: int, scale: Scale) -> IngestInputs:
    """The write stream, the design sample and every epoch's probe batch."""
    per_epoch = scale.epoch_ops // WRITE_REQUEST
    prefill_requests = scale.prefill_ops // WRITE_REQUEST
    stream = write_stream(
        random.Random(sub_seed(seed, "writes")),
        prefill_requests + epochs * per_epoch,
        WRITE_REQUEST,
        WIDTH,
        delete_fraction=DELETE_FRACTION,
    )
    prefill = stream[:prefill_requests]
    timed = [
        stream[prefill_requests + e * per_epoch : prefill_requests + (e + 1) * per_epoch]
        for e in range(epochs)
    ]
    live: set[int] = set()
    _apply_to(live, prefill)
    design = QueryBatch.from_pairs(
        mixed_queries(random.Random(sub_seed(seed, "design")), sorted(live),
                      scale.design_queries, WIDTH),
        WIDTH,
    )
    probe_rng = random.Random(sub_seed(seed, "probes"))
    probes = []
    for requests in timed:
        _apply_to(live, requests)
        probes.append(
            QueryBatch.from_pairs(
                mixed_queries(probe_rng, sorted(live), scale.probe_queries, WIDTH), WIDTH
            )
        )
    touched = sorted({key for request in stream for _, key in request})
    absent = random.Random(sub_seed(seed, "absent")).sample(range(1 << WIDTH), 1024)
    final_keys = touched + [key for key in absent if key not in live]
    final_live = np.array([key in live for key in final_keys], dtype=bool)
    return IngestInputs(prefill, timed, design, probes, final_keys, final_live)


def prefilled_tree(inputs: IngestInputs, scale: Scale) -> OnlineLSMTree:
    """The set-up being timed: a fresh tree plus the prefill writes."""
    tree = OnlineLSMTree(
        WIDTH,
        spec=FilterSpec("proteus", BITS_PER_KEY),
        design_queries=inputs.design,
        sst_keys=scale.sst_keys,
        fanout=FANOUT,
        level0_runs=LEVEL0_RUNS,
        memtable_capacity=scale.sst_keys,
        policy="proportional",
    )
    for request in inputs.prefill:
        tree.apply(request)
    return tree


def write_epoch(tree: OnlineLSMTree, requests, latencies: list, tracer=None,
                epoch: int = -1) -> int:
    """Apply one epoch's requests, timing each; returns the failed write count."""
    failed = 0
    for request in requests:
        start = perf_counter()
        try:
            if tracer is None:
                tree.apply(request)
            else:
                with tracer.span("ingest.request", size=len(request), trace_id=epoch):
                    tree.apply(request)
        except Exception:
            failed += len(request)
        latencies.append(perf_counter() - start)
    return failed


def final_check(tree: OnlineLSMTree, inputs: IngestInputs) -> int:
    """Wrong ``lookup_many`` answers against the replayed live set."""
    try:
        found = tree.lookup_many(inputs.final_keys)
    except Exception:
        return len(inputs.final_keys)
    return int((found != inputs.final_live).sum())


def _run_epochs(tree, inputs: IngestInputs, probe_repeats: int, tracer=None,
                sst_stats=None) -> dict:
    latencies: list[float] = []
    write_s = 0.0
    probe_times = []
    failed = 0
    attempted = 0
    fp_reads = 0
    stats = {"blocks_read": 0, "filter_probes": 0}
    for epoch, (requests, probe) in enumerate(zip(inputs.epochs, inputs.probes)):
        start = perf_counter()
        failed += write_epoch(tree, requests, latencies, tracer, epoch)
        write_s += perf_counter() - start
        attempted += sum(len(request) for request in requests)
        results = []
        for _ in range(probe_repeats):
            start = perf_counter()
            try:
                if tracer is None:
                    results.append(tree.probe(probe))
                else:
                    with tracer.span("ingest.probe", size=len(probe), trace_id=epoch):
                        results.append(tree.probe(probe, sst_stats=sst_stats))
            except Exception:
                failed += len(probe)
                attempted += len(probe)
                continue
            probe_times.append((perf_counter() - start, len(probe)))
            attempted += len(probe)
            failed += int((results[-1].missed_reads > 0).sum())
        if not results:
            continue
        result = results[0]
        fp_reads += result.total_false_positive_reads()
        stats["blocks_read"] += result.total_blocks_read()
        stats["filter_probes"] += result.total_filter_probes()
    wrong = final_check(tree, inputs)
    return {
        "latencies": np.asarray(latencies),
        "write_s": write_s,
        "probe_times": probe_times,
        "failed": failed + wrong,
        "attempted": attempted + len(inputs.final_keys),
        "fp_reads": fp_reads,
        "probe_stats": stats,
    }


# --------------------------------------------------------------------- #
# The untraced run: end-to-end metrics                                  #
# --------------------------------------------------------------------- #


def run(name: str, seed: int, seconds: int, scale: Scale) -> dict:
    inputs = make_inputs(seed, epochs_for(seconds), scale)
    kernels.get_backend_name()  # compile or load the kernel library before timing
    setup_times = []
    for _ in range(scale.setup_repeats):
        start = perf_counter()
        tree = prefilled_tree(inputs, scale)
        setup_times.append(perf_counter() - start)
    before = dict(tree.stats)
    result = _run_epochs(tree, inputs, PROBE_REPEATS)
    latencies_ms = result["latencies"] * 1e3
    # Latency blocks of 256 consecutive requests (four epochs).
    blocks = [latencies_ms[i : i + LATENCY_BLOCK]
              for i in range(0, latencies_ms.size - LATENCY_BLOCK + 1, LATENCY_BLOCK)]
    blocks = blocks or [latencies_ms]  # a smoke-scale run is shorter than a block
    writes = sum(len(r) for requests in inputs.epochs for r in requests)
    probed = sum(len(p) for p in inputs.probes)
    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": writes / result["write_s"],
        "batch_qps": float(np.median([size / t for t, size in result["probe_times"]])),
        "fp_reads_per_query": result["fp_reads"] / probed,
        "filter_bits_per_key": tree.filter_size_bits() / tree.num_entries,
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": parent_rss,
    }
    details = {
        # Reported, not gated: whole-run slow phases of this machine move
        # these by up to a third between runs (see README.md).
        "op_p50_ms": block_percentile(blocks, 50),
        "op_p95_ms": block_percentile(blocks, TAIL_PERCENTILE),
        "epochs": len(inputs.epochs),
        "setup_times_s": setup_times,
        "write_requests": int(latencies_ms.size),
        "request_ms_percentiles": {
            str(q): percentile(latencies_ms, q) for q in (50, 90, 95, 99, 99.5)
        },
        "latency_blocks": len(blocks),
        "tail_requests_beyond_per_block": samples_beyond(LATENCY_BLOCK, TAIL_PERCENTILE),
        "fp_reads": result["fp_reads"],
        "final_entries": tree.num_entries,
        "final_ssts": tree.num_ssts,
        "filters_built": tree.stats["filters_built"] - before["filters_built"],
        "stats_delta": {k: tree.stats[k] - before[k] for k in tree.stats},
        "parent_rss_mb": parent_rss,
    }
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["failed"] == 0, "details": details}


# --------------------------------------------------------------------- #
# The traced run: per-layer metrics                                     #
# --------------------------------------------------------------------- #


def run_traced(name: str, seed: int, seconds: int, scale: Scale, tracer) -> dict:
    from layers import (
        counter_sum,
        design_metrics,
        install_probe_patches,
        obs_over_pred,
        probe_layer_metrics,
    )
    from tracing import layer_table, reconcile

    inputs = make_inputs(seed, epochs_for(seconds), scale)
    kernels.get_backend_name()
    # Untraced baseline of the same work, for the tracing overhead.
    base_tree = prefilled_tree(inputs, scale)
    start = perf_counter()
    base = _run_epochs(base_tree, inputs, probe_repeats=1)
    base_s = perf_counter() - start
    del base_tree

    tree = prefilled_tree(inputs, scale)
    registry = tree.metrics = MetricsRegistry()
    before = dict(tree.stats)

    def install() -> None:
        tracer.patch(OnlineLSMTree, "flush", "lsm.online.flush")
        tracer.patch(OnlineLSMTree, "build_sst_filter", "lsm.online.build_sst_filter")
        tracer.patch(MemTable, "put", "lsm.memtable.put")
        tracer.patch(MemTable, "delete", "lsm.memtable.delete")
        tracer.patch(MemTable, "seal", "lsm.memtable.seal", size=len)
        tracer.patch_everywhere(merge_entry_runs, "lsm.merge")
        tracer.patch_everywhere(build_filter, "api.build_filter")
        install_probe_patches(tracer)

    kernel_metrics = MetricsRegistry()
    kernels.attach_metrics(kernel_metrics)
    sst_stats: dict = {}
    mark = len(tracer.names)
    try:
        with tracer.patched(install):
            start = perf_counter()
            traced = _run_epochs(tree, inputs, 1, tracer=tracer, sst_stats=sst_stats)
            traced_s = perf_counter() - start
    finally:
        kernels.attach_metrics(None)
    # The final lookup_many check runs inside the timed phase but outside
    # any root span; reconcile only the epochs.
    spans = tracer.arrays(mark)
    epoch_wall = traced["write_s"] + sum(t for t, _ in traced["probe_times"])
    check = reconcile(spans, epoch_wall)
    table = layer_table(spans)
    roots = ("ingest.request", "ingest.probe")
    root_self = sum(table[name]["self_s"] for name in roots if name in table)
    writes = sum(len(r) for requests in inputs.epochs for r in requests)
    probed = sum(len(p) for p in inputs.probes)
    delta = {k: tree.stats[k] - before[k] for k in tree.stats}

    def total(name, key="total_s"):
        return table.get(name, {}).get(key, 0)

    probes = table.get("lsm.tree.probe")
    metrics = dict.fromkeys(PER_LAYER_ZERO_FOR_INGEST, 0.0)
    metrics.update(probe_layer_metrics(table, epoch_wall, probed, traced["probe_stats"]))
    metrics.update({
        "lsm.tree.probe_us_per_query.b4096": (
            probes["total_s"] / probes["size"] * 1e6 if probes else 0.0
        ),
        "kernels.bloom_contains_calls_per_query": (
            counter_sum(kernel_metrics, ".bloom_contains") / probed
        ),
        "core.cpfpr.obs_over_pred_median": obs_over_pred(sst_stats),
        "lsm.online.flush_ms_p50": percentile(
            table.get("lsm.online.flush", {}).get("durations", np.zeros(0)) * 1e3, 50
        ),
        "lsm.online.filter_build_ms_total": total("lsm.online.build_sst_filter") * 1e3,
        "lsm.online.filters_built": float(delta["filters_built"]),
        "lsm.online.write_amp": (total("lsm.memtable.seal", "size") + delta["entries_written"])
        / writes,
        "lsm.merge.ms_total": total("lsm.merge") * 1e3,
        "lsm.memtable.put_share": (
            total("lsm.memtable.put", "self_s") + total("lsm.memtable.delete", "self_s")
        ) / epoch_wall,
        "trace.overhead_share": traced_s / base_s - 1.0,
        "trace.unattributed_share": (root_self + epoch_wall - check["root_total_s"]) / epoch_wall,
    })
    build_durations = table.get("api.build_filter", {}).get("durations", np.zeros(0))
    metrics.update(design_metrics(registry, build_durations))
    details = {
        "epochs": len(inputs.epochs),
        "reconcile": check,
        "layers_self_s": {k: v["self_s"] for k, v in table.items()},
        "untraced_s": base_s,
        "traced_s": traced_s,
        "routed_pairs": int(total("lsm.sstable.matches_many", "size")),
        "filters_built": int(delta["filters_built"]),
        "flushed_entries": int(total("lsm.memtable.seal", "size")),
        "stats_delta": delta,
    }
    failed = base["failed"] + traced["failed"]
    return {"metrics": metrics, "attempted": base["attempted"] + traced["attempted"],
            "failed": failed, "correct": failed == 0 and check["reconciled"],
            "details": details}
