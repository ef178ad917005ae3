"""The read workloads: ``int_mixed`` and ``bytes_scan`` on the serving path.

Both build a 2-shard :class:`~repro.serve.service.ShardedLookupService`
in process mode over 65,536 keys with Proteus at 14 bits/key, then run a
fixed number of *passes* over one held-out query stream.  A pass is

* a closed loop: ``callers`` coroutines each await one lookup at a time
  through a :class:`~repro.serve.batcher.MicroBatcher` with
  ``max_batch == callers``, so every flush is a size flush and exactly one
  micro-batch is in flight;
* the same stream through ``serve_batch`` in ``serve_batch``-query calls.

Every answer is checked against a binary search on the sorted keys.  The
untraced run (:func:`run`) gives the end-to-end metrics; the traced run
(:func:`run_traced`) replays the recorded micro-batches through an inline
service over the same trees, with spans around each layer's public calls,
because the worker processes cannot be wrapped from the parent.
"""

from __future__ import annotations

import asyncio
import random
import resource
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from common import (
    BITS_PER_KEY,
    FANOUT,
    NUM_SHARDS,
    Scale,
    TAIL_PERCENTILE,
    block_percentile,
    percentile,
    reference_answers,
    samples_beyond,
    sub_seed,
    worker_peak_rss_mb,
)

from repro import kernels
from repro.api import FilterSpec, Workload, build_filter
from repro.lsm.tree import LSMTree
from repro.obs.metrics import MetricsRegistry
from repro.serve import MicroBatcher, ShardedLookupService
from repro.serve.shard import build_shard_trees, split_key_set
from repro.workloads.batch import QueryBatch
from repro.workloads.datasets import dataset_queries, load_dataset
from repro.workloads.generators import mixed_queries

WORKLOADS = ("int_mixed", "bytes_scan")

#: Nominal length of one pass on the reference machine; ``--seconds``
#: picks the pass count from it, so the work never depends on speed.
PASS_SECONDS = 2.5
#: Times each pass sends the stream through ``serve_batch``: the calls
#: are short, so more of them spread the ``batch_qps`` samples over the run.
BATCH_REPEATS = 4
#: Far above a pass's batch interval: flushes are size flushes only.
FLUSH_DELAY_S = 1.0
#: A closed-loop pass that has not finished by then counts as failed.
PASS_TIMEOUT_S = 60.0
INT_WIDTH = 32
#: Per-layer metrics of the write path, which the read workloads never run.
PER_LAYER_ZERO_FOR_READS = (
    "lsm.online.flush_ms_p50",
    "lsm.online.filter_build_ms_total",
    "lsm.online.filters_built",
    "lsm.online.write_amp",
    "lsm.merge.ms_total",
    "lsm.memtable.put_share",
)
#: Seed of the stored keys and the design sample, the same in every run:
#: each run builds the same trees and filters, and ``--seed`` draws only
#: the held-out traffic.  (Per-seed YCSB-E key sets swing the chosen
#: designs from 10.1 to 10.9 bits/key and false-positive reads fivefold,
#: which would drown any change under test.)
DATA_SEED = 0


@dataclass
class ReadInputs:
    workload: Workload
    batch: QueryBatch
    lo_list: list
    hi_list: list
    truth: np.ndarray


def passes_for(seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS))


def make_inputs(name: str, seed: int, scale: Scale) -> ReadInputs:
    """Fixed keys and design sample; the held-out stream is drawn from ``seed``."""
    if name == "int_mixed":
        workload = Workload.generate(
            scale.num_keys, scale.design_queries, INT_WIDTH, seed=DATA_SEED, query_family="mixed"
        )
        pairs = mixed_queries(
            random.Random(sub_seed(seed, "held_out")),
            workload.keys.as_list(),
            scale.held_out,
            INT_WIDTH,
        )
        batch = QueryBatch.from_pairs(pairs, INT_WIDTH)
    elif name == "bytes_scan":
        workload = load_dataset(
            "ycsb_e", num_keys=scale.num_keys, num_queries=scale.design_queries, seed=DATA_SEED
        )
        batch = dataset_queries(
            "ycsb_e", workload.keys, scale.held_out, seed=sub_seed(seed, "held_out")
        )
    else:
        raise ValueError(f"unknown read workload {name!r}")
    truth = reference_answers(workload.keys.keys, batch.los, batch.his)
    return ReadInputs(
        workload, batch, batch.los.tolist(), batch.his.tolist(), truth
    )


def _spec() -> FilterSpec:
    return FilterSpec("proteus", BITS_PER_KEY)


def build_service(inputs: ReadInputs, scale: Scale) -> ShardedLookupService:
    """The set-up being timed: shard, build trees and filters, start workers."""
    return ShardedLookupService.build(
        inputs.workload.keys,
        num_shards=NUM_SHARDS,
        spec=_spec(),
        workload=inputs.workload,
        policy="proportional",
        sst_keys=scale.sst_keys,
        fanout=FANOUT,
        seed=DATA_SEED,
        mode="process",
    )


# --------------------------------------------------------------------- #
# One pass                                                              #
# --------------------------------------------------------------------- #


async def _closed_loop(answer_batch, inputs: ReadInputs, scale: Scale, metrics) -> dict:
    n = len(inputs.lo_list)
    answers = np.zeros(n, dtype=bool)
    done = np.zeros(n, dtype=bool)
    starts = np.zeros(n)
    ends = np.zeros(n)
    executor = ThreadPoolExecutor(max_workers=1)
    batcher = MicroBatcher(
        answer_batch,
        max_batch=scale.micro_batch,
        max_delay=FLUSH_DELAY_S,
        metrics=metrics,
        executor=executor,
    )
    lo_list, hi_list = inputs.lo_list, inputs.hi_list

    async def caller(offset: int) -> None:
        for index in range(offset, n, scale.callers):
            start = perf_counter()
            try:
                answers[index] = await batcher.lookup(lo_list[index], hi_list[index])
                done[index] = True
            except Exception:
                pass  # counted below: the lookup is not done
            ends[index] = perf_counter()
            starts[index] = start

    began = perf_counter()
    try:
        async with batcher:
            await asyncio.wait_for(
                asyncio.gather(*(caller(c) for c in range(scale.callers))), PASS_TIMEOUT_S
            )
    except asyncio.TimeoutError:
        pass
    finally:
        executor.shutdown(wait=True)
    elapsed = perf_counter() - began
    wrong = int((done & (answers != inputs.truth)).sum())
    return {
        "elapsed": elapsed,
        "starts": starts,
        "ends": ends,
        "latencies": (ends - starts)[done],
        "failed": int(n - done.sum()) + wrong,
        "attempted": n,
    }


def lookup_pass(answer_batch, inputs: ReadInputs, scale: Scale, metrics=None) -> dict:
    """Closed-loop awaited lookups of the whole held-out stream."""
    return asyncio.run(_closed_loop(answer_batch, inputs, scale, metrics))


def missed_reads(stats: dict) -> int:
    """Reads a filter wrongly skipped (false negatives) in ``serve_batch`` stats.

    Blocks read are the filter positives, and the false-positive reads the
    positives that found nothing, so the required reads not among the
    blocks read are the misses.
    """
    return stats["required_reads"] - (stats["blocks_read"] - stats["false_positive_reads"])


def batch_pass(service: ShardedLookupService, inputs: ReadInputs, scale: Scale) -> dict:
    """The held-out stream through ``serve_batch`` in fixed-size calls, repeated."""
    batch = inputs.batch
    n = len(batch)
    durations = []
    failed = 0
    fp_reads = []
    for _ in range(BATCH_REPEATS):
        fp_reads.append(0)
        for lo in range(0, n, scale.serve_batch):
            hi = min(lo + scale.serve_batch, n)
            start = perf_counter()
            try:
                answers, stats = service.serve_batch(batch.los[lo:hi], batch.his[lo:hi])
            except Exception:
                failed += hi - lo
                continue
            durations.append((perf_counter() - start, hi - lo))
            failed += int((answers != inputs.truth[lo:hi]).sum()) + missed_reads(stats)
            fp_reads[-1] += stats["false_positive_reads"]
    return {"durations": durations, "failed": failed, "attempted": n * BATCH_REPEATS,
            "fp_reads": fp_reads}


# --------------------------------------------------------------------- #
# The untraced run: end-to-end metrics                                  #
# --------------------------------------------------------------------- #


def run(name: str, seed: int, seconds: int, scale: Scale) -> dict:
    inputs = make_inputs(name, seed, scale)
    kernels.get_backend_name()  # compile or load the kernel library before timing
    setup_times = []
    service = None
    try:
        for _ in range(scale.setup_repeats):
            if service is not None:
                service.close()
            start = perf_counter()
            service = build_service(inputs, scale)
            setup_times.append(perf_counter() - start)
        # One untimed pass first: the workers' first probes fault in their
        # shared-memory trees, which would make the first block slow.
        lookup_pass(service.answer_batch, inputs, scale)
        batch_pass(service, inputs, scale)
        lookups, batches = [], []
        for _ in range(passes_for(seconds)):
            lookups.append(lookup_pass(service.answer_batch, inputs, scale))
            batches.append(batch_pass(service, inputs, scale))
        filter_bits = service.filter_bits
        worker_rss = worker_peak_rss_mb()
    finally:
        if service is not None:
            service.close()
    # A pass is one latency block: its 16,384 lookups are 256 micro-batches,
    # and the lookups of one micro-batch share a latency.
    pass_ms = [p["latencies"] * 1e3 for p in lookups]
    latencies_ms = np.concatenate(pass_ms)
    micro_batches = sum(p["attempted"] for p in lookups) // scale.micro_batch
    fp_counts = {count for p in batches for count in p["fp_reads"]}
    calls = [d for p in batches for d in p["durations"]]
    parent_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": float(np.median([p["attempted"] / p["elapsed"] for p in lookups])),
        "batch_qps": float(np.median([size / t for t, size in calls])) if calls else 0.0,
        "fp_reads_per_query": batches[0]["fp_reads"][0] / len(inputs.batch),
        "filter_bits_per_key": filter_bits / inputs.workload.num_keys,
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": parent_rss + worker_rss,
    }
    attempted = sum(p["attempted"] for p in lookups + batches)
    failed = sum(p["failed"] for p in lookups + batches)
    details = {
        # Reported, not gated: whole-run slow phases of this machine move
        # these by up to a third between runs (see README.md).
        "op_p50_ms": block_percentile(pass_ms, 50),
        "op_p95_ms": block_percentile(pass_ms, TAIL_PERCENTILE),
        "passes": len(lookups),
        "setup_times_s": setup_times,
        "lookup_latency_samples": int(latencies_ms.size),
        "lookup_ms_percentiles": {
            str(q): percentile(latencies_ms, q) for q in (50, 90, 95, 99, 99.5)
        },
        "pass_ops_per_s": [p["attempted"] / p["elapsed"] for p in lookups],
        "micro_batches": micro_batches,
        "tail_batches_beyond_per_pass": samples_beyond(
            micro_batches // len(lookups), TAIL_PERCENTILE
        ),
        "serve_batch_calls": len(calls),
        "fp_reads": batches[0]["fp_reads"][0],
        "fp_reads_repeat_exactly": len(fp_counts) == 1,
        "filter_bits": int(filter_bits),
        "non_empty_share": float(inputs.truth.mean()),
        "parent_rss_mb": parent_rss,
        "worker_rss_mb": worker_rss,
    }
    correct = failed == 0 and len(fp_counts) == 1
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": correct, "details": details}


# --------------------------------------------------------------------- #
# The traced run: per-layer metrics                                     #
# --------------------------------------------------------------------- #


def run_traced(name: str, seed: int, seconds: int, scale: Scale, tracer) -> dict:
    from layers import (
        counter_sum,
        design_metrics,
        histogram_sum,
        install_probe_patches,
        obs_over_pred,
        probe_layer_metrics,
        query_count,
    )
    from tracing import layer_table, reconcile

    inputs = make_inputs(name, seed, scale)
    kernels.get_backend_name()
    # Half the untraced pass count: the traced run repeats every micro-batch
    # four times (untraced and traced, process and inline mode), and at the
    # benchmark's 8 passes this still leaves 1,024 batches for the p99.
    passes = max(1, passes_for(seconds) // 2)
    registry = MetricsRegistry()
    shards = split_key_set(inputs.workload.keys, NUM_SHARDS)
    mark = len(tracer.names)
    with tracer.patched(lambda: tracer.patch_everywhere(build_filter, "api.build_filter")):
        trees = build_shard_trees(
            shards, spec=_spec(), workload=inputs.workload, policy="proportional",
            sst_keys=scale.sst_keys, fanout=FANOUT, seed=DATA_SEED, metrics=registry,
        )
    build_durations = tracer.arrays(mark)["durations"]
    failed = 0
    attempted = 0
    start = perf_counter()
    service = ShardedLookupService(trees, shards, mode="process")
    start_s = perf_counter() - start
    inline = ShardedLookupService(trees, shards, mode="inline")
    try:
        # Untraced baseline of the same work, for the tracing overhead.
        base_loop = 0.0
        for _ in range(passes):
            result = lookup_pass(service.answer_batch, inputs, scale)
            base_loop += result["elapsed"]
            attempted += result["attempted"]
            failed += result["failed"]

        # Traced closed loop: lookup spans plus one span per micro-batch.
        recorded = []
        batcher_metrics = MetricsRegistry()

        def backend(los, his):
            with tracer.span("serve.service.serve_batch", size=len(los), trace_id=len(recorded)):
                answers, stats = service.serve_batch(los, his)
            recorded.append((los, his, answers, stats))
            return answers

        mark = len(tracer.names)
        traced_loop = 0.0
        for index in range(passes):
            result = lookup_pass(backend, inputs, scale, metrics=batcher_metrics)
            traced_loop += result["elapsed"]
            attempted += result["attempted"]
            failed += result["failed"]
            first_id = index * len(inputs.lo_list)
            for lookup, (s, e) in enumerate(zip(result["starts"], result["ends"])):
                tracer.record("lookup", float(s), float(e), trace_id=first_id + lookup)
        loop_spans = tracer.arrays(mark)
        batch_mask = loop_spans["names"] == "serve.service.serve_batch"
        process_ms = loop_spans["durations"][batch_mask] * 1e3
        batch_starts = np.sort(loop_spans["starts"][batch_mask])
        lookup_starts = loop_spans["starts"][loop_spans["names"] == "lookup"]
        slot = np.minimum(np.searchsorted(batch_starts, lookup_starts), batch_starts.size - 1)
        queue_wait_ms = (batch_starts[slot] - lookup_starts) * 1e3

        # Inline replay of the same micro-batches: untraced, then traced.
        inline_ms = []
        replay_base = perf_counter()
        for los, his, _, _ in recorded:
            t0 = perf_counter()
            inline.serve_batch(los, his)
            inline_ms.append((perf_counter() - t0) * 1e3)
        replay_base = perf_counter() - replay_base
        kernel_metrics = MetricsRegistry()
        kernels.attach_metrics(kernel_metrics)
        mark = len(tracer.names)
        inline_stats = {"blocks_read": 0, "filter_probes": 0}
        queries = 0
        try:
            with tracer.patched(lambda: install_probe_patches(tracer)):
                replay_start = perf_counter()
                for index, (los, his, process_answers, _) in enumerate(recorded):
                    with tracer.span("serve.service.serve_batch.inline", size=len(los),
                                     trace_id=index):
                        answers, stats = inline.serve_batch(los, his)
                    failed += int((answers != process_answers).sum()) + missed_reads(stats)
                    attempted += len(los)
                    for key in inline_stats:
                        inline_stats[key] += stats[key]
                    queries += len(los)
                replay_wall = perf_counter() - replay_start
        finally:
            kernels.attach_metrics(None)
        replay_spans = tracer.arrays(mark)
        table = layer_table(replay_spans)
        check = reconcile(replay_spans, replay_wall)
        root = table["serve.service.serve_batch.inline"]
        unattributed = (root["self_s"] + replay_wall - check["root_total_s"]) / replay_wall

        # Serve-batch-sized calls straight into the tree, traced.
        mark = len(tracer.names)
        n = len(inputs.batch)
        with tracer.patched(
            lambda: tracer.patch(LSMTree, "probe", "lsm.tree.probe", size=query_count)
        ):
            for lo in range(0, n, scale.serve_batch):
                hi = min(lo + scale.serve_batch, n)
                answers, stats = inline.serve_batch(inputs.batch.los[lo:hi],
                                                    inputs.batch.his[lo:hi])
                failed += int((answers != inputs.truth[lo:hi]).sum()) + missed_reads(stats)
                attempted += hi - lo
        wide = layer_table(tracer.arrays(mark))["lsm.tree.probe"]

        sst_stats: dict = {}
        for tree in trees:
            tree.probe(inputs.batch, sst_stats=sst_stats)
    finally:
        service.close()
        inline.close()

    batch_hist_sum, batch_hist_count = histogram_sum(batcher_metrics, "serve.batcher.batch_size")
    flushes = counter_sum(batcher_metrics, "", prefix="serve.batcher.flush.")
    size_flushes = counter_sum(batcher_metrics, "serve.batcher.flush.size")
    fanout_pairs = sum(sum(stats["shard_queries"]) for *_, stats in recorded)
    metrics = dict.fromkeys(PER_LAYER_ZERO_FOR_READS, 0.0)
    metrics.update({
        "serve.batcher.batch_size_mean": (
            batch_hist_sum / batch_hist_count if batch_hist_count else 0.0
        ),
        "serve.batcher.size_flush_share": size_flushes / flushes if flushes else 0.0,
        "serve.batcher.queue_wait_ms_p50": percentile(queue_wait_ms, 50),
        "serve.service.serve_batch_ms_p50": percentile(process_ms, 50),
        "serve.service.serve_batch_ms_p99": percentile(process_ms, 99),
        "serve.service.ipc_ms_p50": percentile(process_ms - np.asarray(inline_ms), 50),
        "serve.service.start_s": start_s,
        "serve.shard.fanout_per_query": fanout_pairs / queries,
        "lsm.tree.probe_ms_p50.b64": percentile(table["lsm.tree.probe"]["durations"] * 1e3, 50),
        "lsm.tree.probe_us_per_query.b4096": wide["total_s"] / wide["size"] * 1e6,
        "kernels.bloom_contains_calls_per_query": (
            counter_sum(kernel_metrics, ".bloom_contains") / queries
        ),
        "core.cpfpr.obs_over_pred_median": obs_over_pred(sst_stats),
        "trace.overhead_share": (traced_loop + replay_wall) / (base_loop + replay_base) - 1.0,
        "trace.unattributed_share": unattributed,
    })
    metrics.update(probe_layer_metrics(table, replay_wall, queries, inline_stats))
    metrics.update(design_metrics(registry, build_durations))
    details = {
        "passes": passes,
        "micro_batches": len(recorded),
        "reconcile": check,
        "layers_self_s": {k: v["self_s"] for k, v in table.items()},
        "untraced_s": base_loop + replay_base,
        "traced_s": traced_loop + replay_wall,
        "routed_pairs": int(table.get("lsm.sstable.matches_many", {}).get("size", 0)),
        "filters_built": int(counter_sum(registry, "build.filters")),
    }
    correct = failed == 0 and check["reconciled"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": correct, "details": details}
