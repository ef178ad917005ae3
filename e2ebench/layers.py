"""Per-layer figures shared by the traced runs of both workload modules.

:func:`install_probe_patches` puts spans around the read path's public
calls below the service; the other helpers turn spans, registry counters
and per-SST probe statistics into the per-layer metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import numpy as np
from common import percentile

from repro.core.proteus import Proteus
from repro.keys import bytestr
from repro.lsm.sstable import SSTable
from repro.lsm.tree import LSMTree
from repro.obs.metrics import MetricsRegistry
from repro.workloads.batch import QueryBatch
from repro.workloads.bytekeys import ByteQueryBatch


def query_count(self, queries, *args, **kwargs) -> int:
    return len(queries)


def install_probe_patches(tracer) -> None:
    """Spans around the read path's public calls below the service."""
    tracer.patch(LSMTree, "probe", "lsm.tree.probe", size=query_count)
    tracer.patch(SSTable, "matches_many", "lsm.sstable.matches_many", size=query_count)
    tracer.patch(SSTable, "probe_many", "lsm.sstable.probe_many", size=query_count)
    tracer.patch(Proteus, "may_intersect_many", "filters.proteus.may_intersect_many",
                 size=query_count)
    tracer.patch(QueryBatch, "__init__", "workloads.coerce", size=query_count)
    tracer.patch(ByteQueryBatch, "__init__", "workloads.coerce", size=query_count)
    for attr, value in vars(bytestr).items():
        if callable(value) and getattr(value, "__module__", None) == bytestr.__name__:
            tracer.patch_everywhere(value, "keys.bytestr")


def counter_sum(registry: MetricsRegistry, suffix: str, prefix: str = "") -> float:
    """Sum of the counters named ``prefix...suffix``."""
    counters = registry.to_dict()["counters"]
    return float(
        sum(v for k, v in counters.items() if k.startswith(prefix) and k.endswith(suffix))
    )


def histogram_sum(registry: MetricsRegistry, name: str) -> tuple[float, int]:
    hist = registry.to_dict()["histograms"].get(name)
    return (hist["sum"], hist["count"]) if hist else (0.0, 0)


def design_metrics(registry: MetricsRegistry, build_durations: np.ndarray) -> dict:
    """Design-search cost per filter from the ``metrics=`` hooks and build spans."""
    design_s, searches = histogram_sum(registry, "design.seconds")
    evaluations = counter_sum(registry, "cpfpr.evaluations")
    build_ms = build_durations * 1e3
    return {
        "api.build_filter_ms_p50": percentile(build_ms, 50),
        "core.design.ms_per_filter": design_s / searches * 1e3 if searches else 0.0,
        "core.cpfpr.candidates_per_filter": evaluations / searches if searches else 0.0,
        "core.cpfpr.us_per_candidate": design_s / evaluations * 1e6 if evaluations else 0.0,
    }


def obs_over_pred(sst_stats: dict) -> float:
    """Median over SSTs of observed FPR on empty probes over ``expected_fpr``."""
    ratios = [
        (stats.false_positive_reads / stats.empty_trials) / sst.filter.expected_fpr
        for sst, stats in sst_stats.items()
        if stats.empty_trials > 0 and sst.filter is not None and sst.filter.expected_fpr > 0
    ]
    return float(np.median(ratios)) if ratios else 0.0


def probe_layer_metrics(table: dict, wall: float, queries: int, stats: dict) -> dict:
    """Per-layer figures of one traced probe phase (shares of its wall time)."""

    def total(name, key="total_s"):
        return table.get(name, {}).get(key, 0)

    probes = table.get("lsm.tree.probe", {})
    pairs = total("lsm.sstable.matches_many", "size")
    filter_pairs = total("filters.proteus.may_intersect_many", "size")
    return {
        "lsm.tree.sst_groups_per_probe": (
            total("lsm.sstable.matches_many", "calls") / probes["calls"] if probes else 0.0
        ),
        "lsm.tree.routed_pairs_per_query": pairs / queries,
        "lsm.sstable.exact_search_share": total("lsm.sstable.matches_many", "self_s") / wall,
        "lsm.sstable.filter_probe_share": total("lsm.sstable.probe_many") / wall,
        "lsm.sstable.filter_negative_share": (
            1.0 - stats["blocks_read"] / stats["filter_probes"] if stats["filter_probes"] else 0.0
        ),
        "lsm.sstable.blocks_read_per_query": stats["blocks_read"] / queries,
        "filters.proteus.probe_ns_per_pair": (
            total("filters.proteus.may_intersect_many") / filter_pairs * 1e9
            if filter_pairs else 0.0
        ),
        "workloads.coerce_us_per_query": total("workloads.coerce", "self_s") / queries * 1e6,
        "keys.bytestr_share": total("keys.bytestr", "self_s") / wall,
    }
