"""The LSM tree substrate: leveled geometry, per-SST filters, batched probes.

This is the paper's end-to-end RocksDB experiment as a simulation:

* **Geometry** — leveled compaction shape.  Level ``i`` holds up to
  ``fanout**i`` SSTs of ``sst_keys`` keys each; levels fill top-down, the
  deepest level absorbing the remainder, so the bulk of the data sits at the
  bottom — the steady state leveled compaction converges to.  Keys are
  assigned to levels by a seeded permutation, so every level is a sorted run
  spanning the whole key space: levels overlap each other (queries must
  consult all of them) while the SSTs *within* a level are disjoint and
  fence-pruned by binary search, exactly as in RocksDB.
* **Filters** — :meth:`LSMTree.attach_filters` builds one filter per SST
  through the uniform registry protocol: a global
  :class:`~repro.api.spec.FilterSpec` is split into per-SST specs
  (:func:`~repro.api.budget.derive_sst_specs`) and every SST builds via
  ``build_filter(sst_spec, sst.keys, workload)`` from **one shared query
  sample** — the paper's deployment, where each table self-designs against
  the system-wide sample.
* **Probes** — :meth:`LSMTree.probe` replays a
  :class:`~repro.workloads.batch.QueryBatch` through the tree **one level
  at a time**: two ``searchsorted`` calls locate each query's
  fence-surviving SST interval, the intervals flatten into (query, SST)
  pairs, and the level's :class:`~repro.lsm.levelpack.LevelPack` answers
  every pair at once — exact truth from one search of the level's
  concatenated keys, filter verdicts from one packed
  :func:`repro.kernels.bloom_contains_packed` call when every filter in the
  level is an integer-key Proteus (or absent).  Levels holding any other
  filter — byte-key Proteus, the FST trie engine, the other families,
  ``object``-dtype wide keys, trie keys too deep to pack — fall back to one
  grouped ``probe_many`` call per routed SST, so their answers are those of
  the per-SST loop.  A pack is rebuilt whenever an SST's filter object is
  swapped (:meth:`~repro.lsm.levelpack.LevelPack.is_current`), so packs
  never go stale.  Accounting follows :mod:`repro.lsm.cost`: a block read
  is charged only on a filter positive.
"""

from __future__ import annotations

import numpy as np

from repro.api import FilterSpec, Workload, build_filter, derive_sst_specs
from repro.filters.base import ragged_ranges
from repro.lsm.cost import CostModel, ProbeResult, SstStats
from repro.lsm.levelpack import LevelPack
from repro.lsm.sstable import SSTable
from repro.obs.metrics import timed
from repro.obs.trace import ProbeTrace
from repro.workloads.batch import (
    MAX_VECTOR_WIDTH,
    coerce_query_batch,
)
from repro.workloads.keyset import KeySet

__all__ = ["LSMTree"]

#: The per-pair flags ``probe`` folds into :class:`ProbeResult`, in the
#: order of its flag tuples (candidates are the pairs themselves).
_PAIR_FIELDS = (
    "filter_probes",
    "blocks_read",
    "required_reads",
    "false_positive_reads",
    "missed_reads",
)

#: Default SST capacity in keys.
DEFAULT_SST_KEYS = 512

#: Default level-size growth factor (RocksDB's default is 10; 4 keeps the
#: smoke-scale trees multi-level).
DEFAULT_FANOUT = 4


class LSMTree:
    """A leveled LSM tree of :class:`~repro.lsm.sstable.SSTable` runs."""

    def __init__(
        self,
        levels: list[list[SSTable]],
        width: int,
        geometry: dict | None = None,
    ):
        if not levels or not any(levels):
            raise ValueError("an LSM tree needs at least one non-empty level")
        self.width = width
        self.levels = levels
        self.geometry = dict(geometry or {})
        for level in levels:
            for sst in level:
                if sst.width != width:
                    raise ValueError(
                        f"SST width {sst.width} does not match tree width {width}"
                    )
        # Per-level fence arrays: SSTs in a level are disjoint and sorted,
        # so min/max fences are both increasing and a query's candidate SSTs
        # form the contiguous interval two searchsorted calls locate.  A
        # level compacted away entirely (legal mid-lifecycle: level i merged
        # into i+1 leaves an empty level between populated neighbours) gets
        # empty fence arrays — searchsorted then routes zero queries to it,
        # so probe never special-cases the gap.  Fences take the key set's
        # *natural* dtype — S-strings for byte trees (so a ByteQueryBatch's
        # S-dtype bounds searchsort directly, in memcmp order), int64/object
        # for integer trees.  An empty level cannot reveal the dtype, so it
        # comes from the first populated SST (one always exists; the
        # constructor rejects an all-empty tree) with the width as fallback.
        sample = next(sst for level in levels for sst in level)
        if sample.keys.is_bytes:
            dtype = sample.keys.keys.dtype
        else:
            dtype = np.int64 if width <= MAX_VECTOR_WIDTH else object
        self._fences = []
        for level in levels:
            mins = np.array([sst.min_key for sst in level], dtype=dtype)
            maxs = np.array([sst.max_key for sst in level], dtype=dtype)
            self._fences.append((mins, maxs))
        # Level packs are built on a level's first routed probe and rebuilt
        # whenever an SST's filter object changes (LevelPack.is_current).
        self._packs: list[LevelPack | None] = [None] * len(levels)

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        keys: KeySet,
        sst_keys: int = DEFAULT_SST_KEYS,
        fanout: int = DEFAULT_FANOUT,
        seed: int = 0,
    ) -> "LSMTree":
        """Build the leveled tree over ``keys`` (filters attached separately).

        Level ``i`` has capacity ``sst_keys * fanout**i`` keys; levels fill
        shallow-to-deep, the deepest taking the remainder.  A seeded
        permutation decides which key lands in which level, then each
        level's keys are re-sorted (:meth:`~repro.workloads.keyset.KeySet.
        sorted_take`) and chopped into contiguous SSTs — zero-copy
        :meth:`~repro.workloads.keyset.KeySet.slice` views of the level's
        key set, whatever its representation.
        """
        if not isinstance(keys, KeySet):
            raise TypeError("LSMTree.build takes a KeySet")
        if len(keys) == 0:
            raise ValueError("cannot build an LSM tree over zero keys")
        if sst_keys < 1:
            raise ValueError("sst_keys must be at least 1")
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        sizes: list[int] = []
        remaining = len(keys)
        while remaining > 0:
            capacity = sst_keys * fanout ** len(sizes)
            take = min(capacity, remaining)
            sizes.append(take)
            remaining -= take
        perm = np.random.default_rng(seed).permutation(len(keys))
        levels: list[list[SSTable]] = []
        offset = 0
        for level_index, size in enumerate(sizes):
            chosen = perm[offset : offset + size]
            offset += size
            level_set = keys.sorted_take(chosen)
            ssts = []
            for sst_index, start in enumerate(range(0, size, sst_keys)):
                ssts.append(
                    SSTable(
                        level_index,
                        sst_index,
                        level_set.slice(start, min(start + sst_keys, size)),
                    )
                )
            levels.append(ssts)
        geometry = {"sst_keys": sst_keys, "fanout": fanout, "seed": seed}
        return cls(levels, keys.width, geometry)

    def attach_filters(
        self,
        spec: FilterSpec,
        workload: Workload,
        policy: str = "proportional",
        metrics=None,
    ) -> None:
        """Build one filter per SST from ``spec`` and the shared sample.

        ``spec`` carries the *global* bits-per-key budget; ``policy`` says
        how it splits across SSTs (:mod:`repro.api.budget`).  Every SST
        builds through ``build_filter(sst_spec, sst.keys, workload)`` — the
        self-designing families run Algorithm 1 per SST against the one
        shared query sample, fixed baselines derive their knobs per SST.
        ``metrics`` optionally instruments every per-SST build (and the
        whole attach pass) through the :mod:`repro.obs` registry.
        """
        ssts = self.sstables()
        specs = derive_sst_specs(spec, [len(sst) for sst in ssts], policy)
        with timed(metrics, "attach.seconds"):
            for sst, sst_spec in zip(ssts, specs):
                sst.attach_filter(
                    build_filter(sst_spec, sst.keys, workload, metrics=metrics),
                    sst_spec,
                )
        if metrics is not None:
            metrics.inc("attach.passes")
            metrics.inc("attach.ssts", len(ssts))
            metrics.set_gauge("attach.last_filter_bits", self.filter_size_bits())

    def clear_filters(self) -> None:
        """Detach every SST's filter (the no-filter baseline)."""
        for sst in self.sstables():
            sst.clear_filter()

    # ------------------------------------------------------------------ #
    # Probing                                                            #
    # ------------------------------------------------------------------ #

    def probe(
        self,
        queries,
        trace: ProbeTrace | None = None,
        sst_stats: dict[SSTable, SstStats] | None = None,
    ) -> ProbeResult:
        """Replay a query batch through the tree and return the accounting.

        Per level, each query's fence-surviving SSTs form a contiguous
        interval (``first[q] <= j < last[q]``); the interval flattens into
        (query, SST) pairs, and the level's
        :class:`~repro.lsm.levelpack.LevelPack` answers all of them at once —
        exact truth from one level-wide search, filter verdicts from one
        packed call (or, for a level the pack cannot represent, one grouped
        call per routed SST).
        Per-query counts fold back with ``np.bincount`` over the pairs.

        ``trace`` optionally records every routed (query, SST) pair as a
        :class:`~repro.obs.trace.ProbeEvent` — fence survival, filter
        verdict, charged block read, ground truth — whose totals reconcile
        exactly against the returned :class:`ProbeResult`
        (``trace.reconcile(result)``).  ``sst_stats`` optionally
        accumulates a :class:`~repro.lsm.cost.SstStats` per probed SST
        (keyed by the SST object itself), the granularity the per-SST
        drift monitors consume — pass the same dict across probes to
        accumulate over a stream.  Both hooks cost one ``is None`` check
        per level when unused.
        """
        batch = coerce_query_batch(queries, self.width)
        n = len(batch)
        result = ProbeResult.zeros(n, len(self.levels))
        if n == 0:
            return result
        pair_queries = []
        pair_flags = []
        for level_index, level in enumerate(self.levels):
            mins, maxs = self._fences[level_index]
            # First SST whose max fence reaches lo; first whose min exceeds hi.
            first = np.searchsorted(maxs, batch.los, side="left")
            last = np.searchsorted(mins, batch.his, side="right")
            active = last > first
            if not active.any():
                continue
            # Flatten the routing intervals into (query, SST) pairs, so the
            # work is proportional to the routed pairs, query-major.
            queries_hit = np.flatnonzero(active)
            lengths = (last - first)[active]
            sst, _ = ragged_ranges(first[active], lengths)
            query = np.repeat(queries_hit, lengths)
            pack = self._level_pack(level_index)
            truth = pack.truth(batch, queries_hit, lengths, sst)
            positives = pack.positives(batch, query, sst)
            filtered = pack.filtered[sst]
            false_positive = positives & ~truth
            missed = truth & ~positives
            flags = (filtered, positives, truth, false_positive, missed)
            pair_queries.append(query)
            pair_flags.append(flags)
            stats = result.per_level[level_index]
            stats.candidates = int(query.size)
            for name, flag in zip(_PAIR_FIELDS, flags):
                setattr(stats, name, int(np.count_nonzero(flag)))
            if trace is not None:
                trace.record_pairs(level_index, sst, query, positives, truth, filtered)
            if sst_stats is not None:
                self._fold_sst_stats(level, sst, flags, sst_stats)
        if not pair_queries:
            return result
        query = np.concatenate(pair_queries)
        result.candidates[:] = np.bincount(query, minlength=n)
        for name, column in zip(_PAIR_FIELDS, zip(*pair_flags)):
            flag = np.concatenate(column)
            getattr(result, name)[:] = np.bincount(query[flag], minlength=n)
        return result

    def _level_pack(self, level_index: int) -> LevelPack:
        """The level's pack, rebuilt when any SST's filter object changed."""
        level = self.levels[level_index]
        pack = self._packs[level_index]
        if pack is None or not pack.is_current(level):
            pack = self._packs[level_index] = LevelPack(level, self.width)
        return pack

    @staticmethod
    def _fold_sst_stats(level, sst, flags, sst_stats) -> None:
        """Add one level's per-pair flags into the per-SST accumulators."""
        size = len(level)
        candidates = np.bincount(sst, minlength=size)
        columns = [np.bincount(sst[flag], minlength=size) for flag in flags]
        for j in np.flatnonzero(candidates).tolist():
            per_sst = sst_stats.setdefault(level[j], SstStats())
            per_sst.candidates += int(candidates[j])
            for name, column in zip(_PAIR_FIELDS, columns):
                setattr(per_sst, name, getattr(per_sst, name) + int(column[j]))

    # ------------------------------------------------------------------ #
    # Accounting and introspection                                       #
    # ------------------------------------------------------------------ #

    def sstables(self) -> list[SSTable]:
        """Every SST, shallow level first, left to right within a level."""
        return [sst for level in self.levels for sst in level]

    @property
    def num_keys(self) -> int:
        return sum(len(sst) for sst in self.sstables())

    @property
    def num_ssts(self) -> int:
        return sum(len(level) for level in self.levels)

    def filter_bits_per_level(self) -> list[int]:
        """Per-level filter memory: the sum of each SST filter's charged bits."""
        return [sum(sst.filter_size_bits() for sst in level) for level in self.levels]

    def filter_size_bits(self) -> int:
        """Tree-wide filter memory in bits."""
        return sum(self.filter_bits_per_level())

    def describe(self, cost_model: CostModel | None = None) -> dict:
        """JSON-ready geometry and memory summary."""
        summary = {
            "width": self.width,
            "num_keys": self.num_keys,
            "num_levels": len(self.levels),
            "num_ssts": self.num_ssts,
            "geometry": dict(self.geometry),
            "levels": [
                {
                    "level": index,
                    "num_ssts": len(level),
                    "num_keys": sum(len(sst) for sst in level),
                    "filter_bits": bits,
                }
                for index, (level, bits) in enumerate(
                    zip(self.levels, self.filter_bits_per_level())
                )
            ],
        }
        if cost_model is not None:
            summary["cost_model"] = cost_model.to_dict()
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LSMTree(levels={len(self.levels)}, ssts={self.num_ssts}, "
            f"keys={self.num_keys}, width={self.width})"
        )
