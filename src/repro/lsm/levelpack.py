"""Level packs: one LSM level's SSTs laid out for level-wide probing.

:meth:`LSMTree.probe <repro.lsm.tree.LSMTree.probe>` flattens a batch into
(query, SST) *pairs* per level and answers all of a level's pairs at once
through a :class:`LevelPack`:

* **exact truth** — the SSTs of a level are disjoint and sorted, so their
  keys concatenate into one sorted array (the same per-level layout
  :mod:`repro.serve.shm` shares with workers).  One ``searchsorted`` per
  query finds its first key ``>= lo`` in the whole level; clamping that
  position into each pair's ``[sst_start, sst_end)`` gives the first key of
  that SST, and the pair is a match iff that key exists and is ``<= hi``.
  This holds for ``int64``, ``object`` and ``S``-dtype keys alike;
* **filter answers** — a :class:`ProteusPack` holds every SST's
  word-sized integer :class:`~repro.core.proteus.Proteus` as flat tables:
  per-SST parameters (``l1``, ``l2``, ``max_probes``, Bloom row), one
  sorted array of composite ``(sst << shift) | prefix`` trie keys (so the
  trie gate and the per-slot ``l1`` check are plain ``searchsorted`` calls)
  and one concatenated Bloom bit buffer probed by the
  :func:`repro.kernels.bloom_contains_packed` kernel.  Unfiltered SSTs sit
  in the same pack and answer positive.

A level the pack cannot represent exactly — byte-key Proteus, the FST trie
engine, any other filter family, ``object``-dtype wide keys, or composite
trie keys that would overflow ``int64`` — answers its filters through the
*grouped* path instead: one :meth:`~repro.lsm.sstable.SSTable.probe_many`
call per routed SST on the sub-batch routed to it, exactly the calls the
per-SST loop made, so every family's answers stay what they were.

**Staleness rule.** A pack captures the filter objects of its SSTs when it
is built, and :meth:`LevelPack.is_current` compares them by identity before
every use.  Filters are immutable once attached — every swap
(``attach_filters``, ``clear_filters``, re-attachment in a serving worker,
an in-place lifecycle rebuild) goes through
:meth:`~repro.lsm.sstable.SSTable.attach_filter` or
:meth:`~repro.lsm.sstable.SSTable.clear_filter`, which replace the object —
so a swap always shows on the next probe.  Keys never change under a pack:
SSTs are immutable and a tree's levels are fixed when it is constructed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import kernels
from repro.core.proteus import Proteus
from repro.filters.base import ragged_ranges
from repro.lsm.sstable import SSTable
from repro.trie.sorted_index import SortedPrefixIndex
from repro.workloads.batch import QueryBatch

__all__ = ["LevelPack", "ProteusPack", "level_key_array"]


def level_key_array(level: Sequence[SSTable]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate a level's SST key arrays: ``(keys, bounds)``.

    SST ``j`` owns ``keys[bounds[j]:bounds[j + 1]]``.  The SSTs of a level
    are disjoint and ordered, so the concatenation is itself sorted and
    distinct.
    """
    bounds = np.zeros(len(level) + 1, dtype=np.int64)
    np.cumsum([len(sst) for sst in level], out=bounds[1:])
    return np.concatenate([sst.keys.keys for sst in level]), bounds


class ProteusPack:
    """The filters of one level's SSTs as flat, level-wide tables.

    Per SST ``j``: ``l1[j]``/``l2[j]`` (0 where the layer is absent or the
    SST unfiltered), ``max_probes[j]`` and ``bloom_row[j]`` (-1 without a
    Bloom layer).  ``trie_keys`` holds every SST's stored ``l1``-prefixes as
    sorted composite ``(j << shift) | prefix`` keys; the ``bloom_*`` tables
    are the :func:`repro.kernels.bloom_contains_packed` arguments, one row
    per Bloom layer.
    """

    def __init__(self, filters: Sequence[Proteus | None], width: int):
        count = len(filters)
        self.width = width
        self.l1 = np.zeros(count, dtype=np.int64)
        self.l2 = np.zeros(count, dtype=np.int64)
        self.max_probes = np.ones(count, dtype=np.int64)
        self.bloom_row = np.full(count, -1, dtype=np.int64)
        tries: list[tuple[int, np.ndarray]] = []
        blooms = []
        for j, filt in enumerate(filters):
            if filt is None:
                continue
            self.max_probes[j] = filt.max_probes
            if filt._trie is not None:
                self.l1[j] = filt.design.trie_depth
                tries.append((j, filt._trie._arr))
            if filt._bloom is not None:
                self.l2[j] = filt.design.bloom_prefix_len
                self.bloom_row[j] = len(blooms)
                blooms.append(filt._bloom)
        self.shift = np.int64(self.l1.max())
        parts = [(np.int64(j) << self.shift) | prefixes for j, prefixes in tries]
        self.trie_keys = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        words = [bloom.bits.words() for bloom in blooms]
        sizes = np.array([w.size * 8 for w in words], dtype=np.int64)
        self.bloom_words = np.concatenate(words) if words else np.zeros(0, dtype=np.uint8)
        self.bloom_offsets = np.cumsum(sizes) - sizes
        self.bloom_bits = np.array([b.num_bits for b in blooms], dtype=np.int64)
        self.bloom_hashes = np.array([b.num_hashes for b in blooms], dtype=np.int64)
        self.bloom_s1 = np.array([b._s1 for b in blooms], dtype=np.uint64)
        self.bloom_s2 = np.array([b._s2 for b in blooms], dtype=np.uint64)

    @classmethod
    def build(cls, level: Sequence[SSTable], width: int) -> ProteusPack | None:
        """Pack ``level``'s filters, or ``None`` where a pack cannot be exact.

        Representable: int64 keys whose SSTs are unfiltered or carry an
        integer-key :class:`~repro.core.proteus.Proteus` with the sorted trie
        engine, with the SST index and the deepest trie prefix fitting one
        63-bit composite key.
        """
        filters = [sst.filter for sst in level]
        for sst, filt in zip(level, filters):
            if sst.keys.keys.dtype != np.int64:
                return None
            if filt is None:
                continue
            if type(filt) is not Proteus or filt.is_bytes or filt.num_keys == 0:
                return None
            trie = filt._trie
            if trie is not None and not (isinstance(trie, SortedPrefixIndex) and trie.is_vector):
                return None
        depth = max((f.design.trie_depth for f in filters if f is not None), default=0)
        if depth and depth + (len(level) - 1).bit_length() > 63:
            return None
        return cls(filters, width)

    def answer(self, lo: np.ndarray, hi: np.ndarray, sst: np.ndarray) -> np.ndarray:
        """Filter verdict per pair: query ``[lo[p], hi[p]]`` against SST ``sst[p]``.

        Pair for pair the answer of ``Proteus.may_intersect_many``: the trie
        gate, then the probe clamp, then a Bloom probe of every covered
        ``l2``-slot, counted only where the trie stores its ``l1``-prefix.
        """
        out = np.ones(sst.size, dtype=bool)
        l1 = self.l1[sst]
        gated = np.flatnonzero(l1 > 0)
        if gated.size:
            base = sst[gated] << self.shift
            drop = self.width - l1[gated]
            first = np.searchsorted(self.trie_keys, base | (lo[gated] >> drop), "left")
            last = np.searchsorted(self.trie_keys, base | (hi[gated] >> drop), "right")
            out[gated] = last > first
        l2 = self.l2[sst]
        probed = np.flatnonzero((l2 > 0) & out)
        drop = self.width - l2[probed]
        plo = lo[probed] >> drop
        phi = hi[probed] >> drop
        # Spans beyond max_probes answer a conservative True (out stays set);
        # comparing against max_probes - 1 never forms an overflowing count.
        todo = phi - plo <= self.max_probes[sst[probed]] - 1
        if not todo.any():
            return out
        probed, plo = probed[todo], plo[todo]
        span = phi[todo] - plo + 1
        slots, seg_starts = ragged_ranges(plo, span)
        slot_sst = np.repeat(sst[probed], span)
        hits = kernels.bloom_contains_packed(
            self.bloom_words,
            slots,
            self.bloom_row[slot_sst],
            self.bloom_offsets,
            self.bloom_bits,
            self.bloom_hashes,
            self.bloom_s1,
            self.bloom_s2,
        )
        # The l1 check runs on the Bloom positives alone; the rest stay False.
        checked = np.flatnonzero(hits)
        checked = checked[self.l1[slot_sst[checked]] > 0]
        if checked.size:
            owner = slot_sst[checked]
            gap = self.l2[owner] - self.l1[owner]
            composite = (owner << self.shift) | (slots[checked] >> gap)
            rank = np.searchsorted(self.trie_keys, composite, "left")
            safe = np.minimum(rank, self.trie_keys.size - 1)
            hits[checked] = (rank < self.trie_keys.size) & (self.trie_keys[safe] == composite)
        out[probed] = np.logical_or.reduceat(hits, seg_starts)
        return out


class LevelPack:
    """One level's keys and filters, answering all its routed pairs at once."""

    __slots__ = ("ssts", "filters", "keys", "bounds", "filtered", "proteus")

    def __init__(self, level: Sequence[SSTable], width: int):
        self.ssts = tuple(level)
        self.filters = tuple(sst.filter for sst in level)
        self.keys, self.bounds = level_key_array(level)
        self.filtered = np.array([f is not None for f in self.filters], dtype=bool)
        self.proteus = ProteusPack.build(level, width)

    def is_current(self, level: Sequence[SSTable]) -> bool:
        """Whether every SST still carries the filter object packed here."""
        return len(level) == len(self.filters) and all(
            sst.filter is filt for sst, filt in zip(level, self.filters)
        )

    def truth(
        self, batch: QueryBatch, queries: np.ndarray, lengths: np.ndarray, sst: np.ndarray
    ) -> np.ndarray:
        """Exact match per pair, from one level-wide search per query.

        ``queries`` are the batch rows with routed pairs, ``lengths`` how many
        consecutive pairs each owns, ``sst`` the SST of every pair.
        """
        keys = self.keys
        first = np.repeat(np.searchsorted(keys, batch.los[queries]), lengths)
        first = np.maximum(first, self.bounds[sst])
        inside = first < self.bounds[sst + 1]
        safe = np.minimum(first, keys.size - 1)
        his = np.repeat(batch.his[queries], lengths)
        return inside & np.asarray(keys[safe] <= his, dtype=bool)

    def positives(self, batch: QueryBatch, query: np.ndarray, sst: np.ndarray) -> np.ndarray:
        """Filter verdict per (``query[p]``, ``sst[p]``) pair.

        One packed call when the level is representable, else one
        ``probe_many`` call per routed SST on its ascending-query sub-batch.
        """
        if self.proteus is not None:
            return self.proteus.answer(batch.los[query], batch.his[query], sst)
        out = np.empty(sst.size, dtype=bool)
        order = np.argsort(sst, kind="stable")
        grouped = sst[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        ends = np.append(starts[1:], grouped.size)
        for start, end in zip(starts.tolist(), ends.tolist()):
            rows = order[start:end]
            table = self.ssts[int(grouped[start])]
            out[rows] = table.probe_many(batch.select(query[rows]))
        return out
