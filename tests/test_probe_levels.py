"""``LSMTree.probe``'s level-wide path against the per-SST loop it replaced.

:func:`reference_probe` is that loop, kept here as the oracle: per level it
groups the routed (query, SST) pairs by SST and calls ``matches_many`` and
``probe_many`` once per group.  The level-wide path (one search and one
packed filter call per level, :mod:`repro.lsm.levelpack`) must return the
same :class:`~repro.lsm.cost.ProbeResult` array for array, the same
per-level stats, the same per-SST stats and the same trace — for every
family, key representation and tree shape, and after every kind of filter
swap.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.api import FilterSpec, Workload, build_filter, registered_families
from repro.core.design import FilterDesign
from repro.core.proteus import Proteus
from repro.filters.base import ragged_ranges
from repro.lsm import FilterLifecycle, LSMTree, OnlineLSMTree, SSTable
from repro.lsm.cost import ProbeResult, SstStats
from repro.lsm.levelpack import LevelPack
from repro.obs.trace import TRACE_FIELDS, ProbeEvent, ProbeTrace
from repro.serve.shm import attach_tree, snapshot_tree
from repro.workloads import EncodedKeySet, QueryBatch
from repro.workloads.batch import coerce_query_batch
from repro.workloads.datasets import load_dataset
from repro.workloads.generators import mixed_queries, uniform_queries, write_stream

WIDTH = 32


def reference_probe(tree: LSMTree, queries, sst_stats=None):
    """The per-SST probe loop: ``(ProbeResult, events)`` in SST-major order."""
    batch = coerce_query_batch(queries, tree.width)
    result = ProbeResult.zeros(len(batch), len(tree.levels))
    events: list[ProbeEvent] = []
    if len(batch) == 0:
        return result, events
    for level_index, level in enumerate(tree.levels):
        stats = result.per_level[level_index]
        mins, maxs = tree._fences[level_index]
        first = np.searchsorted(maxs, batch.los, side="left")
        last = np.searchsorted(mins, batch.his, side="right")
        active = last > first
        if not active.any():
            continue
        active_queries = np.nonzero(active)[0]
        lengths = (last - first)[active]
        flat_sst, _ = ragged_ranges(first[active], lengths)
        flat_query = np.repeat(active_queries, lengths)
        order = np.argsort(flat_sst, kind="stable")
        flat_sst = flat_sst[order]
        flat_query = flat_query[order]
        boundaries = np.nonzero(np.diff(flat_sst))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [flat_sst.size]])
        for start, end in zip(starts, ends):
            sst_index = int(flat_sst[start])
            sst = level[sst_index]
            query_indices = flat_query[start:end]
            sub = batch.select(query_indices)
            truth = sst.matches_many(sub.los, sub.his)
            positives = sst.probe_many(sub)
            filtered = sst.filter is not None
            fields = {
                "candidates": np.ones(query_indices.size, dtype=bool),
                "filter_probes": np.full(query_indices.size, filtered),
                "blocks_read": positives,
                "required_reads": truth,
                "false_positive_reads": positives & ~truth,
                "missed_reads": truth & ~positives,
            }
            for name, flags in fields.items():
                getattr(result, name)[query_indices] += flags
                setattr(stats, name, getattr(stats, name) + int(flags.sum()))
            if sst_stats is not None:
                per_sst = sst_stats.setdefault(sst, SstStats())
                for name, flags in fields.items():
                    setattr(per_sst, name, getattr(per_sst, name) + int(flags.sum()))
            events.extend(
                ProbeEvent(q, level_index, sst_index, filtered, p, t)
                for q, p, t in zip(
                    query_indices.tolist(), positives.tolist(), truth.tolist()
                )
            )
    return result, events


def assert_matches_reference(tree: LSMTree, queries) -> ProbeResult:
    """Probe both ways (traced, with per-SST stats) and require identity."""
    want_stats: dict = {}
    want, events = reference_probe(tree, queries, sst_stats=want_stats)
    got_stats: dict = {}
    trace = ProbeTrace(capacity=max(1, len(events)))
    got = tree.probe(queries, trace=trace, sst_stats=got_stats)
    for name in TRACE_FIELDS:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert [s.to_dict() for s in got.per_level] == [
        s.to_dict() for s in want.per_level
    ]
    assert list(got_stats) == list(want_stats)  # same SSTs, same order
    for sst, stats in want_stats.items():
        assert got_stats[sst].to_dict() == stats.to_dict()
    assert trace.reconcile(want) == []
    assert trace.num_events == len(events)
    assert trace.events() == events
    # Untraced probes take the same path.
    plain = tree.probe(queries)
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(plain, name), getattr(want, name)), name
    return got


@pytest.fixture(scope="module")
def workload() -> Workload:
    return Workload.generate(
        num_keys=1500, num_queries=400, width=WIDTH, seed=21, query_family="mixed"
    )


def _tree(workload, family="proteus", bits=12.0, **params) -> LSMTree:
    tree = LSMTree.build(workload.keys, sst_keys=96, fanout=3, seed=21)
    tree.attach_filters(FilterSpec(family, bits, params), workload)
    return tree


def _held_out(workload, count=500, seed=5) -> QueryBatch:
    rng = random.Random(seed)
    pairs = mixed_queries(rng, workload.keys.as_list(), count, WIDTH)
    return QueryBatch.from_pairs(pairs, WIDTH)


@pytest.mark.parametrize("family", registered_families())
def test_every_family_matches_the_per_sst_loop(family, workload):
    tree = _tree(workload, family)
    result = assert_matches_reference(tree, _held_out(workload))
    assert int(result.missed_reads.sum()) == 0


def test_proteus_levels_take_the_packed_path(workload):
    tree = _tree(workload)
    tree.probe(_held_out(workload))
    packs = [pack for pack in tree._packs if pack is not None]
    assert packs and all(pack.proteus is not None for pack in packs)


def test_fst_trie_engine_falls_back_and_matches(workload):
    tree = _tree(workload, trie_impl="fst")
    assert_matches_reference(tree, _held_out(workload))


def test_levels_mixing_filtered_and_unfiltered_ssts(workload):
    tree = _tree(workload)
    for level in tree.levels:
        level[0].clear_filter()
    assert_matches_reference(tree, _held_out(workload))
    tree.clear_filters()
    assert_matches_reference(tree, _held_out(workload))


def test_empty_batch(workload):
    tree = _tree(workload)
    result = assert_matches_reference(tree, QueryBatch.from_pairs([], WIDTH))
    assert result.num_queries == 0


def test_empty_level_gaps(workload):
    source = _tree(workload)
    levels = [source.levels[0], [], source.levels[1], [], source.levels[2]]
    tree = LSMTree(levels, WIDTH)
    assert_matches_reference(tree, _held_out(workload))


def test_byte_keys_match_the_per_sst_loop():
    w = load_dataset("dblp", num_keys=600, num_queries=240, seed=4)
    for family in ("proteus", "prefix_bloom", "surf"):
        tree = LSMTree.build(w.keys, sst_keys=64, fanout=3, seed=3)
        tree.attach_filters(FilterSpec(family, 12.0), w)
        assert_matches_reference(tree, w.queries)


def test_object_dtype_wide_keys_match_the_per_sst_loop():
    width = 80
    rng = random.Random(3)
    keys = sorted({rng.getrandbits(width) for _ in range(400)})
    pairs = [(k, k) for k in keys[::9]]
    for _ in range(150):
        lo = rng.getrandbits(width)
        pairs.append((lo, min(lo + rng.randrange(1 << 20), (1 << width) - 1)))
    w = Workload(EncodedKeySet(keys, width), QueryBatch.from_pairs(pairs, width))
    assert w.keys.keys.dtype == object
    tree = LSMTree.build(w.keys, sst_keys=48, fanout=3, seed=3)
    tree.attach_filters(FilterSpec("proteus", 12.0), w)
    result = assert_matches_reference(tree, w.queries)
    assert int(result.required_reads.sum()) > 0


def test_composite_trie_keys_that_would_overflow_fall_back():
    # 62-bit keys in an 8-SST level: the SST index takes 3 bits, so a 60-bit
    # trie layer just fits a composite int64 key and a 61-bit one does not —
    # that level must take the grouped path.
    width = 62
    rng = random.Random(8)
    keys = sorted({rng.getrandbits(width) for _ in range(360)})
    pairs = [(k, k) for k in keys[::5]] + [
        (k + 1, min(k + 1 + rng.randrange(1 << 40), (1 << width) - 1))
        for k in keys[1::7]
    ]
    queries = QueryBatch.from_pairs(pairs, width)
    tree = LSMTree.build(EncodedKeySet(keys, width), sst_keys=40, fanout=8, seed=8)
    assert [len(level) for level in tree.levels] == [1, 8]
    for depth, packed in ((60, True), (61, False)):
        design = FilterDesign("proteus", depth, depth + 1, 0, 4096, 0.0)
        for sst in tree.sstables():
            sst.attach_filter(Proteus(sst.keys, width, design))
        assert_matches_reference(tree, queries)
        assert tree._packs[0].proteus is not None
        assert (tree._packs[1].proteus is not None) is packed


def test_weak_bloom_layers_keep_the_per_slot_trie_check():
    # A Bloom layer at ~2 bits per prefix answers many uncovered slots
    # positive; ranges straddling l1-prefix boundaries then need the
    # per-slot trie check to discard the slots no stored prefix extends.
    # Spans of 1-9 slots against max_probes=4 pin the clamp boundary.
    rng = random.Random(12)
    keys = sorted(rng.sample(range(1 << WIDTH), 1200))
    tree = LSMTree.build(EncodedKeySet(keys, WIDTH), sst_keys=150, fanout=3, seed=12)
    for sst in tree.sstables():
        design = FilterDesign("proteus", 10, 16, 0, 2 * len(sst), 0.0)
        sst.attach_filter(Proteus(sst.keys, WIDTH, design, max_probes=4))
    pairs = []
    for _ in range(3000):
        lo = rng.randrange(1 << WIDTH)
        pairs.append((lo, min(lo + rng.randrange(1 << 19), (1 << WIDTH) - 1)))
    result = assert_matches_reference(tree, QueryBatch.from_pairs(pairs, WIDTH))
    assert all(pack.proteus is not None for pack in tree._packs)
    assert 0 < int(result.blocks_read.sum()) < int(result.candidates.sum())


def _online_tree(spec, seed=3):
    rng = random.Random(seed)
    stream = write_stream(rng, 12, 128, WIDTH, delete_fraction=0.2)
    design = QueryBatch.from_pairs(uniform_queries(rng, 256, WIDTH, 1000), WIDTH)
    tree = OnlineLSMTree(WIDTH, spec, design_queries=design, sst_keys=64, level0_runs=3)
    live: set[int] = set()
    for ops in stream:
        tree.apply(ops)
        for op, key in ops:
            (live.add if op == "put" else live.discard)(key)
    tree.flush()
    # A last run of deletes: a level-0 run whose tombstones still shadow
    # older entries below it.
    doomed = sorted(live)[::7]
    tree.apply([("del", key) for key in doomed])
    tree.flush()
    return tree, rng, sorted(live.difference(doomed))


def test_tombstoned_online_snapshots_match_the_per_sst_loop():
    tree, rng, live = _online_tree(FilterSpec("proteus", 12.0))
    snapshot = tree.snapshot()
    assert any(sst.tombstones is not None for sst in snapshot.sstables())
    assert any(len(level) == 1 for level in snapshot.levels)  # level-0 runs
    queries = QueryBatch.from_pairs(mixed_queries(rng, live, 400, WIDTH), WIDTH)
    assert_matches_reference(snapshot, queries)


# --------------------------------------------------------------------- #
# No stale packs: every filter swap shows on the next probe             #
# --------------------------------------------------------------------- #


def test_attach_and_clear_filters_show_on_the_next_probe(workload):
    tree = _tree(workload)
    queries = _held_out(workload)
    before = assert_matches_reference(tree, queries)
    tree.attach_filters(FilterSpec("proteus", 6.0), workload)
    after = assert_matches_reference(tree, queries)
    assert int(after.blocks_read.sum()) != int(before.blocks_read.sum())
    tree.clear_filters()
    cleared = assert_matches_reference(tree, queries)
    assert (cleared.blocks_read == cleared.candidates).all()
    tree.attach_filters(FilterSpec("bloom", 12.0), workload)
    assert_matches_reference(tree, queries)


def test_single_sst_swap_shows_on_the_next_probe(workload):
    tree = _tree(workload)
    queries = _held_out(workload)
    tree.probe(queries)
    sst = tree.levels[-1][0]
    sst.attach_filter(
        build_filter(FilterSpec("proteus", 4.0), sst.keys, workload), sst.spec
    )
    assert_matches_reference(tree, queries)


def test_attach_tree_reattached_filters_probe_like_the_source(workload):
    source = _tree(workload)
    queries = _held_out(workload)
    spec, segments, filters = snapshot_tree(source)
    try:
        bare, bare_segments = attach_tree(spec)
        attached, attached_segments = attach_tree(spec, filters)
        try:
            assert_matches_reference(attached, queries)
            want = source.probe(queries)
            got = attached.probe(queries)
            for name in TRACE_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name))
            bare.probe(queries)  # packs an all-unfiltered tree first
            for sst, filt in zip(bare.sstables(), filters):
                sst.attach_filter(filt)
            assert_matches_reference(bare, queries)
        finally:
            del bare, attached
            for segment in bare_segments + attached_segments:
                segment.close()
    finally:
        for segment in segments:
            segment.close()
            segment.unlink()


def test_lifecycle_rebuild_on_a_shared_sst_shows_on_the_next_probe():
    tree, rng, live = _online_tree(FilterSpec("proteus", 12.0), seed=11)
    lifecycle = FilterLifecycle(tree, window=2, min_empty=4)
    snapshot = tree.snapshot()  # shares the online tree's SST objects
    queries = QueryBatch.from_pairs(mixed_queries(rng, live, 300, WIDTH), WIDTH)
    snapshot.probe(queries)
    target: SSTable = snapshot.levels[-1][0]
    old = target.filter
    lifecycle._flagged.add(target)
    lifecycle.record_queries(
        QueryBatch.from_pairs(uniform_queries(rng, 200, WIDTH, 50), WIDTH)
    )
    assert lifecycle._actuate() == 1
    assert target.filter is not old
    assert_matches_reference(snapshot, queries)


def test_pack_tracks_filter_identity(workload):
    tree = _tree(workload)
    level = tree.levels[1]
    pack = LevelPack(level, WIDTH)
    assert pack.is_current(level)
    level[0].attach_filter(level[0].filter, level[0].spec)  # same object
    assert pack.is_current(level)
    level[0].clear_filter()
    assert not pack.is_current(level)
