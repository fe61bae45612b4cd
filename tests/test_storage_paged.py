"""The paged read path: blocked run files, key filters, the LRU block
cache, tombstone resolution across tiers, orphan-run GC, and rejection
of run files without a blocked-format footer."""

import json

import pytest

from repro.common.errors import StorageError
from repro.execution.contracts import standard_registry
from repro.execution.serial import execute_block_serially
from repro.ledger.store import (
    STORE_COUNTERS,
    StateStore,
    Version,
    reset_store_counters,
)
from repro.storage import (
    DurableLedger,
    MemoryBackend,
    SnapshotStore,
    SpillBuffer,
    build_canonical_chain,
    state_root,
)
from repro.storage.codec import KeyFilter, checksum, entry_to_row
from repro.storage.paged import BlockCache, PagedRun, PagedStateStore
from repro.storage.snapshots import (
    MANIFEST_NAME,
    RUN_FORMAT,
    RunWriter,
    run_name,
)


def write_run(backend, run_id, items, block_bytes=128):
    """One blocked run of (key, value, height) items, tiny blocks so
    multi-block behaviour shows up at test scale."""
    writer = RunWriter(backend, run_name(run_id), len(items), block_bytes)
    for index, (key, value) in enumerate(sorted(items)):
        writer.add(entry_to_row(key, value, Version(run_id, index)))
    return writer.finish()


def manifest_for(*entries):
    return {"runs": list(entries), "next_run_id": len(entries) + 1}


# -- the key filter ------------------------------------------------------------


def test_key_filter_has_no_false_negatives_and_round_trips():
    keys = [f"k{i:04d}" for i in range(500)]
    flt = KeyFilter.sized_for(len(keys))
    for key in keys:
        flt.add(key)
    assert all(flt.might_contain(key) for key in keys)
    again = KeyFilter.from_dict(flt.to_dict())
    assert all(again.might_contain(key) for key in keys)
    assert again.to_dict() == flt.to_dict()


def test_key_filter_rules_out_most_absent_keys():
    flt = KeyFilter.sized_for(200)
    for i in range(200):
        flt.add(f"present{i}")
    false_positives = sum(
        flt.might_contain(f"absent{i}") for i in range(1000)
    )
    # ~3% expected at 8 bits/key, k=4; 10% is a generous determinism-safe
    # bound (the hash seeds are fixed, so this never flakes).
    assert false_positives < 100


def test_key_filter_rejects_malformed_dict():
    with pytest.raises(StorageError):
        KeyFilter.from_dict({"m": 64, "k": 4, "bits": "zz"})
    with pytest.raises(StorageError):
        KeyFilter.from_dict({"m": 128, "k": 4, "bits": "00"})


# -- the blocked run format ----------------------------------------------------


def test_blocked_run_round_trips_through_snapshot_store():
    backend = MemoryBackend()
    items = [(f"k{i:03d}", i) for i in range(100)]
    entry = write_run(backend, 1, items)
    assert entry["format"] == RUN_FORMAT
    assert entry["rows"] == 100
    rows = SnapshotStore(backend).read_run(entry)
    assert [(row[0], row[1]) for row in rows] == sorted(items)


def test_run_writer_rejects_out_of_order_keys():
    backend = MemoryBackend()
    writer = RunWriter(backend, run_name(1), 2)
    writer.add(entry_to_row("b", 1, Version(1, 0)))
    with pytest.raises(StorageError):
        writer.add(entry_to_row("a", 2, Version(1, 1)))


def test_corrupt_block_detected_by_paged_lookup():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:03d}", i) for i in range(100)])
    name = entry["name"]
    # Flip one byte inside the first data block (offset 0 is row data).
    raw = bytearray(backend.read(name))
    raw[4] ^= 0xFF
    backend._files[name].content = raw
    run = PagedRun(backend, entry)  # footer is intact — open succeeds
    with pytest.raises(StorageError):
        run.lookup("k000", BlockCache())


def test_corrupt_footer_fails_at_open():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", 1), ("b", 2)])
    raw = bytearray(backend.read(entry["name"]))
    raw[-6] ^= 0x01  # inside the trailer
    backend._files[entry["name"]].content = raw
    with pytest.raises(StorageError):
        PagedRun(backend, entry)


def test_trailerless_blob_run_is_rejected_and_recovery_resyncs():
    """A run written as one JSON blob (no blocked footer or trailer) is
    corrupt: opening or reading it raises, and recovery over a manifest
    naming it resyncs in both recovery modes."""
    rows = [entry_to_row(f"k{i}", i * 10, Version(1, i)) for i in range(8)]
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    entry = {
        "name": run_name(1), "checksum": checksum(payload), "rows": len(rows),
    }
    for paged in (False, True):
        backend = MemoryBackend()
        backend.replace(run_name(1), payload)
        with pytest.raises(StorageError):
            PagedRun(backend, entry)
        with pytest.raises(StorageError):
            SnapshotStore(backend).read_run(entry)
        SnapshotStore(backend).write_manifest(
            {"runs": [entry], "next_run_id": 2, "snapshot_height": 0}
        )
        result = DurableLedger(backend, paged=paged).recover(
            standard_registry
        )
        assert result.resync, f"paged={paged}"
        assert result.tail.height == 0
        assert backend.list() == []  # wiped for peer catch-up


# -- paged lookups -------------------------------------------------------------


def test_paged_lookup_newest_run_wins():
    backend = MemoryBackend()
    old = write_run(backend, 1, [("a", "old"), ("b", "only-old")])
    new = write_run(backend, 2, [("a", "new")])
    store = PagedStateStore(backend, [old, new])
    assert store.get("a") == "new"
    assert store.get("b") == "only-old"
    assert store.get("c") is None


def test_paged_lookup_decodes_only_the_hit_block():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:04d}", i) for i in range(200)])
    assert len(PagedRun(backend, entry).blocks) > 3
    reset_store_counters()
    store = PagedStateStore(backend, [entry])
    assert store.get("k0150") == 150
    assert STORE_COUNTERS["block_cache_misses"] == 1  # exactly one block
    assert store.get("k0150") == 150
    assert STORE_COUNTERS["block_cache_hits"] == 1  # now cached


def test_filter_skips_runs_that_cannot_hold_the_key():
    backend = MemoryBackend()
    runs = [
        write_run(backend, run_id, [(f"r{run_id}-{i}", i) for i in range(20)])
        for run_id in (1, 2, 3)
    ]
    reset_store_counters()
    store = PagedStateStore(backend, runs)
    assert store.get("r1-5") == 5
    # Lookup walks newest→oldest: runs 3 and 2 must be filtered out
    # without a single block read.
    assert STORE_COUNTERS["filter_skips"] == 2
    assert STORE_COUNTERS["block_cache_misses"] == 1


def test_overlay_writes_supersede_runs():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", 1), ("b", 2)])
    store = PagedStateStore(backend, [entry])
    store.put("a", 99, Version(5, 0))
    assert store.get("a") == 99
    assert store.get_versioned("a").version == Version(5, 0)
    store.snapshot()  # seal the head — sealed overlays must still win
    assert store.get("a") == 99


def test_paged_len_and_keys_merge_all_tiers():
    backend = MemoryBackend()
    old = write_run(backend, 1, [("a", 1), ("b", 2), ("c", 3)])
    new = write_run(backend, 2, [("b", None)])  # tombstone for b
    store = PagedStateStore(backend, [old, new])
    store.put("d", 4, Version(3, 0))
    assert sorted(store.keys()) == ["a", "c", "d"]
    assert len(store) == 3
    store.delete("a")
    assert len(store) == 2  # incremental bookkeeping after lazy count
    assert sorted(store.keys()) == ["c", "d"]


# -- tombstones across tiers (the cross-tier semantics capsule) ----------------


def test_tombstone_across_tiers_resolves_through_paged_lookup():
    """Run 1 writes k; run 2 deletes it; the unsealed overlay re-writes
    it. Every intermediate view must be correct, and compaction must
    cancel the tombstone at the bottom tier only."""
    backend = MemoryBackend()
    run1 = write_run(backend, 1, [("k", "v1"), ("keep", "x")])
    run2 = write_run(backend, 2, [("k", None)])  # delete in a newer run

    # Tier view 1: tombstone in run 2 masks run 1.
    store = PagedStateStore(backend, [run1, run2])
    assert store.get("k") is None
    assert "k" not in store
    assert store.get("keep") == "x"

    # Tier view 2: an unsealed overlay re-write wins over the tombstone.
    store.put("k", "v3", Version(9, 0))
    assert store.get("k") == "v3"
    assert sorted(store.keys()) == ["k", "keep"]

    # And after sealing, still.
    store.snapshot()
    assert store.get("k") == "v3"

    # Compaction of the two runs: the tombstone cancels at the bottom
    # tier — "k" is gone from disk entirely, not written as a marker.
    snapshots = SnapshotStore(backend)
    manifest = snapshots.merge_band(manifest_for(run1, run2), 0, 2)
    (merged_entry,) = manifest["runs"]
    merged_rows = snapshots.read_run(merged_entry)
    assert [row[0] for row in merged_rows] == ["keep"]

    # The live paged store rebases onto the compacted run set; its
    # overlay re-write still supersedes.
    store.rebase(manifest["runs"])
    assert store.get("k") == "v3"
    assert store.get("keep") == "x"


def test_tombstone_not_at_bottom_survives_compaction_semantics():
    """A delete of a key only present in the overlay tier must not
    resurrect it when runs are compacted underneath."""
    backend = MemoryBackend()
    run1 = write_run(backend, 1, [("x", 1)])
    store = PagedStateStore(backend, [run1])
    store.delete("x")
    assert store.get("x") is None
    # Compaction below does not involve the overlay tombstone.
    manifest = SnapshotStore(backend).merge_band(manifest_for(run1), 0, 1)
    store.rebase(manifest["runs"])
    assert store.get("x") is None  # overlay tombstone still masks disk


# -- the block cache -----------------------------------------------------------


def test_block_cache_evicts_lru_within_budget():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:04d}", "v" * 40) for i in range(200)])
    run = PagedRun(backend, entry)
    sizes = [spec["len"] for spec in run.blocks]
    cache = BlockCache(budget_bytes=sizes[0] + sizes[1] + 1)  # fits ~2
    reset_store_counters()
    for index in range(len(run.blocks)):
        cache.get(run, index)
    assert STORE_COUNTERS["block_cache_evictions"] >= len(run.blocks) - 2
    assert cache.resident_bytes <= cache.budget_bytes
    # Oldest blocks were evicted; re-reading one is a miss again.
    misses = STORE_COUNTERS["block_cache_misses"]
    cache.get(run, 0)
    assert STORE_COUNTERS["block_cache_misses"] == misses + 1


def test_block_cache_keeps_an_oversized_block():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", "v" * 500)], block_bytes=64)
    run = PagedRun(backend, entry)
    cache = BlockCache(budget_bytes=8)  # smaller than any block
    rows = cache.get(run, 0)
    assert rows[0][0] == "a"
    assert len(cache) == 1  # kept despite the budget — no thrash
    assert cache.get(run, 0) is rows


def test_drop_run_purges_cache_entries():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [("a", 1)])
    run = PagedRun(backend, entry)
    cache = BlockCache()
    cache.get(run, 0)
    assert len(cache) == 1
    cache.drop_run(run.name)
    assert len(cache) == 0
    assert cache.resident_bytes == 0


# -- streaming compaction ------------------------------------------------------


def test_streaming_compaction_matches_merged_semantics():
    backend = MemoryBackend()
    run1 = write_run(backend, 1, [(f"k{i:02d}", f"old{i}") for i in range(30)])
    run2 = write_run(
        backend, 2,
        [(f"k{i:02d}", f"new{i}") for i in range(0, 30, 2)]
        + [(f"k{i:02d}", None) for i in range(1, 30, 4)],
    )
    snapshots = SnapshotStore(backend)
    manifest = snapshots.merge_band(manifest_for(run1, run2), 0, 2)
    (entry,) = manifest["runs"]
    rows = snapshots.read_run(entry)
    expected = {}
    for i in range(30):
        expected[f"k{i:02d}"] = f"old{i}"
    for i in range(0, 30, 2):
        expected[f"k{i:02d}"] = f"new{i}"
    for i in range(1, 30, 4):
        expected.pop(f"k{i:02d}")
    assert {row[0]: row[1] for row in rows} == expected
    assert [row[0] for row in rows] == sorted(expected)  # sorted output
    # Old run files are gone; only manifest + merged run remain.
    assert backend.list() == [MANIFEST_NAME, entry["name"]]


# -- orphan-run garbage collection ---------------------------------------------


def test_recovery_garbage_collects_orphaned_runs():
    backend = MemoryBackend()
    ledger = DurableLedger(backend, snapshot_interval=2)
    chain = build_canonical_chain(16, seed=7)
    store, spill = StateStore(), SpillBuffer()
    registry = standard_registry()
    for block in chain:
        if block.height == 0:
            continue
        report = execute_block_serially(block, store, registry)
        for index, rwset in enumerate(report.rwsets):
            if rwset.ok:
                spill.apply_writes(rwset.writes, Version(block.height, index))
        root = state_root(store)
        ledger.commit_block(block, root)
        if ledger.maybe_snapshot(block, root, spill):
            spill = SpillBuffer()
    ledger.flush()
    # Plant two orphans: a fully-written leaked run (crash between
    # compaction's manifest swap and its delete loop) and a partial one
    # (crash mid-run-write). Both are durable on disk yet unreferenced.
    backend.append(run_name(900), b'[["zz","leak",1,0]]')
    backend.append(run_name(901), b'{"partial')
    backend.fsync(run_name(900))
    backend.fsync(run_name(901))
    backend.simulate_crash()

    result = DurableLedger(backend, snapshot_interval=2).recover(
        standard_registry
    )
    assert result.orphans_removed == 2
    assert not backend.exists(run_name(900))
    assert not backend.exists(run_name(901))
    assert not result.resync
    assert result.tail.height == chain.height
    assert state_root(result.store) == state_root(store)


# -- paged recovery equivalence ------------------------------------------------


def commit_chain_through(ledger, txs=40, seed=11):
    chain = build_canonical_chain(txs, seed)
    store, spill = StateStore(), SpillBuffer()
    registry = standard_registry()
    root = ""
    for block in chain:
        if block.height == 0:
            continue
        report = execute_block_serially(block, store, registry)
        for index, rwset in enumerate(report.rwsets):
            if rwset.ok:
                spill.apply_writes(rwset.writes, Version(block.height, index))
        root = state_root(store)
        ledger.commit_block(block, root)
        if ledger.maybe_snapshot(block, root, spill):
            spill = SpillBuffer()
    ledger.flush()
    return chain, store, root


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paged_recovery_equals_materialized_oracle(seed):
    backend = MemoryBackend()
    chain, live, root = commit_chain_through(
        DurableLedger(backend, snapshot_interval=3), seed=seed
    )
    backend.simulate_crash()
    materialized = DurableLedger(backend, snapshot_interval=3).recover(
        standard_registry
    )
    paged = DurableLedger(
        backend, snapshot_interval=3, paged=True
    ).recover(standard_registry)
    assert isinstance(paged.store, PagedStateStore)
    assert not isinstance(materialized.store, PagedStateStore)
    assert paged.tail.tip_hash() == materialized.tail.tip_hash()
    assert paged.replayed == materialized.replayed
    for key in sorted(materialized.store.keys()):
        assert paged.store.get_versioned(key) == (
            materialized.store.get_versioned(key)
        )
    assert sorted(paged.store.keys()) == sorted(materialized.store.keys())
    assert state_root(paged.store) == root


def test_paged_recovery_resyncs_on_truncated_run():
    backend = MemoryBackend()
    commit_chain_through(DurableLedger(backend, snapshot_interval=2))
    backend.simulate_crash()
    manifest = SnapshotStore(backend).read_manifest()
    victim = manifest["runs"][0]["name"]
    # Chop the file: the footer (at the end) is destroyed, which the
    # O(index) paged open must detect and demote to a full resync.
    raw = backend.read(victim)
    backend.replace(victim, raw[: len(raw) // 2])
    result = DurableLedger(backend, paged=True).recover(standard_registry)
    assert result.resync
    assert result.tail.height == 0
    assert backend.list() == []  # wiped for peer catch-up


def test_paged_chaos_scenario_is_clean():
    """The durable chaos target with flags=("paged",): crash + recover
    under the simulator, serial-oracle audit through the paged store."""
    from repro.simtest.plan import FaultSpec, PlanSpec
    from repro.simtest.scenarios import ScenarioSpec, run_scenario

    scenario = ScenarioSpec(
        target="durable", n=3, txs=12, seed=4, flags=("paged",)
    )
    victim = scenario.replica_ids[0]
    plan = PlanSpec((
        FaultSpec(kind="crash", time=0.9, node=victim),
        FaultSpec(kind="recover", time=1.6, node=victim),
    ))
    result = run_scenario(scenario, plan)
    assert result.decided
    assert result.violations == []


# -- indexed range scans -------------------------------------------------------


def test_paged_scan_merges_runs_overlays_and_tombstones():
    backend = MemoryBackend()
    old = write_run(backend, 1, [("a", 1), ("b", 2), ("c", 3), ("e", 5)])
    new = write_run(backend, 2, [("b", None), ("c", 30)])  # delete + rewrite
    store = PagedStateStore(backend, [old, new])
    store.put("d", 4, Version(3, 0))
    store.delete("e")
    rows = [(key, entry.value) for key, entry in store.scan()]
    assert rows == [("a", 1), ("c", 30), ("d", 4)]
    # Versions survive: run rows and overlay entries alike.
    versions = dict(
        (key, entry.version) for key, entry in store.scan()
    )
    assert versions["c"] == Version(2, 1)
    assert versions["d"] == Version(3, 0)
    # Bounded, half-open-ish, and empty windows.
    assert [k for k, _ in store.scan("b", "d")] == ["c", "d"]
    assert [k for k, _ in store.scan(None, "a")] == ["a"]
    assert [k for k, _ in store.scan("x", None)] == []
    assert store.keys() == ["a", "c", "d"]  # keys() now sorted


def test_paged_scan_matches_materialized_oracle():
    backend = MemoryBackend()
    items = [(f"k{i:04d}", i) for i in range(150)]
    old = write_run(backend, 1, items)
    new = write_run(
        backend, 2,
        [(f"k{i:04d}", None if i % 30 == 0 else i * 100)
         for i in range(0, 150, 5)],
    )
    paged = PagedStateStore(backend, [old, new])
    oracle = SnapshotStore(backend).load_state(manifest_for(old, new))
    for start, end in ((None, None), ("k0010", "k0049"), ("k0140", None)):
        got = [
            (k, e.value, e.version) for k, e in paged.scan(start, end)
        ]
        want = [
            (k, e.value, e.version) for k, e in oracle.scan(start, end)
        ]
        assert got == want, f"range ({start}, {end}) diverged"


def test_scan_decodes_only_intersecting_blocks():
    backend = MemoryBackend()
    entry = write_run(backend, 1, [(f"k{i:04d}", i) for i in range(300)])
    run = PagedRun(backend, entry)
    total_blocks = run.block_count()
    assert total_blocks > 5
    store = PagedStateStore(backend, [entry])
    reset_store_counters()
    narrow = list(store.scan("k0100", "k0120"))
    assert [k for k, _ in narrow] == [f"k{i:04d}" for i in range(100, 121)]
    assert 0 < STORE_COUNTERS["range_block_decodes"] < total_blocks // 2
    reset_store_counters()
    assert len(list(store.scan())) == 300
    assert STORE_COUNTERS["range_block_decodes"] == total_blocks


def test_paged_store_collapse_drops_overlays_and_keeps_reads():
    backend = MemoryBackend()
    base = write_run(backend, 1, [("a", 1), ("b", 2)])
    store = PagedStateStore(backend, [base])
    store.put("c", 3, Version(2, 0))
    store.snapshot()
    store.delete("b")
    assert store.overlay_entries() == 2
    # Spill the same committed delta into run 2, then collapse onto it
    # — exactly what the durable node does after a snapshot.
    delta = write_run(backend, 2, [("b", None), ("c", 3)])
    store.collapse([base, delta])
    assert store.overlay_entries() == 0
    assert store.get("a") == 1
    assert store.get("b") is None
    assert store.get("c") == 3
    assert [k for k, _ in store.scan()] == ["a", "c"]


# -- the (budget x seed) equivalence matrix ------------------------------------


def recovered_via(backend, paged):
    return DurableLedger(
        backend, snapshot_interval=3, compaction="tiered:2", paged=paged
    ).recover(standard_registry)


@pytest.mark.parametrize("budget", [0, 192])
@pytest.mark.parametrize("seed", [5, 9])
def test_policy_budget_matrix_paged_equals_materialized(budget, seed):
    """Every (overlay budget, seed) cell under fanout-2 tiered
    compaction: crash, recover both ways, and the paged store must
    match the materialized oracle and the live pre-crash root byte for
    byte."""
    backend = MemoryBackend()
    chain, live, root = commit_chain_through(
        DurableLedger(
            backend, snapshot_interval=3, compaction="tiered:2",
            overlay_budget_bytes=budget,
        ),
        seed=seed,
    )
    backend.simulate_crash()
    materialized = recovered_via(backend, paged=False)
    paged = recovered_via(backend, paged=True)
    assert isinstance(paged.store, PagedStateStore)
    assert paged.tail.tip_hash() == materialized.tail.tip_hash()
    assert paged.replayed == materialized.replayed
    assert sorted(paged.store.keys()) == sorted(materialized.store.keys())
    for key in materialized.store.keys():
        assert paged.store.get_versioned(key) == (
            materialized.store.get_versioned(key)
        )
    assert state_root(paged.store) == root
    assert state_root(materialized.store) == root


def test_overlay_budget_forces_mid_interval_spills():
    """With a huge snapshot interval and a tiny budget, snapshots must
    still happen — driven by the byte budget, counted as such."""
    backend = MemoryBackend()
    before = STORE_COUNTERS["budget_spills"]
    commit_chain_through(
        DurableLedger(
            backend, snapshot_interval=100, overlay_budget_bytes=256,
        )
    )
    assert STORE_COUNTERS["budget_spills"] > before
    manifest = SnapshotStore(backend).read_manifest()
    assert manifest is not None and manifest["runs"]

    # The unbudgeted control never snapshots inside the same interval.
    control = MemoryBackend()
    commit_chain_through(DurableLedger(control, snapshot_interval=100))
    assert SnapshotStore(control).read_manifest() is None


# -- whole-state reads: one merged pass ----------------------------------------


def paged_and_mirror(backend, *entries):
    """A paged store over ``entries`` and its materialized mirror."""
    return (
        PagedStateStore(backend, list(entries)),
        SnapshotStore(backend).load_state(manifest_for(*entries)),
    )


def assert_same_items(paged, materialized):
    """Paged items() is the materialized state in key order — keys,
    values and MVCC versions — and both give the same root."""
    assert list(paged.items()) == sorted(materialized.items())
    assert len(paged) == len(materialized)
    assert state_root(paged) == state_root(materialized)


def runs_with_tombstones(backend):
    """An old run of 40 keys and a newer run that rewrites every other
    key and deletes every sixth one (run-tier tombstones)."""
    old = write_run(backend, 1, [(f"k{i:02d}", i) for i in range(40)])
    new = write_run(
        backend, 2,
        [(f"k{i:02d}", None if i % 3 == 0 else -i) for i in range(0, 40, 2)],
    )
    return old, new


def test_paged_items_equal_materialized_through_every_tier():
    backend = MemoryBackend()
    paged, mirror = paged_and_mirror(backend, *runs_with_tombstones(backend))
    assert_same_items(paged, mirror)  # runs only, run tombstones masking
    batches = [
        {"k01": "a", "k03": None, "k50": "new"},  # overlay tombstone on a run key
        {"k00": "back", "k05": None, "k51": "x"},  # rewrite over a run tombstone
        {"k50": None, "k07": "y"},  # delete a key that lives only in an overlay
    ]
    for height, batch in enumerate(batches, start=10):
        for store in (paged, mirror):
            store.apply_writes(batch, Version(height, 0))
        assert_same_items(paged, mirror)  # unsealed head overlay
        paged.snapshot()
        assert_same_items(paged, mirror)  # sealed overlays
    for store in (paged, mirror):
        store.apply_writes({"k09": "head", "k11": None}, Version(20, 0))
    sealed = sum(len(overlay) for overlay in paged.sealed_overlays())
    assert sealed and paged.overlay_entries() > sealed  # head and sealed
    assert_same_items(paged, mirror)


def test_paged_items_equal_materialized_after_rebase_and_collapse():
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend)
    old, new = runs_with_tombstones(backend)
    paged, mirror = paged_and_mirror(backend, old, new)
    spill = SpillBuffer()
    for store in (paged, mirror, spill):
        store.apply_writes({"k01": "a", "k04": None, "k60": "fresh"},
                           Version(10, 0))
    paged.snapshot()
    for store in (paged, mirror, spill):
        store.apply_writes({"k60": None, "k02": "b"}, Version(11, 0))
    # Rebase: the runs under the overlays merge into one.
    manifest = snapshots.merge_band(manifest_for(old, new), 0, 2)
    paged.rebase(manifest["runs"])
    assert_same_items(paged, mirror)
    # Collapse: the overlays' delta spills as a run, overlays drop.
    manifest = snapshots.spill(spill, manifest)
    paged.collapse(manifest["runs"])
    assert paged.overlay_entries() == 0
    assert_same_items(paged, mirror)


def test_state_root_over_paged_store_makes_no_point_lookups(monkeypatch):
    """The per-block root reads the paged store in one merged pass: no
    point lookup, no key-filter probe, every run block decoded once."""
    backend = MemoryBackend()
    entries = [
        write_run(backend, run_id,
                  [(f"k{i:03d}", run_id * 1000 + i)
                   for i in range(run_id - 1, 120, run_id)])
        for run_id in (1, 2, 3)
    ]
    entries.append(write_run(backend, 4, [(f"k{i:03d}", None)
                                          for i in range(0, 120, 7)]))
    paged, mirror = paged_and_mirror(backend, *entries)
    for store in (paged, mirror):
        store.apply_writes({"k005": "s", "k014": None}, Version(9, 0))
    paged.snapshot()
    for store in (paged, mirror):
        store.apply_writes({"k200": "h", "k006": None}, Version(10, 0))
    expected = state_root(mirror)

    decodes = {}
    read_block = PagedRun.read_block

    def counting_read_block(run, index):
        decodes[run.name, index] = decodes.get((run.name, index), 0) + 1
        return read_block(run, index)

    monkeypatch.setattr(PagedRun, "read_block", counting_read_block)
    lookups = STORE_COUNTERS["paged_lookups"]
    skips = STORE_COUNTERS["filter_skips"]
    assert state_root(paged) == expected
    assert STORE_COUNTERS["paged_lookups"] == lookups
    assert STORE_COUNTERS["filter_skips"] == skips
    assert max(decodes.values()) == 1
    total_blocks = sum(PagedRun(backend, e).block_count() for e in entries)
    assert len(decodes) == total_blocks > len(entries)


def test_paged_chain_root_equals_materialized_after_every_block():
    """One chain through budget spills, fanout-2 band merges and a
    crash/recover, committed on a paged store from the first block:
    its state root equals the in-memory serial oracle's after every
    block, and paged recovery lists the same entries as materialized
    recovery."""
    backend = MemoryBackend()

    def ledger_for(paged=True):
        return DurableLedger(
            backend, snapshot_interval=8, compaction="tiered:2",
            overlay_budget_bytes=192, paged=paged,
        )

    chain = build_canonical_chain(80, seed=13)
    ledger = ledger_for()
    store, spill = PagedStateStore(backend, []), SpillBuffer()
    oracle, oracle_registry = StateStore(), standard_registry()
    registry = standard_registry()
    before = dict(STORE_COUNTERS)
    crash_at = chain.height // 2
    for block in chain:
        if block.height == 0:
            continue
        execute_block_serially(block, oracle, oracle_registry)
        report = execute_block_serially(block, store, registry)
        for index, rwset in enumerate(report.rwsets):
            if rwset.ok:
                spill.apply_writes(rwset.writes, Version(block.height, index))
        root = state_root(store)
        assert root == state_root(oracle), f"root diverged at {block.height}"
        ledger.commit_block(block, root)
        if ledger.maybe_snapshot(block, root, spill):
            spill = SpillBuffer()
            manifest = ledger.snapshots.read_manifest() or {}
            store.collapse(manifest.get("runs", ()))
            assert list(store.items()) == sorted(oracle.items())
        if block.height == crash_at:
            backend.simulate_crash()
            materialized = ledger_for(paged=False).recover(standard_registry)
            ledger = ledger_for()
            result = ledger.recover(standard_registry)
            assert not result.resync and result.tail.height == crash_at
            assert isinstance(result.store, PagedStateStore)
            assert list(result.store.items()) == sorted(
                materialized.store.items()
            )
            store, spill = result.store, result.spill
            registry = standard_registry()
    assert STORE_COUNTERS["budget_spills"] > before["budget_spills"]
    assert (STORE_COUNTERS["compaction_bytes_written"]
            > before["compaction_bytes_written"])
    assert state_root(store) == state_root(oracle)
