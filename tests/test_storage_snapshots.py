"""The snapshot tier: spill/load round-trips, the sealed_overlays()
contract, compaction, and — the capsule this file exists for —
crash-during-compaction atomicity of the manifest swap, down to a
whole durable-ledger snapshot cycle."""

import pytest

from repro.common.errors import StorageError
from repro.execution.contracts import standard_registry
from repro.execution.serial import execute_block_serially
from repro.ledger.store import STORE_COUNTERS, StateStore, Version
from repro.storage import (
    DurableLedger,
    MemoryBackend,
    SnapshotStore,
    SpillBuffer,
    build_canonical_chain,
    state_root,
)
from repro.storage.snapshots import (
    MANIFEST_NAME,
    STORAGE_TIER_COMPACTIONS,
    merge_overlays,
)


def filled_buffer(entries, height=1):
    buffer = SpillBuffer()
    for index, (key, value) in enumerate(entries):
        if value is None:
            buffer.delete(key)
        else:
            buffer.put(key, value, Version(height, index))
    return buffer


# -- the sealed_overlays() contract -------------------------------------------


def test_spill_buffer_keeps_tombstones_across_seals():
    buffer = SpillBuffer()
    buffer.put("a", 1, Version(1, 0))
    buffer.snapshot()  # seal overlay 1
    buffer.delete("a")
    buffer.put("b", 2, Version(2, 0))
    buffer.snapshot()  # seal overlay 2
    merged = merge_overlays(buffer.sealed_overlays())
    # A plain StateStore would compact the delete away; the spill
    # buffer must keep it (the delete has to reach older runs on disk).
    from repro.ledger.store import is_tombstone

    assert is_tombstone(merged["a"])
    assert merged["b"].value == 2


def test_merge_overlays_last_wins():
    buffer = SpillBuffer()
    buffer.put("k", "old", Version(1, 0))
    buffer.snapshot()
    buffer.put("k", "new", Version(2, 0))
    buffer.snapshot()
    assert merge_overlays(buffer.sealed_overlays())["k"].value == "new"


# -- spill / load round-trip ---------------------------------------------------


def test_spill_and_load_round_trip_preserves_versions():
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend)
    buffer = filled_buffer([("a", 1), ("b", {"x": 2})], height=3)
    manifest = snapshots.spill(buffer, {})
    loaded = snapshots.load_state(manifest)
    assert loaded.as_dict() == {"a": 1, "b": {"x": 2}}
    # MVCC versions survive the disk round-trip exactly.
    assert loaded.get_versioned("a").version == Version(3, 0)
    assert loaded.get_versioned("b").version == Version(3, 1)


def test_spill_counts_into_store_counters():
    before = STORE_COUNTERS["overlay_spills"]
    snapshots = SnapshotStore(MemoryBackend())
    snapshots.spill(filled_buffer([("a", 1)]), {})
    assert STORE_COUNTERS["overlay_spills"] == before + 1


def test_deletes_replay_across_runs():
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend)
    manifest = snapshots.spill(filled_buffer([("a", 1), ("b", 2)]), {})
    manifest = snapshots.spill(filled_buffer([("a", None)], height=2), manifest)
    assert snapshots.load_state(manifest).as_dict() == {"b": 2}


def test_corrupt_run_raises_storage_error():
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend)
    manifest = snapshots.spill(filled_buffer([("a", 1)]), {})
    name = manifest["runs"][0]["name"]
    payload = bytearray(backend.read(name))
    payload[0] ^= 0x01
    backend.replace(name, bytes(payload))
    with pytest.raises(StorageError):
        snapshots.load_state(manifest)


def test_undecodable_manifest_reads_as_none():
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend)
    snapshots.spill(filled_buffer([("a", 1)]), {})
    backend.replace(MANIFEST_NAME, b"\x00garbage")
    assert snapshots.read_manifest() is None


# -- compaction ----------------------------------------------------------------


def test_compaction_merges_runs_and_drops_bottom_tombstones():
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend, policy="tiered:2")
    manifest = snapshots.spill(filled_buffer([("a", 1), ("b", 2)]), {})
    before = sum(STORAGE_TIER_COMPACTIONS.values())
    manifest = snapshots.spill(
        filled_buffer([("a", None), ("c", 3)], height=2), manifest
    )  # two tier-0 runs at the bottom -> one band merge
    assert sum(STORAGE_TIER_COMPACTIONS.values()) == before + 1
    assert len(manifest["runs"]) == 1
    # The delete of "a" reached the bottom tier: it cancelled out
    # instead of surviving as a tombstone row.
    assert [row[0] for row in snapshots.read_run(manifest["runs"][0])] == [
        "b", "c",
    ]
    assert snapshots.load_state(manifest).as_dict() == {"b": 2, "c": 3}
    # Superseded run files were deleted; only merged run + manifest left.
    assert backend.list() == sorted([MANIFEST_NAME, manifest["runs"][0]["name"]])


# -- the memory budget ---------------------------------------------------------


def test_memory_budget_overwrite_replaces_charge():
    from repro.ledger.store import ENTRY_OVERHEAD_BYTES, MemoryBudget

    budget = MemoryBudget(100)
    budget.charge("k", "abcd")
    first = budget.resident_bytes
    assert first == ENTRY_OVERHEAD_BYTES + 1 + 4
    budget.charge("k", "wxyz")  # same size: overwrite, not accumulate
    assert budget.resident_bytes == first
    budget.charge("k", None)  # tombstone still occupies the slot
    assert budget.resident_bytes == ENTRY_OVERHEAD_BYTES + 1 + 8
    assert not budget.over()
    budget.charge("other-key", "x" * 64)
    assert budget.over()
    with pytest.raises(ValueError):
        MemoryBudget(-1)


def test_spill_buffer_tracks_resident_bytes():
    buffer = SpillBuffer()
    assert buffer.resident_bytes == 0
    buffer.put("a", 1, Version(1, 0))
    one = buffer.resident_bytes
    assert one > 0
    buffer.put("a", 2, Version(1, 1))  # overwrite: no growth
    assert buffer.resident_bytes == one
    buffer.delete("b")  # tombstones are resident too
    assert buffer.resident_bytes > one


# -- tiered compaction ---------------------------------------------------------


def test_compaction_policy_parse_and_validation():
    from repro.storage import CompactionPolicy

    assert CompactionPolicy.parse("tiered").fanout == 4
    assert CompactionPolicy.parse("tiered:3").fanout == 3
    policy = CompactionPolicy(fanout=2)
    assert CompactionPolicy.parse(policy) is policy
    for bad in ("full", "lsm", "tiered:x"):
        with pytest.raises(StorageError):
            CompactionPolicy.parse(bad)
    with pytest.raises(StorageError):
        CompactionPolicy(fanout=1)
    # An entry without a recorded tier schedules as tier 0.
    assert CompactionPolicy.entry_tier({"name": "snap-000001.json"}) == 0


def test_tiered_band_merge_promotes_tier_and_preserves_state():
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend, policy="tiered:2")
    before = STORAGE_TIER_COMPACTIONS.get(1, 0)
    manifest = snapshots.spill(filled_buffer([("a", 1), ("b", 2)]), {})
    manifest = snapshots.spill(
        filled_buffer([("b", 20), ("c", 3)], height=2), manifest
    )  # two tier-0 runs -> band merge into one tier-1 run
    assert [e["tier"] for e in manifest["runs"]] == [1]
    assert STORAGE_TIER_COMPACTIONS[1] == before + 1
    assert snapshots.load_state(manifest).as_dict() == {
        "a": 1, "b": 20, "c": 3,
    }


def test_tiered_merge_keeps_tombstone_above_older_run():
    """A band that excludes the oldest run must keep its tombstones —
    they still mask live entries in the runs below the band."""
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend, policy="tiered:2")
    manifest: dict = {}
    # Four spills cascade into one tier-2 run holding a, b, e, f.
    for height, entries in enumerate(
        ([("a", 1), ("b", 2)], [("b", 20)], [("e", 5)], [("f", 6)]), 1
    ):
        manifest = snapshots.spill(
            filled_buffer(entries, height=height), manifest
        )
    assert [e["tier"] for e in manifest["runs"]] == [2]
    # Two tier-0 spills band-merge at positions 1-2 — strictly above
    # the tier-2 run, which is too senior to join the cascade.
    manifest = snapshots.spill(
        filled_buffer([("a", None), ("c", 3)], height=5), manifest
    )
    manifest = snapshots.spill(filled_buffer([("d", 4)], height=6), manifest)
    assert [e["tier"] for e in manifest["runs"]] == [2, 1]
    # The delete of "a" survived the band merge and still masks the
    # bottom run.
    assert snapshots.load_state(manifest).as_dict() == {
        "b": 20, "c": 3, "d": 4, "e": 5, "f": 6,
    }


def test_tiered_runs_merge_upward_not_forever():
    """Dedup-heavy churn must not re-merge the same band endlessly:
    merged runs promote a tier and only merge again with same-tier
    peers (the explicit-tier fix)."""
    backend = MemoryBackend()
    snapshots = SnapshotStore(backend, policy="tiered:2")
    manifest: dict = {}
    for i in range(8):  # same key every time: maximal dedup
        manifest = snapshots.spill(
            filled_buffer([("k", i)], height=i + 1), manifest
        )
    # 8 spills under fanout 2: full pairwise promotion collapses to one
    # tier-3 run, not an endless pile of tier-0 re-merges.
    assert [e["tier"] for e in manifest["runs"]] == [3]
    assert snapshots.load_state(manifest).as_dict() == {"k": 7}


# -- crash sweeps: budget spill and tiered band merges -------------------------


def test_crash_during_plain_spill_leaves_old_or_new_set_readable():
    """The budget-spill path is a plain spill (no compaction): sweep
    every crash point inside it; recovery must see exactly the
    pre-spill or post-spill state."""
    def states_after_crash(fail_after):
        backend = MemoryBackend()
        snapshots = SnapshotStore(backend)
        manifest = snapshots.spill(filled_buffer([("a", 1)]), {})
        backend.fail_after_ops(fail_after)
        crashed = False
        try:
            snapshots.spill(filled_buffer([("b", 2)], height=2), manifest)
        except StorageError:
            crashed = True
        backend.fail_after_ops(None)
        recovered = SnapshotStore(backend)
        durable = recovered.read_manifest()
        assert durable is not None, "manifest lost entirely"
        return crashed, recovered.load_state(durable).as_dict()

    crash_seen = False
    for fail_after in range(10):
        crashed, state = states_after_crash(fail_after)
        crash_seen = crash_seen or crashed
        assert state in ({"a": 1}, {"a": 1, "b": 2}), (
            f"fail_after={fail_after}: half-spilled state {state}"
        )
        if not crashed:
            assert state == {"a": 1, "b": 2}
            break
    assert crash_seen, "fail_after_ops never fired — test is vacuous"


def test_crash_during_tiered_compaction_leaves_old_or_new_set_readable():
    """Tiered mode commits the spill manifest first, then runs each
    band merge as its own crash-safe cycle — so a crash anywhere leaves
    either the pre-spill state or the (logically identical) post-spill
    state, whether or not the band merge completed."""
    def states_after_crash(fail_after):
        backend = MemoryBackend()
        snapshots = SnapshotStore(backend, policy="tiered:2")
        manifest = snapshots.spill(filled_buffer([("a", 1), ("b", 2)]), {})
        backend.fail_after_ops(fail_after)
        crashed = False
        try:
            # This spill makes two tier-0 runs -> triggers a band merge.
            snapshots.spill(
                filled_buffer([("b", 20), ("c", 3)], height=2), manifest
            )
        except StorageError:
            crashed = True
        backend.fail_after_ops(None)
        recovered = SnapshotStore(backend, policy="tiered:2")
        durable = recovered.read_manifest()
        assert durable is not None, "manifest lost entirely"
        return crashed, recovered.load_state(durable).as_dict()

    old_state = {"a": 1, "b": 2}
    new_state = {"a": 1, "b": 20, "c": 3}
    crash_seen = False
    for fail_after in range(14):
        crashed, state = states_after_crash(fail_after)
        crash_seen = crash_seen or crashed
        assert state in (old_state, new_state), (
            f"fail_after={fail_after}: half-merged state {state}"
        )
        if not crashed:
            assert state == new_state
            break
    assert crash_seen, "fail_after_ops never fired — test is vacuous"


# -- crash sweep: one whole DurableLedger.snapshot cycle -----------------------


def live_chain_with_one_snapshot(backend, blocks_before, blocks_after):
    """Commit a canonical chain through a ``tiered:2`` ledger with one
    snapshot after ``blocks_before`` blocks; returns (ledger, chain,
    live store, spill buffer of the unsnapshotted tail, last root)."""
    ledger = DurableLedger(backend, snapshot_interval=10_000,
                           compaction="tiered:2")
    chain = build_canonical_chain(2 * (blocks_before + blocks_after), seed=3)
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
        if block.height == blocks_before:
            ledger.snapshot(block, root, spill)
            spill = SpillBuffer()
    return ledger, chain, store, spill, root


@pytest.mark.parametrize("paged", [False, True], ids=["materialized", "paged"])
def test_crash_anywhere_in_a_ledger_snapshot_cycle_recovers_live_chain(paged):
    """Kill the backend after every possible number of mutating ops
    inside one ``DurableLedger.snapshot`` — WAL roll, delta-run write,
    manifest swap, the band merge the new run completes, and the WAL
    segment deletes. Whatever the crash point, recovery must land on
    the live chain's height, tip and state root, with no resync."""
    crash_seen = False
    for fail_after in range(60):
        backend = MemoryBackend()
        ledger, chain, live, spill, root = live_chain_with_one_snapshot(
            backend, blocks_before=3, blocks_after=3
        )
        backend.fail_after_ops(fail_after)
        crashed = False
        try:
            ledger.snapshot(chain.block(chain.height), root, spill)
        except StorageError:
            crashed = True
        backend.fail_after_ops(None)
        crash_seen = crash_seen or crashed
        if not crashed:
            # The uncrashed cycle really covered a band merge and the
            # segment deletes: one tier-1 run, no superseded segment.
            manifest = SnapshotStore(backend).read_manifest()
            assert [e["tier"] for e in manifest["runs"]] == [1]
            assert [n for n in backend.list() if n.startswith("wal-")] == []
        backend.simulate_crash()
        result = DurableLedger(
            backend, compaction="tiered:2", paged=paged
        ).recover(standard_registry)
        where = f"fail_after={fail_after}"
        assert not result.resync, where
        assert result.tail.height == chain.height, where
        assert result.tail.tip_hash() == chain.tip_hash(), where
        assert state_root(result.store) == root == state_root(live), where
        if not crashed:
            break
    else:
        pytest.fail("the snapshot cycle never completed within the sweep")
    assert crash_seen, "fail_after_ops never fired — test is vacuous"
