"""Unit tests for the versioned state store."""

from repro.ledger.store import (
    NEVER_WRITTEN,
    STORE_COUNTERS,
    StateStore,
    Version,
    reset_store_counters,
)


class TestVersion:
    def test_ordering_by_height_then_index(self):
        assert Version(1, 0) < Version(2, 0)
        assert Version(1, 0) < Version(1, 1)

    def test_never_written_precedes_everything(self):
        assert NEVER_WRITTEN < Version(0, 0)


class TestStateStore:
    def test_get_default_for_missing_key(self):
        store = StateStore()
        assert store.get("missing") is None
        assert store.get("missing", 7) == 7

    def test_put_and_get_versioned(self):
        store = StateStore()
        store.put("k", "v", Version(1, 2))
        entry = store.get_versioned("k")
        assert entry.value == "v"
        assert entry.version == Version(1, 2)

    def test_version_of_unwritten_key(self):
        assert StateStore().version_of("k") == NEVER_WRITTEN

    def test_apply_writes_sets_all_keys_at_one_version(self):
        store = StateStore()
        store.apply_writes({"a": 1, "b": 2}, Version(3, 0))
        assert store.version_of("a") == store.version_of("b") == Version(3, 0)

    def test_apply_writes_none_deletes(self):
        store = StateStore()
        store.put("k", 1, Version(1, 0))
        store.apply_writes({"k": None}, Version(2, 0))
        assert "k" not in store

    def test_snapshot_is_isolated_from_later_writes(self):
        store = StateStore()
        store.put("k", "old", Version(1, 0))
        snapshot = store.snapshot()
        store.put("k", "new", Version(2, 0))
        assert snapshot.get("k") == "old"
        assert snapshot.get_versioned("k").version == Version(1, 0)
        assert store.get("k") == "new"

    def test_same_state_ignores_versions(self):
        a, b = StateStore(), StateStore()
        a.put("k", 1, Version(1, 0))
        b.put("k", 1, Version(5, 3))
        assert a.same_state_as(b)

    def test_different_values_not_same_state(self):
        a, b = StateStore(), StateStore()
        a.put("k", 1, Version(1, 0))
        b.put("k", 2, Version(1, 0))
        assert not a.same_state_as(b)

    def test_len_and_keys(self):
        store = StateStore()
        store.put("a", 1, Version(1, 0))
        store.put("b", 2, Version(1, 1))
        assert len(store) == 2
        assert set(store.keys()) == {"a", "b"}

    def test_delete_then_keys_and_len(self):
        store = StateStore()
        store.put("a", 1, Version(1, 0))
        store.put("b", 2, Version(1, 1))
        store.snapshot()  # seal so the delete lands in a fresh overlay
        store.delete("a")
        assert len(store) == 1
        assert set(store.keys()) == {"b"}
        assert "a" not in store

    def test_same_state_across_different_layerings(self):
        # One store writes everything in one shot; the other interleaves
        # snapshots (seals/merges) and overwrites. Same final values
        # must compare equal regardless of internal layer structure.
        a, b = StateStore(), StateStore()
        a.apply_writes({f"k{i}": i for i in range(50)}, Version(1, 0))
        for i in range(50):
            b.put(f"k{i}", -1, Version(1, 0))
            if i % 7 == 0:
                b.snapshot()
        for i in range(50):
            b.put(f"k{i}", i, Version(2, 0))
        assert a.same_state_as(b)
        assert b.same_state_as(a)
        b.put("k0", 999, Version(3, 0))
        assert not a.same_state_as(b)


class TestSnapshotIsolation:
    """Copy-on-write snapshots must expose exactly the state at capture
    time, whatever sealing/merging/compaction happens afterwards."""

    def test_snapshot_survives_many_later_commits(self):
        store = StateStore()
        snapshots = []
        # Enough blocks to trigger size-tiered merges and (with the small
        # key space rewritten repeatedly) full compactions.
        for height in range(1, 120):
            store.apply_writes(
                {f"k{i}": height for i in range(20)},
                Version(height, 0),
            )
            snapshots.append((height, store.snapshot()))
        for height, snapshot in snapshots:
            for i in range(20):
                entry = snapshot.get_versioned(f"k{i}")
                assert entry.value == height, (
                    f"snapshot at height {height} observed a later write"
                )
                assert entry.version == Version(height, 0)

    def test_snapshot_before_block_never_sees_blocks_writes(self):
        store = StateStore()
        store.put("balance", 100, Version(1, 0))
        before = store.snapshot()
        store.apply_writes({"balance": 50, "fee": 1}, Version(2, 0))
        after = store.snapshot()
        assert before.get("balance") == 100
        assert "fee" not in before
        assert after.get("balance") == 50
        assert after.get("fee") == 1

    def test_snapshot_isolated_from_deletes(self):
        store = StateStore()
        store.put("doomed", 1, Version(1, 0))
        snapshot = store.snapshot()
        store.delete("doomed")
        assert snapshot.get("doomed") == 1
        assert "doomed" in snapshot
        assert "doomed" not in store
        assert "doomed" not in set(store.snapshot().keys())

    def test_snapshot_keys_merge_layers(self):
        store = StateStore()
        store.put("a", 1, Version(1, 0))
        store.snapshot()
        store.put("b", 2, Version(2, 0))
        snapshot = store.snapshot()
        store.put("c", 3, Version(3, 0))
        assert set(snapshot.keys()) == {"a", "b"}

    def test_cow_snapshot_copies_no_entries(self):
        reset_store_counters()
        store = StateStore()
        store.apply_writes({f"k{i}": i for i in range(5000)}, Version(1, 0))
        for height in range(2, 30):
            store.snapshot()
            store.apply_writes({"hot": height}, Version(height, 0))
        assert STORE_COUNTERS["snapshot_entries_copied"] == 0
        assert STORE_COUNTERS["snapshots_taken"] >= 28
