"""Unit tests for Merkle trees and inclusion proofs."""

import pytest

from repro.common.errors import CryptoError
from repro.crypto import merkle
from repro.crypto.merkle import (
    MERKLE_COUNTERS,
    IncrementalMerkleRoot,
    MerkleProof,
    MerkleTree,
    merkle_root,
    reset_merkle_caches,
)


class TestMerkleTree:
    def test_single_leaf_root_is_leaf_digest(self):
        tree = MerkleTree(["only"])
        assert tree.root == tree.leaf_digests[0]

    def test_empty_tree_rejected(self):
        with pytest.raises(CryptoError):
            MerkleTree([])

    def test_root_changes_with_any_leaf(self):
        base = MerkleTree(["a", "b", "c", "d"]).root
        tampered = MerkleTree(["a", "b", "X", "d"]).root
        assert base != tampered

    def test_root_depends_on_leaf_order(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["b", "a"]).root

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 16, 33])
    def test_all_proofs_verify(self, size):
        tree = MerkleTree([f"leaf-{i}" for i in range(size)])
        for index in range(size):
            proof = tree.proof(index)
            assert tree.verify(proof)
            assert MerkleTree.verify_against_root(proof, tree.root)

    def test_proof_fails_against_other_root(self):
        tree = MerkleTree(["a", "b", "c"])
        other = MerkleTree(["a", "b", "d"])
        assert not other.verify(tree.proof(0)) or tree.root == other.root

    def test_tampered_proof_rejected(self):
        tree = MerkleTree(["a", "b", "c", "d"])
        proof = tree.proof(1)
        tampered = MerkleProof(
            leaf=tree.leaf_digests[2],  # claim a different leaf
            leaf_index=proof.leaf_index,
            path=proof.path,
        )
        assert not tree.verify(tampered)

    def test_out_of_range_proof_index(self):
        tree = MerkleTree(["a"])
        with pytest.raises(CryptoError):
            tree.proof(1)
        with pytest.raises(CryptoError):
            tree.proof(-1)

    def test_merkle_root_helper_matches_tree(self):
        leaves = ["x", "y", "z"]
        assert merkle_root(leaves) == MerkleTree(leaves).root

    def test_merkle_root_of_empty_list_is_defined(self):
        assert merkle_root([])  # a stable sentinel digest, not an error

    def test_duplicate_last_convention_no_collision_with_explicit_dup(self):
        # [a, b, c] duplicates c internally; must differ from [a, b, c, c]
        # at the root? The Bitcoin convention makes them equal at level 1,
        # which is acceptable *inside blocks* because the tx count is in
        # the header; here we just document the behaviour.
        three = MerkleTree(["a", "b", "c"]).root
        four = MerkleTree(["a", "b", "c", "c"]).root
        assert three == four


class TestMerkleCaches:
    def test_root_memoized_on_reuse(self):
        reset_merkle_caches()
        leaves = [f"tx-{i}" for i in range(16)]
        first = merkle_root(leaves)
        hashed_once = MERKLE_COUNTERS["nodes_hashed"]
        assert merkle_root(list(leaves)) == first  # fresh list, same digests
        assert MERKLE_COUNTERS["nodes_hashed"] == hashed_once
        assert MERKLE_COUNTERS["root_cache_hits"] == 1

    def test_leaf_digests_interned_across_trees(self):
        reset_merkle_caches()
        MerkleTree(["a", "b", "c"])
        hashed = MERKLE_COUNTERS["leaves_hashed"]
        MerkleTree(["a", "b", "c"])
        assert MERKLE_COUNTERS["leaves_hashed"] == hashed
        assert MERKLE_COUNTERS["leaf_cache_hits"] >= 3

    def test_cached_root_equals_uncached(self):
        leaves = ["x", "y", "z", "w", "v"]
        reset_merkle_caches()
        cold = merkle_root(leaves)
        warm = merkle_root(leaves)
        reset_merkle_caches()
        assert merkle_root(leaves) == cold == warm


def memo_tally():
    """Leaf digests the root memo holds, checked against its keys."""
    held = sum(len(key) for key in merkle._ROOT_CACHE)
    assert merkle._root_cache_leaves == held
    return held


class TestRootMemoBound:
    def test_over_budget_root_leaves_tally_within_budget(self):
        reset_merkle_caches()
        budget = merkle._ROOT_CACHE_LEAF_BUDGET
        merkle_root([f"tx-{i}" for i in range(16)])
        merkle_root([f"state-{i}" for i in range(budget + 1)])
        assert 0 < memo_tally() <= budget

    def test_lru_eviction_keeps_tally_within_budget(self, monkeypatch):
        monkeypatch.setattr(merkle, "_ROOT_CACHE_LEAF_BUDGET", 64)
        reset_merkle_caches()
        batches = [[f"b{size}-{i}" for i in range(size)]
                   for size in (10, 20, 30, 40)]
        for batch in batches:
            merkle_root(batch)
            assert memo_tally() <= 64
        # The oldest batches were evicted, the newest is still memoized.
        assert len(merkle._ROOT_CACHE) == 1
        merkle_root(batches[-1])
        assert MERKLE_COUNTERS["root_cache_hits"] == 1
        merkle_root(batches[0])
        assert MERKLE_COUNTERS["root_cache_hits"] == 1

    def test_batch_root_still_hits_after_whole_state_root(self):
        reset_merkle_caches()
        batch = [f"tx-{i}" for i in range(40)]
        first = merkle_root(batch)
        merkle_root([f"state-{i}" for i in range(8000)])
        merkle_root([f"state-{i}" for i in range(
            merkle._ROOT_CACHE_LEAF_BUDGET + 1)])
        assert merkle_root(list(batch)) == first
        assert MERKLE_COUNTERS["root_cache_hits"] == 1

    def test_reset_zeroes_tally(self):
        merkle_root([f"tx-{i}" for i in range(8)])
        assert memo_tally() > 0
        reset_merkle_caches()
        assert merkle._root_cache_leaves == 0
        assert memo_tally() == 0

    @pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 64, 65, 100])
    def test_roots_unchanged_by_the_bound(self, monkeypatch, size):
        monkeypatch.setattr(merkle, "_ROOT_CACHE_LEAF_BUDGET", 64)
        reset_merkle_caches()
        leaves = [f"leaf-{i}" for i in range(size)]
        cold = merkle_root(leaves)
        warm = merkle_root(leaves)
        assert cold == warm == MerkleTree(leaves).root


class TestIncrementalMerkleRoot:
    @pytest.mark.parametrize("size", list(range(1, 70)) + [127, 128, 129, 300])
    def test_matches_static_tree_at_every_size(self, size):
        leaves = [f"leaf-{i}" for i in range(size)]
        incremental = IncrementalMerkleRoot()
        for leaf in leaves:
            incremental.append(leaf)
        assert incremental.root() == MerkleTree(leaves).root
        assert len(incremental) == size

    def test_root_stable_across_repeated_queries(self):
        incremental = IncrementalMerkleRoot()
        for i in range(5):
            incremental.append(f"l{i}")
        assert incremental.root() == incremental.root()

    def test_empty_matches_merkle_root_of_empty(self):
        assert IncrementalMerkleRoot().root() == merkle_root([])

    def test_mid_stream_roots_match_prefix_trees(self):
        incremental = IncrementalMerkleRoot()
        leaves = []
        for i in range(33):
            leaves.append(f"leaf-{i}")
            incremental.append(leaves[-1])
            assert incremental.root() == MerkleTree(list(leaves)).root
