"""Merkle trees with inclusion proofs — with cached construction.

Blocks commit to their transaction batch through a Merkle root; private
data collections (paper section 2.3.1) put only such digests on the shared
ledger and verify the off-ledger data against them.

Odd levels duplicate the final node (the Bitcoin convention), which keeps
proof generation simple and is documented behaviour, not an accident.

Construction is cached on the protocol hot path:

* leaf digests are interned (an LRU over payload -> SHA-256), so a
  payload hashed for ``Block.create`` is not re-hashed when the block is
  validated on append or audited later;
* whole roots are memoized by their leaf-digest tuple, so re-deriving a
  block's root (``validate_payload``, ``verify_chain``, fuzz-monitor
  linkage checks) is a dictionary lookup instead of a full rebuild; the
  memo is bounded by the leaf digests its keys hold, not by entry
  count, so per-block state roots cannot pin state-sized tuples;
* :class:`IncrementalMerkleRoot` maintains the root of an append-style
  batch with O(log n) cached subtree peaks per append instead of an
  O(n) rebuild per transaction.

``MERKLE_COUNTERS`` tracks interior nodes actually hashed vs. served
from cache (surfaced through ``repro.bench.profiling``). All caches are
content-keyed and deterministic, so same-seed runs stay byte-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.errors import CryptoError
from repro.crypto.digests import hash_pair, sha256_hex

#: Capacity of the leaf-digest intern table, in entries.
_LEAF_CACHE_CAPACITY = 65536
#: Budget of the root memo, in leaf digests held across all its keys: a
#: whole-state root pins a state-sized tuple, so an entry count alone
#: would let the memo grow with state size.
_ROOT_CACHE_LEAF_BUDGET = 65536

_LEAF_CACHE: OrderedDict[bytes | str, str] = OrderedDict()
_ROOT_CACHE: OrderedDict[tuple[str, ...], str] = OrderedDict()
#: Leaf digests currently held by ``_ROOT_CACHE`` keys.
_root_cache_leaves = 0

#: Live counters for the hot-path benchmarks (see
#: ``repro.bench.profiling.hotpath_counters``).
MERKLE_COUNTERS = {
    "nodes_hashed": 0,
    "leaves_hashed": 0,
    "leaf_cache_hits": 0,
    "root_cache_hits": 0,
}


def reset_merkle_caches() -> None:
    """Clear caches and counters (benchmark isolation)."""
    global _root_cache_leaves
    _LEAF_CACHE.clear()
    _ROOT_CACHE.clear()
    _root_cache_leaves = 0
    for key in MERKLE_COUNTERS:
        MERKLE_COUNTERS[key] = 0


def _leaf_digest(leaf: bytes | str) -> str:
    """Interned SHA-256 of one leaf payload."""
    cached = _LEAF_CACHE.get(leaf)
    if cached is not None:
        _LEAF_CACHE.move_to_end(leaf)
        MERKLE_COUNTERS["leaf_cache_hits"] += 1
        return cached
    digest = sha256_hex(leaf)
    MERKLE_COUNTERS["leaves_hashed"] += 1
    _LEAF_CACHE[leaf] = digest
    while len(_LEAF_CACHE) > _LEAF_CACHE_CAPACITY:
        _LEAF_CACHE.popitem(last=False)
    return digest


def _hash_pair(left: str, right: str) -> str:
    MERKLE_COUNTERS["nodes_hashed"] += 1
    return hash_pair(left, right)


@dataclass(frozen=True)
class MerkleProof:
    """An audit path from one leaf to the root.

    ``path`` holds ``(sibling_digest, sibling_is_right)`` pairs from the
    leaf level upward.
    """

    leaf: str
    leaf_index: int
    path: tuple[tuple[str, bool], ...]

    def root(self) -> str:
        """Recompute the root this proof commits to."""
        current = self.leaf
        for sibling, sibling_is_right in self.path:
            if sibling_is_right:
                current = hash_pair(current, sibling)
            else:
                current = hash_pair(sibling, current)
        return current


class MerkleTree:
    """A static Merkle tree over a list of leaf payloads."""

    def __init__(self, leaves: list[bytes | str]) -> None:
        if not leaves:
            raise CryptoError("Merkle tree requires at least one leaf")
        self._leaf_digests = [_leaf_digest(leaf) for leaf in leaves]
        self._levels = self._build_levels(self._leaf_digests)

    @staticmethod
    def _build_levels(leaf_digests: list[str]) -> list[list[str]]:
        levels = [list(leaf_digests)]
        while len(levels[-1]) > 1:
            below = levels[-1]
            above = []
            for i in range(0, len(below), 2):
                left = below[i]
                right = below[i + 1] if i + 1 < len(below) else below[i]
                above.append(_hash_pair(left, right))
            levels.append(above)
        return levels

    @property
    def root(self) -> str:
        return self._levels[-1][0]

    @property
    def leaf_digests(self) -> list[str]:
        return list(self._leaf_digests)

    def __len__(self) -> int:
        return len(self._leaf_digests)

    def proof(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaf_digests):
            raise CryptoError(
                f"leaf index {index} out of range [0, {len(self._leaf_digests)})"
            )
        path: list[tuple[str, bool]] = []
        position = index
        for level in self._levels[:-1]:
            if position % 2 == 0:
                sibling_pos = position + 1 if position + 1 < len(level) else position
                path.append((level[sibling_pos], True))
            else:
                path.append((level[position - 1], False))
            position //= 2
        return MerkleProof(
            leaf=self._leaf_digests[index], leaf_index=index, path=tuple(path)
        )

    def verify(self, proof: MerkleProof) -> bool:
        """True when ``proof`` leads to this tree's root."""
        return proof.root() == self.root

    @staticmethod
    def verify_against_root(proof: MerkleProof, root: str) -> bool:
        """Verify a proof without holding the tree (the on-ledger case)."""
        return proof.root() == root


def _root_of_digests(leaf_digests: list[str]) -> str:
    """Root only — no stored levels (and no proof support)."""
    level = leaf_digests
    while len(level) > 1:
        level = [
            _hash_pair(level[i], level[i + 1] if i + 1 < len(level) else level[i])
            for i in range(0, len(level), 2)
        ]
    return level[0]


def merkle_root(leaves: list[bytes | str]) -> str:
    """The Merkle root of ``leaves`` (empty list → digest of b'').

    Memoized by the leaf-digest tuple: re-deriving a known batch's root
    (block payload validation, chain audits) is a cache lookup. The memo
    holds at most ``_ROOT_CACHE_LEAF_BUDGET`` leaf digests, evicting
    least-recently-used roots; a root over more leaves than the whole
    budget is not memoized, so it cannot flush the block batches.
    """
    global _root_cache_leaves
    if not leaves:
        return sha256_hex(b"")
    key = tuple(_leaf_digest(leaf) for leaf in leaves)
    cached = _ROOT_CACHE.get(key)
    if cached is not None:
        _ROOT_CACHE.move_to_end(key)
        MERKLE_COUNTERS["root_cache_hits"] += 1
        return cached
    root = _root_of_digests(list(key))
    if len(key) <= _ROOT_CACHE_LEAF_BUDGET:
        _ROOT_CACHE[key] = root
        _root_cache_leaves += len(key)
        while _root_cache_leaves > _ROOT_CACHE_LEAF_BUDGET:
            evicted, _ = _ROOT_CACHE.popitem(last=False)
            _root_cache_leaves -= len(evicted)
    return root


class IncrementalMerkleRoot:
    """Streaming Merkle root for append-style block assembly.

    Keeps the cached roots of the perfect-subtree *peaks* of the leaves
    appended so far (a binary-counter decomposition), so each append
    hashes O(log n) amortized interior nodes and :meth:`root` folds the
    peaks with the same odd-leaf duplication convention as
    :class:`MerkleTree` — the two always agree on the same leaves.
    """

    __slots__ = ("_peaks", "_count")

    def __init__(self) -> None:
        #: (height, digest) peaks, height strictly decreasing.
        self._peaks: list[tuple[int, str]] = []
        self._count = 0

    def append(self, leaf: bytes | str) -> None:
        height, digest = 0, _leaf_digest(leaf)
        while self._peaks and self._peaks[-1][0] == height:
            _, left = self._peaks.pop()
            digest = _hash_pair(left, digest)
            height += 1
        self._peaks.append((height, digest))
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def root(self) -> str:
        """Root of everything appended so far (empty → digest of b'')."""
        if not self._peaks:
            return sha256_hex(b"")
        height, current = self._peaks[-1]
        for peak_height, peak_digest in reversed(self._peaks[:-1]):
            # Lift the running suffix to the peak's height, duplicating
            # the lone node at each odd level (the Bitcoin convention).
            while height < peak_height:
                current = _hash_pair(current, current)
                height += 1
            current = _hash_pair(peak_digest, current)
            height = peak_height + 1
        return current
