"""Durable nodes: WAL + snapshot tier + crash-restart recovery.

This wires :mod:`repro.storage` into the chaos engine. A
:class:`DurableNode` commits announced blocks through a
:class:`DurableLedger` (append-only checksummed WAL, periodic state
spills into the LSM snapshot tier), and treats a crash the way the
paper's crash-failure model does — the process loses *everything* in
memory and its disk reverts to what was durable. Recovery is the real
algorithm:

1. read the manifest; load + checksum-verify the snapshot runs; verify
   the rebuilt store's Merkle state root against the root the manifest
   recorded (any failure ⇒ the snapshot tier is untrusted ⇒ full resync
   from genesis via peers);
2. replay the WAL tail — CRC-verified records only; each decoded block
   must hash-chain from the recovered tip and reproduce the state root
   its record committed to; a torn tail is truncated (repaired in
   place) and the difference fetched from peers;
3. only *then* re-arm protocol timers and re-join (the restart work is
   modelled as virtual time via :meth:`~repro.sim.node.Node.recovery_delay`,
   proportional to the WAL tail length).

:class:`DurableCluster` is the simulation topology the DST engine
fuzzes: one never-crashed :class:`OrdererNode` streaming a canonical
pre-built chain, N durable nodes with independently seeded (optionally
faulty) storage backends, and a serial-oracle audit asserting every
recovered node ends byte-identical — same tip hash, same Merkle state
root — to the no-crash serial execution.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.common.errors import ConfigError, LedgerError, StorageError
from repro.common.types import Operation, OpType, Transaction
from repro.execution.contracts import ContractRegistry, standard_registry
from repro.execution.serial import execute_block_serially
from repro.ledger.block import Block, genesis_block
from repro.ledger.chain import Blockchain
from repro.ledger.store import STORE_COUNTERS, StateStore, Version
from repro.sim.core import Simulation
from repro.sim.network import LanLatency, LatencyModel, Network
from repro.sim.node import Node
from repro.storage.backend import FaultProfile, MemoryBackend
from repro.storage.codec import (
    block_from_dict,
    block_to_dict,
    decode_block,
    encode_block,
    state_root,
)
from repro.storage.paged import (
    DEFAULT_CACHE_BYTES,
    BlockCache,
    PagedStateStore,
)
from repro.storage.snapshots import (
    CompactionPolicy,
    SnapshotStore,
    SpillBuffer,
)
from repro.storage.wal import (
    SEGMENT_PREFIX,
    SEGMENT_SUFFIX,
    BlockLog,
    FsyncPolicy,
    replay_records,
    segment_name,
)

# -- data_dir validation ------------------------------------------------------

#: Real path -> original spelling of every data_dir handed out and not
#: yet released. Two different spellings resolving to the same real
#: directory would silently share WAL segments — rejected loudly.
_ACTIVE_DATA_DIRS: dict[str, str] = {}


def resolve_data_dir(path: str | Path, create: bool = True) -> Path:
    """Validate a durable-storage directory, loudly.

    Mirrors ``resolve_workers``: misconfiguration raises
    :class:`~repro.common.errors.ConfigError` with the reason, instead
    of surfacing later as a confusing I/O failure mid-commit. Rejected:
    empty paths, paths that exist but are not directories, non-creatable
    or non-writable directories, and *collisions* — a second spelling
    (say, a relative path) resolving to a directory already in active
    use under a different spelling.

    Call :func:`release_data_dir` when done (tests; the CLI releases on
    exit implicitly by process death).
    """
    spelling = str(path)
    if not spelling.strip():
        raise ConfigError("data_dir must be a non-empty path")
    p = Path(spelling).expanduser()
    if p.exists() and not p.is_dir():
        raise ConfigError(f"data_dir {spelling!r} exists and is not a directory")
    if not p.exists():
        if not create:
            raise ConfigError(f"data_dir {spelling!r} does not exist")
        try:
            p.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"data_dir {spelling!r} cannot be created: {exc}"
            ) from exc
    resolved = str(p.resolve())
    if not os.access(resolved, os.W_OK):
        raise ConfigError(f"data_dir {spelling!r} is not writable")
    held = _ACTIVE_DATA_DIRS.get(resolved)
    if held is not None and held != spelling:
        raise ConfigError(
            f"data_dir {spelling!r} resolves to {resolved!r}, already in "
            f"use under the spelling {held!r} — two nodes would share a WAL"
        )
    _ACTIVE_DATA_DIRS[resolved] = spelling
    return Path(resolved)


def release_data_dir(path: str | Path) -> None:
    """Release a directory acquired by :func:`resolve_data_dir`."""
    _ACTIVE_DATA_DIRS.pop(str(Path(path).expanduser().resolve()), None)


# -- the chain tail -----------------------------------------------------------


class ChainTail:
    """A ledger suffix: an anchor block plus the blocks chained onto it.

    Recovery cannot use :class:`~repro.ledger.chain.Blockchain` — that
    class indexes blocks by absolute height from genesis, while a
    recovered node holds only the snapshot anchor and the WAL tail. The
    tail enforces the same chaining invariants on append; since every
    block commits to its predecessor, tip-hash equality at equal height
    still implies full-chain equality.
    """

    def __init__(self, anchor: Block) -> None:
        self._blocks: list[Block] = [anchor]

    @property
    def anchor(self) -> Block:
        return self._blocks[0]

    @property
    def head(self) -> Block:
        return self._blocks[-1]

    @property
    def height(self) -> int:
        return self._blocks[-1].height

    def tip_hash(self) -> str:
        return self._blocks[-1].block_hash

    def __len__(self) -> int:
        return len(self._blocks)

    def append(self, block: Block) -> None:
        if block.height != self.height + 1:
            raise LedgerError(
                f"expected height {self.height + 1}, got {block.height}"
            )
        if block.header.prev_hash != self.head.block_hash:
            raise LedgerError(
                f"block {block.height} does not chain from tail tip "
                f"{self.head.block_hash[:12]}…"
            )
        block.validate_payload()
        self._blocks.append(block)

    def blocks(self) -> list[Block]:
        """Anchor + tail, oldest first."""
        return list(self._blocks)


# -- the durable ledger -------------------------------------------------------


@dataclass
class RecoveryResult:
    """What :meth:`DurableLedger.recover` rebuilt, plus how."""

    tail: ChainTail
    store: StateStore
    spill: SpillBuffer
    replayed: int = 0
    torn: bool = False
    resync: bool = False
    snapshot_height: int = 0
    #: Run files on disk that the manifest did not reference — leaked by
    #: a crash between a run write (or compaction's manifest swap) and
    #: the delete loop — garbage-collected by this recovery.
    orphans_removed: int = 0


class DurableLedger:
    """WAL + snapshot tier behind one storage backend.

    The commit path appends ``encode_block(block, state_root)`` records
    (fsync per the policy); :meth:`maybe_snapshot` runs the spill cycle
    in crash-safe order — WAL rolled → run file durable → manifest
    swapped atomically → superseded segments deleted — so a crash at
    any point leaves a recoverable prefix. ``compaction`` is
    ``"tiered"``, ``"tiered:<fanout>"`` or a
    :class:`~repro.storage.snapshots.CompactionPolicy`.
    """

    def __init__(
        self,
        backend,
        policy: FsyncPolicy | str = "per-block",
        snapshot_interval: int = 4,
        paged: bool = False,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        compaction: "CompactionPolicy | str" = "tiered",
        overlay_budget_bytes: int = 0,
    ) -> None:
        if snapshot_interval < 1:
            raise ConfigError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        if overlay_budget_bytes < 0:
            raise ConfigError(
                "overlay_budget_bytes must be >= 0, got "
                f"{overlay_budget_bytes}"
            )
        self.backend = backend
        self.policy = (
            policy if isinstance(policy, FsyncPolicy)
            else FsyncPolicy.parse(policy)
        )
        self.snapshots = SnapshotStore(backend, policy=compaction)
        self.snapshot_interval = snapshot_interval
        #: Resident-overlay byte threshold forcing a spill *between*
        #: interval snapshots (0 = interval-only). The spill is a full
        #: snapshot cycle — it must advance the anchor, because WAL
        #: replay re-executes the tail and would double-apply
        #: non-idempotent writes (increments) onto already-spilled state.
        self.overlay_budget_bytes = overlay_budget_bytes
        #: Recovery mode: paged serves reads straight from run files
        #: (O(WAL tail) restart, state bigger than RAM); materialized
        #: rebuilds the full StateStore (the equivalence oracle).
        self.paged = paged
        self.cache_bytes = cache_bytes
        self.log = BlockLog(backend, self.policy, self._live_segment_id())

    # -- segment bookkeeping -------------------------------------------------

    def _segment_ids(self) -> list[int]:
        ids = []
        for name in self.backend.list():
            if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX):
                try:
                    ids.append(
                        int(name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])
                    )
                except ValueError:
                    continue
        return sorted(ids)

    def _live_segment_id(self) -> int:
        manifest = self.snapshots.read_manifest()
        floor = int(manifest.get("wal_segment", 1)) if manifest else 1
        ids = self._segment_ids()
        return max([floor] + ids)

    # -- commit path ---------------------------------------------------------

    def commit_block(self, block: Block, root: str) -> None:
        """Append one block record (durable per the fsync policy)."""
        self.log.append(encode_block(block, root))

    def maybe_snapshot(
        self, anchor: Block, root: str, buffer: SpillBuffer
    ) -> bool:
        """Spill when the WAL tail has grown ``snapshot_interval`` blocks
        — or earlier, when the overlay byte budget fills up."""
        manifest = self.snapshots.read_manifest()
        snapshot_height = int(manifest.get("snapshot_height", 0)) if manifest else 0
        due = anchor.height - snapshot_height >= self.snapshot_interval
        over_budget = (
            0 < self.overlay_budget_bytes <= buffer.resident_bytes
        )
        if not due and not over_budget:
            return False
        if over_budget and not due:
            STORE_COUNTERS["budget_spills"] += 1
        self.snapshot(anchor, root, buffer)
        return True

    def snapshot(self, anchor: Block, root: str, buffer: SpillBuffer) -> None:
        """One spill cycle, in crash-safe order.

        1. roll the WAL to a fresh segment (old segment flushed);
        2. write the delta run (durable before anything references it);
        3. swap the manifest atomically — this is the commit point —
           then merge whatever compaction bands the new run completes;
        4. delete the WAL segments the new manifest no longer needs.

        Rolling only flushes and advances an in-memory segment id, so a
        crash before (3) recovers from the *old* manifest + every
        segment; between (3) and (4), replay skips records at or below
        the new snapshot height, so the stale segments are harmless.
        """
        self.log.roll()
        self.snapshots.spill(
            buffer,
            self.snapshots.read_manifest() or {},
            snapshot_height=anchor.height,
            anchor=block_to_dict(anchor),
            state_root=root,
            wal_segment=self.log.segment_id,
        )
        for segment_id in self._segment_ids():
            if segment_id < self.log.segment_id:
                self.backend.delete(segment_name(segment_id))

    def flush(self) -> None:
        """Force the live segment durable (clean shutdown)."""
        self.log.flush()

    # -- crash + recovery ----------------------------------------------------

    def power_fail(self) -> None:
        """The process died: the backend reverts to durable content."""
        self.backend.simulate_crash()

    def tail_record_count(self) -> int:
        """Intact WAL records past the snapshot height — the replay work
        a restart must do (drives the modelled recovery delay)."""
        manifest = self.snapshots.read_manifest()
        snapshot_height = int(manifest.get("snapshot_height", 0)) if manifest else 0
        count = 0
        for segment_id in self._segment_ids():
            name = segment_name(segment_id)
            result = replay_records(self.backend.read(name))
            for payload in result.payloads:
                try:
                    block, _root = decode_block(payload)
                except StorageError:
                    break
                if block.height > snapshot_height:
                    count += 1
            if result.torn:
                break
        return count

    def recover(
        self, registry_factory: Callable[[], ContractRegistry]
    ) -> RecoveryResult:
        """Rebuild (tail, store, spill buffer) from durable storage.

        Corruption handling follows the two-tier trust model: a bad
        snapshot run or state-root mismatch discredits the *whole* local
        state (``resync`` — wipe and refetch from genesis via peers); a
        torn or corrupt WAL record only discredits the log *from that
        point on* (truncate-and-repair, catch the difference up from
        peers). Replayed writes are mirrored into a fresh spill buffer
        so the next snapshot spill still covers them.
        """
        manifest = self.snapshots.read_manifest()
        # Garbage-collect orphaned run files first: a crash between a run
        # write (or compaction's manifest swap) and the delete loop leaks
        # files nothing references — harmless to reads, fatal to disk
        # budgets if left to accumulate forever.
        orphans = self.snapshots.orphan_runs(manifest)
        for name in orphans:
            self.backend.delete(name)
        tail = ChainTail(genesis_block())
        store = StateStore()
        spill = SpillBuffer()
        snapshot_height = 0
        resync = False
        if manifest is not None:
            try:
                if self.paged:
                    # O(index) open: footers + filters only. Whole-state
                    # root verification would defeat the O(WAL tail)
                    # restart; trust moves to the per-block checksums
                    # verified on every read (a bad footer still lands
                    # here as StorageError => resync).
                    loaded: StateStore = PagedStateStore(
                        self.backend,
                        manifest.get("runs", ()),
                        BlockCache(self.cache_bytes),
                    )
                else:
                    loaded = self.snapshots.load_state(manifest)
                anchor = (
                    block_from_dict(manifest["anchor"])
                    if "anchor" in manifest
                    else genesis_block()
                )
                recorded_root = manifest.get("state_root")
                if (
                    not self.paged
                    and recorded_root is not None
                    and state_root(loaded) != recorded_root
                ):
                    raise StorageError(
                        "snapshot state root does not match manifest"
                    )
                tail = ChainTail(anchor)
                store = loaded
                snapshot_height = int(manifest.get("snapshot_height", 0))
            except (StorageError, LedgerError, KeyError):
                resync = True
        replayed = 0
        torn = False
        if not resync:
            registry = registry_factory()
            for segment_id in self._segment_ids():
                name = segment_name(segment_id)
                data = self.backend.read(name)
                result = replay_records(data)
                stop = result.torn
                for payload in result.payloads:
                    try:
                        block, recorded_root = decode_block(payload)
                    except StorageError:
                        stop = torn = True
                        break
                    if block.height <= tail.height:
                        continue  # pre-snapshot record (stale segment)
                    try:
                        tail.append(block)
                    except LedgerError:
                        stop = torn = True
                        break
                    report = execute_block_serially(block, store, registry)
                    for index, rwset in enumerate(report.rwsets):
                        if rwset.ok:
                            spill.apply_writes(
                                rwset.writes, Version(block.height, index)
                            )
                    if not self.paged and state_root(store) != recorded_root:
                        # Intact record but irreproducible state: the
                        # snapshot tier under it cannot be trusted either.
                        # (Paged mode skips this O(state) audit — the
                        # per-block checksums on the read path carry the
                        # corruption-detection duty there.)
                        resync = True
                        break
                    replayed += 1
                if result.torn:
                    torn = True
                    # Repair: truncate the segment to its valid prefix so
                    # post-recovery appends land after intact records.
                    self.backend.replace(name, data[: result.valid_bytes])
                if stop or resync:
                    break
        if resync:
            # Local durable state is untrusted end to end: wipe it and
            # rebuild from genesis via peer catch-up.
            for name in list(self.backend.list()):
                self.backend.delete(name)
            tail = ChainTail(genesis_block())
            store = StateStore()
            spill = SpillBuffer()
            snapshot_height = 0
            replayed = 0
        self.log = BlockLog(self.backend, self.policy, self._live_segment_id())
        return RecoveryResult(
            tail=tail,
            store=store,
            spill=spill,
            replayed=replayed,
            torn=torn,
            resync=resync,
            snapshot_height=snapshot_height,
            orphans_removed=len(orphans),
        )


# -- wire messages ------------------------------------------------------------


@dataclass(frozen=True)
class BlockAnnounce:
    """Orderer gossip: "the canonical chain reaches ``height``"."""

    height: int
    block_hash: str
    size_bytes: int = 72


@dataclass(frozen=True)
class BlockRequest:
    """Catch-up pull: "send me blocks from ``from_height`` up"."""

    from_height: int
    size_bytes: int = 40


@dataclass(frozen=True)
class BlockRange:
    """Catch-up reply: a contiguous run of canonical blocks."""

    blocks: tuple[Block, ...]

    @property
    def size_bytes(self) -> int:
        return 256 * max(1, len(self.blocks))


# -- nodes --------------------------------------------------------------------


class OrdererNode(Node):
    """The canonical-chain source: releases pre-built blocks over virtual
    time, announces the tip, and serves catch-up pulls. Never crashed by
    durable fault plans — it stands in for the ordering service quorum,
    whose availability is consensus's problem (covered by the consensus
    scenarios), not the durability tier's."""

    def __init__(
        self,
        node_id: str,
        sim: Simulation,
        network: Network,
        chain: Blockchain,
        block_interval: float = 0.2,
        announce_interval: float = 0.25,
        batch: int = 8,
    ) -> None:
        super().__init__(node_id, sim, network)
        self.chain = chain
        self.block_interval = block_interval
        self.announce_interval = announce_interval
        self.batch = batch
        self.released = 0

    def start(self) -> None:
        for height in range(1, self.chain.height + 1):
            self.sim.schedule_at(
                round(height * self.block_interval, 6), self._release, height
            )
        self.set_timer(self.announce_interval, self._reannounce,
                       label="reannounce")

    def _release(self, height: int) -> None:
        self.released = max(self.released, height)
        self._announce()

    def _announce(self) -> None:
        if self.released:
            self.broadcast(BlockAnnounce(
                self.released, self.chain.block(self.released).block_hash
            ))

    def _reannounce(self) -> None:
        # Periodic re-announce heals lost/partitioned announcements: a
        # recovered node learns the tip within one interval.
        self._announce()
        self.set_timer(self.announce_interval, self._reannounce,
                       label="reannounce")

    def on_message(self, src: str, message: object) -> None:
        if isinstance(message, BlockRequest):
            start = message.from_height
            if start < 1 or start > self.released:
                return
            end = min(self.released, start + self.batch - 1)
            blocks = tuple(
                self.chain.block(h) for h in range(start, end + 1)
            )
            self.send(src, BlockRange(blocks))


class DurableNode(Node):
    """A replica whose only post-crash state is its storage backend.

    Commits follow the orderer's announcements via pull-based catch-up;
    each committed block is executed serially, mirrored into the spill
    buffer, logged to the WAL with its post-commit state root, and
    periodically spilled to the snapshot tier. ``crash()`` drops every
    in-memory structure *and* power-fails the backend; recovery rebuilds
    from the manifest + WAL tail (see :meth:`DurableLedger.recover`),
    modelling the replay cost as virtual time before the node re-joins.
    """

    def __init__(
        self,
        node_id: str,
        sim: Simulation,
        network: Network,
        backend,
        registry_factory: Callable[[], ContractRegistry] = standard_registry,
        policy: FsyncPolicy | str = "group:2",
        snapshot_interval: int = 3,
        orderer_id: str = "orderer",
        probe_interval: float = 0.5,
        base_recovery_delay: float = 0.05,
        per_record_delay: float = 0.01,
        cluster: "DurableCluster | None" = None,
        paged: bool = False,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        overlay_budget_bytes: int = 0,
    ) -> None:
        super().__init__(node_id, sim, network)
        self.registry_factory = registry_factory
        self.registry = registry_factory()
        self.ledger = DurableLedger(
            backend, policy=policy, snapshot_interval=snapshot_interval,
            paged=paged, cache_bytes=cache_bytes,
            overlay_budget_bytes=overlay_budget_bytes,
        )
        self.orderer_id = orderer_id
        self.probe_interval = probe_interval
        self.base_recovery_delay = base_recovery_delay
        self.per_record_delay = per_record_delay
        self.cluster = cluster
        self.tail: ChainTail = ChainTail(genesis_block())
        self.store: StateStore = StateStore()
        self._spill = SpillBuffer()
        self.highest_announced = 0
        self.recoveries = 0
        self.last_recovery: RecoveryResult | None = None

    def start(self) -> None:
        self._arm_probe()

    # -- commit path ---------------------------------------------------------

    def _commit_block(self, block: Block) -> None:
        self.tail.append(block)
        report = execute_block_serially(block, self.store, self.registry)
        for index, rwset in enumerate(report.rwsets):
            if rwset.ok:
                self._spill.apply_writes(
                    rwset.writes, Version(block.height, index)
                )
        root = state_root(self.store)
        self.ledger.commit_block(block, root)
        if self.ledger.maybe_snapshot(block, root, self._spill):
            self._spill = SpillBuffer()
            if isinstance(self.store, PagedStateStore):
                # The spill's delta run now covers every overlay entry
                # (the spill buffer mirrored the same committed writes,
                # versions included), and the spill may also have
                # compacted the disk run set, deleting files the paged
                # store still references. Collapse: drop the overlays
                # and serve from the new manifest's runs — this is what
                # keeps a long-running paged node's resident memory
                # bounded instead of growing until restart.
                manifest = self.ledger.snapshots.read_manifest() or {}
                self.store.collapse(manifest.get("runs", ()))
        if self.cluster is not None:
            self.cluster.record_commit(
                self.node_id, block.height, block.block_hash
            )

    # -- catch-up ------------------------------------------------------------

    def _arm_probe(self) -> None:
        self.set_timer(self.probe_interval, self._probe, label="catchup-probe")

    def _probe(self) -> None:
        if self.highest_announced > self.tail.height:
            self._request_catchup()
        self._arm_probe()

    def _request_catchup(self) -> None:
        self.send(self.orderer_id, BlockRequest(self.tail.height + 1))

    def on_message(self, src: str, message: object) -> None:
        if isinstance(message, BlockAnnounce):
            self.highest_announced = max(self.highest_announced, message.height)
            if message.height > self.tail.height:
                self._request_catchup()
        elif isinstance(message, BlockRange):
            for block in message.blocks:
                if block.height != self.tail.height + 1:
                    continue  # duplicate or gap; the probe re-pulls
                self._commit_block(block)
            if self.highest_announced > self.tail.height:
                self._request_catchup()

    # -- crash / recovery ----------------------------------------------------

    def crash(self) -> None:
        if self.crashed:
            return
        super().crash()
        self.ledger.power_fail()
        # The crash failure model: nothing in memory survives.
        self.tail = None  # type: ignore[assignment]
        self.store = None  # type: ignore[assignment]
        self._spill = None  # type: ignore[assignment]
        self.highest_announced = 0

    def recovery_delay(self) -> float:
        """Modelled restart time: base cost plus per-record WAL replay."""
        return (
            self.base_recovery_delay
            + self.per_record_delay * self.ledger.tail_record_count()
        )

    def on_recover(self) -> None:
        result = self.ledger.recover(self.registry_factory)
        self.tail = result.tail
        self.store = result.store
        self._spill = result.spill
        self.registry = self.registry_factory()
        self.recoveries += 1
        self.last_recovery = result
        if self.cluster is not None:
            self.cluster.record_recovery(self.node_id, result)
        # Timers re-arm only now — after replay finished (see the
        # FaultPlan.recover contract) — and catch-up starts immediately.
        self._arm_probe()
        self._request_catchup()


# -- the fuzzable topology ----------------------------------------------------


def durable_workload(txs: int, seed: int) -> list[Transaction]:
    """The contended KV workload, canonical across durable runs."""
    rng = random.Random(seed + 0xD15C)
    keys = [f"k{i}" for i in range(max(4, txs // 4))]
    out: list[Transaction] = []
    for i in range(txs):
        key = rng.choice(keys)
        if rng.random() < 0.5:
            out.append(Transaction.create(
                "kv_set", (key, i),
                declared_ops=(Operation(OpType.WRITE, key),),
            ))
        else:
            out.append(Transaction.create(
                "increment", (key, 1),
                declared_ops=(Operation(OpType.READ_WRITE, key),),
            ))
    return out


def build_canonical_chain(
    txs: int, seed: int, block_txs: int = 2
) -> Blockchain:
    """Pre-build the chain the orderer streams (deterministic in seed)."""
    chain = Blockchain()
    workload = durable_workload(txs, seed)
    for start in range(0, len(workload), max(1, block_txs)):
        batch = workload[start:start + max(1, block_txs)]
        block = chain.next_block(batch, timestamp=float(chain.height + 1))
        chain.append(block)
    return chain


class DurableCluster:
    """Orderer + N durable nodes over one deterministic simulation.

    The chaos target for the ``durable`` scenario: fault plans crash and
    recover the durable nodes (never the orderer), partition the network
    (groups must include ``"orderer"``), and inject message faults; the
    storage backends carry their own seeded fault profiles. The audit
    (:meth:`durable_audit`) is the acceptance criterion: every live node
    ends with the canonical tip hash and the serial oracle's state root.
    """

    def __init__(
        self,
        n: int = 3,
        txs: int = 12,
        seed: int = 0,
        block_txs: int = 2,
        policy: FsyncPolicy | str = "group:2",
        snapshot_interval: int = 3,
        fault_profile: dict[str, float] | None = None,
        block_interval: float = 0.2,
        latency: LatencyModel | None = None,
        registry_factory: Callable[[], ContractRegistry] = standard_registry,
        paged: bool = False,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        overlay_budget_bytes: int = 0,
    ) -> None:
        if n < 1:
            raise ConfigError(f"a durable cluster needs n >= 1, got {n}")
        self.seed = seed
        self.sim = Simulation(seed=seed)
        self.network = Network(self.sim, latency or LanLatency())
        self.registry_factory = registry_factory
        self.chain = build_canonical_chain(txs, seed, block_txs)
        self.orderer = OrdererNode(
            "orderer", self.sim, self.network, self.chain,
            block_interval=block_interval,
        )
        profile = dict(fault_profile or {})
        self.nodes: dict[str, DurableNode] = {}
        self.backends: dict[str, MemoryBackend] = {}
        for i in range(n):
            backend = MemoryBackend(
                FaultProfile(seed=seed * 1009 + i + 1, **profile)
            )
            node = DurableNode(
                f"d{i}", self.sim, self.network, backend,
                registry_factory=registry_factory,
                policy=policy, snapshot_interval=snapshot_interval,
                cluster=self, paged=paged, cache_bytes=cache_bytes,
                overlay_budget_bytes=overlay_budget_bytes,
            )
            self.backends[node.node_id] = backend
            self.nodes[node.node_id] = node
        self.monitors: list[Any] = []
        self._started = False

    # -- monitor plumbing ----------------------------------------------------

    def add_monitor(self, monitor) -> None:
        monitor.bind(self)
        self.monitors.append(monitor)

    def record_commit(self, node_id: str, height: int, block_hash: str) -> None:
        for monitor in self.monitors:
            monitor.on_decide(node_id, height, block_hash)

    def record_recovery(self, node_id: str, result: RecoveryResult) -> None:
        for monitor in self.monitors:
            hook = getattr(monitor, "on_recovery", None)
            if hook is not None:
                hook(
                    node_id,
                    height=result.tail.height,
                    tip_hash=result.tail.tip_hash(),
                    replayed=result.replayed,
                    torn=result.torn,
                    resync=result.resync,
                )

    def canonical_block_hash(self, height: int) -> str | None:
        """Canonical-chain hash at ``height`` (None beyond the tip).
        Duck-typed by :class:`~repro.consensus.monitors.DurableRecoveryMonitor`."""
        if not 0 <= height <= self.chain.height:
            return None
        return self.chain.block(height).block_hash

    # -- driving -------------------------------------------------------------

    def caught_up(self) -> bool:
        """Every *live* node recovered and at the canonical tip.

        A node the fault plan crashed and never recovered is down, not
        behind — mirroring ``correct_replicas()`` for consensus targets;
        otherwise the shrinker could reduce every violation to a bare
        unrecovered crash. At least one node must be live and caught up.
        """
        target = self.chain.height
        live = 0
        for node in self.nodes.values():
            if node.crashed:
                continue
            if node.recovering or node.tail.height < target:
                return False
            live += 1
        return live > 0

    def run(self, timeout: float = 30.0, min_time: float = 0.0) -> bool:
        """Drive until all live nodes caught up or ``timeout`` virtual
        seconds elapse.

        ``min_time`` keeps the loop alive at least that long in virtual
        time: a fault plan's crash/recover events are scheduled on the
        simulator, and :meth:`caught_up` ignores crashed nodes, so
        without the floor a run could declare success after the crash
        but *before* the recovery it is meant to exercise.
        """
        if not self._started:
            self._started = True
            self.orderer.start()
            for node in self.nodes.values():
                node.start()
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if self.sim.now >= min_time and self.caught_up():
                return True
            processed = self.sim.run(until=min(deadline, self.sim.now + 0.25))
            if processed == 0 and self.sim.pending_events() == 0:
                break
        return self.caught_up()

    # -- the oracle audit ----------------------------------------------------

    def serial_oracle(self) -> StateStore:
        """The no-crash reference: the canonical chain executed serially
        from genesis on a fresh store."""
        store = StateStore()
        registry = self.registry_factory()
        for block in self.chain:
            if block.height == 0:
                continue
            execute_block_serially(block, store, registry)
        return store

    def durable_audit(self) -> list[str]:
        """End-of-run equivalence: ledger and state byte-identical to the
        no-crash serial oracle, for every live node."""
        violations: list[str] = []
        oracle_root = state_root(self.serial_oracle())
        target_height = self.chain.height
        target_tip = self.chain.tip_hash()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.crashed:
                continue  # down by plan, not diverged
            if node.recovering:
                violations.append(
                    f"durability: {node_id} never finished recovering"
                )
                continue
            if node.tail.height != target_height:
                violations.append(
                    f"durability: {node_id} at height {node.tail.height}, "
                    f"canonical tip is {target_height}"
                )
                continue
            if node.tail.tip_hash() != target_tip:
                violations.append(
                    f"durability: {node_id} tip hash diverges from the "
                    "canonical chain"
                )
            if state_root(node.store) != oracle_root:
                violations.append(
                    f"durability: {node_id} state root diverges from the "
                    "serial oracle"
                )
        return violations
