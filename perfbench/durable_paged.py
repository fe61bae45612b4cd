"""Workload ``durable-paged``: one node's storage engine on real files.

Commit phase: a seeded chain of ``kv_set``/``increment`` blocks over a
keyspace several times larger than the block cache. Each block executes
serially and commits through ``DurableLedger`` on ``OsBackend`` (group
fsync, paged recovery, tiered compaction, an overlay byte budget), the
way ``python -m repro recover --data-dir`` drives it. The node crashes
and recovers at seeded heights, and once more after the last block.
Read phase: Zipf point gets and short range scans on the recovered
``PagedStateStore``, each checked against the serial oracle's answer.
"""

from __future__ import annotations

import dataclasses
from array import array
import random
from bisect import bisect_left, bisect_right
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from dataclasses import dataclass

from harness import (
    Rep, check, median, per_input, percentile, proc_bytes_written,
)
from repro.execution import serial as serial_module
from repro.execution.contracts import standard_registry
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore, Version
from repro.storage import (
    BlockCache, DurableLedger, OsBackend, PagedRun, PagedStateStore,
    SnapshotStore, SpillBuffer, codec,
)
from repro.workloads.kv import KvWorkload, ZipfSampler

N_KEYS = 8_000
THETA = 0.6
#: A crash hits once the WAL tail past the last snapshot is this long.
REPLAY_BLOCKS = 6
FSYNC = "group:8"
SNAPSHOT_INTERVAL = 16
CACHE_BYTES = 32 * 1024
OVERLAY_BUDGET = 16 * 1024
COMPACTION = "tiered"
SCAN_WIDTH = 16
READ_THETA = 0.8


@dataclass(frozen=True)
class Size:
    blocks: int
    block_txs: int
    crashes: int
    gets: int
    scans: int
    inputs_per_run: int


FULL = Size(blocks=80, block_txs=40, crashes=4, gets=20_000, scans=2_000,
            inputs_per_run=2)
SMOKE = Size(blocks=40, block_txs=20, crashes=2, gets=2_000, scans=200,
             inputs_per_run=2)


def generate_chain(seed: int, size: Size):
    """The chain of one seed, plus one seeded height per crash stratum
    from which the node crashes (see ``DurablePaged._measure``)."""
    workload = KvWorkload(n_keys=N_KEYS, theta=THETA, read_fraction=0.0,
                          rmw_fraction=0.5, seed=seed)
    chain = Blockchain()
    for height in range(1, size.blocks + 1):
        txs = [
            dataclasses.replace(tx, tx_id=f"d{height:04d}.{index:03d}")
            for index, tx in enumerate(workload.generate(size.block_txs))
        ]
        chain.append(chain.next_block(txs, timestamp=float(height)))
    # Equal crash strata after a short warm-up, so every seed runs most
    # of the chain on the paged read path.
    rng = random.Random(seed ^ 0xD121)
    first, stride = 8, (size.blocks - 8) // size.crashes
    strata = [(first + i * stride + rng.randrange(stride // 3),
               first + (i + 1) * stride - 1) for i in range(size.crashes)]
    return chain, strata


def read_inputs(seed: int, size: Size
                ) -> tuple[list[str], list[tuple[str, str]]]:
    """Point-get keys and scan ranges of the read phase."""
    rng = random.Random(seed ^ 0x5CA9)
    sampler = ZipfSampler(N_KEYS, READ_THETA, rng)
    gets = [f"k{sampler.sample()}" for _ in range(size.gets)]
    names = sorted(f"k{i}" for i in range(N_KEYS))
    position = {name: i for i, name in enumerate(names)}
    scans = []
    for _ in range(size.scans):
        start = position[f"k{sampler.sample()}"]
        scans.append((names[start],
                      names[min(start + SCAN_WIDTH, N_KEYS - 1)]))
    return gets, scans


class DurablePaged:
    #: Values that must repeat exactly on the same inputs.
    DETERMINISTIC = ("bytes_written", "disk_bytes", "root", "replayed",
                     "crash_heights", "runs_at_end", "spills")
    #: Traced counts that must repeat exactly on the same inputs.
    TRACED_DETERMINISTIC = ("root.leaves", "state_root", "bytes.wal",
                            "bytes.spill", "bytes.compaction",
                            "OsBackend.fsync",
                            "read-get:PagedRun.read_block",
                            "read-scan:PagedRun.read_block")

    def __init__(self, plant: str | None, smoke: bool, root: Path) -> None:
        self.plant = plant
        self.size = SMOKE if smoke else FULL
        self.inputs_per_run = self.size.inputs_per_run
        self.tmp_root = root / ".perfbench" / "tmp"
        self._oracles: dict[int, dict[str, Any]] = {}
        size = self.size
        self.config_note = {
            "blocks": size.blocks, "block_txs": size.block_txs,
            "n_keys": N_KEYS, "theta": THETA, "crashes": size.crashes,
            "replay_blocks": REPLAY_BLOCKS, "fsync": FSYNC,
            "snapshot_interval": SNAPSHOT_INTERVAL,
            "cache_bytes": CACHE_BYTES,
            "overlay_budget_bytes": OVERLAY_BUDGET,
            "compaction": COMPACTION, "paged": True, "backend": "OsBackend",
            "gets": size.gets, "scans": size.scans,
            "scan_width_keys": SCAN_WIDTH, "read_theta": READ_THETA,
            "inputs_per_run": self.inputs_per_run,
        }

    # -- tracing -------------------------------------------------------------

    def install(self, patcher: Any) -> None:
        tracer = patcher.tracer

        def on_leaves(caller: str, leaves: Any) -> None:
            if caller == "repro.storage.codec":
                tracer.values["root.leaves"] += len(leaves)

        def on_write(_backend: Any, name: str, data: bytes) -> None:
            if name.startswith("wal-"):
                kind = "wal"
            elif "SnapshotStore.merge_band" in tracer.open_span_names():
                kind = "compaction"
            else:
                kind = "spill"
            tracer.values[f"bytes.{kind}"] += len(data)

        patcher.method(KvWorkload, "generate", "workloads")
        patcher.function("repro.execution.serial", "execute_block_serially",
                         "execution")
        patcher.function("repro.execution.rwsets", "execute_with_capture",
                         "execution")
        patcher.method(StateStore, "snapshot", "ledger")
        patcher.method(StateStore, "apply_writes", "ledger")
        patcher.method(Blockchain, "append", "ledger")
        patcher.method(Blockchain, "next_block", "ledger")
        patcher.function("repro.crypto.digests", "sha256_hex", "crypto",
                         per_caller=True)
        patcher.function("repro.crypto.merkle", "merkle_root", "crypto",
                         hook=on_leaves)
        patcher.function("repro.storage.codec", "state_root", "storage")
        for attr in ("commit_block", "maybe_snapshot", "recover", "flush"):
            patcher.method(DurableLedger, attr, "storage")
        patcher.method(SnapshotStore, "merge_band", "storage")
        patcher.method(PagedStateStore, "get", "storage")
        patcher.method(PagedStateStore, "scan", "storage", eager=True)
        patcher.method(PagedStateStore, "collapse", "storage")
        patcher.method(BlockCache, "get", "storage")
        patcher.method(PagedRun, "read_block", "storage")
        patcher.method(OsBackend, "append", "storage", hook=on_write)
        patcher.method(OsBackend, "replace", "storage", hook=on_write)
        for attr in ("fsync", "read_range", "read"):
            patcher.method(OsBackend, attr, "storage")

    # -- the oracle ----------------------------------------------------------

    def oracle(self, seed: int, chain: Any, gets: list[str],
               scans: list[tuple[str, str]]) -> dict[str, Any]:
        """Serial execution of the chain on an in-memory store, once per
        input set and outside every timed region: the final root, the bytes of
        the committed write sets and of the live state, and the answer
        to every read of the read phase."""
        if seed in self._oracles:
            return self._oracles[seed]
        store = StateStore()
        registry = standard_registry()
        written = 0
        for height in range(1, chain.height + 1):
            block = chain.block(height)
            report = serial_module.execute_block_serially(
                block, store, registry)
            for index, rwset in enumerate(report.rwsets):
                if rwset.ok:
                    version = Version(height, index)
                    for key, value in rwset.writes.items():
                        written += row_bytes(key, value, version)
        live = sum(row_bytes(key, entry.value, entry.version)
                   for key, entry in store.items())
        root = codec.state_root(store)
        if self.plant == "oracle-value":
            # Mutate the read oracle only (after its root is taken), so
            # the get/scan comparison is what must catch it.
            entry = store.get_versioned("k0")
            store.put("k0", f"{entry.value!r}-mutated", entry.version)
        items = sorted(store.items())
        keys = [key for key, _entry in items]
        self._oracles[seed] = {
            "root": root, "live_entries": len(store),
            "written_bytes": written, "live_bytes": live,
            "gets": [store.get(key) for key in gets],
            # StateStore.scan semantics (live entries, low <= key <=
            # high, key order) by bisection over the sorted items.
            "scans": [items[bisect_left(keys, low):bisect_right(keys, high)]
                      for low, high in scans],
        }
        return self._oracles[seed]

    # -- one repetition ------------------------------------------------------

    def rep(self, traced: bool, tracer: Any, inputs: int, seed: int) -> Rep:
        tracer.set_phase("setup")
        tracer.enabled = traced
        t0 = time.perf_counter()
        chain, strata = generate_chain(seed, self.size)
        gets, scans = read_inputs(seed, self.size)
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        data_dir = Path(tempfile.mkdtemp(prefix="node-", dir=self.tmp_root))
        backend = OsBackend(data_dir)
        ledger = make_ledger(backend)
        t1 = time.perf_counter()
        tracer.enabled = False
        oracle = self.oracle(seed, chain, gets, scans)
        try:
            rep = self._measure(traced, tracer, chain, strata, gets, scans,
                                oracle, data_dir, backend, ledger)
            rep.inputs, rep.setup_s = inputs, t1 - t0
            return rep
        finally:
            tracer.enabled = False
            shutil.rmtree(data_dir, ignore_errors=True)

    def _measure(self, traced: bool, tracer: Any, chain: Any,
                 strata: list[tuple[int, int]], gets: list[str],
                 scans: list[tuple[str, str]], oracle: dict[str, Any],
                 data_dir: Path, backend: Any, ledger: Any) -> Rep:
        """Commit phase with crash cycles, clean restart, read phase.

        In each crash stratum ``(start, end)`` the node crashes at the
        first height from ``start`` whose WAL tail past the last
        snapshot is ``REPLAY_BLOCKS`` long (at ``end`` if none is), so
        every seed measures restarts of one size, and a change to the
        snapshot policy still shows in the replay count.
        """
        recoveries: list[float] = []
        replayed: list[int] = []

        def recover() -> Any:
            nonlocal backend, ledger
            backend = OsBackend(data_dir)
            ledger = make_ledger(backend)
            start = time.perf_counter()
            result = ledger.recover(standard_registry)
            recoveries.append(time.perf_counter() - start)
            replayed.append(result.replayed)
            return result

        tracer.set_phase("measure")
        tracer.enabled = traced
        written_before = proc_bytes_written()
        t_start = time.perf_counter()
        store = StateStore()
        spill = SpillBuffer()
        registry = standard_registry()
        pending = list(strata)
        crash_heights: list[int] = []
        restarts: list[tuple] = []
        height = snapshot_height = spills = 0
        while height < chain.height:
            block = chain.block(height + 1)
            outcome = serial_module.execute_block_serially(
                block, store, registry)
            for index, rwset in enumerate(outcome.rwsets):
                if rwset.ok:
                    spill.apply_writes(rwset.writes,
                                       Version(block.height, index))
            root = codec.state_root(store)
            ledger.commit_block(block, root)
            if ledger.maybe_snapshot(block, root, spill):
                spill = SpillBuffer()
                snapshot_height = block.height
                spills += 1
                if isinstance(store, PagedStateStore):
                    manifest = ledger.snapshots.read_manifest() or {}
                    store.collapse(manifest.get("runs", ()))
            height = block.height
            if pending and height >= pending[0][0] and (
                    height - snapshot_height == REPLAY_BLOCKS
                    or height == pending[0][1]):
                pending.pop(0)
                crash_heights.append(height)
                backend.simulate_crash()
                result = recover()
                restarts.append((height, block.block_hash, result.resync,
                                 result.tail.height, result.tail.tip_hash()))
                store, spill = result.store, result.spill
                snapshot_height = result.snapshot_height
                registry = standard_registry()
        t_commit = time.perf_counter()
        # Clean shutdown: checkpoint the tail, stop, restart from disk.
        ledger.snapshot(block, root, spill)
        backend.simulate_crash()
        if self.plant == "flip-run-byte":
            flip_run_byte(data_dir)
        final = recover()
        t_recovered = time.perf_counter()
        tracer.enabled = False
        written = proc_bytes_written() - written_before
        check(len(crash_heights) == len(strata),
              f"{len(crash_heights)} crash cycles ran, not {len(strata)}")
        for height, tip, resync, got_height, got_tip in restarts:
            check(not resync, f"resync after crash at {height}")
            check(got_height == height,
                  f"recovered height {got_height} != {height}")
            check(got_tip == tip,
                  f"tip hash differs after recovery at {height}")
        check(not final.resync, "resync on the final restart")
        check(final.tail.height == chain.height
              and final.tail.tip_hash() == chain.tip_hash(),
              "final recovery does not reach the chain tip")
        store = final.store
        check(isinstance(store, PagedStateStore),
              "recovery did not return a paged store")
        runs_at_end = len(store.run_names())
        disk_bytes = sum(p.stat().st_size for p in data_dir.iterdir()
                         if p.is_file())

        # Read phase: every call timed on its own.
        clock = time.perf_counter_ns
        tracer.set_phase("read-get")
        tracer.enabled = traced
        get_ns, got = [], []
        t_reads = time.perf_counter()
        for key in gets:
            start = clock()
            value = store.get(key)
            get_ns.append(clock() - start)
            got.append(value)
        tracer.set_phase("read-scan")
        scan_ns, scanned = [], []
        for low, high in scans:
            start = clock()
            rows = list(store.scan(low, high))
            scan_ns.append(clock() - start)
            scanned.append(rows)
        t_end = time.perf_counter()
        tracer.enabled = False

        check(codec.state_root(store) == oracle["root"],
              "recovered state root differs from the serial oracle")
        for key, value, expected in zip(gets, got, oracle["gets"]):
            check(value == expected,
                  f"get({key!r}) = {value!r}, oracle says {expected!r}")
        for (low, high), rows, expected in zip(scans, scanned,
                                               oracle["scans"]):
            check(rows == expected,
                  f"scan({low!r}, {high!r}) differs from the oracle")
        backend.close()
        data = {
            "txs": sum(len(chain.block(h).transactions)
                       for h in range(1, chain.height + 1)),
            "blocks": chain.height,
            "crash_heights": crash_heights,
            "spills": spills,
            # The crash cycles; the last entry is the clean restart.
            "recoveries_s": recoveries[:-1],
            "replayed": replayed[:-1],
            "bytes_written": written,
            "disk_bytes": disk_bytes,
            "root": oracle["root"],
            "live_entries": oracle["live_entries"],
            "runs_at_end": runs_at_end,
            # Packed, so the samples kept across repetitions do not
            # weigh on the next repetition's peak memory.
            "get_us": array("d", (ns / 1e3 for ns in get_ns)),
            "scan_us": array("d", (ns / 1e3 for ns in scan_ns)),
            "write_amp": written / oracle["written_bytes"],
            "space_amp": disk_bytes / oracle["live_bytes"],
            "measured_s": (t_recovered - t_start) + (t_end - t_reads),
        }
        return Rep(traced=traced, inputs=0, setup_s=0.0,
                   wall_s=t_commit - t_start, data=data)

    # -- metrics -------------------------------------------------------------

    def attempted(self, reps: list[Rep]) -> int:
        return sum(rep.data["txs"] + self.size.gets + self.size.scans
                   for rep in reps)

    def end_to_end(self, reps: list[Rep]) -> dict[str, Any]:
        gets = [us for rep in reps for us in rep.data["get_us"]]
        scans = [us for rep in reps for us in rep.data["scan_us"]]
        return {
            "tx_per_s": ([rep.data["txs"] / rep.wall_s for rep in reps],
                         "tx/s"),
            # Latency percentiles and the restart median pool every
            # timed call of the run.
            "read_p50_us": ([percentile(gets, 50)], "us"),
            "read_p99_us": ([percentile(gets, 99)], "us"),
            "scan_p50_us": ([percentile(scans, 50)], "us"),
            "scan_p99_us": ([percentile(scans, 99)], "us"),
            "recovery_s": (
                [s for rep in reps for s in rep.data["recoveries_s"]], "s"),
            "write_amp": (per_input(reps, "write_amp"), "ratio"),
            "space_amp": (per_input(reps, "space_amp"), "ratio"),
        }

    def per_layer(self, traced: list[Rep],
                  counts: dict[str, float]) -> dict[str, Any]:
        data = traced[0].data
        totals = [rep.data["trace"]["name_total_ns"] for rep in traced]
        blocks_rooted = counts["state_root"]
        check(blocks_rooted > 0, "state_root was never called")

        def inclusive_s(name: str) -> float:
            return median([t.get(name, 0) for t in totals]) / 1e9

        wrapped = (counts["bytes.wal"] + counts["bytes.spill"]
                   + counts["bytes.compaction"])
        check(wrapped == data["bytes_written"],
              f"backend writes seen by the wrappers ({wrapped} B) differ "
              f"from the process's write(2) bytes ({data['bytes_written']} B)"
              " — an unwrapped write path")
        gets = counts["read-get:PagedStateStore.get"]
        cache_gets = counts["read-get:BlockCache.get"]
        get_decodes = counts["read-get:PagedRun.read_block"]
        scans = counts["read-scan:PagedStateStore.scan"]
        check(gets == self.size.gets and scans == self.size.scans,
              "read-phase entry points were not all traced")
        return {
            "storage.root_s": (inclusive_s("state_root"), "s"),
            "storage.root_entries_per_block": (
                counts["root.leaves"] / blocks_rooted, "entries/block"),
            "storage.wal_s": (inclusive_s("DurableLedger.commit_block"), "s"),
            "storage.fsyncs_per_block": (
                counts["OsBackend.fsync"] / data["blocks"], "fsyncs/block"),
            "storage.spill_s": (inclusive_s("DurableLedger.maybe_snapshot"),
                                "s"),
            "storage.bytes_written.wal": (counts["bytes.wal"], "B"),
            "storage.bytes_written.spill": (counts["bytes.spill"], "B"),
            "storage.bytes_written.compaction": (
                counts["bytes.compaction"], "B"),
            "storage.runs_at_end": (data["runs_at_end"], "count"),
            "storage.replayed_per_recovery": (
                sum(data["replayed"]) / len(data["replayed"]), "blocks"),
            "storage.cache_hit_ratio": (
                (cache_gets - get_decodes) / cache_gets if cache_gets else 0.0,
                "ratio"),
            "storage.block_decodes_per_get": (get_decodes / gets,
                                              "decodes/get"),
            "storage.block_decodes_per_scan": (
                counts["read-scan:PagedRun.read_block"] / scans,
                "decodes/scan"),
            "storage.live_entries": (data["live_entries"], "count"),
            "ledger.snapshots_per_tx": (
                counts["StateStore.snapshot"] / data["txs"], "calls/tx"),
        }


def flip_run_byte(data_dir: Path) -> None:
    """Planted fault: flip one byte in the middle of the largest run."""
    runs = [p for p in data_dir.iterdir() if p.name.startswith("snap-")]
    check(bool(runs), "no run file to corrupt")
    target = max(runs, key=lambda p: p.stat().st_size)
    payload = bytearray(target.read_bytes())
    payload[len(payload) // 3] ^= 0xFF
    target.write_bytes(bytes(payload))


def make_ledger(backend: Any) -> DurableLedger:
    return DurableLedger(
        backend, policy=FSYNC, snapshot_interval=SNAPSHOT_INTERVAL,
        paged=True, cache_bytes=CACHE_BYTES, compaction=COMPACTION,
        overlay_budget_bytes=OVERLAY_BUDGET,
    )


def row_bytes(key: str, value: Any, version: Any) -> int:
    """Encoded size of one state row, as run files store it."""
    return len(codec.encode_row(codec.entry_to_row(key, value, version))
               .encode())
