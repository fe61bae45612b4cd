"""Workload ``exec-pool``: a stream of KV blocks through one held
process-pool ``ParallelExecutor``.

Stock contracts only (``read_many``, ``increment``, ``kv_set`` from
``KvWorkload`` plus every tenth transaction turned into a ``transfer``,
whose insufficient-funds aborts exercise the oracle's abort check). Keys
are Zipf(0.9) skewed, so every block splits into dozens of conflict-free
waves. ``workers = nproc`` and the executor's own serial-oracle check is
on, as by default.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from typing import Any

from dataclasses import dataclass

from harness import Rep, check, median, per_input
from repro.common.types import Operation, OpType, Transaction
from repro.execution import serial as serial_module
from repro.execution.contracts import standard_registry
from repro.execution.parallel_backend import ParallelExecutor
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.store import StateStore
from repro.storage import codec
from repro.workloads.kv import KvWorkload, ZipfSampler

N_KEYS = 20_000
THETA = 0.9
TRANSFER_EVERY = 10


@dataclass(frozen=True)
class Size:
    blocks: int
    block_txs: int
    inputs_per_run: int


FULL = Size(blocks=20, block_txs=1000, inputs_per_run=4)
SMOKE = Size(blocks=3, block_txs=500, inputs_per_run=2)


def generate_blocks(seed: int, size: Size) -> list:
    """The block stream of one seed: ids and values depend on nothing
    but the seed."""
    workload = KvWorkload(
        n_keys=N_KEYS, theta=THETA, read_fraction=0.2, rmw_fraction=0.6,
        keys_per_read=2, seed=seed,
    )
    rng = random.Random(seed ^ 0x7E57)
    peers = ZipfSampler(N_KEYS, THETA, rng)
    blocks, prev = [], GENESIS_PREV_HASH
    for height in range(1, size.blocks + 1):
        txs = []
        for index, tx in enumerate(workload.generate(size.block_txs)):
            tx_id = f"e{height:04d}.{index:04d}"
            if index % TRANSFER_EVERY == TRANSFER_EVERY - 1:
                src = tx.declared_ops[0].key
                dst = f"k{peers.sample()}"
                if dst == src:
                    dst = f"k{(peers.sample() + 1) % N_KEYS}"
                tx = dataclasses.replace(
                    tx, contract="transfer",
                    args=(src, dst, rng.randint(1, 5_000)),
                    declared_ops=(Operation(OpType.READ_WRITE, src),
                                  Operation(OpType.READ_WRITE, dst)),
                )
            txs.append(dataclasses.replace(tx, tx_id=tx_id))
        block = Block.create(height=height, prev_hash=prev, transactions=txs)
        prev = block.block_hash
        blocks.append(block)
    return blocks


class ExecPool:
    #: Values that must repeat exactly on the same inputs.
    DETERMINISTIC = ("root", "committed", "failed", "waves")
    #: Traced counts that must repeat exactly on the same inputs.
    TRACED_DETERMINISTIC = ("build_dependency_graph", "execute_with_capture",
                            "sha256_hex@*")

    def __init__(self, plant: str | None, smoke: bool) -> None:
        self.plant = plant
        self.size = SMOKE if smoke else FULL
        self.inputs_per_run = self.size.inputs_per_run
        self.workers = os.cpu_count() or 1
        self._serial_roots: dict[int, str] = {}
        self.config_note = {
            "blocks": self.size.blocks, "block_txs": self.size.block_txs,
            "n_keys": N_KEYS, "theta": THETA,
            "transfer_every": TRANSFER_EVERY, "workers": self.workers,
            "check_oracle": True, "inputs_per_run": self.inputs_per_run,
            "fsync": "none",
        }

    def install(self, patcher: Any) -> None:
        patcher.method(KvWorkload, "generate", "workloads")
        patcher.method(ParallelExecutor, "execute_block", "execution")
        patcher.function("repro.execution.depgraph", "build_dependency_graph",
                         "execution")
        patcher.function("repro.execution.rwsets", "execute_with_capture",
                         "execution")
        patcher.function("repro.execution.parallel_backend",
                         "block_effects_digest", "execution")
        patcher.function("repro.crypto.digests", "sha256_hex", "crypto",
                         per_caller=True)
        patcher.function("repro.crypto.merkle", "merkle_root", "crypto")
        patcher.method(StateStore, "snapshot", "ledger")
        patcher.method(StateStore, "apply_writes", "ledger")

    def _serial_oracle_root(self, seed: int, blocks: list) -> str:
        """State root after executing the stream serially on a fresh
        store — computed once per input set, outside any timed region."""
        if seed not in self._serial_roots:
            store = StateStore()
            registry = standard_registry()
            for block in blocks:
                serial_module.execute_block_serially(block, store, registry)
            if self.plant == "oracle-value":
                key = sorted(store.keys())[0]
                entry = store.get_versioned(key)
                store.put(key, f"{entry.value!r}-mutated", entry.version)
            self._serial_roots[seed] = codec.state_root(store)
        return self._serial_roots[seed]

    def rep(self, traced: bool, tracer: Any, inputs: int, seed: int) -> Rep:
        tracer.set_phase("setup")
        tracer.enabled = traced
        t0 = time.perf_counter()
        blocks = generate_blocks(seed, self.size)
        if self.plant == "undeclared-read":
            blocks[0] = plant_undeclared_read(blocks[0])
        store = StateStore()
        executor = ParallelExecutor(standard_registry(), store, self.workers)
        t1 = time.perf_counter()
        try:
            tracer.set_phase("measure")
            reports = [executor.execute_block(block) for block in blocks]
            t2 = time.perf_counter()
            tracer.enabled = False
            backend = executor.backend
        finally:
            tracer.enabled = False
            executor.close()

        if self.workers > 1:
            check(backend == "process-pool",
                  f"pool not healthy at the end: backend {backend!r}")
        for report in reports:
            check(report.oracle_checked and report.oracle_matches,
                  "serial oracle check did not pass on a block")
        fallbacks = sum(report.fallback_waves for report in reports)
        check(fallbacks == 0, f"{fallbacks} waves fell back to inline")
        root = codec.state_root(store)
        check(root == self._serial_oracle_root(seed, blocks),
              "final state root differs from the serially executed copy")
        committed = sum(report.committed for report in reports)
        failed = sum(report.failed for report in reports)
        txs = sum(len(block.transactions) for block in blocks)
        check(committed + failed == txs, "executor lost transactions")
        data = {
            "txs": txs,
            "committed": committed,
            "failed": failed,
            "root": root,
            "waves": sum(report.n_waves for report in reports),
            "fallback_waves": fallbacks,
            "blocks": len(blocks),
            "pool_s": sum(report.wall_seconds for report in reports),
        }
        return Rep(traced=traced, inputs=inputs, setup_s=t1 - t0,
                   wall_s=t2 - t1, data=data)

    def attempted(self, reps: list[Rep]) -> int:
        return sum(rep.data["txs"] for rep in reps)

    def end_to_end(self, reps: list[Rep]) -> dict[str, Any]:
        for rep in reps:
            rep.data["failed_frac"] = rep.data["failed"] / rep.data["txs"]
        return {
            "tx_per_s": (
                [rep.data["committed"] / rep.wall_s for rep in reps], "tx/s"),
            "failed_frac": (per_input(reps, "failed_frac"), "ratio"),
        }

    def per_layer(self, traced: list[Rep],
                  counts: dict[str, float]) -> dict[str, Any]:
        data = traced[0].data
        totals = [rep.data["trace"]["name_total_ns"] for rep in traced]

        def inclusive_s(name: str) -> float:
            return median([t.get(name, 0) for t in totals]) / 1e9

        for name in ("ParallelExecutor.execute_block",
                     "build_dependency_graph", "execute_with_capture"):
            check(counts[name] > 0, f"traced entry point {name} was never "
                  "called")
        return {
            "execution.depgraph_s": (inclusive_s("build_dependency_graph"),
                                     "s"),
            "execution.oracle_s": (inclusive_s("execute_with_capture"), "s"),
            "execution.pool_s": (
                median([rep.data["pool_s"] for rep in traced]), "s"),
            "execution.waves_per_block": (
                data["waves"] / data["blocks"], "waves/block"),
            "execution.txs_per_wave": (data["txs"] / data["waves"], "tx/wave"),
            "execution.fallback_waves": (data["fallback_waves"], "count"),
            "ledger.snapshots_per_tx": (
                counts["StateStore.snapshot"] / data["txs"], "calls/tx"),
            "crypto.sha256_calls_per_tx": (
                counts["sha256_hex@*"] / data["txs"], "calls/tx"),
        }


def plant_undeclared_read(block: Block) -> Block:
    """Planted fault: the second transaction reads a key its declared
    operations do not name, so the pool runs it in the same wave as the
    first transaction's write and the serial oracle must disagree."""
    txs = list(block.transactions)
    txs[0] = Transaction(
        tx_id=txs[0].tx_id, contract="kv_set", args=("planted", 1),
        declared_ops=(Operation(OpType.WRITE, "planted"),))
    txs[1] = Transaction(
        tx_id=txs[1].tx_id, contract="increment", args=("planted", 1),
        declared_ops=(Operation(OpType.READ_WRITE, "decoy"),))
    return Block.create(height=block.height, prev_hash=block.header.prev_hash,
                        transactions=txs)
