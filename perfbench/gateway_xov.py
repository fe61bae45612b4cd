"""Workload ``gateway-xov``: open-loop clients → Gateway → XOV → PBFT.

Arrivals are Poisson in virtual time over 200k Zipf(0.9) clients, 1% of
them carrying forged signatures, shaped as E22's ``ramp_steady_burst``:
a ramp, a steady phase at 500 tx/s (just under XOV's ~600 tx/s knee) and
a one-second 3x burst that drives the shed paths. Four PBFT replicas on
``LanLatency``; state in memory. Because the generator runs in virtual
time it is never late.
"""

from __future__ import annotations

import time
from typing import Any

from dataclasses import dataclass

from harness import Rep, check, per_input, percentile
from repro.consensus.base import ConsensusCluster, ConsensusReplica
from repro.consensus.pbft import PbftReplica
from repro.core import SystemConfig
from repro.core.base import BlockchainSystem
from repro.crypto.signatures import MembershipService
from repro.gateway import GatewayConfig, GatewayRun
from repro.gateway.core import Gateway
from repro.gateway.ledger import LatencyLedger
from repro.ledger.chain import Blockchain
from repro.ledger.store import StateStore
from repro.sim.core import Simulation
from repro.sim.network import Network, message_size
from repro.workloads.openloop import (
    OpenLoopConfig, OpenLoopWorkload, ramp_steady_burst,
)

CLIENTS = 200_000
CLIENT_THETA = 0.9
INVALID_FRACTION = 0.01
RATE = 500.0
BURST_S = 1.0


@dataclass(frozen=True)
class Size:
    steady_s: float
    inputs_per_run: int


FULL = Size(steady_s=18.0, inputs_per_run=4)
SMOKE = Size(steady_s=3.0, inputs_per_run=2)


class _Schedule:
    """The pre-generated arrival list, handed to ``GatewayRun`` in place
    of the generator: the program receives only the inputs."""

    def __init__(self, config: Any, arrivals: list) -> None:
        self.config = config
        self._arrivals = arrivals

    def arrivals(self) -> list:
        return list(self._arrivals)


class GatewayXov:
    #: Values that must repeat exactly on the same inputs.
    DETERMINISTIC = (
        "fingerprint", "arrivals", "committed", "sim_p50_ms", "sim_p99_ms",
        "sim_goodput_tps", "events",
    )
    #: Traced counts that must repeat exactly on the same inputs.
    TRACED_DETERMINISTIC = (
        "sha256_hex@*", "sha256_hex@repro.consensus.pbft", "net.messages",
        "net.bytes", "MembershipService.verify", "StateStore.snapshot",
    )

    def __init__(self, plant: str | None, smoke: bool) -> None:
        self.plant = plant
        self.size = SMOKE if smoke else FULL
        self.inputs_per_run = self.size.inputs_per_run
        self.config_note = {
            "architecture": "xov", "orderers": 4, "protocol": "pbft",
            "latency": "LanLatency", "clients": CLIENTS,
            "client_theta": CLIENT_THETA, "invalid_fraction": INVALID_FRACTION,
            "rate_tps": RATE, "steady_s": self.size.steady_s,
            "burst_s": BURST_S, "burst_multiplier": 3.0,
            "inputs_per_run": self.inputs_per_run, "state": "in-memory",
            "fsync": "none",
        }

    # -- tracing -------------------------------------------------------------

    def install(self, patcher: Any) -> None:
        tracer = patcher.tracer

        def on_send(_net: Any, _src: str, _dst: str, message: Any) -> None:
            values = tracer.values
            values["net.messages"] += 1
            values["net.bytes"] += message_size(message)

        def on_broadcast(net: Any, src: str, message: Any,
                         targets: Any = None) -> None:
            n = len(list(targets)) if targets is not None else (
                len(net.node_ids) - 1)
            values = tracer.values
            values["net.messages"] += n
            values["net.bytes"] += n * message_size(message)

        patcher.method(OpenLoopWorkload, "arrivals", "workloads")
        patcher.method(Gateway, "submit", "gateway")
        for attr in ("finalize", "report", "fingerprint"):
            patcher.method(LatencyLedger, attr, "gateway")
        for attr in ("sign", "verify", "register"):
            patcher.method(MembershipService, attr, "crypto")
        patcher.function("repro.crypto.digests", "sha256_hex", "crypto",
                         per_caller=True)
        patcher.function("repro.crypto.merkle", "merkle_root", "crypto")
        patcher.method(Simulation, "run", "sim")
        patcher.scheduled_callbacks(Simulation, ("schedule", "schedule_at"))
        patcher.method(Network, "send", "sim", hook=on_send)
        patcher.method(Network, "broadcast", "sim", hook=on_broadcast)
        patcher.method(ConsensusReplica, "deliver", "consensus")
        patcher.method(PbftReplica, "on_message", "consensus")
        patcher.method(ConsensusCluster, "submit", "consensus")
        patcher.method(BlockchainSystem, "run", "core")
        patcher.function("repro.execution.mvcc", "endorse", "execution")
        patcher.function("repro.execution.mvcc", "validate_endorsement",
                         "execution")
        patcher.function("repro.execution.rwsets", "execute_with_capture",
                         "execution")
        patcher.method(StateStore, "snapshot", "ledger")
        patcher.method(StateStore, "apply_writes", "ledger")
        patcher.method(Blockchain, "append", "ledger")
        patcher.method(Blockchain, "next_block", "ledger")

    # -- one repetition ------------------------------------------------------

    def rep(self, traced: bool, tracer: Any, inputs: int, seed: int) -> Rep:
        tracer.set_phase("setup")
        tracer.enabled = traced
        t0 = time.perf_counter()
        workload = OpenLoopWorkload(OpenLoopConfig(
            clients=CLIENTS,
            client_theta=CLIENT_THETA,
            invalid_fraction=INVALID_FRACTION,
            phases=ramp_steady_burst(RATE, steady=self.size.steady_s,
                                     burst=BURST_S),
            seed=seed,
        ))
        arrivals = workload.arrivals()
        generated = len(arrivals)
        if self.plant == "drop-arrival":
            arrivals = arrivals[:-1]
        run = GatewayRun(
            "xov",
            _Schedule(workload.config, arrivals),
            gateway_config=GatewayConfig(
                rate=100.0, burst=10.0, queue_capacity=300,
                max_in_flight=600, batch_size=50,
            ),
            system_config=SystemConfig(
                block_size=50, seed=seed,
                max_time=workload.config.duration + 60.0,
            ),
        )
        t1 = time.perf_counter()
        tracer.set_phase("measure")
        report = run.run()
        t2 = time.perf_counter()
        tracer.enabled = False

        latency = report.latency
        shed = sum(report.sheds.values())
        check(
            latency.committed + latency.aborted + shed + latency.timeouts
            == generated,
            f"accounting: committed {latency.committed} + aborted "
            f"{latency.aborted} + shed {shed} + timeouts {latency.timeouts}"
            f" != arrivals {generated}",
        )
        check(latency.committed > 0, "nothing committed")
        data: dict[str, Any] = {
            "arrivals": generated,
            "committed": latency.committed,
            "aborted": latency.aborted,
            "shed": shed,
            "timeouts": latency.timeouts,
            "sheds": dict(report.sheds),
            "fingerprint": report.fingerprint,
            "sim_p50_ms": latency.p50 * 1000.0,
            "sim_p99_ms": latency.p99 * 1000.0,
            "sim_goodput_tps": latency.goodput_tps,
            "events": run.system.sim.events_processed,
            "blocks": run.system.ledger.height,
            "admitted": report.gateway_counters["admitted"],
            "batches": report.gateway_counters["batches"],
            "sig_hits": report.extra["sigcache.hits"],
            "sig_misses": report.extra["sigcache.misses"],
        }
        if traced:
            admit, order, commit = [], [], []
            ordered = 0
            for trace in run.ledger:
                if trace.admit is not None:
                    admit.append(trace.admit - trace.submit)
                if trace.order is not None:
                    ordered += 1
                    if trace.admit is not None:
                        order.append(trace.order - trace.admit)
                    if trace.commit is not None:
                        commit.append(trace.commit - trace.order)
            data["stages_ms"] = {
                name: (percentile(xs, 50) * 1e3, percentile(xs, 99) * 1e3)
                for name, xs in (
                    ("admit", admit), ("order", order), ("commit", commit))
            }
            data["ordered"] = ordered
        return Rep(traced=traced, inputs=inputs, setup_s=t1 - t0,
                   wall_s=t2 - t1, data=data)

    # -- metrics -------------------------------------------------------------

    def attempted(self, reps: list[Rep]) -> int:
        return sum(rep.data["arrivals"] for rep in reps)

    def end_to_end(self, reps: list[Rep]) -> dict[str, Any]:
        for rep in reps:
            rep.data["failed_frac"] = (
                1.0 - rep.data["committed"] / rep.data["arrivals"])
        return {
            "tx_per_s": (
                [rep.data["committed"] / rep.wall_s for rep in reps], "tx/s"),
            "failed_frac": (per_input(reps, "failed_frac"), "ratio"),
            "sim_p50_latency_ms": (per_input(reps, "sim_p50_ms"), "ms"),
            "sim_p99_latency_ms": (per_input(reps, "sim_p99_ms"), "ms"),
            "sim_goodput_tps": (per_input(reps, "sim_goodput_tps"), "tx/s"),
        }

    def per_layer(self, traced: list[Rep],
                  tracer_counts: dict[str, float]) -> dict[str, Any]:
        data = traced[0].data
        arrivals = data["arrivals"]
        blocks = data["blocks"]
        check(blocks > 0, "no decided blocks")
        stages = data["stages_ms"]
        sig_total = data["sig_hits"] + data["sig_misses"]
        out = {
            "gateway.shed_frac": (data["shed"] / arrivals, "ratio"),
            "gateway.batch_txs": (data["admitted"] / data["batches"], "tx"),
            "gateway.admit_ms_p50": (stages["admit"][0], "ms"),
            "gateway.admit_ms_p99": (stages["admit"][1], "ms"),
            "crypto.sign_calls_per_tx": (
                tracer_counts["MembershipService.sign"] / arrivals,
                "calls/tx"),
            "crypto.verify_calls_per_tx": (
                tracer_counts["MembershipService.verify"] / arrivals,
                "calls/tx"),
            "crypto.sigcache_hit_ratio": (
                data["sig_hits"] / sig_total if sig_total else 0.0, "ratio"),
            "crypto.sha256_calls_per_tx": (
                tracer_counts["sha256_hex@*"] / arrivals, "calls/tx"),
            "sim.events_per_tx": (data["events"] / arrivals, "events/tx"),
            "consensus.msgs_per_block": (
                tracer_counts["net.messages"] / blocks, "msgs/block"),
            "consensus.bytes_per_block": (
                tracer_counts["net.bytes"] / blocks, "B/block"),
            "consensus.digests_per_block": (
                tracer_counts["sha256_hex@repro.consensus.pbft"] / blocks,
                "digests/block"),
            "consensus.txs_per_block": (data["ordered"] / blocks, "tx/block"),
            "consensus.order_ms_p50": (stages["order"][0], "ms"),
            "consensus.order_ms_p99": (stages["order"][1], "ms"),
            "core.abort_frac": (data["aborted"] / data["admitted"], "ratio"),
            "core.commit_ms_p50": (stages["commit"][0], "ms"),
            "core.commit_ms_p99": (stages["commit"][1], "ms"),
            "ledger.snapshots_per_tx": (
                tracer_counts["StateStore.snapshot"] / arrivals, "calls/tx"),
        }
        for reason, count in sorted(data["sheds"].items()):
            out[f"gateway.shed.{reason}"] = (count, "count")
        # The re-hash finding: every request re-digests every decided
        # block, so digests per block must exceed the block count.
        out["consensus.decided_blocks"] = (blocks, "count")
        for name in ("MembershipService.sign", "Gateway.submit",
                     "PbftReplica.on_message", "StateStore.snapshot"):
            check(tracer_counts[name] > 0, f"traced entry point {name} "
                  "was never called")
        return out
