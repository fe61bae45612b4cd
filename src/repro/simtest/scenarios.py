"""One deterministic (scenario, fault plan) run, with invariants.

A :class:`ScenarioSpec` describes everything needed to reproduce a run
from nothing: the target (a bare consensus cluster or a full
transaction-processing architecture), its size and protocol, the
workload, the simulation seed, and any behaviour flags (e.g. the
re-introduced ghost-timer bug). :func:`run_scenario` builds the world,
compiles and injects the :class:`~repro.simtest.plan.PlanSpec`, drives
the run under the registered safety monitors, and returns every
invariant violation — which is the single predicate the explorer,
fuzzer, and shrinker all search against.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.common.errors import ConfigError, ReproError
from repro.common.types import Operation, OpType, Transaction
from repro.consensus import PROTOCOLS, ConsensusCluster
from repro.consensus.monitors import (
    MONITOR_REGISTRY,
    guarded_run_until_decided,
    standard_monitors,
)
from repro.core import SYSTEMS, SystemConfig
from repro.execution.serial import verify_serializable_commit
from repro.ledger.audit import verify_ledger_linkage
from repro.simtest.plan import PlanSpec

#: Architectures the DST engine fuzzes (the base OX / OXII / XOV trio
#: plus the XOV refinements that keep the serial-equivalence contract).
FUZZABLE_ARCHITECTURES = ("ox", "oxii", "xov", "fastfabric", "fabricpp")

#: Overlay byte budget installed by the durable ``spill`` flag. Tiny on
#: purpose: a fuzz workload writes a few hundred bytes per block, so
#: this forces budget-triggered spills within a couple of blocks and
#: crash schedules land mid-spill.
SPILL_FLAG_BUDGET_BYTES = 512


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible system-under-test description.

    ``target`` is ``"consensus"`` (a ``ConsensusCluster`` of
    ``protocol``), ``"system"`` (the ``architecture`` from
    ``repro.core.SYSTEMS`` ordering through ``protocol``),
    ``"durable"`` (a :class:`~repro.storage.durable.DurableCluster`:
    crash-recoverable nodes with WAL + snapshot storage behind seeded
    fault-injected backends — flags ``torn-disk`` / ``lying-disk``
    select the storage fault profile, flag ``paged`` makes recovery
    return the paged read path instead of a materialized store, and
    flag ``spill`` installs a tiny overlay byte budget so spills fire
    between snapshot intervals; compaction is always size-tiered), or
    ``"gateway"`` (an open-loop
    client population firing through the :mod:`repro.gateway` admission
    tier into ``architecture``, with client-side retries on). Consensus
    scenarios demand liveness by default — every within-budget schedule
    must still decide; system scenarios only demand safety (XOV may
    abort under contention, but must never commit conflicting writes);
    durable scenarios demand both liveness (every recovered node
    catches back up) and the serial-oracle equivalence audit; gateway
    scenarios demand safety plus *accounting*: no admitted transaction
    may be silently lost — every arrival ends committed, aborted, shed
    with a reason, or surfaced as a timeout.
    """

    target: str = "consensus"
    protocol: str = "raft"
    architecture: str = "xov"
    n: int = 4
    txs: int = 4
    seed: int = 0
    timeout: float = 60.0
    stall_after: float = 5.0
    #: Consensus submissions are staggered across [0, submit_span] so
    #: fault windows overlap live protocol activity instead of landing
    #: after a t=0 burst has already decided everything.
    submit_span: float = 3.0
    require_liveness: bool = True
    flags: tuple[str, ...] = ()
    invariants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.target not in ("consensus", "system", "durable", "gateway"):
            raise ConfigError(f"unknown scenario target {self.target!r}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if (
            self.target in ("system", "gateway")
            and self.architecture not in SYSTEMS
        ):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        unknown = [
            name for name in self.invariants if name not in MONITOR_REGISTRY
        ]
        if unknown:
            raise ConfigError(
                f"unknown invariants {unknown}; "
                f"registered: {sorted(MONITOR_REGISTRY)}"
            )

    @property
    def byzantine(self) -> bool:
        return PROTOCOLS[self.protocol][1]

    @property
    def cluster_n(self) -> int:
        """Actual cluster size (fault-model minimums enforced)."""
        return max(self.n, 4 if self.byzantine else 3)

    @property
    def replica_ids(self) -> tuple[str, ...]:
        prefix = "d" if self.target == "durable" else "r"
        return tuple(f"{prefix}{i}" for i in range(self.cluster_n))

    @property
    def fault_budget(self) -> int:
        """Max simultaneous crashes a within-budget plan may hold."""
        n = self.cluster_n
        return (n - 1) // 3 if self.byzantine else (n - 1) // 2

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "target": self.target,
            "protocol": self.protocol,
            "n": self.n,
            "txs": self.txs,
            "seed": self.seed,
            "timeout": self.timeout,
            "stall_after": self.stall_after,
            "submit_span": self.submit_span,
            "require_liveness": self.require_liveness,
        }
        if self.target in ("system", "gateway"):
            out["architecture"] = self.architecture
        if self.flags:
            out["flags"] = list(self.flags)
        if self.invariants:
            out["invariants"] = list(self.invariants)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            target=data.get("target", "consensus"),
            protocol=data.get("protocol", "raft"),
            architecture=data.get("architecture", "xov"),
            n=int(data.get("n", 4)),
            txs=int(data.get("txs", 4)),
            seed=int(data.get("seed", 0)),
            timeout=float(data.get("timeout", 60.0)),
            stall_after=float(data.get("stall_after", 5.0)),
            submit_span=float(data.get("submit_span", 3.0)),
            require_liveness=bool(data.get("require_liveness", True)),
            flags=tuple(data.get("flags", ())),
            invariants=tuple(data.get("invariants", ())),
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


@dataclass
class ScenarioResult:
    """Outcome of one (scenario, plan) run."""

    decided: bool
    violations: list[str] = field(default_factory=list)
    diagnostic: str | None = None
    committed: int = 0
    aborted: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


@contextlib.contextmanager
def _behaviour_flags(flags: tuple[str, ...]):
    """Toggle named behaviour flags for the duration of one run."""
    import repro.sim.node as node_module

    # torn-disk / lying-disk are storage fault profiles, paged the
    # recovery mode, and spill a small overlay byte budget forcing
    # mid-interval spills — all consumed by the durable target directly;
    # they toggle nothing global.
    known = {"ghost-timers", "torn-disk", "lying-disk", "paged", "spill"}
    unknown = set(flags) - known
    if unknown:
        raise ConfigError(f"unknown behaviour flags {sorted(unknown)}")
    previous = node_module.GHOST_TIMER_BUG
    node_module.GHOST_TIMER_BUG = "ghost-timers" in flags
    try:
        yield
    finally:
        node_module.GHOST_TIMER_BUG = previous


def _make_monitors(scenario: ScenarioSpec):
    if scenario.invariants:
        return [MONITOR_REGISTRY[name]() for name in scenario.invariants]
    if scenario.target == "durable":
        # The standard consensus monitors assume decided logs that only
        # grow; a durable node legitimately re-commits its WAL tail
        # after recovery, so the dedicated invariant is the default.
        return [MONITOR_REGISTRY["durable-recovery"]()]
    return standard_monitors()


def run_scenario(
    scenario: ScenarioSpec, plan: PlanSpec | None = None
) -> ScenarioResult:
    """Build the scenario's world, inject ``plan``, run, audit.

    Same (scenario, plan) in, same :class:`ScenarioResult` out —
    bit-for-bit, which is the property the shrinker and the capsule
    replay rely on.
    """
    plan = plan or PlanSpec()
    with _behaviour_flags(scenario.flags):
        if scenario.target == "consensus":
            return _run_consensus(scenario, plan)
        if scenario.target == "durable":
            return _run_durable(scenario, plan)
        if scenario.target == "gateway":
            return _run_gateway(scenario, plan)
        return _run_system(scenario, plan)


def _run_consensus(scenario: ScenarioSpec, plan: PlanSpec) -> ScenarioResult:
    cls, byzantine = PROTOCOLS[scenario.protocol]
    cluster = ConsensusCluster(
        cls, n=scenario.cluster_n, byzantine=byzantine, seed=scenario.seed
    )
    monitors = _make_monitors(scenario)
    for monitor in monitors:
        cluster.add_monitor(monitor)
    plan.build().apply_to_cluster(cluster)
    # Submissions are staggered across the fault horizon and retried
    # PBFT-client-style (retransmit until every live correct replica
    # holds the decision) — a fire-and-forget submit can vanish into a
    # partition window through no fault of the protocol. The submitter
    # replica is never a crash victim (see random_plan/default_axes):
    # submitting through a crashed node measures the client, not the
    # cluster.
    submitter = scenario.replica_ids[-1]
    retry_every = 0.75

    def submit_with_retry(value: str) -> None:
        live = [r for r in cluster.correct_replicas() if not r.crashed]
        if live and all(value in r.decided for r in live):
            return
        cluster.replicas[submitter].submit(value)
        cluster.sim.schedule(retry_every, submit_with_retry, value)

    span = scenario.submit_span
    step = span / scenario.txs if scenario.txs else 0.0
    for i in range(scenario.txs):
        cluster.sim.schedule_at(
            round(i * step, 6), submit_with_retry, f"{scenario.protocol}-{i}"
        )
    outcome = guarded_run_until_decided(
        cluster,
        scenario.txs,
        timeout=scenario.timeout,
        stall_after=scenario.stall_after,
    )
    violations = list(outcome.violations)
    if not cluster.agreement_holds():
        violations.append("safety: decided logs are not prefix-consistent")
    diagnostic = (
        outcome.diagnostic.summary() if outcome.diagnostic is not None else None
    )
    if scenario.require_liveness and not outcome.decided:
        # Surface the structured stall diagnostic in the failure payload
        # itself — a bare "did not decide" is undebuggable.
        violations.append(
            "liveness: goal not reached\n" + (diagnostic or "(no diagnostic)")
        )
    return ScenarioResult(
        decided=outcome.decided,
        violations=violations,
        diagnostic=diagnostic,
        committed=min(len(r.decided) for r in cluster.correct_replicas())
        if cluster.correct_replicas()
        else 0,
    )


def _run_durable(scenario: ScenarioSpec, plan: PlanSpec) -> ScenarioResult:
    """One chaos run against a crash-recoverable durable cluster.

    Liveness: every node that is *up* at the end has caught back up to
    the canonical tip (a node deliberately left crashed by the plan is
    down, not behind — mirroring ``correct_replicas`` for consensus).
    Safety: the monitor's recovery-prefix checks plus the end-of-run
    serial-oracle audit (tip hash and Merkle state root byte-identical
    to a no-crash serial execution).
    """
    from repro.storage.durable import DurableCluster

    profile: dict[str, float] = {}
    if "torn-disk" in scenario.flags:
        profile.update(partial_write=0.35, bit_flip=0.25)
    if "lying-disk" in scenario.flags:
        profile.update(fsync_lost=0.3)
    cluster = DurableCluster(
        n=scenario.cluster_n,
        txs=max(4, scenario.txs),
        seed=scenario.seed,
        fault_profile=profile or None,
        # flag "paged": recovery returns a PagedStateStore serving reads
        # straight from blocked run files; the audit still compares its
        # state root against the serial oracle, so paged-vs-materialized
        # divergence surfaces as a violation.
        paged="paged" in scenario.flags,
        # flag "spill": a deliberately tiny overlay budget so snapshot
        # spills fire *between* intervals and crashes land mid-spill.
        overlay_budget_bytes=(
            SPILL_FLAG_BUDGET_BYTES if "spill" in scenario.flags else 0
        ),
    )
    monitors = _make_monitors(scenario)
    for monitor in monitors:
        cluster.add_monitor(monitor)
    plan.build().apply(cluster.sim, cluster.network)
    # The run must outlive the last scheduled fault: caught_up() ignores
    # crashed nodes, so stopping early would skip the very recovery the
    # plan injects.
    last_fault = max(
        (fault.end if fault.end is not None else fault.time
         for fault in plan.faults),
        default=0.0,
    )
    decided = cluster.run(
        timeout=scenario.timeout, min_time=last_fault + 1e-6
    )
    violations: list[str] = []
    for monitor in monitors:
        monitor.check()
        violations.extend(monitor.violations)
    if decided:
        violations.extend(cluster.durable_audit())
    elif scenario.require_liveness:
        behind = sorted(
            node_id
            for node_id, node in cluster.nodes.items()
            if not node.crashed
            and (node.recovering or node.tail.height < cluster.chain.height)
        )
        violations.append(
            "liveness: recovered nodes never caught up to the canonical "
            f"tip ({', '.join(behind) or 'none live'})"
        )
    committed = min(
        (
            node.tail.height
            for node in cluster.nodes.values()
            if not node.crashed and not node.recovering
        ),
        default=0,
    )
    return ScenarioResult(
        decided=decided, violations=violations, committed=committed
    )


def _make_workload(scenario: ScenarioSpec) -> list[Transaction]:
    """A contended KV workload: blind writes and read-modify-writes over
    a small hot key space, so XOV-family validation has real conflicts
    to catch (and the serializability audit real work to do)."""
    import random

    rng = random.Random(scenario.seed + 0x5EED)
    txs: list[Transaction] = []
    keys = [f"k{i}" for i in range(max(4, scenario.txs // 4))]
    for i in range(scenario.txs):
        key = rng.choice(keys)
        if rng.random() < 0.5:
            txs.append(Transaction.create(
                "kv_set", (key, i),
                declared_ops=(Operation(OpType.WRITE, key),),
            ))
        else:
            txs.append(Transaction.create(
                "increment", (key, 1),
                declared_ops=(Operation(OpType.READ_WRITE, key),),
            ))
    return txs


def _run_system(scenario: ScenarioSpec, plan: PlanSpec) -> ScenarioResult:
    system_cls = SYSTEMS[scenario.architecture]
    system = system_cls(
        SystemConfig(
            orderers=scenario.cluster_n,
            protocol=scenario.protocol,
            block_size=max(2, scenario.txs // 4),
            seed=scenario.seed,
            max_time=scenario.timeout,
        )
    )
    monitors = _make_monitors(scenario)
    for monitor in monitors:
        system.cluster.add_monitor(monitor)
    plan.build().apply(system.sim, system.cluster.network)
    for tx in _make_workload(scenario):
        system.submit(tx)
    result = system.run()
    violations: list[str] = []
    for monitor in monitors:
        monitor.check()
        violations.extend(monitor.violations)
    committed = system.committed_tx_ids()
    violations.extend(verify_ledger_linkage(system.ledger, committed))
    violations.extend(
        verify_serializable_commit(
            system.ledger, system.store, system.registry, committed
        )
    )
    return ScenarioResult(
        decided=True,
        violations=violations,
        committed=result.committed,
        aborted=result.aborted,
    )


def _run_gateway(scenario: ScenarioSpec, plan: PlanSpec) -> ScenarioResult:
    """One chaos run against the full client → gateway → system path.

    Safety is audited exactly as for the ``system`` target (standard
    monitors, ledger linkage, serializable commit). On top of that the
    gateway target audits *accounting*: every open-loop arrival must
    end in exactly one terminal status, the terminal tallies must sum
    back to the arrival count, and the gateway's bounded-queue
    telemetry must respect its configured bounds — a crash or partition
    may strand transactions (they surface as timeouts), but nothing may
    be silently lost.
    """
    from repro.gateway import GatewayConfig, GatewayRun
    from repro.workloads.openloop import OpenLoopConfig, OpenLoopWorkload, Phase

    last_fault = max(
        (fault.end if fault.end is not None else fault.time
         for fault in plan.faults),
        default=0.0,
    )
    # Traffic must outlive the last fault window so shedding and retry
    # paths actually run under the injected chaos.
    duration = max(2.0, min(last_fault + 1.0, scenario.timeout / 2.0))
    rate = max(50.0, scenario.txs * 12.5)
    workload = OpenLoopWorkload(OpenLoopConfig(
        clients=64,
        client_theta=0.9,
        n_keys=32,
        key_theta=0.8,
        invalid_fraction=0.02,
        phases=(Phase("steady", duration, rate),),
        seed=scenario.seed,
    ))
    gateway_config = GatewayConfig(
        # Hot clients exceed this budget under the Zipfian skew, so the
        # rate-limited shed + retry paths run on every schedule.
        rate=max(2.0, rate / 16.0),
        burst=5.0,
        queue_capacity=64,
        max_in_flight=256,
        batch_size=10,
        max_retries=2,
    )
    run = GatewayRun(
        scenario.architecture,
        workload,
        gateway_config=gateway_config,
        system_config=SystemConfig(
            orderers=scenario.cluster_n,
            protocol=scenario.protocol,
            block_size=10,
            seed=scenario.seed,
            max_time=scenario.timeout,
        ),
    )
    monitors = _make_monitors(scenario)
    for monitor in monitors:
        run.system.cluster.add_monitor(monitor)
    plan.build().apply(run.system.sim, run.system.cluster.network)
    report = run.run()
    violations: list[str] = []
    for monitor in monitors:
        monitor.check()
        violations.extend(monitor.violations)
    committed = run.system.committed_tx_ids()
    violations.extend(verify_ledger_linkage(run.system.ledger, committed))
    violations.extend(
        verify_serializable_commit(
            run.system.ledger,
            run.system.store,
            run.system.registry,
            committed,
        )
    )
    latency = report.latency
    stuck = sorted(t.tx_id for t in run.ledger if not t.terminal)
    if stuck:
        violations.append(
            f"accounting: {len(stuck)} transactions never reached a "
            f"terminal status ({', '.join(stuck[:5])}…)"
        )
    accounted = (
        latency.committed + latency.aborted
        + latency.shed_total + latency.timeouts
    )
    if accounted != latency.arrivals:
        violations.append(
            "accounting: terminal tallies do not sum to arrivals "
            f"({latency.committed} committed + {latency.aborted} aborted "
            f"+ {latency.shed_total} shed + {latency.timeouts} timeouts "
            f"!= {latency.arrivals})"
        )
    if latency.arrivals != len(run.arrivals):
        violations.append(
            f"accounting: ledger saw {latency.arrivals} arrivals, "
            f"workload generated {len(run.arrivals)}"
        )
    gateway = run.gateway
    if gateway.max_queued_seen > gateway_config.queue_capacity:
        violations.append(
            f"bounds: batch queue reached {gateway.max_queued_seen} "
            f"> capacity {gateway_config.queue_capacity}"
        )
    if gateway.max_in_flight_seen > gateway_config.max_in_flight:
        violations.append(
            f"bounds: in-flight window reached "
            f"{gateway.max_in_flight_seen} > {gateway_config.max_in_flight}"
        )
    if scenario.require_liveness and latency.committed == 0:
        violations.append(
            "liveness: nothing committed through the gateway "
            f"(sheds={latency.shed_total}, timeouts={latency.timeouts})"
        )
    return ScenarioResult(
        decided=True,
        violations=violations,
        committed=latency.committed,
        aborted=latency.aborted,
    )


def violates(scenario: ScenarioSpec, plan: PlanSpec) -> bool:
    """The search predicate: does ``plan`` break any invariant?

    Plans that fail to *build* (e.g. a shrink probe collapsed a window
    to zero width) count as non-violating rather than erroring — the
    shrinker simply keeps the last plan that really reproduces.
    """
    try:
        return bool(run_scenario(scenario, plan).violations)
    except (ConfigError, ReproError):
        return False
