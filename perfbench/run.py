"""The repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gateway-xov --seed 1 --seconds 35 \
        --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics every workload shares (set-up time, throughput, peak memory);
``--trace 1`` alternates untraced and traced repetitions of the same
workload and prints the per-layer metrics (self time per layer from spans
recorded around public entry points, plus counts and ratios) and the
workload's own user-facing numbers from its untraced repetitions. The
last line of standard output is the JSON result; the line before it,
prefixed ``perfbench-info``, names the machine, the code, the
configuration, and each timing's median, 90th percentile and sample
count. Workloads, metrics and bounds are listed in ``BENCHMARK.json``;
``perfbench/NOTE.md`` says why each exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from pathlib import Path

import harness
import tracing

ROOT = Path.cwd()
MEASURED_PHASES = ("measure", "read-get", "read-scan")
GEN_SPANS = ("OpenLoopWorkload.arrivals", "KvWorkload.generate")
#: The end-to-end metrics: every workload reports each of them, untraced.
COMMON_END_TO_END = ("setup_s", "tx_per_s", "peak_rss_mb")
#: Spans written out per traced run (the last traced repetition).
SPAN_LIMIT = 200_000


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-test only: reduced workload sizes")
    parser.add_argument(
        "--plant", default=None,
        help="self-test only: plant a fault the checks must catch "
             "(drop-arrival, oracle-value, undeclared-read, flip-run-byte)")
    return parser.parse_args(argv)


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def make_workload(name: str, plant: str | None, smoke: bool):
    if name == "gateway-xov":
        from gateway_xov import GatewayXov
        return GatewayXov(plant, smoke)
    if name == "exec-pool":
        from exec_pool import ExecPool
        return ExecPool(plant, smoke)
    if name == "durable-paged":
        from durable_paged import DurablePaged
        return DurablePaged(plant, smoke, ROOT)
    raise SystemExit(f"unknown workload {name!r}")


def trace_summary(tracer) -> dict:
    """What one traced repetition leaves behind for the per-layer
    metrics (the span arrays are reused by the next repetition)."""
    measured = tracer.summarize(MEASURED_PHASES)
    setup = tracer.summarize(("setup",))
    counts = tracer.counts_by_name(MEASURED_PHASES)
    counts.update(tracer.values)
    return {
        "layer_self_ns": measured["layer_self_ns"],
        "name_total_ns": measured["name_total_ns"],
        "covered_ns": measured["covered_ns"],
        "spans": measured["spans"],
        "gen_ns": sum(setup["name_total_ns"].get(n, 0) for n in GEN_SPANS),
        "counts": counts,
    }


def traced_counts(reps, names) -> dict:
    """Counts of the traced repetitions that must repeat exactly (they
    all run input set 0)."""
    traced = [rep for rep in reps if rep.traced]
    first = {f"traced.{name}": traced[0].data["trace"]["counts"][name]
             for name in names}
    for rep in traced[1:]:
        for name in names:
            harness.check(
                rep.data["trace"]["counts"][name] == first[f"traced.{name}"],
                f"traced count {name} differs between repetitions")
    return first


def per_layer_metrics(workload, reps) -> dict:
    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]

    def measured(rep) -> float:
        return rep.data.get("measured_s", rep.wall_s)

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (harness.median(
            [rep.data["trace"]["layer_self_ns"].get(layer, 0) / 1e9
             for rep in traced]), "s")
        out[f"{layer}.share"] = (harness.median(
            [rep.data["trace"]["layer_self_ns"].get(layer, 0) / 1e9
             / measured(rep) for rep in traced]), "ratio")
    out["workloads.gen_s"] = (harness.median(
        [rep.data["trace"]["gen_ns"] / 1e9 for rep in traced]), "s")
    harness.check(out["workloads.gen_s"][0] > 0,
                  "input generation was never traced")
    out["trace.unattributed_frac"] = (harness.median(
        [1.0 - rep.data["trace"]["covered_ns"] / 1e9 / measured(rep)
         for rep in traced]), "ratio")
    out["trace.overhead_frac"] = (
        harness.median([measured(rep) for rep in traced])
        / harness.median([measured(rep) for rep in plain]) - 1.0, "ratio")
    # Counts come from the first traced repetition, so they do not
    # depend on how many repetitions fitted in the run.
    out.update(workload.per_layer(traced, traced[0].data["trace"]["counts"]))
    # The workload's own user-facing numbers (latencies, amplification,
    # failed share) apply to one workload each, so they are reported
    # here, from the untraced repetitions, and not as end-to-end metrics
    # every workload must print.
    for name, (values, unit) in workload.end_to_end(plain).items():
        if name not in COMMON_END_TO_END:
            out[name] = (harness.median(values), unit)
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT} — run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{spec['workloads']}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = make_workload(args.workload, args.plant, args.smoke)
    tracer = tracing.Tracer()
    patcher = tracing.Patcher(tracer)
    reps: list = []
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": harness.machine_info(ROOT),
        "config": workload.config_note,
    }
    try:
        if args.trace:
            workload.install(patcher)

        def run_rep(traced: bool, inputs: int):
            if traced:
                tracer.reset()
            seed = harness.input_seed(args.seed, inputs,
                                      workload.inputs_per_run)
            # Collect the last repetition's garbage first, so it is not
            # collected (and counted) inside this one.
            gc.collect()
            harness.reset_peak_rss()
            rep = workload.rep(traced, tracer, inputs, seed)
            rep.peak_rss_mb = harness.peak_rss_mb()
            if traced:
                rep.data["trace"] = trace_summary(tracer)
            return rep

        reps = harness.repeat(args.seconds, workload.inputs_per_run, run_rep,
                              bool(args.trace))
        deterministic = harness.deterministic(reps, workload.DETERMINISTIC)
        if args.trace:
            deterministic["inputs=0"].update(
                traced_counts(reps, workload.TRACED_DETERMINISTIC))
        harness.DeterminismRecord(
            ROOT, args.workload, args.seed, info["machine"], args.smoke,
        ).check_and_store(deterministic)
        if args.trace:
            raw = per_layer_metrics(workload, reps)
            expected = spec["per_layer"]
        else:
            samples = workload.end_to_end(reps)
            samples["setup_s"] = ([rep.setup_s for rep in reps], "s")
            # Peak memory per repetition, so it does not grow with the
            # number of repetitions that fit in the run.
            samples["peak_rss_mb"] = ([rep.peak_rss_mb for rep in reps],
                                      "MB")
            info["timings"] = {name: harness.summary(values)
                               for name, (values, _unit) in samples.items()}
            raw = {name: (harness.median(samples[name][0]), samples[name][1])
                   for name in COMMON_END_TO_END}
            expected = spec["end_to_end"]
            harness.check(set(raw) == set(expected),
                          f"end-to-end metrics {sorted(raw)} differ from "
                          f"BENCHMARK.json's {sorted(expected)}")
            for name, (value, _unit) in raw.items():
                harness.check(value > 0, f"end-to-end metric {name} is "
                              f"{value}, not positive")
        metrics = {}
        for name, (value, unit) in sorted(raw.items()):
            harness.check(name in expected,
                          f"metric {name} is not declared in BENCHMARK.json")
            harness.check(unit == expected[name],
                          f"{name}: unit {unit!r} but BENCHMARK.json says "
                          f"{expected[name]!r}")
            metrics[name] = harness.metric(float(value), unit)
        if args.trace:
            # Layers a workload does not reach report zero, so every
            # traced output names every per-layer metric.
            for name, unit in expected.items():
                metrics.setdefault(name, harness.metric(0.0, unit))
        info["deterministic"] = deterministic
        info["reps"] = len(reps)
        info["elapsed_s"] = time.perf_counter() - started
        result = {
            "correct": True,
            "attempted": workload.attempted(reps),
            "failed": 0,
            "metrics": dict(sorted(metrics.items())),
        }
    except Exception:  # any failure fails the run, with its traceback
        traceback.print_exc()
        info["error"] = traceback.format_exc(limit=3)
        result = {"correct": False,
                  "attempted": max(1, len(reps)), "failed": 1, "metrics": {}}
    finally:
        patcher.restore()
        tracer.enabled = False

    out_dir = ROOT / harness.OUT_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace and result["correct"]:
        info["spans_written"] = tracer.write_jsonl(
            str(out_dir / f"{stem}.spans.jsonl"), SPAN_LIMIT)
        info["spans_recorded"] = len(tracer.starts)
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1))
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
