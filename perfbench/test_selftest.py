"""Self-test of the benchmark at reduced size (``--smoke``).

Run from the repository root::

    python3 -m pytest -q perfbench/test_selftest.py

Every workload must emit every metric with the unit that
``BENCHMARK.json`` declares, and each correctness check must fail when a
fault is planted for it. Runs happen in a scratch copy of the checkout,
so the repository's own ``.perfbench/`` records are never touched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Each workload's own user-facing numbers, reported by its traced run
#: (the other workloads report them as 0).
OWN_METRICS = {
    "gateway-xov": {"failed_frac", "sim_p50_latency_ms",
                    "sim_p99_latency_ms", "sim_goodput_tps"},
    "exec-pool": {"failed_frac"},
    "durable-paged": {"read_p50_us", "read_p99_us", "scan_p50_us",
                      "scan_p99_us", "recovery_s", "write_amp", "space_amp"},
}
#: Layers that must show self time in each workload's measured phase
#: (``workloads`` works only during set-up: ``workloads.gen_s``).
BUSY_LAYERS = {
    "gateway-xov": ("gateway", "crypto", "sim", "consensus", "core",
                    "execution", "ledger"),
    "exec-pool": ("crypto", "execution", "ledger"),
    "durable-paged": ("crypto", "execution", "ledger", "storage"),
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A scratch checkout: the program, the benchmark and its spec."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", root / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def run(cwd: Path, workload: str, trace: int = 0, seed: int = 5,
        plant: str | None = None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--smoke"]
    if plant:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


@pytest.mark.parametrize("workload", sorted(OWN_METRICS))
def test_end_to_end_metrics_emitted_with_units(checkout, workload):
    proc, result = run(checkout, workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(END_TO_END)
    for name, entry in metrics.items():
        assert entry["unit"] == END_TO_END[name]
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(OWN_METRICS))
def test_per_layer_metrics_emitted_with_units(checkout, workload):
    proc, result = run(checkout, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER)
    for name, entry in metrics.items():
        assert entry["unit"] == PER_LAYER[name]
    for layer in BUSY_LAYERS[workload]:
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer
    assert metrics["workloads.gen_s"]["value"] > 0
    for name in OWN_METRICS[workload]:
        assert metrics[name]["value"] > 0, name
    assert 0 <= metrics["trace.unattributed_frac"]["value"] < 0.1
    value = {name: entry["value"] for name, entry in metrics.items()}
    if workload == "gateway-xov":
        # The PBFT per-request re-hash: more digests than decided blocks.
        assert value["consensus.digests_per_block"] > \
            value["consensus.decided_blocks"]
    if workload == "durable-paged":
        # The per-block whole-state root walk: entries per block track
        # the live state (which grows from zero over the chain).
        assert value["storage.root_entries_per_block"] > \
            0.3 * value["storage.live_entries"]
        assert value["storage.bytes_written.wal"] > 0


@pytest.mark.parametrize("workload,plant,message", [
    ("gateway-xov", "drop-arrival", "accounting"),
    ("exec-pool", "oracle-value", "serially executed copy"),
    ("exec-pool", "undeclared-read", "diverged from the serial oracle"),
    ("durable-paged", "oracle-value", "oracle says"),
    ("durable-paged", "flip-run-byte", "StorageError"),
])
def test_planted_fault_is_caught(checkout, workload, plant, message):
    proc, result = run(checkout, workload, plant=plant)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert message in proc.stderr


def test_determinism_record_catches_drift(checkout):
    proc, result = run(checkout, "gateway-xov", seed=9)
    assert proc.returncode == 0 and result["correct"], proc.stderr
    record_path = checkout / ".perfbench" / "determinism.json"
    record = json.loads(record_path.read_text())
    tampered = 0
    for key, values in record.items():
        if key.startswith("gateway-xov/seed=9/"):
            values["fingerprint"] = "0" * 64
            tampered += 1
    assert tampered
    record_path.write_text(json.dumps(record))
    proc, result = run(checkout, "gateway-xov", seed=9)
    assert proc.returncode != 0 and result["correct"] is False
    assert "not deterministic" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, result = run(tmp_path, "gateway-xov")
    assert proc.returncode != 0
    assert result is None


def test_missing_entry_point_fails_loudly():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))

    class Layer:
        def present(self):
            return 1

    patcher = tracing.Patcher(tracing.Tracer())
    with pytest.raises(tracing.MissingEntryPoint):
        patcher.method(Layer, "renamed_away", "core")
    patcher.method(Layer, "present", "core")
    patcher.restore()
    assert "present" in Layer.__dict__ and Layer().present() == 1
