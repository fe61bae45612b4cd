"""Shared plumbing: the repetition loop, statistics, machine facts, the
cross-run determinism record and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Where runs leave their records, spans and scratch files (inside the
#: checkout; ignored by git).
OUT_DIR = ".perfbench"


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def summary(values: list[float]) -> dict[str, Any]:
    """Median, 90th percentile and sample count of one timing, with the
    samples themselves."""
    return {"median": median(values), "p90": percentile(values, 90),
            "n": len(values), "values": values}


def reset_peak_rss() -> None:
    """Restart the kernel's peak-resident-memory mark of this process."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory of this process since ``reset_peak_rss`` —
    ``VmHWM`` of /proc/self/status, which Linux reports in KiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def proc_bytes_written() -> int:
    """Bytes this process has passed to write(2) — ``wchar`` of
    /proc/self/io. Raises when the kernel does not expose it."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without running git; ``unknown`` when
    the checkout is not a git repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if ref.startswith("ref: "):
        try:
            return (root / ".git" / ref[5:]).read_text().strip()
        except OSError:
            packed = root / ".git" / "packed-refs"
            try:
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        return line.split()[0]
            except OSError:
                pass
            return "unknown"
    return ref


def source_digest(directory: Path) -> str:
    """SHA-256 over every Python file under ``directory`` — names the
    measured code even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_info(root: Path) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root / "src" / "repro"),
        "bench_digest": source_digest(Path(__file__).resolve().parent),
    }


@dataclass
class Rep:
    """One repetition: which inputs it ran, set-up time, measured wall
    time, peak memory, and whatever the workload reports about it."""

    traced: bool
    inputs: int
    setup_s: float
    wall_s: float
    data: dict[str, Any] = field(default_factory=dict)
    #: Peak resident memory of the process during the repetition.
    peak_rss_mb: float = 0.0


def input_seed(seed: int, sub: int, inputs_per_run: int) -> int:
    """The seed of the ``sub``-th input set of run ``seed``."""
    return seed * inputs_per_run + sub


def repeat(seconds: float, inputs_per_run: int,
           run_rep: Callable[[bool, int], Rep], trace: bool) -> list[Rep]:
    """Run repetitions for about ``seconds``.

    Untraced runs cycle through ``inputs_per_run`` input sets (each at
    least once), so a run's medians average over several inputs of its
    seed. Traced runs alternate untraced / traced repetitions on input
    set 0 (at least two of each), so the tracing overhead is measured in
    the same process on the same inputs. A repetition is started only
    while the typical repetition still fits before the deadline.

    One untraced repetition runs first and is discarded: the
    interpreter's specialised code, the allocator's arenas and the
    program's bounded caches warm up in it. Without it the first
    measured repetition was a run's slowest."""
    deadline = time.monotonic() + seconds
    run_rep(False, 0)
    needed = 4 if trace else inputs_per_run
    reps: list[Rep] = []
    durations: list[float] = []
    while True:
        n = len(reps)
        traced = trace and n % 2 == 1
        started = time.monotonic()
        reps.append(run_rep(traced, 0 if trace else n % inputs_per_run))
        durations.append(time.monotonic() - started)
        if len(reps) < needed or (trace and len(reps) % 2):
            continue
        typical = median(durations[-4:]) * (2 if trace else 1)
        if time.monotonic() + typical > deadline:
            return reps


def per_input(reps: list[Rep], key: str) -> list[Any]:
    """``data[key]`` once per input set (values that depend only on the
    inputs)."""
    seen: dict[int, Any] = {}
    for rep in reps:
        seen.setdefault(rep.inputs, rep.data[key])
    return [seen[inputs] for inputs in sorted(seen)]


def deterministic(reps: list[Rep], names: tuple[str, ...]) -> dict:
    """Values that must be identical in every repetition on the same
    inputs; returns them per input set."""
    out: dict[str, dict[str, Any]] = {}
    for rep in reps:
        first = out.setdefault(f"inputs={rep.inputs}",
                               {name: rep.data[name] for name in names})
        for name in names:
            check(rep.data[name] == first[name],
                  f"{name} differs between repetitions on inputs "
                  f"{rep.inputs}: {first[name]!r} vs {rep.data[name]!r}")
    return out


class DeterminismRecord:
    """Values that must repeat exactly at one seed, kept across runs in
    ``.perfbench/determinism.json`` inside the checkout. Records are
    keyed by the digests of the program and of the benchmark, so a
    change to either starts a fresh record."""

    def __init__(self, root: Path, workload: str, seed: int,
                 machine: dict[str, Any], smoke: bool) -> None:
        self.path = root / OUT_DIR / "determinism.json"
        self.key = (f"{workload}/seed={seed}/src={machine['source_digest']}"
                    f"/bench={machine['bench_digest']}"
                    f"/size={'smoke' if smoke else 'full'}")

    def _load(self) -> dict[str, Any]:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def check_and_store(self, values: dict[str, dict[str, Any]]) -> None:
        """Fail when a value differs from an earlier run at this seed;
        record values seen for the first time."""
        record = self._load()
        for inputs, named in sorted(values.items()):
            seen = record.setdefault(f"{self.key}/{inputs}", {})
            for name, value in sorted(named.items()):
                if name in seen:
                    check(seen[name] == value,
                          f"{name} is not deterministic at {self.key}/"
                          f"{inputs}: {value!r} now, {seen[name]!r} in an "
                          "earlier run")
                else:
                    seen[name] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_suffix(f".{os.getpid()}.tmp")
        temp.write_text(json.dumps(record, indent=1, sort_keys=True))
        os.replace(temp, self.path)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}
