"""Span tracing from outside the program, for the traced benchmark run.

The benchmark never edits ``src/``. Instead, during a traced run it
replaces public entry points of the ``repro`` layers with thin wrappers
that record one span per call: name, layer, start, end and the span that
was open when the call began. Everything is undone by
:meth:`Patcher.restore` when the run ends, and the untraced runs that
produce the end-to-end metrics never see a wrapper.

Layers are the modules of ``src/repro``: a span's layer is named by the
caller of :func:`Patcher.method`/:func:`Patcher.function`, and callbacks
scheduled on the simulator take the layer of the module that defines
them. A layer's self time is the time its spans were open minus the time
covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

LAYERS = (
    "workloads", "gateway", "crypto", "sim", "consensus", "core",
    "execution", "ledger", "storage",
)

_now_ns = time.perf_counter_ns


class MissingEntryPoint(RuntimeError):
    """A public function the trace relies on no longer exists."""


def layer_of_module(module: str) -> str:
    """``repro.<layer>.…`` → ``<layer>``; anything else → ``other``."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """In-memory span store plus per-phase call counters.

    Spans live in flat arrays (start, end, parent, name id, phase id) so
    a run of a million spans costs tens of megabytes, not hundreds.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[tuple[str, str]] = []  # (name, layer) per id
        self._name_ids: dict[tuple[str, str], int] = {}
        self.phases: list[str] = []
        self._phase_ids: dict[str, int] = {}
        self.phase = self._phase_id("setup")
        self.reset()
        # Forked workers inherit the wrappers but must not record: their
        # spans would be lost with the process and grow its memory.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.name_ids = array("l")
        self.phase_ids = array("l")
        self._stack: list[int] = []
        self.counts: Counter = Counter()  # (phase, name) -> calls
        self.values: Counter = Counter()  # free-form sums fed by hooks

    def _phase_id(self, phase: str) -> int:
        pid = self._phase_ids.get(phase)
        if pid is None:
            pid = self._phase_ids[phase] = len(self.phases)
            self.phases.append(phase)
        return pid

    def set_phase(self, phase: str) -> None:
        self.phase = self._phase_id(phase)

    def name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def call(self, nid: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        idx = len(self.starts)
        self.parents.append(stack[-1] if stack else -1)
        self.name_ids.append(nid)
        self.phase_ids.append(self.phase)
        self.ends.append(0)
        self.counts[(self.phase, nid)] += 1
        stack.append(idx)
        self.starts.append(_now_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = _now_ns()
            stack.pop()

    def open_span_names(self) -> list[str]:
        """Names of the spans open right now, outermost first."""
        return [self.names[self.name_ids[i]][0] for i in self._stack]

    # -- analysis -------------------------------------------------------------

    def counts_by_name(self, phases: tuple[str, ...]) -> Counter:
        """Calls per span name over ``phases``; ``name@*`` sums the
        per-caller spans of one function and ``<phase>:<name>`` keeps
        each phase's own count."""
        out: Counter = Counter()
        for (pid, nid), calls in self.counts.items():
            phase = self.phases[pid]
            if phase not in phases:
                continue
            name = self.names[nid][0]
            out[name] += calls
            out[f"{phase}:{name}"] += calls
            if "@" in name:
                out[name.split("@")[0] + "@*"] += calls
        return out

    def summarize(self, phases: tuple[str, ...]) -> dict[str, Any]:
        """Self time per layer, inclusive time per span name and the time
        covered by root spans, over the spans recorded in ``phases``."""
        wanted = {self._phase_ids[p] for p in phases if p in self._phase_ids}
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        names, phases = self.name_ids, self.phase_ids
        child = [0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        layer_self: Counter = Counter()
        name_total: Counter = Counter()
        covered = spans = 0
        for i in range(n):
            if phases[i] not in wanted:
                continue
            spans += 1
            duration = ends[i] - starts[i]
            name, layer = self.names[names[i]]
            layer_self[layer] += duration - child[i]
            name_total[name] += duration
            if parents[i] < 0:
                covered += duration
        return {
            "layer_self_ns": dict(layer_self),
            "name_total_ns": dict(name_total),
            "covered_ns": covered,
            "spans": spans,
        }

    def write_jsonl(self, path: str, limit: int) -> int:
        """Write up to ``limit`` spans as JSON lines; returns how many."""
        written = min(limit, len(self.starts))
        with open(path, "w", encoding="utf-8") as out:
            for i in range(written):
                name, layer = self.names[self.name_ids[i]]
                out.write(json.dumps({
                    "id": i,
                    "name": name,
                    "layer": layer,
                    "phase": self.phases[self.phase_ids[i]],
                    "start_ns": self.starts[i],
                    "end_ns": self.ends[i],
                    "parent": self.parents[i],
                }, separators=(",", ":")) + "\n")
        return written


class Patcher:
    """Installs span wrappers on public entry points and undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[Callable[[], None]] = []

    def _wrapper(self, fn: Callable, name: str, layer: str,
                 eager: bool = False) -> Callable:
        tracer = self.tracer
        nid = tracer.name_id(name, layer)
        if eager:
            # Generator-returning entry points: consume inside the span
            # so the span covers the work, then hand back an iterator.
            def run(*args: Any, **kwargs: Any) -> Any:
                return list(fn(*args, **kwargs))

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return iter(tracer.call(nid, run, args, kwargs))
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return tracer.call(nid, fn, args, kwargs)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def method(self, cls: type, attr: str, layer: str, *,
               eager: bool = False,
               hook: Callable[..., None] | None = None) -> None:
        """Wrap ``cls.attr`` (own or inherited). ``hook(*args)`` runs
        before each traced call, for counts that need the arguments."""
        original = getattr(cls, attr, None)
        if original is None or not callable(original):
            raise MissingEntryPoint(f"{cls.__module__}.{cls.__name__}.{attr}")
        had_own = attr in cls.__dict__
        target = original
        if hook is not None:
            tracer = self.tracer

            def target(*args: Any, **kwargs: Any) -> Any:
                if tracer.enabled:
                    hook(*args, **kwargs)
                return original(*args, **kwargs)
        setattr(cls, attr,
                self._wrapper(target, f"{cls.__name__}.{attr}", layer, eager))

        def undo() -> None:
            if had_own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)
        self._undo.append(undo)

    def function(self, module: str, attr: str, layer: str, *,
                 hook: Callable[..., None] | None = None,
                 per_caller: bool = False) -> int:
        """Wrap function ``module.attr`` in every loaded ``repro`` module
        that imported it (the name the callers resolve at call time).
        With ``per_caller`` the span name carries the importing module,
        so calls can be counted per caller; ``hook(importer, *args)``
        runs before each traced call. Returns the modules patched.
        """
        try:
            original = getattr(importlib.import_module(module), attr)
        except AttributeError:
            raise MissingEntryPoint(f"{module}.{attr}") from None
        tracer = self.tracer

        def with_hook(caller: str) -> Callable:
            if hook is None:
                return original

            def target(*args: Any, **kwargs: Any) -> Any:
                if tracer.enabled:
                    hook(caller, *args, **kwargs)
                return original(*args, **kwargs)
            return target

        patched = 0
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is not original:
                continue
            span = f"{attr}@{name}" if per_caller else attr
            setattr(mod, attr, self._wrapper(with_hook(name), span, layer))
            self._undo.append(
                lambda mod=mod: setattr(mod, attr, original)
            )
            patched += 1
        if not patched:
            raise MissingEntryPoint(f"{module}.{attr} (no importers)")
        return patched

    def scheduled_callbacks(self, cls: type, attrs: tuple[str, ...]) -> None:
        """Wrap every callback handed to ``cls.<attr>(when, callback,
        *args)`` in a span of the layer whose module defines it."""
        tracer = self.tracer
        cache: dict[tuple[str, str], int] = {}

        def traced(callback: Callable) -> Callable:
            func = getattr(callback, "func", callback)  # functools.partial
            module = getattr(func, "__module__", None) or ""
            qualname = getattr(func, "__qualname__", type(func).__name__)
            key = (module, qualname)
            nid = cache.get(key)
            if nid is None:
                nid = cache[key] = tracer.name_id(
                    f"event:{qualname}", layer_of_module(module)
                )

            def event(*args: Any) -> Any:
                if not tracer.enabled:
                    return callback(*args)
                return tracer.call(nid, callback, args, {})
            return event

        for attr in attrs:
            original = getattr(cls, attr, None)
            if original is None:
                raise MissingEntryPoint(f"{cls.__name__}.{attr}")
            had_own = attr in cls.__dict__

            def schedule(self_: Any, when: float, callback: Callable,
                         *args: Any, _original=original) -> Any:
                if tracer.enabled:
                    callback = traced(callback)
                return _original(self_, when, callback, *args)
            setattr(cls, attr, schedule)

            def undo(attr=attr, original=original, had_own=had_own) -> None:
                if had_own:
                    setattr(cls, attr, original)
                else:
                    delattr(cls, attr)
            self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
