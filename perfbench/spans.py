"""Spans around calls into the program's layers, recorded from outside.

:func:`instrument` rebinds each public layer function (and method) named in
:data:`FUNCTIONS`/:data:`METHODS` to a wrapper that records a span: name,
start, end, parent span and run id.  Spans stay in memory and are written
out when the run ends; :func:`reduce_spans` turns them into per-layer self
time (a span's duration minus the part its child spans cover).  Counts
that ratios need (committed instructions, cache hits, findings...) are
taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: (module, function, span name).  Every binding of the function object in
#: any loaded ``repro`` module is rebound, so ``from x import f`` sites are
#: covered too.
FUNCTIONS = (
    ("repro.workloads.suite", "build_workload", "workloads.build"),
    ("repro.asm.assembler", "assemble", "asm.assemble"),
    ("repro.compiler.pass_manager", "ensure_analysis", "compiler.analysis"),
    ("repro.compiler.mitigations", "apply_mitigation", "compiler.mitigations.apply"),
    ("repro.uarch.decoded", "decoded_image", "uarch.decoded.decode"),
    ("repro.uarch.specialize", "specialized_image", "uarch.specialize.compile"),
    ("repro.harness.parallel", "plan_experiment_grid", "harness.parallel.plan"),
    ("repro.analysis.scanner", "scan_program", "analysis.scan"),
    ("repro.adversarial.synth", "synthesize_item", "adversarial.synth"),
    ("repro.adversarial.synth", "synth_source", "adversarial.synth"),
    ("repro.adversarial.oracle", "differential_verdict", "adversarial.oracle"),
    ("repro.adversarial.repair", "repair_program", "adversarial.repair"),
    ("repro.attacks.scoring", "run_attack", "attacks.run"),
)

#: (module, class, method, span name).
METHODS = (
    ("repro.uarch.core", "OooCore", "__init__", "uarch.core.init"),
    ("repro.uarch.core", "OooCore", "run", "uarch.core.run"),
    ("repro.harness.cache", "ResultCache", "get", "harness.cache.get"),
    ("repro.harness.cache", "ResultCache", "put", "harness.cache.put"),
    ("repro.harness.runner", "ExperimentRunner", "run_key_for", "harness.cache.key"),
    ("repro.harness.parallel", "ParallelRunner", "prefetch", "harness.parallel.prefetch"),
)

#: Modules imported before rebinding, so their ``from x import f`` copies
#: exist and get rebound as well.
PRELOAD = (
    "repro", "repro.harness", "repro.harness.experiments",
    "repro.harness.lockstep", "repro.harness.resilience", "repro.adversarial",
    "repro.attacks", "repro.analysis", "repro.compiler.mitigations", "repro.uarch.core",
)


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (span id, name, start, end, parent id or None, thread id)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Cleared once the measured part ends; wrappers then just call through.
        self.enabled = True
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["id", "name", "start", "end", "parent", "thread"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def _reuse_counter(prefix: str):
    """Count calls and calls returning an object seen before (a cache reuse)."""
    seen: dict[int, object] = {}  # id -> object, kept alive so ids stay unique

    def after(tracer: Tracer, result) -> None:
        tracer.count(f"{prefix}.calls")
        if id(result) in seen:
            tracer.count(f"{prefix}.reused")
        else:
            seen[id(result)] = result

    return after


def _after_hooks() -> dict[str, object]:
    def committed(tracer, result):
        tracer.count("uarch.core.committed", result.stats.committed)

    def programs(tracer, result):
        tracer.count("asm.programs")

    def cache_get(tracer, result):
        tracer.count("harness.cache.gets")
        if result is not None:
            tracer.count("harness.cache.disk_hits")

    def planned(tracer, result):
        tracer.count("harness.parallel.points_planned", len(result))

    def findings(tracer, result):
        tracer.count("analysis.findings", len(result.findings))

    def fences(tracer, result):
        tracer.count("adversarial.repair_fences", result.fences_inserted)

    return {
        "uarch.core.run": committed,
        "asm.assemble": programs,
        "harness.cache.get": cache_get,
        "harness.parallel.plan": planned,
        "analysis.scan": findings,
        "adversarial.repair": fences,
        "uarch.decoded.decode": _reuse_counter("uarch.decoded"),
        "uarch.specialize.compile": _reuse_counter("uarch.specialize"),
    }


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary of the loaded ``repro`` package (idempotent per process)."""
    for module in PRELOAD:
        importlib.import_module(module)
    hooks = _after_hooks()
    for module, func, span in FUNCTIONS:
        original = getattr(importlib.import_module(module), func)
        _rebind(original, tracer.wrap(original, span, hooks.get(span)))
    for module, cls_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(original, span, hooks.get(span)))
    from repro.harness.experiments import EXPERIMENTS

    for experiment_id, module in EXPERIMENTS.items():
        module.run = tracer.wrap(module.run, f"harness.experiments.{experiment_id}")


def reduce_spans(spans: list) -> dict[str, dict]:
    """{span name: {"self_s", "total_s", "calls"}}; nested same-name spans count once in self_s."""
    covered: dict[int, float] = {}
    for span_id, name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    out: dict[str, dict] = {}
    for span_id, name, start, end, parent, _ in spans:
        entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += (end - start) - covered.get(span_id, 0.0)
        entry["total_s"] += end - start
        entry["calls"] += 1
    return out
