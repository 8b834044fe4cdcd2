"""Traced-run plumbing: compositions in child interpreters, the sharded
serial replay, and the reduction of spans to the per-layer metrics."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from . import common
from .spans import reduce_spans

#: Every per-layer metric, with its unit.  A traced run prints all of them;
#: a layer the workload never calls reads 0.
EXPERIMENT_METRICS = tuple(
    f"harness.experiments.{i}_s" for i in (
        "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
        "ablationA", "ablationB", "ablationC", "energy", "swcmp",
    )
)
PER_LAYER = {
    "uarch.core.run_s": "s",
    "uarch.core.kips": "kinst/s",
    "uarch.core.committed": "count",
    "uarch.core.init_s": "s",
    "uarch.specialize.compile_s": "s",
    "uarch.specialize.reuse_ratio": "ratio",
    "uarch.decoded.decode_s": "s",
    "uarch.decoded.reuse_ratio": "ratio",
    "asm.assemble_s": "s",
    "asm.programs": "count",
    "workloads.build_s": "s",
    "compiler.analysis_s": "s",
    "compiler.mitigations.apply_s": "s",
    "harness.cache.key_s": "s",
    "harness.experiments.tail_s": "s",
    **{name: "s" for name in EXPERIMENT_METRICS},
    "harness.parallel.points_planned": "count",
    "harness.parallel.points_unique": "count",
    "harness.parallel.prefetch_s": "s",
    "harness.parallel.efficiency": "ratio",
    "harness.resilience.retries": "count",
    "harness.resilience.failed": "count",
    "harness.cache.put_s": "s",
    "harness.cache.get_s": "s",
    "harness.cache.disk_hits": "count",
    "harness.cache.hit_ratio": "ratio",
    "analysis.scan_s": "s",
    "analysis.findings": "count",
    "adversarial.synth_s": "s",
    "adversarial.oracle_s": "s",
    "adversarial.repair_s": "s",
    "adversarial.repair_fences": "count",
    "attacks.run_s": "s",
    "service.submit_ms": "ms",
    "service.poll_ms": "ms",
    "service.polls_per_batch": "count",
    "service.simulations": "count",
    "service.coalesced": "count",
    "service.store_hits": "count",
    "service.dedup_ratio": "ratio",
    "service.sim_s": "s",
    "service.rejected": "count",
    "trace.overhead": "ratio",
    "trace.uncovered_s": "s",
}

#: Span name -> per-layer metric fed by the span's self time.
SELF_TIME = {
    "uarch.core.run": "uarch.core.run_s",
    "uarch.core.init": "uarch.core.init_s",
    "uarch.specialize.compile": "uarch.specialize.compile_s",
    "uarch.decoded.decode": "uarch.decoded.decode_s",
    "asm.assemble": "asm.assemble_s",
    "workloads.build": "workloads.build_s",
    "compiler.analysis": "compiler.analysis_s",
    "compiler.mitigations.apply": "compiler.mitigations.apply_s",
    "harness.cache.key": "harness.cache.key_s",
    "harness.cache.put": "harness.cache.put_s",
    "harness.cache.get": "harness.cache.get_s",
    "analysis.scan": "analysis.scan_s",
    "adversarial.synth": "adversarial.synth_s",
    "adversarial.oracle": "adversarial.oracle_s",
    "adversarial.repair": "adversarial.repair_s",
    "attacks.run": "attacks.run_s",
}
#: Spans whose wall time (children included) is the metric.
WALL_TIME = {"harness.parallel.prefetch": "harness.parallel.prefetch_s"}
#: Root spans: their self time is wall the layer spans do not cover.
ROOTS = ("compose.regen", "compose.fuzz", "compose.replay", "client.batch")
#: Tracer counts reported as they are.
COUNTS = (
    "uarch.core.committed", "asm.programs", "harness.parallel.points_planned",
    "harness.cache.disk_hits", "analysis.findings", "adversarial.repair_fences",
)


def compose(spec: dict, work: Path, name: str) -> dict:
    """Run ``perfbench.compose`` with ``spec`` in a fresh interpreter."""
    return wait_compose(start_compose(spec, work, name))


def start_compose(spec: dict, work: Path, name: str) -> tuple:
    spec_path = work / f"{name}.spec.json"
    out_path = work / f"{name}.out.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        common.helper_cmd("compose", str(spec_path), str(out_path)),
        cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    return name, proc, out_path


def wait_compose(handle: tuple, timeout: float = 170) -> dict:
    """Wait for a composition started by :func:`start_compose`; its result."""
    name, proc, out_path = handle
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise common.BenchError(f"{name}: no result within {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise common.BenchError(f"{name} failed (exit {proc.returncode}): {err.strip()[-1500:]}")
    return json.loads(out_path.read_text())


def chunk_points(points: list, max_chunk: int) -> list[list]:
    """Group points by workload in first-seen order, ``max_chunk`` per chunk,
    the way the parallel planner forms lockstep batches.

    A point is ``[label, workload, policy, use_compiler_info, config fields
    that differ from the default, observe]``.
    """
    groups: dict[str, list] = {}
    for point in points:
        groups.setdefault(point[1], []).append(point)
    return [
        members[i:i + max_chunk]
        for members in groups.values()
        for i in range(0, len(members), max_chunk)
    ]


def shard_chunks(chunks: list[list], cost: dict[str, int]) -> list[list[list]]:
    """Split chunks over :data:`common.JOBS` shards, largest first onto the
    least loaded shard; a chunk's cost is its points' pinned cycle counts
    (1 per point without a pin)."""
    shards: list[list[list]] = [[] for _ in range(common.JOBS)]
    load = [0] * common.JOBS
    weighted = sorted(chunks, key=lambda c: -sum(cost.get(p[0], 1) for p in c))
    for chunk in weighted:
        target = load.index(min(load))
        shards[target].append(chunk)
        load[target] += sum(cost.get(p[0], 1) for p in chunk)
    return shards


def replay(points: list, work: Path, run_id: str, extra: dict | None = None) -> list[dict]:
    """Replay ``points`` serially through the layer calls, sharded over
    :data:`common.JOBS` fresh interpreters running side by side."""
    from repro.harness.lockstep import LOCKSTEP_MAX

    from . import pins

    shards = shard_chunks(chunk_points(points, LOCKSTEP_MAX), pins.load()["regen"]["points"])
    handles = []
    for shard, chunks in enumerate(shards):
        spec = {"kind": "replay", "trace": True, "run_id": f"{run_id}/replay{shard}",
                "chunks": chunks, **(extra if extra and shard == 0 else {})}
        handles.append(start_compose(spec, work, f"replay{shard}"))
    try:
        return [wait_compose(h) for h in handles]
    finally:
        for _, proc, _ in handles:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def replay_failures(shards: list[dict], pinned: dict[str, int]) -> list[str]:
    """Replayed points whose self-check failed or whose cycles differ from a pin."""
    failures = [f"{label}: self-check failed" for s in shards for label in s["invalid"]]
    for shard in shards:
        for label, cycles in shard["cycles"].items():
            if label in pinned and cycles != pinned[label]:
                failures.append(f"{label}: {cycles} cycles, pinned {pinned[label]}")
    return failures


def reduce_traces(traces: list[dict]) -> tuple[dict, dict]:
    """Sum per-span-name reductions and counts over traces of separate
    processes (span ids are only unique within one trace)."""
    reduced: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for trace in traces:
        for name, entry in reduce_spans(trace["spans"]).items():
            total = reduced.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            for field in total:
                total[field] += entry[field]
        for name, n in trace["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return reduced, counts


def per_layer(traces: list[dict], extra: dict) -> tuple[dict, list[str], dict]:
    """Reduce traces to every per-layer metric.

    Returns ``(metrics, zero, uncovered)``: metrics maps each name in
    :data:`PER_LAYER` to ``{"value", "unit"}``; ``extra`` supplies values
    measured outside the spans (service counters, overhead, ...); ``zero``
    names the metrics that read 0 (a layer the workload never calls, or one
    with no events); ``uncovered`` is each root span's wall that no layer
    span covers.
    """
    reduced, counts = reduce_traces(traces)
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for span, metric in SELF_TIME.items():
        if span in reduced:
            values[metric] = reduced[span]["self_s"]
    for span, metric in WALL_TIME.items():
        if span in reduced:
            values[metric] = reduced[span]["total_s"]
    for metric in EXPERIMENT_METRICS:
        if metric[:-2] in reduced:
            values[metric] = reduced[metric[:-2]]["total_s"]
    values["harness.experiments.tail_s"] = sum(values[m] for m in EXPERIMENT_METRICS)
    for name in COUNTS:
        values[name] = float(counts.get(name, 0))
    if values["uarch.core.run_s"] > 0:
        values["uarch.core.kips"] = values["uarch.core.committed"] / values["uarch.core.run_s"] / 1e3
    for prefix in ("uarch.specialize", "uarch.decoded"):
        if counts.get(f"{prefix}.calls"):
            values[f"{prefix}.reuse_ratio"] = counts.get(f"{prefix}.reused", 0) / counts[f"{prefix}.calls"]
    if counts.get("harness.cache.gets"):
        values["harness.cache.hit_ratio"] = values["harness.cache.disk_hits"] / counts["harness.cache.gets"]
    uncovered = {r: reduced[r]["self_s"] for r in ROOTS if r in reduced}
    values["trace.uncovered_s"] = sum(uncovered.values())
    values.update(extra)
    zero = sorted(name for name, value in values.items() if value == 0.0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, zero, uncovered
