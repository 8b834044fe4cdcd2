"""What ``regen-cold`` and ``fuzz-repair`` share: a unit is one ``repro``
CLI invocation in a fresh interpreter, writing a fresh run cache, and the
traced run splits the same composition by layer."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterator

from . import common, layers, pins, probe
from .result import Outcome


def _unit(args: list[str], cache_dir: Path, jobs: int) -> dict:
    """One ``repro <args> --jobs <jobs> --cache --cache-dir <cache_dir>`` run.

    Besides wall and CPU time, each result's latency is taken from the
    unit's start until its run-cache entry was written (the entry's mtime).
    """
    start_ns = time.time_ns()
    cpu0 = common.children_cpu_s()
    t0 = time.perf_counter()
    proc = common.run_child(
        common.repro_cmd(*args, "--jobs", str(jobs), "--cache", "--cache-dir", str(cache_dir)),
        timeout=170,
    )
    t1 = time.perf_counter()
    cpu = common.children_cpu_s() - cpu0
    mtimes = [p.stat().st_mtime_ns for p in cache_dir.glob("*/*.json")]
    return {"start": t0, "end": t1, "wall": t1 - t0, "cpu": cpu, "proc": proc,
            "cache_dir": cache_dir, "entries": len(mtimes),
            "latencies_ms": [(m - start_ns) / 1e6 for m in mtimes]}


def measure(commands: Iterator[tuple[list[str], object]], seconds: float, work: Path,
            check: Callable[[dict], tuple[int, list[str]]], role: str, jobs: int) -> Outcome:
    """Run units from ``commands`` until ``seconds`` have passed (at least one).

    ``commands`` yields ``(repro args, tag)``; the tag is kept on the unit
    for ``check``, which returns ``(checks attempted, failures)`` and runs
    after every unit has been timed.  Times are reported in reference
    seconds (:mod:`perfbench.probe`); the unscaled medians go to ``samples``.
    """
    setups = []
    units = []
    with probe.Probe(work) as speed:
        setup_start = time.perf_counter()
        for i in range(common.SETUP_REPEATS):
            t0 = time.perf_counter()
            common.cli_cold_start()
            common.fresh_dir(work / f"cache{i}")
            setups.append(time.perf_counter() - t0)
        setup_end = time.perf_counter()

        begin = time.perf_counter()
        while not units or time.perf_counter() - begin < seconds:
            args, tag = next(commands)
            units.append({**_unit(args, work / f"cache{len(units)}", jobs), "tag": tag})
    peak = common.peak_rss_mb()

    outcome = Outcome()
    for unit in units:
        proc = unit["proc"]
        if proc.returncode != 0:
            outcome.add(1, [f"repro exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        else:
            outcome.add(*check(unit))
    for unit in units:
        unit["scale"] = speed.scale(unit["start"], unit["end"])
    setup_scale = speed.scale(setup_start, setup_end)
    latencies = [lat * u["scale"] for u in units for lat in u["latencies_ms"]]
    outcome.samples = {
        "units": len(units), "latency": len(latencies),
        "cache_entries": [u["entries"] for u in units],
        "unit_seeds": [u["tag"] for u in units],
        "host_speed_scale": {"setup": setup_scale, "units": [u["scale"] for u in units]},
        "unscaled": {"setup_s": common.median(setups),
                     "wall_s": common.median([u["wall"] for u in units]),
                     "cpu_s": common.median([u["cpu"] for u in units])},
    }
    outcome.end_to_end(
        setup_s=common.median(setups) * setup_scale,
        wall_s=common.median([u["wall"] * u["scale"] for u in units]),
        cpu_s=common.median([u["cpu"] * u["scale"] for u in units]),
        jobs_per_s=common.median([u["entries"] / (u["wall"] * u["scale"]) for u in units]),
        latency_p50_ms=common.percentile(latencies, 50) if latencies else float("nan"),
        latency_p95_ms=common.percentile(latencies, 95) if latencies else float("nan"),
        peak_rss_mb=peak,
    )
    outcome.processes = [
        {"role": "repro --version", "fresh_interpreter": True, "count": common.SETUP_REPEATS},
        {"role": f"{role} (parent + {jobs} pool workers)" if jobs > 1 else f"{role} (one process)",
         "fresh_interpreter": True, "run_cache": "empty", "decode_specialize_caches": "cold",
         "count": len(units)},
        {"role": "host-speed probe", "fresh_interpreter": True, "count": 1},
    ]
    return outcome


def trace(spec: dict, work: Path, check: Callable[[dict], tuple[int, list[str]]]) -> Outcome:
    """The composition in ``spec`` untraced then traced (parent-side layers),
    and a serial replay of the points its workers simulated.

    ``check`` returns ``(checks attempted, failures)`` for one composition's
    result; replayed cycle counts are checked against any pins they have.
    """
    common.import_repro()
    plain = layers.compose({**spec, "trace": False, "cache_dir": str(work / "plain")},
                           work, "plain")
    traced = layers.compose({**spec, "trace": True, "cache_dir": str(work / "traced")},
                            work, "traced")
    shards = layers.replay(traced["points"], work, spec["run_id"])

    outcome = Outcome()
    for run in (plain, traced):
        outcome.add(*check(run))
    cycles = {label: c for s in shards for label, c in s["cycles"].items()}
    outcome.add(len(cycles), layers.replay_failures(shards, pins.load()["regen"]["points"]))

    prefetch = layers.reduce_traces([traced["trace"]])[0]["harness.parallel.prefetch"]["total_s"]
    extra = {
        "harness.parallel.points_unique": float(traced["points_unique"]),
        "harness.parallel.efficiency":
            sum(s["wall_s"] for s in shards) / (spec["jobs"] * prefetch),
        "harness.resilience.retries": float(traced["retries"]),
        "harness.resilience.failed": float(traced["failed"]),
        "trace.overhead": traced["wall_s"] / plain["wall_s"],
    }
    if "points_planned" in traced:
        extra["harness.parallel.points_planned"] = float(traced["points_planned"])
    traces = [traced["trace"]] + [s["trace"] for s in shards]
    outcome.layer_metrics(layers.per_layer(traces, extra))
    outcome.trace_files = traces
    outcome.notes = {"composition_wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
                     "replay_wall_s": [s["wall_s"] for s in shards],
                     "replayed_points": len(cycles)}
    outcome.processes = [
        {"role": f"{spec['kind']} composition (untraced, traced)", "fresh_interpreter": True,
         "run_cache": "empty", "count": 2},
        {"role": "replay shard", "fresh_interpreter": True, "count": len(shards)},
    ]
    return outcome
