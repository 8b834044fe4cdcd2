"""In-process compositions, run in a fresh interpreter: ``python -m perfbench.compose SPEC OUT``.

``SPEC`` is a JSON file naming what to run; the result (wall time, checks,
and with ``"trace": true`` the spans) is written to ``OUT`` as JSON.

* ``regen``: every experiment at test scale through ``run_experiments`` with
  ``spec["jobs"]`` workers and a fresh run cache, as ``repro experiment`` runs it.
* ``fuzz``: one ``run_campaign`` with repair, as ``repro fuzz --repair`` runs it.
* ``prefill``: simulate a list of points into a run cache (serve-mixed set-up).
* ``replay``: simulate a list of grid points one after another through the
  layer calls a pool worker makes, so their time can be split per layer.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import common, pins
from .spans import Tracer, instrument


def _regen(spec: dict, timed) -> dict:
    from repro.harness import ResultCache, run_experiments

    cache = ResultCache(spec["cache_dir"])
    with timed():
        results, report = run_experiments(
            list(pins.EXPERIMENT_IDS), scale=pins.SCALE, jobs=spec["jobs"],
            cache=cache, with_report=True,
        )
    grid = pins.regen_grid()
    return {
        "tables": {i: pins.sha256(r.text()) for i, r in results.items()},
        "retries": sum(max(o.attempts - 1, 0) for o in report.outcomes),
        "failed": len(report.failed),
        "points_unique": len(grid),
        "points": [
            [label, p.workload, p.policy, p.use_compiler_info, pins.config_diff(p), p.observe]
            for label, _, p in grid
        ],
    }


def _fuzz(spec: dict, timed) -> dict:
    from repro.adversarial import CampaignConfig, campaign_grid, run_campaign, synthesize_item
    from repro.harness import GridPoint, ParallelRunner, ResultCache

    class Runner(ParallelRunner):
        """Keeps every prefetch's outcomes (the campaign prefetches twice)."""

        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.outcomes = []

        def prefetch(self, points):
            try:
                return super().prefetch(points)
            finally:
                self.outcomes.extend(self.report.outcomes)

    config = CampaignConfig.resolve(seed=spec["seed"], count=spec["count"], repair=True)
    runner = Runner(scale=pins.SCALE, jobs=spec["jobs"], cache=ResultCache(spec["cache_dir"]))
    with timed():
        report = run_campaign(config, runner)
    # The corpus the workers simulated: the observed grid plus the repaired items.
    points = list(campaign_grid(config))
    repaired = {row["name"] for row in report["items"] if "repair" in row}
    for index in range(config.count):
        item = synthesize_item(config.seed, index)
        if item.name in repaired:
            points += [
                GridPoint(item.workload_name(fill, repaired=True), policy, observe=True)
                for policy in config.policies for fill in config.fills
            ]
    unique = list(dict.fromkeys(points))
    return {
        "points_planned": len(points),
        "report_sha256": pins.sha256(json.dumps(report, indent=2, sort_keys=True)),
        "gates": report["gates"],
        "retries": sum(max(o.attempts - 1, 0) for o in runner.outcomes),
        "failed": sum(o.status in ("failed", "timed-out") for o in runner.outcomes),
        "points_unique": len(unique),
        "points": [
            [pins.point_label(p), p.workload, p.policy, p.use_compiler_info, {}, p.observe]
            for p in unique
        ],
    }


def _prefill(spec: dict, timed) -> dict:
    from repro.harness import GridPoint, ParallelRunner, ResultCache

    runner = ParallelRunner(scale=pins.SCALE, jobs=common.JOBS, cache=ResultCache(spec["cache_dir"]))
    with timed():
        simulated = runner.prefetch(GridPoint(w, p) for w, p in spec["points"])
    return {"simulated": simulated}


def _replay(spec: dict, timed) -> dict:
    """Per lockstep-sized chunk of one workload: build and assemble once,
    then construct and ``run()`` one core per point and check its result.
    Mirrors a pool worker's batch, with ``run()`` in place of the
    interleaved ``advance()`` slices (the same simulation work).  Points
    listed under ``reads`` are instead read from the run cache, as the
    service answers pre-filled points."""
    import dataclasses

    from repro.secure import make_policy
    from repro.uarch import CoreConfig, OooCore
    from repro.workloads import build_workload

    from repro.harness import ExperimentRunner, ResultCache

    cycles: dict[str, int] = {}
    invalid: list[str] = []
    with timed():
        if spec.get("reads"):
            # Served from the disk cache: key the point, read the entry.
            runner = ExperimentRunner(scale=pins.SCALE)
            cache = ResultCache(spec["cache_dir"])
            for workload, policy in spec["reads"]:
                record = cache.get(runner.run_key_for(workload, policy))
                if record is None:
                    invalid.append(f"{workload}/{policy}")
                else:
                    cycles[f"{workload}/{policy}"] = record.cycles
        for chunk in spec["chunks"]:
            workload = build_workload(chunk[0][1], pins.SCALE)
            program = workload.assemble()
            for label, _, policy, use_ci, diff, observe in chunk:
                config = dataclasses.replace(CoreConfig(), **diff)
                core = OooCore(program, config=config, policy=make_policy(policy),
                               use_compiler_info=use_ci, record_observations=observe)
                result = core.run()
                cycles[label] = result.stats.cycles
                if not workload.validate(result.regs):
                    invalid.append(label)
    return {"cycles": cycles, "invalid": invalid}


KINDS = {"regen": _regen, "fuzz": _fuzz, "prefill": _prefill, "replay": _replay}


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer(spec["run_id"]) if spec.get("trace") else None
    if tracer is not None:
        instrument(tracer)
    wall: list[float] = []

    @contextmanager
    def timed():
        """The measured part; spans outside it (checks, bookkeeping) are dropped."""
        start = time.perf_counter()
        with tracer.span(f"compose.{spec['kind']}") if tracer else nullcontext():
            yield
        wall.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False

    out = KINDS[spec["kind"]](spec, timed)
    out["wall_s"] = wall[0]
    if tracer is not None:
        out["trace"] = tracer.to_dict()
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
