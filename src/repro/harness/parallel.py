"""Parallel experiment execution over a deduplicated run grid.

Experiments are embarrassingly parallel at the granularity of one
(workload, policy, config) simulation, and the figures share many points
(every figure's baseline is the unprotected run of the same workloads).
This module

1. *plans* the union grid for a set of experiment ids,
2. *dedupes* it by content key (:mod:`repro.harness.cache`), and
3. *fans out* the remaining simulations over a
   :class:`concurrent.futures.ProcessPoolExecutor`,

after which the experiment modules run unchanged against a warm in-memory
store — every ``runner.run(...)`` they issue is a hit.  Workers return slim
:class:`RunRecord` objects (counters only, no :class:`SimResult` payload),
and each worker self-checks its run's architectural result, so parallel
execution is bit-identical to serial execution by construction; the test
suite additionally asserts equal cycle counts for serial vs ``jobs=2``.

The worker count comes from ``--jobs N`` on the CLI or the ``REPRO_JOBS``
environment variable (used by the benchmark suite under pytest);
``jobs=1`` (the default) never forks and behaves exactly like the serial
runner.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..errors import HarnessError
from ..uarch import CoreConfig
from .cache import ResultCache
from .lockstep import LOCKSTEP_MAX, lockstep_enabled, simulate_work
from .resilience import (
    ResilienceReport,
    RetryPolicy,
    RunJournal,
    WorkItem,
    execute_supervised,
    failed_run_record,
    journal_path_for,
    simulate_point,
)
from .runner import ExperimentRunner, RunRecord


def default_jobs() -> int:
    """``$REPRO_JOBS`` if set and positive, else 1 (serial).

    A malformed value still maps to 1, but loudly: silently serializing
    a grid run because of a typo like ``REPRO_JOBS=four`` wastes hours
    before anyone notices.
    """
    import sys

    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        print(
            f"warning: ignoring malformed REPRO_JOBS={raw!r} "
            f"(expected an integer); running serial with jobs=1",
            file=sys.stderr,
        )
        return 1
    return max(jobs, 1)


@dataclass(frozen=True)
class GridPoint:
    """One simulation in an experiment grid (picklable)."""

    workload: str
    policy: str
    use_compiler_info: bool = True
    config: CoreConfig | None = None  # None -> the runner's default config
    # Capture an observation-trace digest (differential leakage oracle).
    # Mixed into the run key only when True, so plain grids are unchanged.
    observe: bool = False


#: Backwards-compatible alias; the worker entrypoint now lives with the
#: supervisor (:func:`repro.harness.resilience.simulate_point`).
_simulate_point = simulate_point


class ParallelRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that can prefetch a grid in parallel.

    ``run()`` itself stays serial (experiments interleave runs with
    arithmetic); parallelism comes from :meth:`prefetch`, which fills the
    in-memory store so subsequent ``run()`` calls are hits.  Pass a shared
    ``store`` dict to pool results across runners with different default
    configs (keys are content fingerprints, so this is always safe).

    Prefetching is *supervised* (:mod:`repro.harness.resilience`): worker
    exceptions are captured per point — with traceback text — into
    :class:`RunOutcome` records on :attr:`report` instead of aborting the
    grid, points are retried under ``retry_policy``, a dead or hung pool
    is rebuilt (ultimately degrading to serial execution), and a
    :class:`RunJournal` can record completions for ``--resume``.

    With ``keep_going=True``, permanently failed points do not raise:
    ``run()`` returns a NaN-filled hole record for them so experiments
    can render partial tables (see ``resilience.scrub_holes``).

    :attr:`report` accumulates every prefetch pass on this runner (an
    experiment may prefetch its own sweep after the shared grid), so a
    failure or pool rebuild in one pass is never dropped by the next.
    """

    def __init__(self, scale: str = "ref", config: CoreConfig | None = None,
                 verbose: bool = False, cache: ResultCache | None = None,
                 store: dict[str, RunRecord] | None = None,
                 jobs: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 keep_going: bool = False,
                 journal: RunJournal | None = None,
                 resume: bool = False):
        super().__init__(scale=scale, config=config, verbose=verbose,
                         cache=cache, store=store)
        self.jobs = jobs if jobs is not None else default_jobs()
        self.retry_policy = retry_policy or RetryPolicy()
        self.keep_going = keep_going
        self.journal = journal
        self.resume = resume
        self.report = ResilienceReport()
        #: key -> (workload, policy) of points that exhausted their budget.
        self.failed_points: dict[str, tuple[str, str]] = {}

    def prefetch(self, points: Iterable[GridPoint]) -> int:
        """Simulate every not-yet-cached point; returns how many succeeded.

        Points already in the in-memory store or the persistent cache are
        skipped; duplicates within ``points`` collapse to one simulation.
        With a journal and ``resume=True``, points the manifest records
        as complete are only re-verified against the cache — a key that
        is journaled *and* cached is skipped without simulating.

        Unless ``keep_going`` is set, points that remain failed after
        supervision raise a summarizing :class:`HarnessError` at the end
        (the rest of the grid still completes first).
        """
        todo: list[tuple[str, GridPoint]] = []
        seen: set[str] = set()
        resumed = 0
        journaled_done = (self.journal.completed()
                          if self.journal is not None and self.resume
                          else set())
        for point in points:
            cfg = point.config or self.config
            key = self.run_key_for(point.workload, point.policy, cfg,
                                   point.use_compiler_info, point.observe)
            if key in seen or key in self._cache:
                continue
            if self.cache is not None:
                record = self.cache.get(key)
                if record is not None:
                    self._cache[key] = record
                    if key in journaled_done:
                        resumed += 1
                    continue
            # A journaled-complete key whose record is gone (cache off or
            # evicted) must re-simulate: resume never invents results.
            seen.add(key)
            todo.append((key, point))
        if not todo:
            return 0

        items, batch_members = self._plan_work(todo)

        def on_success(item: WorkItem, record) -> None:
            status = "ok" if item.attempts <= 1 else "retried"
            members = batch_members.get(item.key)
            if members is None:
                members, records = [(item.key, None)], {item.key: record}
            else:
                records = record  # simulate_batch returns {key: record}
            for key, member in members:
                rec = records[key]
                self.simulations += 1
                self._cache[key] = rec
                if self.cache is not None:
                    self.cache.put(key, rec)
                if self.journal is not None:
                    self.journal.record(
                        key, status,
                        workload=member.workload if member else item.workload,
                        policy=member.policy if member else item.policy,
                        attempts=item.attempts)

        report = execute_supervised(
            items, simulate_work, self.jobs, self.retry_policy, on_success,
        )
        self.report.absorb(report)
        for outcome in report.failed:
            members = batch_members.get(outcome.key)
            if members is None:
                failed = [(outcome.key, outcome.workload, outcome.policy)]
            else:
                # One member sank the whole batch: every member is unfetched,
                # so all of them are reported (and journaled) as failed.
                failed = [(k, p.workload, p.policy) for k, p in members]
            for key, workload, policy in failed:
                self.failed_points[key] = (workload, policy)
                if self.journal is not None:
                    self.journal.record(key, outcome.status,
                                        workload=workload,
                                        policy=policy,
                                        attempts=outcome.attempts)
        if report.failed and not self.keep_going:
            names = ", ".join(
                f"{o.workload}/{o.policy} ({o.status} after "
                f"{o.attempts} attempt(s))"
                for o in report.failed
            )
            raise HarnessError(
                f"{len(report.failed)} grid point(s) failed permanently "
                f"after supervision: {names} — rerun with --keep-going to "
                f"render a partial table around them"
            )
        return sum(
            len(batch_members.get(o.key, (o,)))
            for o in report.outcomes
            if o.status in ("ok", "retried")
        )

    def _plan_work(
        self, todo: list[tuple[str, GridPoint]]
    ) -> tuple[list[WorkItem], dict[str, list[tuple[str, GridPoint]]]]:
        """Turn deduped grid points into supervised work items.

        With lockstep enabled, points sharing a workload (hence a program
        image) are chunked into batches of up to :data:`LOCKSTEP_MAX` that
        one worker runs in lockstep (:mod:`repro.harness.lockstep`);
        singletons — and everything, under ``REPRO_NO_LOCKSTEP=1`` — use
        the classic one-point-per-task path.  Returns the work items plus
        the batch-key -> members map used to fan results back out.
        """
        items: list[WorkItem] = []
        batch_members: dict[str, list[tuple[str, GridPoint]]] = {}

        def single(key: str, point: GridPoint) -> WorkItem:
            return WorkItem(key=key, args=(self.scale, point, self.config),
                            workload=point.workload, policy=point.policy)

        if not lockstep_enabled() or len(todo) < 2:
            return [single(key, point) for key, point in todo], batch_members

        groups: dict[str, list[tuple[str, GridPoint]]] = {}
        for key, point in todo:
            groups.setdefault(point.workload, []).append((key, point))
        for workload, members in groups.items():
            for i in range(0, len(members), LOCKSTEP_MAX):
                chunk = members[i:i + LOCKSTEP_MAX]
                if len(chunk) == 1:
                    items.append(single(*chunk[0]))
                    continue
                keys = tuple(k for k, _ in chunk)
                bkey = "batch:" + hashlib.sha256(
                    "|".join(keys).encode()
                ).hexdigest()[:16]
                batch_members[bkey] = chunk
                items.append(WorkItem(
                    key=bkey,
                    args=(self.scale, tuple(p for _, p in chunk),
                          self.config, keys),
                    workload=workload,
                    policy=f"{len(chunk)}-point lockstep batch",
                ))
        return items, batch_members

    def run(self, workload_name, policy_name, config=None,
            use_compiler_info=True, observe=False) -> RunRecord:
        if self.failed_points and self.keep_going:
            key = self.run_key_for(workload_name, policy_name,
                                   config or self.config, use_compiler_info,
                                   observe)
            if key in self.failed_points:
                return failed_run_record(workload_name, policy_name)
        return super().run(workload_name, policy_name, config=config,
                           use_compiler_info=use_compiler_info,
                           observe=observe)


# --------------------------------------------------------------------- grids
def _grid_fig1(runner: ExperimentRunner) -> list[GridPoint]:
    from ..workloads import WORKLOAD_NAMES

    return [GridPoint(w, "none") for w in WORKLOAD_NAMES]


def _grid_overheads(workloads: Sequence[str],
                    policies: Sequence[str]) -> list[GridPoint]:
    points = [GridPoint(w, "none") for w in workloads]
    points += [GridPoint(w, p) for w in workloads for p in policies]
    return points


def _grid_fig2(runner: ExperimentRunner) -> list[GridPoint]:
    from ..workloads import WORKLOAD_NAMES
    from .experiments import fig2

    return _grid_overheads(WORKLOAD_NAMES, fig2.POLICIES)


def _grid_fig3(runner: ExperimentRunner) -> list[GridPoint]:
    from ..workloads import WORKLOAD_NAMES
    from .experiments import fig3

    return _grid_overheads(WORKLOAD_NAMES, fig3.POLICIES)


def _grid_fig4(runner: ExperimentRunner) -> list[GridPoint]:
    from .experiments import fig4

    points: list[GridPoint] = []
    for rob in fig4.ROB_SIZES:
        config = CoreConfig(rob_size=rob, iq_size=min(64, rob),
                            lq_size=min(48, rob), sq_size=min(48, rob))
        points += [
            GridPoint(w, p, config=config)
            for w in fig4.WORKLOAD_SUBSET
            for p in ("none", *fig4.POLICIES)
        ]
    return points


def _grid_ablation_a(runner: ExperimentRunner) -> list[GridPoint]:
    from .experiments import ablation_compiler as mod

    points = _grid_overheads(mod.WORKLOAD_SUBSET, ("levioso", "ctt"))
    points += [
        GridPoint(w, "levioso", use_compiler_info=False)
        for w in mod.WORKLOAD_SUBSET
    ]
    return points


def _grid_ablation_b(runner: ExperimentRunner) -> list[GridPoint]:
    from ..workloads import WORKLOAD_NAMES
    from .experiments import ablation_scope as mod

    return _grid_overheads(WORKLOAD_NAMES, mod.POLICIES)


def _grid_energy(runner: ExperimentRunner) -> list[GridPoint]:
    from .experiments import energy as mod

    return _grid_overheads(mod.WORKLOAD_SUBSET, mod.POLICIES)


def _grid_swcmp(runner: ExperimentRunner) -> list[GridPoint]:
    from ..workloads import WORKLOAD_NAMES
    from .experiments import hw_vs_sw as mod

    points = _grid_overheads(WORKLOAD_NAMES, mod.HW_POLICIES)
    points += [
        GridPoint(f"mit/{p}/{w}", "none")
        for w in WORKLOAD_NAMES
        for p in mod.sw_passes()
    ]
    return points


#: Experiments whose core-simulation grid is known statically.  table1,
#: table2 and fig5 drive no core-grid simulation and gain nothing from
#: prefetching.  ablationC prefetches its own width sweep through the
#: runner it is given, one pass after the shared grid; it stays out of
#: this table because the benchmark's cycle pins label every point the
#: shared grid plans, and the sweep's bounded-width points have no pin
#: yet (folding it in goes together with a re-pin).
GRID_PLANNERS: dict[str, Callable[[ExperimentRunner], list[GridPoint]]] = {
    "fig1": _grid_fig1,
    "fig2": _grid_fig2,
    "fig3": _grid_fig3,
    "fig4": _grid_fig4,
    "ablationA": _grid_ablation_a,
    "ablationB": _grid_ablation_b,
    "energy": _grid_energy,
    "swcmp": _grid_swcmp,
}


def plan_experiment_grid(experiment_ids: Iterable[str],
                         runner: ExperimentRunner) -> list[GridPoint]:
    """Union grid for a set of experiments (duplicates included; the
    runner dedupes by content key when prefetching)."""
    points: list[GridPoint] = []
    for experiment_id in experiment_ids:
        planner = GRID_PLANNERS.get(experiment_id)
        if planner is not None:
            points.extend(planner(runner))
    return points


def run_experiments(
    experiment_ids: Sequence[str],
    scale: str = "ref",
    jobs: int | None = None,
    cache: ResultCache | None = None,
    verbose: bool = False,
    retry_policy: RetryPolicy | None = None,
    keep_going: bool = False,
    resume: bool = False,
    journal_path: str | None = None,
    with_report: bool = False,
):
    """Run experiments with shared, parallel-prefetched simulations.

    Returns ``{experiment_id: ExperimentResult}`` (or, with
    ``with_report=True``, a ``(results, ResilienceReport)`` pair).  All
    experiments share one result store, so points common to several
    figures simulate once.

    ``resume`` requires a persistent ``cache`` — the journal can only say
    *which* points finished; their records live in the cache.  The
    journal path defaults to a grid-content-derived file under the cache
    root, so re-invoking the same figure set finds its own manifest.
    With ``keep_going``, experiments touching permanently failed points
    render partial tables with explicit holes instead of raising.
    """
    import inspect

    from .experiments import EXPERIMENTS
    from .resilience import failed_experiment_result, scrub_holes

    store: dict[str, RunRecord] = {}
    runner = ParallelRunner(scale=scale, jobs=jobs, cache=cache,
                            verbose=verbose, store=store,
                            retry_policy=retry_policy, keep_going=keep_going,
                            resume=resume)
    grid = plan_experiment_grid(experiment_ids, runner)
    if journal_path is not None or resume:
        if cache is None:
            raise HarnessError(
                "--resume needs the persistent cache (--cache): the journal "
                "records which points finished, the cache holds their results"
            )
        if journal_path is None:
            keys = [
                runner.run_key_for(p.workload, p.policy,
                                   p.config or runner.config,
                                   p.use_compiler_info)
                for p in grid
            ]
            journal_path = journal_path_for(cache.root, keys, scale)
        runner.journal = RunJournal(journal_path)
    runner.prefetch(grid)

    results = {}
    for experiment_id in experiment_ids:
        module = EXPERIMENTS[experiment_id]
        params = inspect.signature(module.run).parameters
        kwargs = {}
        if "scale" in params:
            kwargs["scale"] = scale
        if "runner" in params:
            kwargs["runner"] = runner
        elif "runner_factory" in params:
            kwargs["runner_factory"] = lambda config: ParallelRunner(
                scale=scale, config=config, jobs=jobs, cache=cache,
                verbose=verbose, store=store,
                retry_policy=retry_policy, keep_going=keep_going,
            )
        try:
            result = module.run(**kwargs)
        except Exception as exc:
            if not keep_going:
                raise
            result = failed_experiment_result(experiment_id, exc)
        if keep_going and runner.failed_points:
            holes = scrub_holes(result.rows)
            if holes:
                result.notes = (result.notes + "\n" if result.notes else "") + (
                    f"PARTIAL: {holes} cell(s) depend on failed grid points "
                    f"(rendered as holes); see the resilience report"
                )
        results[experiment_id] = result
    if with_report:
        return results, runner.report
    return results
