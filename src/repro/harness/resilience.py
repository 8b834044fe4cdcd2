"""Supervised, fault-tolerant execution of experiment grids.

PR 1's parallel harness fans a (workload × policy × config) grid out over
a ``ProcessPoolExecutor`` and assumes every worker returns.  This module
removes that assumption:

* :class:`RetryPolicy` — per-point wall-clock timeouts and bounded
  retries with exponential backoff and deterministic jitter;
* :func:`execute_supervised` — runs a grid under that policy, capturing
  each point's exception (with traceback text) into a structured
  :class:`RunOutcome` instead of letting the first raised future abort
  the grid; detects a broken pool (killed worker) or a hung worker
  (deadline exceeded), rebuilds the pool a bounded number of times, and
  degrades to in-process serial execution when the pool repeatedly dies;
* :class:`RunJournal` — an append-only manifest of per-point outcomes
  that survives ``SIGKILL`` mid-grid (each line is flushed and fsynced),
  giving ``--resume`` exact knowledge of what already finished;
* :class:`ResilienceReport` — the aggregate surfaced through
  ``harness.report`` and the CLI;
* :func:`chaos_smoke` — the seeded end-to-end check behind
  ``repro chaos``: inject worker crashes/hangs/kills plus cache
  corruption, and assert the final results are bit-identical to a clean
  serial run.

Simulations are deterministic pure functions of their content key, so a
retried or re-executed point always reproduces the same record —
supervision can never change results, only whether they arrive.
"""

from __future__ import annotations

import concurrent.futures as cf
import dataclasses
import hashlib
import json
import math
import os
import signal
import threading
import time
import traceback
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Iterable

from ..uarch.stats import CoreStats
from .runner import RunRecord

#: Terminal statuses a grid point can end in.
OUTCOME_STATUSES = ("ok", "retried", "timed-out", "failed", "cache-hit")


# ------------------------------------------------------------------ policy
@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """When to retry a grid point and when to give up.

    ``delay()`` is pure and deterministic: the jitter term is a hash of
    the point key and attempt number, not ``random``, so backoff schedules
    are reproducible and unit-testable while still decorrelating points
    that fail together.
    """

    max_attempts: int = 3          # total tries per point (1 = no retry)
    timeout: float | None = None   # per-point wall-clock seconds (pool mode)
    base_delay: float = 0.05       # first backoff, seconds
    backoff: float = 2.0           # multiplier per further attempt
    max_delay: float = 2.0         # backoff ceiling, seconds
    jitter: float = 0.5            # max extra fraction added to a delay
    max_pool_rebuilds: int = 3     # pool deaths tolerated before serial mode

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(
            self.base_delay * self.backoff ** max(attempt - 1, 0),
            self.max_delay,
        )
        if not self.jitter:
            return base
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).hexdigest()[:8]
        frac = int(digest, 16) / 0xFFFFFFFF
        return base * (1.0 + self.jitter * frac)


# ----------------------------------------------------------------- outcome
@dataclasses.dataclass
class RunOutcome:
    """What happened to one grid point under supervision."""

    key: str
    workload: str
    policy: str
    status: str            # one of OUTCOME_STATUSES
    attempts: int = 1
    duration: float = 0.0  # seconds spent on the successful/last attempt
    error: str = ""        # traceback text of the last failure, if any

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ResilienceReport:
    """Aggregate of one supervised grid execution."""

    outcomes: list[RunOutcome] = dataclasses.field(default_factory=list)
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(o.status for o in self.outcomes))

    @property
    def failed(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if o.status in ("failed", "timed-out")]

    @property
    def recovered(self) -> list[RunOutcome]:
        return [o for o in self.outcomes if o.status == "retried"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def absorb(self, other: "ResilienceReport") -> None:
        """Fold a later supervised pass into this report."""
        self.outcomes.extend(other.outcomes)
        self.pool_rebuilds += other.pool_rebuilds
        self.degraded_to_serial = (
            self.degraded_to_serial or other.degraded_to_serial
        )

    def text(self) -> str:
        from .tables import format_table

        counts = self.counts
        parts = [f"{counts.get(s, 0)} {s}" for s in OUTCOME_STATUSES
                 if counts.get(s)]
        lines = [f"resilience: {', '.join(parts) or 'nothing executed'}"
                 + (f", {self.pool_rebuilds} pool rebuild(s)"
                    if self.pool_rebuilds else "")
                 + (", degraded to serial" if self.degraded_to_serial else "")]
        noteworthy = [o for o in self.outcomes if o.status != "ok"
                      and o.status != "cache-hit"]
        if noteworthy:
            rows = [
                [o.workload, o.policy, o.status, o.attempts,
                 (o.error.strip().splitlines()[-1][:60] if o.error else "-")]
                for o in noteworthy
            ]
            lines.append(format_table(
                ["workload", "policy", "status", "attempts", "last error"],
                rows,
            ))
        return "\n".join(lines)


# ----------------------------------------------------------------- journal
class RunJournal:
    """Append-only manifest of completed grid points.

    One JSON object per line; every append is flushed and fsynced, so a
    process killed mid-grid leaves a manifest that exactly matches the
    work that finished (a torn final line is tolerated on read).
    """

    #: Statuses that count as "this point's result exists".
    DONE = ("ok", "retried", "cache-hit")

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def record(self, key: str, status: str, **meta) -> None:
        entry = {"key": key, "status": status, **meta}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as f:
            f.write(json.dumps(entry) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def entries(self) -> list[dict]:
        try:
            text = self.path.read_text()
        except OSError:
            return []
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn write from a kill mid-append
            if isinstance(entry, dict) and "key" in entry:
                entries.append(entry)
        return entries

    def completed(self) -> set[str]:
        """Keys whose results were fully produced before an interruption."""
        return {
            e["key"] for e in self.entries() if e.get("status") in self.DONE
        }

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


def journal_path_for(cache_root: Path, keys: Iterable[str], scale: str) -> Path:
    """Stable journal location for a given grid (same grid → same file)."""
    digest = hashlib.sha256(
        json.dumps({"scale": scale, "keys": sorted(keys)}).encode()
    ).hexdigest()[:16]
    return Path(cache_root) / f"journal-{digest}.jsonl"


# ------------------------------------------------------------- work items
@dataclasses.dataclass
class WorkItem:
    """One grid point queued for supervised execution."""

    key: str
    args: tuple            # picklable args for the worker function
    workload: str = ""
    policy: str = ""
    attempts: int = 0
    started: float = 0.0   # monotonic start of the in-flight attempt


def simulate_point(args: tuple) -> RunRecord:
    """Top-level pool-worker entrypoint (must be picklable).

    ``args`` is ``(scale, point, default_config)``; the runner consults
    the active fault plan (site ``worker``) before simulating, so
    injected crashes/hangs/kills surface exactly where real ones would.
    """
    from .runner import ExperimentRunner

    scale, point, default_config = args
    runner = ExperimentRunner(scale=scale, config=point.config or default_config)
    record = runner.run(
        point.workload,
        point.policy,
        use_compiler_info=point.use_compiler_info,
        observe=getattr(point, "observe", False),
    )
    return record.slim()


# ------------------------------------------------------------ worker pool
#: Seconds between a pool worker's checks that its parent is still alive.
ORPHAN_POLL_S = 0.5


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(ORPHAN_POLL_S)
    os._exit(0)


def _init_pool_worker() -> None:
    """Initializer of every simulation pool worker.

    A forked worker inherits its parent's signal set-up.  Under
    ``repro serve`` that is the event loop's drain handler, so SIGTERM
    would only poke the parent's wakeup fd and the worker would ignore
    it: restore the defaults.  A parent killed with SIGKILL cannot shut
    its pool down, and the orphan would block on its call queue forever,
    so the worker also exits once it has been reparented.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="orphan-watch", daemon=True).start()


def new_process_pool(workers: int) -> cf.ProcessPoolExecutor:
    """A simulation worker pool whose workers die with their parent."""
    return cf.ProcessPoolExecutor(max_workers=workers,
                                  initializer=_init_pool_worker)


# -------------------------------------------------------------- supervisor
def _failure_outcome(item: WorkItem, exc: BaseException,
                     status: str) -> RunOutcome:
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return RunOutcome(
        key=item.key, workload=item.workload, policy=item.policy,
        status=status, attempts=item.attempts,
        duration=time.monotonic() - item.started if item.started else 0.0,
        error=text,
    )


def _success_outcome(item: WorkItem) -> RunOutcome:
    return RunOutcome(
        key=item.key, workload=item.workload, policy=item.policy,
        status="ok" if item.attempts <= 1 else "retried",
        attempts=item.attempts,
        duration=time.monotonic() - item.started,
    )


def _execute_serial(
    items: list[WorkItem],
    worker: Callable[[tuple], RunRecord],
    policy: RetryPolicy,
    on_success: Callable[[WorkItem, RunRecord], None],
    report: ResilienceReport,
) -> None:
    """In-process execution with the same retry/outcome accounting.

    No wall-clock timeout is enforceable here (there is no process to
    abandon), so hung points simply run long — this is the degraded path
    of last resort and the ``jobs=1`` path.
    """
    for item in items:
        while True:
            item.attempts += 1
            item.started = time.monotonic()
            try:
                record = worker(item.args)
            except Exception as exc:
                if item.attempts >= policy.max_attempts:
                    report.outcomes.append(
                        _failure_outcome(item, exc, "failed"))
                    break
                time.sleep(policy.delay(item.attempts, item.key))
                continue
            on_success(item, record)
            report.outcomes.append(_success_outcome(item))
            break


def execute_supervised(
    items: list[WorkItem],
    worker: Callable[[tuple], RunRecord],
    jobs: int,
    policy: RetryPolicy,
    on_success: Callable[[WorkItem, RunRecord], None],
) -> ResilienceReport:
    """Run every item to a terminal outcome; never raises for a worker.

    Pool mode submits each item as its own future (per-point deadlines
    need per-point futures).  Three failure classes are distinguished:

    * a future that raises — the point's own fault; charged against its
      retry budget and retried after backoff;
    * ``BrokenProcessPool`` — some worker died (e.g. OOM-kill); the pool
      is rebuilt and *all* in-flight points resubmitted uncharged, since
      the victim cannot be identified;
    * a deadline overrun — the worker is hung; the pool is abandoned
      (hung workers cannot be individually killed portably), the hung
      point is charged an attempt, and innocents resubmit uncharged.

    Pool deaths beyond ``policy.max_pool_rebuilds`` degrade the rest of
    the grid to in-process serial execution.
    """
    report = ResilienceReport()
    if not items:
        return report
    if jobs <= 1:
        _execute_serial(items, worker, policy, on_success, report)
        _feed_metrics(report)
        return report

    workers = min(jobs, len(items))
    pool = new_process_pool(workers)
    pending: dict[cf.Future, WorkItem] = {}
    retry_at: list[tuple[float, WorkItem]] = []  # (due monotonic time, item)

    def submit(item: WorkItem) -> None:
        item.attempts += 1
        item.started = time.monotonic()
        pending[pool.submit(worker, item.args)] = item

    def rebuild_pool() -> bool:
        """New pool after a death; False once the rebuild budget is spent."""
        nonlocal pool
        report.pool_rebuilds += 1
        pool.shutdown(wait=False, cancel_futures=True)
        if report.pool_rebuilds > policy.max_pool_rebuilds:
            return False
        pool = new_process_pool(workers)
        return True

    def drain_to_serial() -> None:
        """Finish everything still outstanding in-process.

        Attempt charges carry over: the serial loop continues each item's
        budget rather than restarting it (callers uncharge items whose
        in-flight attempt was collateral damage, not their own fault).
        """
        report.degraded_to_serial = True
        leftovers = list(pending.values()) + [it for _, it in retry_at]
        pending.clear()
        retry_at.clear()
        _execute_serial(leftovers, worker, policy, on_success, report)

    try:
        for item in items:
            submit(item)
        while pending or retry_at:
            now = time.monotonic()
            # Re-submit retries whose backoff has elapsed.
            due = [it for when, it in retry_at if when <= now]
            retry_at = [(when, it) for when, it in retry_at if when > now]
            for item in due:
                submit(item)
            if not pending:
                if retry_at:
                    time.sleep(max(min(when for when, _ in retry_at) - now, 0.0))
                continue
            # Wait bounded by the nearest per-point deadline or retry due.
            wait_for = None
            if policy.timeout is not None:
                nearest = min(it.started + policy.timeout
                              for it in pending.values())
                wait_for = max(nearest - now, 0.0)
            if retry_at:
                nearest_retry = min(when for when, _ in retry_at) - now
                wait_for = (min(wait_for, max(nearest_retry, 0.0))
                            if wait_for is not None else max(nearest_retry, 0.0))
            done, _ = cf.wait(list(pending), timeout=wait_for,
                              return_when=cf.FIRST_COMPLETED)
            broken: list[WorkItem] = []
            for future in done:
                item = pending.pop(future)
                try:
                    record = future.result()
                except BrokenProcessPool:
                    broken.append(item)
                except Exception as exc:
                    if item.attempts >= policy.max_attempts:
                        report.outcomes.append(
                            _failure_outcome(item, exc, "failed"))
                    else:
                        retry_at.append((
                            time.monotonic()
                            + policy.delay(item.attempts, item.key),
                            item,
                        ))
                else:
                    on_success(item, record)
                    report.outcomes.append(_success_outcome(item))
            if broken:
                # A worker died; every sibling future is broken too.
                broken.extend(pending.values())
                pending.clear()
                for it in broken:
                    it.attempts = max(it.attempts - 1, 0)  # uncharged
                if not rebuild_pool():
                    retry_at.extend((0.0, it) for it in broken)
                    drain_to_serial()
                    return report
                for it in broken:
                    submit(it)
                continue
            # Deadline scan: anything in flight past its budget is hung.
            if policy.timeout is not None and pending:
                now = time.monotonic()
                hung = [it for it in pending.values()
                        if now - it.started > policy.timeout]
                if hung:
                    innocents = [it for it in pending.values()
                                 if it not in hung]
                    pending.clear()
                    alive = rebuild_pool()
                    for it in innocents:
                        it.attempts = max(it.attempts - 1, 0)
                    for it in hung:
                        if it.attempts >= policy.max_attempts:
                            report.outcomes.append(RunOutcome(
                                key=it.key, workload=it.workload,
                                policy=it.policy, status="timed-out",
                                attempts=it.attempts,
                                duration=now - it.started,
                                error=(f"point exceeded {policy.timeout}s "
                                       f"wall-clock budget"),
                            ))
                    survivors = innocents + [
                        it for it in hung if it.attempts < policy.max_attempts
                    ]
                    if not alive:
                        retry_at.extend((0.0, it) for it in survivors)
                        drain_to_serial()
                        return report
                    for it in survivors:
                        submit(it)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        _feed_metrics(report)
    return report


def _feed_metrics(report: ResilienceReport) -> None:
    """Fold the grid's outcomes into the global service metrics registry.

    Best-effort by design: the registry (``repro.service.metrics``) is a
    pure-stdlib observer fed by both the batch harness and the daemon —
    a metrics problem must never fail a grid run.
    """
    try:
        from ..service.metrics import record_grid_report

        record_grid_report(report)
    except Exception:  # pragma: no cover - observer must stay silent
        pass


# ------------------------------------------------------------ hole records
class NanCounters(dict):
    """Counter dict standing in for a failed point's ``mem_stats``.

    Any key reads as NaN, so downstream arithmetic (energy model, miss
    rates) yields NaN instead of raising — which the table renderer then
    prints as an explicit hole.
    """

    def __missing__(self, key):
        return math.nan

    def get(self, key, default=None):
        return math.nan


def failed_run_record(workload: str, policy: str) -> RunRecord:
    """A hole: every counter is NaN so derived cells become NaN too."""
    stats = CoreStats()
    for f in dataclasses.fields(CoreStats):
        setattr(stats, f.name, math.nan)
    nan = math.nan
    return RunRecord(
        workload=workload, policy=policy, cycles=nan, committed=nan,
        ipc=nan, loads_gated=nan, load_gate_cycles=nan, mean_gate_delay=nan,
        gated_loads_pki=nan, mpki=nan, core_stats=stats,
        mem_stats=NanCounters(), result=None,
    )


def failed_experiment_result(experiment_id: str, exc: Exception):
    """Placeholder table for an experiment that could not render at all.

    Used under ``--keep-going`` when an experiment's own arithmetic (not
    just individual cells) cannot survive its failed grid points.
    """
    from .experiments.base import ExperimentResult

    return ExperimentResult(
        experiment_id=experiment_id,
        title="(not rendered)",
        headers=["status"],
        rows=[["FAILED"]],
        notes=f"experiment failed around missing grid points: {exc}",
    )


HOLE = "—"


def scrub_holes(rows: list[list]) -> int:
    """Replace NaN cells (failed points) with an explicit hole marker.

    Mutates ``rows`` in place; returns how many cells were holes.
    """
    holes = 0
    for row in rows:
        for i, cell in enumerate(row):
            if isinstance(cell, float) and math.isnan(cell):
                row[i] = HOLE
                holes += 1
    return holes


# ------------------------------------------------------------- chaos smoke
def chaos_smoke(
    seed: int = 0,
    scale: str = "test",
    jobs: int = 2,
    workloads: tuple[str, ...] = ("gather", "pchase"),
    policies: tuple[str, ...] = ("none", "levioso"),
    cache_dir: str | Path | None = None,
    log: Callable[[str], None] | None = print,
) -> bool:
    """Seeded end-to-end fault drill; True iff recovery was bit-identical.

    Runs a small grid twice: once clean and serial (the reference), once
    under the default chaos plan (worker crashes, a hang, a kill, cache
    corruption, a transient read error) with supervision and a persistent
    cache.  Passes iff the supervised run converges without operator
    intervention and every record matches the reference exactly.
    """
    import tempfile

    from ..faults import default_chaos_plan, uninstall
    from .cache import ResultCache
    from .parallel import GridPoint, ParallelRunner

    def say(message: str) -> None:
        if log is not None:
            log(message)

    points = [GridPoint(w, p) for w in workloads for p in policies]

    uninstall()
    reference = ParallelRunner(scale=scale, jobs=1)
    reference.prefetch(points)
    expected = {
        (p.workload, p.policy): reference.run(p.workload, p.policy)
        for p in points
    }
    say(f"reference: {reference.simulations} clean serial simulations")

    own_dir = cache_dir is None
    cache_dir = Path(cache_dir) if cache_dir is not None else Path(
        tempfile.mkdtemp(prefix="repro-chaos-"))
    plan = default_chaos_plan(seed).install()
    try:
        chaotic = ParallelRunner(
            scale=scale, jobs=jobs, cache=ResultCache(cache_dir),
            retry_policy=RetryPolicy(max_attempts=4, timeout=2.0),
            keep_going=True,
        )
        chaotic.prefetch(points)
        report = chaotic.report
        say(report.text())
        say(f"faults fired: {plan.fired()}")
        # The corrupted cache entry is exercised on a warm re-read: the
        # poisoned file must quarantine, re-simulate, and still match.
        warm_cache = ResultCache(cache_dir)
        warm = ParallelRunner(
            scale=scale, jobs=1, cache=warm_cache,
            retry_policy=RetryPolicy(max_attempts=4),
        )
        warm.prefetch(points)
        ok = report.ok
        for point in points:
            got = warm.run(point.workload, point.policy)
            want = expected[(point.workload, point.policy)]
            if (got.cycles, got.committed, got.loads_gated) != (
                    want.cycles, want.committed, want.loads_gated):
                say(f"MISMATCH {point.workload}/{point.policy}: "
                    f"{got.cycles} vs {want.cycles} cycles")
                ok = False
        if warm_cache.stats.corrupt or warm_cache.stats.quarantined:
            say(f"quarantined {warm_cache.stats.quarantined} corrupt "
                f"cache entr(ies) during warm re-read")
        verify = ResultCache(cache_dir).verify()
        if not verify.clean:
            say(f"cache verify after repair path: {verify.as_dict()}")
            ok = False
        say("chaos smoke: " + ("PASS — recovered results bit-identical "
                               "to the clean serial run" if ok else "FAIL"))
        return ok
    finally:
        uninstall()
        if own_dir:
            import shutil

            shutil.rmtree(cache_dir, ignore_errors=True)
