"""Restart durability: state that must survive a SIGKILL.

Two persistence layers make interrupted work cheap to finish:

* the daemon's on-disk :class:`ResultCache` — a killed-and-restarted
  ``repro serve`` with the same ``--cache-dir`` answers previously
  completed keys as cache hits without re-simulating;
* the :class:`RunJournal` — a batch invocation killed mid-grid leaves a
  fsynced manifest, and ``--resume`` re-simulates only the points whose
  results never landed, including when the kill interrupts a *lockstep
  batch* (whole-batch completions journal per member, so a half-done
  batch is simply absent and reruns).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import GridPoint, ParallelRunner
from repro.harness.resilience import RunJournal
from repro.harness.runner import ExperimentRunner
from repro.service.client import ServiceClient

RUNS = [
    {"workload": "gather", "policy": "none", "scale": "test"},
    {"workload": "gather", "policy": "levioso", "scale": "test"},
]


def _repro_env() -> dict:
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_daemon(cache_dir: Path, log_path: Path) -> tuple:
    """Start ``repro serve --port 0`` and parse the bound URL from its
    startup line (written before the daemon accepts work)."""
    log = open(log_path, "a")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "1", "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=log, text=True, env=_repro_env(),
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        log.write(line)
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            return proc, match.group(1)
    proc.kill()
    raise AssertionError(f"daemon never announced its port; see {log_path}")


def test_daemon_restart_serves_completed_keys_from_disk(tmp_path):
    cache_dir = tmp_path / "cache"
    proc, url = _spawn_daemon(cache_dir, tmp_path / "serve1.log")
    try:
        client = ServiceClient(url)
        first = client.run_grid(RUNS, timeout=120.0)
        baseline = {
            (j["request"]["workload"], j["request"]["policy"]):
                ResultCache.serialize(r)
            for j, r in first
        }
        assert not any(j["cached"] for j, _ in first)
    finally:
        proc.kill()         # SIGKILL: no drain, no atexit, no flush
    assert proc.wait(timeout=30) == -signal.SIGKILL

    proc, url = _spawn_daemon(cache_dir, tmp_path / "serve2.log")
    try:
        client = ServiceClient(url)
        again = client.run_grid(RUNS, timeout=60.0)
        for job, record in again:
            # Served straight from the persistent result cache: the job
            # is answered at submit time, no flight, no simulation.
            assert job["cached"], job
            key = (job["request"]["workload"], job["request"]["policy"])
            assert ResultCache.serialize(record) == baseline[key]
        metrics = client.metrics()
        assert metrics["repro_service_cache_hits_total"] == len(RUNS)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0   # clean drain on the way out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def _children(pid: int) -> set[int]:
    kids: set[int] = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        kids.update(int(c) for c in (task / "children").read_text().split())
    return kids


def _alive(pid: int) -> bool:
    """Running, as opposed to gone or a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task").is_dir(),
                    reason="reads worker pids from /proc")
def test_sigkilled_daemon_leaves_no_pool_worker(tmp_path):
    proc, url = _spawn_daemon(tmp_path / "cache", tmp_path / "serve.log")
    try:
        ServiceClient(url).run_grid(RUNS[:1], timeout=120.0)
        workers = _children(proc.pid)
        assert workers, "the simulation ran without a pool worker"
    finally:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 5.0
    while any(_alive(w) for w in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = [w for w in workers if _alive(w)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left, f"orphaned pool worker(s) {left} outlived the daemon"


# Two workloads x several policies -> two lockstep batches under
# REPRO_NO_LOCKSTEP=0 (points sharing a workload share a program image).
# gather's batch finishes fast; bsearch's batch runs long enough that a
# kill fired right after gather's journal entries lands mid-batch.
RESUME_GRID = [
    ("gather", "none"), ("gather", "levioso"),
    ("bsearch", "none"), ("bsearch", "fence"), ("bsearch", "levioso"),
]

_CHILD_SCRIPT = """
import os
from repro.harness.cache import ResultCache
from repro.harness.parallel import GridPoint, ParallelRunner
from repro.harness.resilience import RunJournal

cache = ResultCache(os.environ["DRILL_CACHE"])
journal = RunJournal(os.environ["DRILL_JOURNAL"])
runner = ParallelRunner(scale="test", jobs=1, cache=cache, journal=journal)
grid = [GridPoint(w, p) for w, p in [
    ("gather", "none"), ("gather", "levioso"),
    ("bsearch", "none"), ("bsearch", "fence"), ("bsearch", "levioso"),
]]
runner.prefetch(grid)
print("GRID DONE", flush=True)
"""


@pytest.mark.skipif(os.environ.get("REPRO_NO_LOCKSTEP") == "1",
                    reason="drill targets the lockstep batch path")
def test_journal_resume_after_kill_mid_lockstep_batch(tmp_path):
    cache_dir = tmp_path / "cache"
    journal_path = tmp_path / "journal.jsonl"
    env = _repro_env()
    env["DRILL_CACHE"] = str(cache_dir)
    env["DRILL_JOURNAL"] = str(journal_path)
    env.pop("REPRO_NO_LOCKSTEP", None)

    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    journal = RunJournal(journal_path)
    try:
        # The journal fsyncs every append: the instant gather's batch
        # completes, its two entries are readable here — and bsearch's
        # three-point batch is still simulating.  Kill right then.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if len(journal.completed()) >= 2:
                break
            if proc.poll() is not None:
                raise AssertionError("child finished before the kill — "
                                     "grid too fast for this machine?")
            time.sleep(0.01)
        proc.kill()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)

    done = journal.completed()
    assert len(done) >= 2, "first lockstep batch never journaled"

    cache = ResultCache(cache_dir)
    keyer = ParallelRunner(scale="test", jobs=1, cache=cache)
    keys = {
        (w, p): keyer.run_key_for(w, p, keyer.config, True)
        for w, p in RESUME_GRID
    }
    missing = [k for k in keys.values() if cache.get(k) is None]
    assert missing, "kill landed after the whole grid completed"
    # Journaled keys must actually have their results on disk — the
    # journal never gets ahead of the cache (record is written after
    # the cache put, and both are fsynced/atomic respectively).
    for key in done:
        assert cache.get(key) is not None

    resumed = ParallelRunner(scale="test", jobs=1, cache=cache,
                             journal=RunJournal(journal_path), resume=True)
    resumed.prefetch([GridPoint(w, p) for w, p in RESUME_GRID])
    # Resume re-simulates exactly the points that never landed: the
    # interrupted batch's members, never the completed batch's.
    assert resumed.simulations == len(missing)
    assert journal.completed() >= set(keys.values())

    serial = ExperimentRunner(scale="test")
    for (w, p), key in keys.items():
        assert ResultCache.serialize(resumed.run(w, p).slim()) \
            == ResultCache.serialize(serial.run(w, p).slim())
