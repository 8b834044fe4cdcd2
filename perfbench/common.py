"""Shared plumbing: paths, child environment, statistics, provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of a run (ignored by git); each run works in its own subdir.
WORK = ROOT / ".perfbench"
#: Most worker processes any part of the benchmark runs side by side
#: (regen-cold's pool, serve-mixed's prefill, a traced run's replay shards).
#: The reference host has 2 CPUs; more would measure the OS scheduler.
JOBS = 2
#: Every workload's set-up is repeated this many times; setup_s is the median.
#: Each repeat is short, so the host-speed probe needs many to read the
#: host's speed over them (see perfbench/probe.py).
SETUP_REPEATS = 10
#: Seed that tuning never used; a claimed gain must also hold on it.
HELD_OUT_SEED = 1009
#: Default corpus seed of ``repro fuzz`` (its report digest is pinned).
FUZZ_PINNED_SEED = 7


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, daemon never up...)."""


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}: run from a checkout of the repository")


def import_repro() -> None:
    """Make the checkout's ``repro`` importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources, no REPRO_* knobs.

    Stripping ``REPRO_*`` keeps a stray ``REPRO_JOBS`` or fast-path opt-out
    in the caller's shell from changing what is measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def helper_cmd(module: str, *args: str) -> list[str]:
    return [sys.executable, "-m", f"perfbench.{module}", *args]


def run_child(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """Run one child to completion, capturing its output as text."""
    return subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout, check=False, **kwargs,
    )


def children_cpu_s() -> float:
    """User+sys seconds of every waited-for descendant so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def self_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def tree_cpu_s(pid: int) -> float:
    """User+sys seconds of a live process and its live descendants (/proc)."""
    ticks = os.sysconf("SC_CLK_TCK")
    parents: dict[int, int] = {}
    cpu: dict[int, float] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
        cpu[int(entry)] = (int(fields[11]) + int(fields[12])) / ticks
    total, frontier = 0.0, [pid]
    while frontier:
        current = frontier.pop()
        total += cpu.get(current, 0.0)
        frontier.extend(p for p, parent in parents.items() if parent == current)
    return total


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli_cold_start() -> float:
    """Seconds for a fresh interpreter to load the CLI (``repro --version``)."""
    start = time.perf_counter()
    proc = run_child(repro_cmd("--version"), timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"repro --version failed: {proc.stderr.strip()[-400:]}")
    return elapsed


def source_digest() -> str:
    """sha256 over the package sources (stands in for the commit outside git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def provenance(workload: str, seed: int, trace: bool, processes: list[dict],
               seeded: bool, jobs: int) -> dict:
    """Where a result came from: code, interpreter, host, knobs, cold starts."""
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": seeded,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "jobs": jobs,
        "processes": processes,
    }
