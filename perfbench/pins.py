"""Pinned outputs and the checks that compare a run against them.

``pins.json`` holds, at test scale:

* the simulated cycle count of every ``regen-cold`` grid point, keyed by a
  readable label (``workload/policy`` plus ``/nocomp``, ``/observe`` and
  any config field that differs from the default);
* the sha256 of every table ``repro experiment`` renders;
* the sha256 of the ``repro fuzz --json`` report for the pinned corpus seed.

A mismatch is a failed operation in the run that found it.  Regenerate the
file only on purpose, when simulated timing is meant to change::

    python3 -m perfbench.pins        # from the repository root

The check functions import the checkout's ``repro`` package, so callers
run them after the timed part of a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from . import common

PINS_PATH = Path(__file__).resolve().parent / "pins.json"
SCALE = "test"
#: Every experiment id, in the order the tables are printed.
EXPERIMENT_IDS = (
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
    "ablationA", "ablationB", "ablationC", "energy", "swcmp",
)
#: Programs per fuzz campaign (one unit of ``fuzz-repair``).
FUZZ_COUNT = 32


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> dict:
    return json.loads(PINS_PATH.read_text())


def config_diff(point) -> dict:
    """Config fields of ``point`` that differ from the default (JSON-able)."""
    from repro.uarch import CoreConfig

    if point.config is None:
        return {}
    default = CoreConfig()
    return {
        f.name: getattr(point.config, f.name)
        for f in dataclasses.fields(CoreConfig)
        if getattr(point.config, f.name) != getattr(default, f.name)
    }


def point_label(point) -> str:
    """Readable, version-independent name of one grid point."""
    label = f"{point.workload}/{point.policy}"
    if not point.use_compiler_info:
        label += "/nocomp"
    label += "".join(f"/{name}={value}" for name, value in config_diff(point).items())
    if point.observe:
        label += "/observe"
    return label


def regen_grid(ids=EXPERIMENT_IDS) -> list:
    """Unique grid points of the experiments, in planning order, labelled.

    Returns ``[(label, key, GridPoint)]``; the key is the run-cache key the
    harness stores the point under.
    """
    from repro.harness import ExperimentRunner, plan_experiment_grid

    planner = ExperimentRunner(scale=SCALE)
    seen: set[str] = set()
    out = []
    for point in plan_experiment_grid(ids, planner):
        key = planner.run_key_for(point.workload, point.policy,
                                  point.config or planner.config,
                                  point.use_compiler_info, point.observe)
        if key not in seen:
            seen.add(key)
            out.append((point_label(point), key, point))
    return out


def split_tables(stdout: str) -> dict[str, str]:
    """``repro experiment`` output -> {experiment id: rendered table}.

    The CLI prints the tables in id order, each followed by a blank line;
    a table itself holds no blank line.
    """
    lines = stdout.splitlines()
    tables = {}
    cursor = 0
    for experiment_id in EXPERIMENT_IDS:
        prefix = f"{experiment_id}: "
        start = next((i for i in range(cursor, len(lines)) if lines[i].startswith(prefix)), None)
        if start is None:
            continue  # not printed (a subset of the experiments ran)
        end = start
        while end < len(lines) and lines[end].strip():
            end += 1
        tables[experiment_id] = "\n".join(lines[start:end])
        cursor = end
    return tables


def check_tables(stdout: str, pins: dict) -> list[str]:
    """One failure per table whose digest differs from its pin (or is missing)."""
    tables = split_tables(stdout)
    failures = []
    for experiment_id, digest in pins["regen"]["tables"].items():
        text = tables.get(experiment_id)
        if text is None:
            failures.append(f"table {experiment_id}: not printed")
        elif sha256(text) != digest:
            failures.append(f"table {experiment_id}: digest {sha256(text)[:12]} != pinned {digest[:12]}")
    return failures


def check_cycles(observed: dict[str, int | None], pinned: dict[str, int]) -> list[str]:
    """One failure per label whose cycle count is missing or differs."""
    failures = []
    for label, cycles in observed.items():
        want = pinned.get(label)
        if want is None:
            failures.append(f"{label}: no pinned cycle count")
        elif cycles != want:
            failures.append(f"{label}: {cycles} cycles, pinned {want}")
    return failures


def cached_cycles(cache_dir: Path, grid: list) -> dict[str, int | None]:
    """Cycle count the run cache holds for each grid point (None if absent)."""
    from repro.harness import ResultCache

    cache = ResultCache(cache_dir)
    out = {}
    for label, key, _ in grid:
        record = cache.get(key)
        out[label] = record.cycles if record is not None else None
    return out


def make_pins() -> dict:
    """Regenerate every pin from the current code (about a minute on 2 CPUs)."""
    common.import_repro()
    work = common.fresh_dir(common.WORK / "pins")
    cache_dir = work / "cache"
    proc = common.run_child(
        common.repro_cmd("experiment", *EXPERIMENT_IDS, "--scale", SCALE,
                         "--jobs", str(common.JOBS), "--cache", "--cache-dir", str(cache_dir)),
        timeout=900,
    )
    if proc.returncode != 0:
        raise common.BenchError(f"repro experiment failed: {proc.stderr[-2000:]}")
    grid = regen_grid()
    cycles = cached_cycles(cache_dir, grid)
    missing = [label for label, value in cycles.items() if value is None]
    if missing:
        raise common.BenchError(f"grid points missing from the cache: {missing[:5]}")
    tables = split_tables(proc.stdout)
    fuzz = common.run_child(
        common.repro_cmd("fuzz", "--seed", str(common.FUZZ_PINNED_SEED),
                         "--count", str(FUZZ_COUNT), "--repair", "--jobs", "1",
                         "--json"),
        timeout=900,
    )
    if fuzz.returncode != 0:
        raise common.BenchError(f"repro fuzz failed: {fuzz.stderr[-2000:]}")
    return {
        "scale": SCALE,
        "regen": {
            "ids": list(EXPERIMENT_IDS),
            "points": dict(sorted(cycles.items())),
            "tables": {i: sha256(tables[i]) for i in EXPERIMENT_IDS},
        },
        "fuzz": {
            "seed": common.FUZZ_PINNED_SEED,
            "count": FUZZ_COUNT,
            "report_sha256": sha256(fuzz.stdout.rstrip("\n")),
        },
    }


if __name__ == "__main__":
    pins = make_pins()
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins['regen']['points'])} cycle pins, "
          f"{len(pins['regen']['tables'])} table digests and the fuzz digest "
          f"to {PINS_PATH}")
