"""regen-cold: regenerate every table at test scale from an empty run cache.

One unit is ``repro experiment <all 12 ids> --scale test --jobs 2 --cache
--cache-dir <fresh dir>`` in a fresh interpreter, so the per-process
decode and specialize caches start cold as they do for users.  The grid is
fixed: the seed changes nothing.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from . import batch, common, pins
from .result import Outcome

SEEDED = False
#: Pool workers of a unit: one regeneration at ``--jobs 1`` would outlast a run.
JOBS = 2
ARGS = ["experiment", *pins.EXPERIMENT_IDS, "--scale", pins.SCALE]


def measure(seed: int, seconds: float, work: Path) -> Outcome:
    grid: list = []

    def check(unit: dict) -> tuple[int, list[str]]:
        """One check per table digest and per grid point's cycle count."""
        if not grid:
            common.import_repro()
            grid.extend(pins.regen_grid())
        pinned = pins.load()
        failures = pins.check_tables(unit["proc"].stdout, pinned)
        failures += pins.check_cycles(pins.cached_cycles(unit["cache_dir"], grid),
                                      pinned["regen"]["points"])
        return len(pinned["regen"]["tables"]) + len(grid), failures

    return batch.measure(itertools.repeat((ARGS, None)), seconds, work, check,
                         "repro experiment", JOBS)


def trace(seed: int, seconds: float, work: Path) -> Outcome:
    def check(run: dict) -> tuple[int, list[str]]:
        tables = pins.load()["regen"]["tables"]
        return len(tables), [f"table {i}: digest differs from pin"
                             for i, digest in tables.items() if run["tables"].get(i) != digest]

    return batch.trace({"kind": "regen", "run_id": f"regen-cold/{seed}", "jobs": JOBS},
                       work, check)
