"""Ablations A and C run through the runner, its store and the pool.

The rows, geomeans and per-cell cycle counts in ``data/ablation_pins.json``
were recorded at test scale from the harness before either ablation moved
onto the runner (ablation A then re-simulated its baseline without
metadata; ablation C built its cores directly).  Both tables must come out
identical, and a warm rerun must answer every cell from the run cache.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.harness import ExperimentRunner, ResultCache, run_experiments
from repro.harness.experiments import ablation_compiler, ablation_mask
from repro.secure import make_policy
from repro.uarch import CoreConfig, OooCore
from repro.workloads import build_workload

PINS = json.loads(
    (Path(__file__).parent / "data" / "ablation_pins.json").read_text()
)
IDS = ("ablationA", "ablationC")


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold regeneration of both ablations on two pool workers."""
    cache_dir = tmp_path_factory.mktemp("ablation-cache")
    results = run_experiments(list(IDS), scale="test", jobs=2,
                              cache=ResultCache(cache_dir))
    return cache_dir, results


def _count_cores(monkeypatch) -> list:
    built = []
    init = OooCore.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(OooCore, "__init__", counting)
    return built


def _table(result) -> dict:
    extras = dict(result.extras)
    if "series" in extras:
        extras["series"] = [list(entry) for entry in extras["series"]]
    return {"headers": result.headers, "rows": result.rows, "extras": extras}


@pytest.mark.parametrize("experiment_id", IDS)
def test_ablation_tables_match_pins(cold, experiment_id):
    _, results = cold
    pinned = {k: v for k, v in PINS[experiment_id].items() if k != "cycles"}
    assert _table(results[experiment_id]) == pinned


def test_ablation_cells_match_pinned_cycles(cold, monkeypatch):
    cache_dir, _ = cold
    built = _count_cores(monkeypatch)
    runner = ExperimentRunner(scale="test", cache=ResultCache(cache_dir))
    observed = {}
    for key in PINS["ablationA"]["cycles"]:
        name, policy, info = key.split("|")
        observed[key] = runner.run(
            name, policy, use_compiler_info=info == "informed").cycles
    assert observed == PINS["ablationA"]["cycles"]
    observed = {}
    for key in PINS["ablationC"]["cycles"]:
        name, policy, *width = key.split("|")
        config = None
        if width:
            config = CoreConfig(dep_matrix_width=(
                None if width[0] == "None" else int(width[0])))
        observed[key] = runner.run(name, policy, config=config).cycles
    assert observed == PINS["ablationC"]["cycles"]
    # Every cell, bounded widths included, landed in the run cache.
    assert not built


def test_warm_rerun_builds_no_core(cold, monkeypatch):
    cache_dir, results = cold
    built = _count_cores(monkeypatch)
    cache = ResultCache(cache_dir)
    warm = run_experiments(list(IDS), scale="test", jobs=2, cache=cache)
    assert not built
    assert (cache.stats.misses, cache.stats.stores) == (0, 0)
    for experiment_id in IDS:
        assert _table(warm[experiment_id]) == _table(results[experiment_id])


@pytest.mark.parametrize("name", ablation_compiler.WORKLOAD_SUBSET)
def test_unprotected_core_ignores_compiler_metadata(name):
    # Ablation A divides both arms by the one baseline run with metadata;
    # that is only sound while the unprotected core's timing never reads
    # it.  The Fig. 1 motivation counter loads_true_dep_at_issue samples
    # the metadata itself, so it alone differs by construction.
    program = build_workload(name, "test").assemble()
    runs = [OooCore(program, use_compiler_info=info).run()
            for info in (True, False)]
    informed, blind = (dataclasses.asdict(r.stats) for r in runs)
    del informed["loads_true_dep_at_issue"], blind["loads_true_dep_at_issue"]
    assert blind == informed
    assert runs[1].hierarchy.stats() == runs[0].hierarchy.stats()


@pytest.mark.parametrize("width", [0, -1, 1.5, "2"])
def test_dep_matrix_width_must_be_positive(width):
    with pytest.raises(ConfigError):
        CoreConfig(dep_matrix_width=width)


def test_core_binds_dep_matrix_width_into_levioso():
    program = build_workload("gather", "test").assemble()
    bounded = OooCore(program, config=CoreConfig(dep_matrix_width=2),
                      policy=make_policy("levioso"))
    assert bounded.policy.dep_matrix_width == 2
    unbounded = OooCore(program, policy=make_policy("levioso"))
    assert unbounded.policy.dep_matrix_width is None


def test_width_sweep_points_have_distinct_run_keys():
    runner = ExperimentRunner(scale="test")
    keys = {
        runner.run_key_for("gather", "levioso",
                           CoreConfig(dep_matrix_width=width))
        for width in ablation_mask.WIDTHS
    }
    assert len(keys) == len(ablation_mask.WIDTHS)
    assert runner.run_key_for("gather", "levioso") in keys
