"""The benchmark's own tests: its checks catch a changed output, and it
refuses to run without the sources.

Run from the repository root (about a minute on 2 CPUs)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import common, fuzz, pins, probe, serve  # noqa: E402
from perfbench.spans import reduce_spans  # noqa: E402

common.import_repro()


def _workdir(tmp_path: Path, name: str) -> Path:
    return common.fresh_dir(tmp_path / name)


def _bump(pinned: dict, label: str) -> dict:
    changed = copy.deepcopy(pinned)
    changed["regen"]["points"][label] += 1
    return changed


@pytest.fixture(scope="module")
def small_regen(tmp_path_factory):
    """``repro experiment table1 fig1`` into a fresh cache: its stdout and grid."""
    cache_dir = tmp_path_factory.mktemp("regen") / "cache"
    ids = ("table1", "fig1")
    proc = common.run_child(
        common.repro_cmd("experiment", *ids, "--scale", "test", "--jobs", "1",
                         "--cache", "--cache-dir", str(cache_dir)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, pins.cached_cycles(cache_dir, pins.regen_grid(ids)), ids


def test_regen_outputs_match_pins(small_regen):
    stdout, cycles, ids = small_regen
    pinned = pins.load()
    subset = {"regen": {"tables": {i: pinned["regen"]["tables"][i] for i in ids}}}
    assert pins.check_tables(stdout, subset) == []
    assert pins.check_cycles(cycles, pinned["regen"]["points"]) == []


def test_changed_cycle_pin_is_one_failure(small_regen):
    _, cycles, _ = small_regen
    label = sorted(cycles)[0]
    failures = pins.check_cycles(cycles, _bump(pins.load(), label)["regen"]["points"])
    assert len(failures) == 1 and failures[0].startswith(label)


def test_changed_table_digest_is_one_failure(small_regen):
    stdout, _, ids = small_regen
    pinned = pins.load()
    subset = {"regen": {"tables": {i: pinned["regen"]["tables"][i] for i in ids}}}
    subset["regen"]["tables"]["fig1"] = "0" * 64
    failures = pins.check_tables(stdout, subset)
    assert len(failures) == 1 and "fig1" in failures[0]


def test_fuzz_run_reports_a_changed_digest(tmp_path, monkeypatch):
    pinned = pins.load()
    seed = pinned["fuzz"]["seed"]
    good = fuzz.measure(seed, 0.0, _workdir(tmp_path, "good"))
    assert good.final_line()["correct"], good.failures

    changed = copy.deepcopy(pinned)
    changed["fuzz"]["report_sha256"] = "0" * 64
    monkeypatch.setattr(pins, "load", lambda: changed)
    bad = fuzz.measure(seed, 0.0, _workdir(tmp_path, "bad"))
    line = bad.final_line()
    assert not line["correct"] and line["failed"] == 1
    assert "digest" in bad.failures[0]


def test_fuzz_report_check_catches_a_missed_leak():
    pinned = pins.load()
    report = {
        "gates": {"passed": True},
        "items": [{"name": "fuzz/s1/i0", "spec": {"intent": "leaky"},
                   "scanner": {"flagged": False}}],
    }
    attempted, failures = fuzz.check_report(json.dumps(report), 1, pinned)
    assert attempted == 2 and len(failures) == 1 and "missed" in failures[0]


def test_serve_run_reports_a_changed_cycle_pin(tmp_path, monkeypatch):
    monkeypatch.setattr(serve, "BATCHES", 5)
    pinned = pins.load()
    good = serve.measure(3, 0.0, _workdir(tmp_path, "good"))
    assert good.final_line()["correct"], good.failures

    # Every point's pin moves, so every job served must fail its check.
    changed = copy.deepcopy(pinned)
    for w in serve.WORKLOADS:
        for p in serve.POLICIES:
            changed["regen"]["points"][f"{w}/{p}"] += 1
    monkeypatch.setattr(pins, "load", lambda: changed)
    bad = serve.measure(3, 0.0, _workdir(tmp_path, "bad"))
    jobs = sum(bad.samples["jobs"])
    assert len(bad.failures) == jobs and not bad.final_line()["correct"]


def test_run_without_sources_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regen-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    spans = [
        (1, "root", 0.0, 10.0, None, 0),
        (2, "a", 1.0, 4.0, 1, 0),
        (3, "b", 2.0, 3.0, 2, 0),
        (4, "a", 5.0, 6.0, 1, 0),
    ]
    reduced = reduce_spans(spans)
    assert reduced["root"]["self_s"] == pytest.approx(6.0)
    assert reduced["a"]["self_s"] == pytest.approx(3.0)
    assert reduced["a"]["calls"] == 2
    assert reduced["b"]["self_s"] == pytest.approx(1.0)


def test_probe_scale_takes_the_host_slowdown_out(tmp_path):
    speed = probe.Probe(tmp_path)
    ref = probe.REFERENCE_CHUNK_S
    # Chunks from t=10 on take twice the reference CPU: the host slowed down.
    speed.chunks = [(t, t + 0.5, ref * (2 if t >= 10 else 1)) for t in range(20)]
    assert speed.scale(0, 10) == pytest.approx(1.0)
    assert speed.scale(10, 20) == pytest.approx(0.5)
    # Too few chunks inside the window: the nearest MIN_CHUNKS stand in.
    assert speed.scale(15, 15.2) == pytest.approx(0.5)


def test_probe_process_records_chunks_and_exits(tmp_path):
    with probe.Probe(tmp_path) as speed:
        time.sleep(3.0)
    assert speed.proc.returncode == 0
    assert len(speed.chunks) >= probe.MIN_CHUNKS
    assert all(start < end and cpu > 0 for start, end, cpu in speed.chunks)
