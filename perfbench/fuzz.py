"""fuzz-repair: an adversarial campaign with repair on a fresh corpus.

One unit is ``repro fuzz --seed S --count 32 --repair --jobs 1 --json``
in a fresh interpreter, with the run's seed as the corpus seed.  Every
program is new, so per-program set-up (assembly, the static scan, decode
and specialize compilation, core construction) never amortises.  The
unit also writes a fresh run cache; nothing reads it back, it only
timestamps when each simulated point's result landed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from . import batch, pins
from .result import Outcome

SEEDED = True
#: Pool workers of a unit: the load comes from one process, so the
#: host-speed probe keeps a CPU of its own.
JOBS = 1


def commands(seed: int):
    """Unit 0 uses the run's seed as its corpus seed; later units draw theirs from it."""
    rng = random.Random(f"fuzz-repair:{seed}")
    corpus_seed = seed
    while True:
        yield ["fuzz", "--seed", str(corpus_seed), "--count", str(pins.FUZZ_COUNT),
               "--repair", "--json"], corpus_seed
        corpus_seed = rng.randrange(1, 2**31)


def check_report(text: str, corpus_seed: int, pinned: dict) -> tuple[int, list[str]]:
    """(checks attempted, failures) for one campaign report.

    Each program is one check: an intended-leaky program the scanner misses,
    or a repaired program that still leaks or stays flagged, fails.  The
    campaign gates are one more, and for the pinned seed the report digest.
    """
    try:
        report = json.loads(text)
    except ValueError:
        return 1, ["fuzz report is not JSON"]
    failures = []
    for item in report["items"]:
        if item["spec"]["intent"] == "leaky" and not item["scanner"]["flagged"]:
            failures.append(f"{item['name']}: scanner missed an intended leak")
        repair = item.get("repair")
        if repair and (not repair["scanner_clean"] or "LEAKS" in repair["oracle"].values()):
            failures.append(f"{item['name']}: still leaky after repair")
    attempted = len(report["items"]) + 1
    if not report["gates"]["passed"]:
        failures.append(f"campaign gates FAIL: {report['gates']}")
    if corpus_seed == pinned["fuzz"]["seed"] and pins.FUZZ_COUNT == pinned["fuzz"]["count"]:
        attempted += 1
        if pins.sha256(text) != pinned["fuzz"]["report_sha256"]:
            failures.append(f"seed {corpus_seed}: report digest differs from pin")
    return attempted, failures


def measure(seed: int, seconds: float, work: Path) -> Outcome:
    def check(unit: dict) -> tuple[int, list[str]]:
        return check_report(unit["proc"].stdout.rstrip("\n"), unit["tag"], pins.load())

    return batch.measure(commands(seed), seconds, work, check, "repro fuzz", JOBS)


def trace(seed: int, seconds: float, work: Path) -> Outcome:
    def check(run: dict) -> tuple[int, list[str]]:
        pinned = pins.load()["fuzz"]
        failures = [] if run["gates"]["passed"] else [f"campaign gates FAIL: {run['gates']}"]
        if seed == pinned["seed"] and run["report_sha256"] != pinned["report_sha256"]:
            failures.append(f"seed {seed}: report digest differs from pin")
        return 1 + (seed == pinned["seed"]), failures

    return batch.trace({"kind": "fuzz", "run_id": f"fuzz-repair/{seed}", "seed": seed,
                        "count": pins.FUZZ_COUNT, "jobs": JOBS}, work, check)
