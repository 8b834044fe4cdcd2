"""Counter-exact pins for programs with in-flight FENCE instructions.

The bit-identity suites run kernels without fences, so they never reach the
path where an older in-flight fence blocks younger memory operations.  These
pins were recorded from the core before the oldest-fence probe moved out of
the per-load issue attempt; every counter — core, policy and memory — must
still come out identical.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.secure import make_policy
from repro.uarch import OooCore
from repro.workloads import build_workload

PINS = json.loads(
    (Path(__file__).parent / "data" / "fence_counter_pins.json").read_text()
)


@pytest.mark.parametrize("key", sorted(PINS))
def test_fence_heavy_counters_match_pins(key):
    name, policy = key.split("|")
    program = build_workload(name, "test").assemble()
    core = OooCore(program, policy=make_policy(policy))
    result = core.run()
    assert {
        "core": dataclasses.asdict(result.stats),
        "policy": dataclasses.asdict(core.policy.stats),
        "memory": core.hierarchy.stats(),
    } == PINS[key]
