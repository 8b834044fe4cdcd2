"""Run one benchmark workload, check its outputs and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload regen-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``).  Lines before it name the
sample counts, failed checks and the run's provenance.  A checkout without
the ``repro`` sources exits 2 without a result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, fuzz, regen, serve  # noqa: E402

WORKLOADS = {"regen-cold": regen, "fuzz-repair": fuzz, "serve-mixed": serve}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep repeating the workload's unit until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_sources()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    module = WORKLOADS[args.workload]
    work = common.fresh_dir(common.WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        outcome = (module.trace if args.trace else module.measure)(args.seed, args.seconds, work)
    except common.BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    processes = outcome.processes
    provenance = common.provenance(args.workload, args.seed, bool(args.trace), processes,
                                   seeded=module.SEEDED, jobs=module.JOBS)
    for failure in outcome.failures[:50]:
        print(f"FAILED: {failure}")
    if len(outcome.failures) > 50:
        print(f"FAILED: ... and {len(outcome.failures) - 50} more")
    print(f"samples: {json.dumps(outcome.samples, sort_keys=True)}")
    if args.trace:
        print(f"read 0 on {args.workload} (layer not called, or no events): "
              f"{', '.join(outcome.zero) or 'none'}")
        print("wall not covered by layer spans (s): "
              + json.dumps({k: round(v, 4) for k, v in outcome.uncovered.items()}, sort_keys=True))
        print(f"notes: {json.dumps(outcome.notes, sort_keys=True)}")
        trace_path = common.WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": provenance, "traces": outcome.trace_files,
            "metrics": outcome.metrics, "uncovered_s": outcome.uncovered,
            "zero": outcome.zero,
        }))
        print(f"spans written to {trace_path.relative_to(common.ROOT)}")
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    print(json.dumps(outcome.final_line()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
