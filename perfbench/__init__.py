"""The repository's benchmark: end-to-end workloads plus a traced per-layer run.

Run one workload from the repository root::

    python3 perfbench/run.py --workload regen-cold --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what each
per-layer metric is expected to move.
"""
