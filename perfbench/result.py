"""What a workload run reports: checks, metrics, samples and provenance."""

from __future__ import annotations

from dataclasses import dataclass, field

#: End-to-end metrics every untraced run prints, with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    #: Sample counts behind the reported values (latency samples, units...).
    samples: dict = field(default_factory=dict)
    processes: list[dict] = field(default_factory=list)
    #: Per-layer runs: metrics that read 0 (layer not called, or no events).
    zero: list[str] = field(default_factory=list)
    #: Per-layer runs: wall inside each root span that no layer span covers.
    uncovered: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    trace_files: list[dict] = field(default_factory=list)

    def add(self, attempted: int, failures: list[str]) -> None:
        """Record ``attempted`` checked operations, ``failures`` of which failed."""
        self.attempted += attempted
        self.failures.extend(failures)

    def end_to_end(self, **values: float) -> None:
        values["ok_share"] = (
            (self.attempted - len(self.failures)) / self.attempted if self.attempted else 0.0
        )
        missing = set(END_TO_END) - set(values)
        if missing:
            raise ValueError(f"end-to-end metrics not measured: {sorted(missing)}")
        self.metrics = {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END.items()}

    def layer_metrics(self, reduced: tuple) -> None:
        self.metrics, self.zero, self.uncovered = reduced

    def final_line(self) -> dict:
        failed = len(self.failures)
        return {
            "correct": failed == 0 and self.attempted > 0,
            "attempted": max(self.attempted, 1),
            "failed": failed if self.attempted else 1,
            "metrics": self.metrics,
        }
