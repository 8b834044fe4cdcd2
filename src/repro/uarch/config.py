"""Out-of-order core configuration (Table 1 of the reproduction)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigError
from ..mem.hierarchy import MemHierarchyConfig


@dataclass(frozen=True)
class CoreConfig:
    """All microarchitectural parameters of one simulated core.

    Defaults model a contemporary mid-size out-of-order core (gem5 O3-like),
    and are the configuration reported as Table 1 in EXPERIMENTS.md.
    """

    # Widths
    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4

    # Windows / queues
    rob_size: int = 192
    iq_size: int = 64
    lq_size: int = 48
    sq_size: int = 48
    fetch_queue_size: int = 32

    # Front end
    frontend_latency: int = 5          # fetch -> dispatch pipe depth
    predictor: str = "tournament"
    btb_entries: int = 1024
    ras_depth: int = 16

    # Execution resources
    alu_ports: int = 4
    mul_ports: int = 1
    div_ports: int = 1
    mem_ports: int = 2

    # Latencies (cycles)
    alu_latency: int = 1
    branch_latency: int = 2            # issue-to-resolve depth of branches
    mul_latency: int = 3
    div_latency: int = 12
    agu_latency: int = 1               # address generation before cache access
    store_forward_latency: int = 2

    # Secure-speculation hardware budget: columns of Levioso's per-
    # instruction dependency matrix (None = unbounded tracking).
    dep_matrix_width: int | None = None

    # Memory system
    mem: MemHierarchyConfig = field(default_factory=MemHierarchyConfig)

    # Safety rails
    max_cycles: int = 20_000_000

    def __post_init__(self) -> None:
        positive_fields = (
            "fetch_width", "dispatch_width", "issue_width", "commit_width",
            "rob_size", "iq_size", "lq_size", "sq_size", "fetch_queue_size",
            "frontend_latency", "alu_ports", "mem_ports",
            "alu_latency", "agu_latency",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigError(f"CoreConfig.{name} must be positive")
        width = self.dep_matrix_width
        if width is not None and (not isinstance(width, int) or width < 1):
            raise ConfigError(
                "CoreConfig.dep_matrix_width must be a positive integer or None"
            )
        if self.rob_size < self.iq_size:
            raise ConfigError("ROB must be at least as large as the IQ")

    def with_overrides(self, **kwargs) -> "CoreConfig":
        """A modified copy (used by sensitivity sweeps)."""
        return replace(self, **kwargs)

    def table_rows(self) -> list[tuple[str, str]]:
        """Human-readable configuration rows (Table 1)."""
        mem = self.mem
        return [
            ("Pipeline width", f"{self.fetch_width}-wide fetch/dispatch/issue/commit"),
            ("ROB / IQ / LQ / SQ", f"{self.rob_size} / {self.iq_size} / {self.lq_size} / {self.sq_size}"),
            ("Front-end depth", f"{self.frontend_latency} cycles"),
            ("Branch predictor", f"{self.predictor}, {self.btb_entries}-entry BTB, {self.ras_depth}-deep RAS"),
            ("FUs", f"{self.alu_ports} ALU, {self.mul_ports} MUL, {self.div_ports} DIV, {self.mem_ports} mem ports"),
            ("L1I", f"{mem.l1i.size_bytes // 1024} KiB, {mem.l1i.assoc}-way"),
            ("L1D", f"{mem.l1d.size_bytes // 1024} KiB, {mem.l1d.assoc}-way, {mem.l1d.hit_latency}-cycle"),
            ("L2", f"{mem.l2.size_bytes // 1024} KiB, {mem.l2.assoc}-way, {mem.l2.hit_latency}-cycle"),
            ("LLC", f"{mem.llc.size_bytes // 1024} KiB, {mem.llc.assoc}-way, {mem.llc.hit_latency}-cycle"),
            ("DRAM", f"{mem.dram_latency}-cycle, {mem.mshr_entries} MSHRs"),
        ]
