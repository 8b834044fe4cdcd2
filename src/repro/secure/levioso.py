"""The Levioso policy: compiler-informed comprehensive secure speculation.

Levioso provides the same guarantee as :class:`~repro.secure.baselines.CttPolicy`
— no transmitter may reveal a (speculative or non-speculative) secret while
its execution is still contingent on unresolved speculation — but replaces
the conservative "younger than any unresolved branch" test with the **true
dependency** test built from compiler metadata:

* an instruction's *control dependencies* are the in-flight branches whose
  reconvergence point had not been fetched when the instruction entered the
  pipeline (tracked by the front end from the compiler's reconvergence PCs),
* its *data dependencies* fold in the dependencies of every producer in its
  operand lineage (tracked through rename, execution and store-forwarding).

A transmitter with a memory-derived (potentially secret) address is delayed
only while one of its *true* branch dependencies is unresolved.  A load past
the reconvergence point of every unresolved branch, whose address does not
descend from any value produced under those branches, executes identically
on every outstanding speculative path — so it can reveal no more than the
committed execution would, under either threat model.

Security argument (paper Section 3, reconstructed): leakage requires the
transmitted address to differ across speculative outcomes of some unresolved
branch B.  That requires either (a) the transmitter executing on one outcome
of B but not the other — control dependence, or (b) the address value being
produced differently under B's outcomes — data dependence on a B-dependent
producer.  Both are exactly the dependencies tracked here; with none
present, the transmission is outcome-invariant and therefore safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .policy import SpeculationPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uarch.config import CoreConfig
    from ..uarch.core import OooCore
    from ..uarch.dyninst import DynInst


class LeviosoPolicy(SpeculationPolicy):
    """Compiler-informed comprehensive secure speculation.

    ``CoreConfig.dep_matrix_width`` models a bounded hardware dependency
    matrix: when an instruction's true-dependency set exceeds the matrix
    width, the hardware cannot represent it precisely and must fall back
    to the conservative rule (wait for *all* older control instructions)
    — the storage-budget ablation.  ``None`` models the paper's full
    tracking; the width is bound by :meth:`configure`.
    """

    name = "levioso"
    uses_taint_roots = False
    protects_speculative_secrets = True
    protects_nonspeculative_secrets = True
    dep_matrix_width: int | None = None

    def configure(self, config: "CoreConfig") -> None:
        self.dep_matrix_width = config.dep_matrix_width

    def _deps_safe(self, deps, dyn: "DynInst", core: "OooCore") -> bool:
        width = self.dep_matrix_width
        if width is None:
            return not core.any_unresolved(deps)
        # Matrix columns exist per *unresolved* branch and clear at
        # resolution, so the width bound applies to live dependencies only.
        live = deps & core.unresolved_ctrl
        if len(live) > width:
            # More live dependencies than columns: conservative fallback.
            return not core.has_unresolved_ctrl_older_than(dyn.seq)
        return not live

    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        # Fused form of ``addr_tainted()`` + ``addr_deps()``: one producer
        # walk instead of two (this gate runs once per load issue attempt).
        producer = dyn.src1_producer
        if producer is not None:
            if not producer.out_tainted:
                # Address provably derives from no memory value:
                # transmitting it reveals only register-computed data,
                # public in both models.
                return True
            deps = producer.out_deps
            addr_deps = dyn.control_deps | deps if deps else dyn.control_deps
        else:
            if not dyn.src1_arf_tainted:
                return True
            addr_deps = dyn.control_deps
        return self._deps_safe(addr_deps, dyn, core)

    def may_issue_branch(self, dyn: "DynInst", core: "OooCore") -> bool:
        # Fused form of ``operand_tainted()`` + ``input_deps()``.
        p1 = dyn.src1_producer
        p2 = dyn.src2_producer
        t1 = p1.out_tainted if p1 is not None else dyn.src1_arf_tainted
        t2 = p2.out_tainted if p2 is not None else dyn.src2_arf_tainted
        if not (t1 or t2):
            return True
        deps = dyn.control_deps
        if p1 is not None and p1.out_deps:
            deps = deps | p1.out_deps
        if p2 is not None and p2.out_deps:
            deps = deps | p2.out_deps
        return self._deps_safe(deps, dyn, core)
