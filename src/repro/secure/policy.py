"""Secure-speculation policy framework.

A policy is a pure predicate over the core's speculation-tracking state: it
decides, each time a transmitter (load / cflush) asks to issue, whether the
access may proceed.  Policies never change architectural behaviour — only
timing — which the differential tests enforce.

The core exposes three queries policies build on:

* ``core.has_unresolved_ctrl_older_than(seq)`` — is the instruction younger
  than any in-flight unresolved branch/indirect jump? (the conservative
  notion of "speculative" used by fence/STT/CTT)
* ``dyn`` lineage sets (finalized at producer completion, see
  :mod:`repro.uarch.dyninst`): ``addr_deps`` (true branch dependencies of
  the address operand + the instruction's own control dependencies),
  ``addr_roots`` (in-flight load seqs in the address lineage),
  ``addr_tainted`` (address derived from any loaded data, persistent
  across commit via architectural taint bits)
* ``core.is_load_root_unsafe(root_seq)`` — STT visibility: the root load is
  still in flight and younger than an unresolved control instruction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..uarch.config import CoreConfig
    from ..uarch.core import OooCore
    from ..uarch.dyninst import DynInst


@dataclass
class PolicyStats:
    """Per-run accounting of what the policy blocked."""

    loads_gated: int = 0            # loads that were blocked at least once
    gate_cycles: int = 0            # total cycles loads spent blocked
    gate_checks: int = 0            # gate evaluations
    gate_denials: int = 0           # evaluations that said "wait"
    branches_gated: int = 0         # branches blocked at least once
    branch_gate_cycles: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "loads_gated": self.loads_gated,
            "gate_cycles": self.gate_cycles,
            "gate_checks": self.gate_checks,
            "gate_denials": self.gate_denials,
            "branches_gated": self.branches_gated,
            "branch_gate_cycles": self.branch_gate_cycles,
        }


class SpeculationPolicy(abc.ABC):
    """Base class of all secure-speculation policies."""

    name = "base"
    protects_speculative_secrets = False
    protects_nonspeculative_secrets = False
    #: Does this policy consult STT-style expiring taint roots
    #: (``addr_roots``/``operand_roots``)?  When False the core elides
    #: root-set construction entirely (lineage sets stay empty along the
    #: whole dependence chain), which is invisible to the policy and to
    #: CoreStats.  Conservative default: a new policy must opt out
    #: explicitly after checking it never reads roots.
    uses_taint_roots = True

    def __init__(self) -> None:
        self.stats = PolicyStats()

    def configure(self, config: "CoreConfig") -> None:
        """Bind the hardware budget of the core this policy guards.

        Called once by the core at construction, so the predicates never
        read ``core.config``.  Default: the policy has no budget to bind.
        """

    @property
    def comprehensive(self) -> bool:
        """Protects both threat models (the paper's guarantee)."""
        return (
            self.protects_speculative_secrets
            and self.protects_nonspeculative_secrets
        )

    @abc.abstractmethod
    def may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        """May this transmitter access the memory hierarchy now?"""

    def may_issue_branch(self, dyn: "DynInst", core: "OooCore") -> bool:
        """May this branch/indirect jump execute (resolve) now?

        Branch direction and indirect targets are transmission channels too
        (resolution redirects fetch, trains predictors, triggers squashes):
        comprehensive taint-based policies delay resolution of branches whose
        *condition operands* are potentially secret.  Default: no gating.
        """
        return True

    def defers_wakeup(self, dyn: "DynInst", core: "OooCore") -> bool:
        """Should this load's completed value be withheld from consumers?

        NDA-style propagation blocking: the load executes and its value is
        written, but dependents are not woken until :meth:`may_propagate`
        says the value is safe.  Default: never defer.
        """
        return False

    def may_propagate(self, dyn: "DynInst", core: "OooCore") -> bool:
        """May a deferred value now be forwarded to dependents?"""
        return True

    def checked_may_issue_load(self, dyn: "DynInst", core: "OooCore") -> bool:
        """Gate + stats wrapper used by the core."""
        self.stats.gate_checks += 1
        allowed = self.may_issue_load(dyn, core)
        if not allowed:
            self.stats.gate_denials += 1
        return allowed

    def checked_may_issue_branch(self, dyn: "DynInst", core: "OooCore") -> bool:
        """Branch-gate + stats wrapper used by the core."""
        self.stats.gate_checks += 1
        allowed = self.may_issue_branch(dyn, core)
        if not allowed:
            self.stats.gate_denials += 1
        return allowed

    def describe(self) -> str:
        scope = (
            "comprehensive"
            if self.comprehensive
            else "speculative-only"
            if self.protects_speculative_secrets
            else "no protection"
        )
        return f"{self.name} ({scope})"
