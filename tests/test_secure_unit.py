"""Policy predicates in isolation, against a minimal fake core."""

import pytest

from repro.errors import PolicyError
from repro.isa import Instruction, Opcode
from repro.secure import (
    ALL_POLICY_NAMES,
    COMPREHENSIVE_POLICY_NAMES,
    CttPolicy,
    DelayOnMissPolicy,
    FencePolicy,
    LeviosoPolicy,
    NoProtection,
    SttPolicy,
    make_policy,
)
from repro.uarch.dyninst import DynInst, Stage


class FakeHierarchy:
    def __init__(self, l1_hits=()):
        self._hits = set(l1_hits)

    def peek_l1_hit(self, address):
        return address in self._hits


class FakeCore:
    """Just enough of OooCore for the policy predicates."""

    def __init__(self, unresolved=(), inflight_loads=(), l1_hits=()):
        self.unresolved_ctrl = set(unresolved)
        self.inflight_loads = {d.seq: d for d in inflight_loads}
        self.hierarchy = FakeHierarchy(l1_hits)

    def has_unresolved_ctrl_older_than(self, seq):
        return bool(self.unresolved_ctrl) and min(self.unresolved_ctrl) < seq

    def any_unresolved(self, deps):
        return bool(deps & self.unresolved_ctrl)

    def is_load_root_unsafe(self, root_seq):
        if root_seq not in self.inflight_loads:
            return False
        return self.has_unresolved_ctrl_older_than(root_seq)


def load_dyn(seq, *, control_deps=(), producer=None, arf_tainted=False):
    dyn = DynInst(
        seq=seq,
        inst=Instruction(Opcode.LD, rd=10, rs1=11, imm=0),
        fetch_cycle=0,
    )
    dyn.control_deps = frozenset(control_deps)
    dyn.src1_producer = producer
    dyn.src1_arf_tainted = arf_tainted
    dyn.mem_address = 0x1000
    return dyn


def completed_load_producer(seq, deps=(), roots=None):
    producer = load_dyn(seq)
    producer.stage = Stage.COMPLETED
    producer.out_deps = frozenset(deps)
    producer.out_roots = frozenset(roots if roots is not None else {seq})
    producer.out_tainted = True
    return producer


# ------------------------------------------------------------------ registry
def test_registry_contents():
    assert set(ALL_POLICY_NAMES) == {
        "none", "fence", "dom", "nda", "stt", "ctt", "levioso",
    }
    assert set(COMPREHENSIVE_POLICY_NAMES) == {"fence", "dom", "ctt", "levioso"}
    with pytest.raises(PolicyError):
        make_policy("invisispec")


def test_describe_strings():
    assert "comprehensive" in LeviosoPolicy().describe()
    assert "speculative-only" in SttPolicy().describe()
    assert "no protection" in NoProtection().describe()


# --------------------------------------------------------------------- gates
def test_none_always_allows():
    core = FakeCore(unresolved={1})
    assert NoProtection().may_issue_load(load_dyn(5), core)


def test_fence_blocks_any_speculative_load():
    core = FakeCore(unresolved={3})
    policy = FencePolicy()
    assert not policy.may_issue_load(load_dyn(5), core)
    assert policy.may_issue_load(load_dyn(2), core)  # older than the branch
    # and blocks speculative branch resolution:
    assert not policy.may_issue_branch(load_dyn(9), core)


def test_dom_allows_speculative_l1_hits_only():
    hit = load_dyn(5)
    miss = load_dyn(6)
    miss.mem_address = 0x9999
    core = FakeCore(unresolved={1}, l1_hits={0x1000})
    policy = DelayOnMissPolicy()
    assert policy.may_issue_load(hit, core)
    assert not policy.may_issue_load(miss, core)
    core_quiet = FakeCore(unresolved=())
    assert policy.may_issue_load(miss, core_quiet)


def test_stt_taint_expires_at_visibility():
    root = completed_load_producer(seq=2)
    consumer = load_dyn(10, producer=root)
    # Root is speculative: an unresolved branch older than it exists.
    core = FakeCore(unresolved={1}, inflight_loads=[root])
    assert not SttPolicy().may_issue_load(consumer, core)
    # The branch resolved: root reached visibility, taint expired.
    core2 = FakeCore(unresolved={5}, inflight_loads=[root])
    assert SttPolicy().may_issue_load(consumer, core2)
    # Root left the window entirely (committed): safe.
    core3 = FakeCore(unresolved={1})
    assert SttPolicy().may_issue_load(consumer, core3)


def test_stt_ignores_arf_taint():
    """Non-speculatively loaded (committed) secrets are invisible to STT."""
    consumer = load_dyn(10, arf_tainted=True)
    core = FakeCore(unresolved={1})
    assert SttPolicy().may_issue_load(consumer, core)


def test_ctt_structural_taint_never_expires():
    consumer = load_dyn(10, arf_tainted=True)
    core = FakeCore(unresolved={1})
    assert not CttPolicy().may_issue_load(consumer, core)
    # Untainted address: free even while speculative.
    clean = load_dyn(11)
    assert CttPolicy().may_issue_load(clean, core)
    # Non-speculative: free even when tainted.
    quiet = FakeCore(unresolved=())
    assert CttPolicy().may_issue_load(consumer, quiet)


def test_levioso_gates_only_true_dependencies():
    root = completed_load_producer(seq=2, deps={7})
    dependent = load_dyn(10, producer=root, control_deps={7})
    independent = load_dyn(11, producer=root)
    independent.src1_producer = None
    independent.src1_arf_tainted = True  # tainted but no dep on branch 7

    policy = LeviosoPolicy()
    core = FakeCore(unresolved={7})
    assert not policy.may_issue_load(dependent, core)
    assert policy.may_issue_load(independent, core)
    # Branch 7 resolves -> dependent becomes free immediately,
    # even if a *younger* branch is still unresolved.
    core2 = FakeCore(unresolved={9})
    assert policy.may_issue_load(dependent, core2)


def test_levioso_branch_gate_uses_input_deps():
    policy = LeviosoPolicy()
    branch = DynInst(
        seq=12,
        inst=Instruction(Opcode.BEQ, rs1=5, rs2=6, imm=0x2000),
        fetch_cycle=0,
    )
    branch.control_deps = frozenset({4})
    branch.src1_arf_tainted = True
    core = FakeCore(unresolved={4})
    assert not policy.may_issue_branch(branch, core)
    resolved = FakeCore(unresolved={20})
    assert policy.may_issue_branch(branch, core=resolved)
    # Untainted condition: never gated.
    branch.src1_arf_tainted = False
    assert policy.may_issue_branch(branch, core)


def test_checked_wrappers_count_denials():
    policy = FencePolicy()
    core = FakeCore(unresolved={1})
    policy.checked_may_issue_load(load_dyn(5), core)
    policy.checked_may_issue_load(load_dyn(0), core)
    assert policy.stats.gate_checks == 2
    assert policy.stats.gate_denials == 1


def test_levioso_matrix_width_is_bound_from_the_core_config():
    from repro.uarch import CoreConfig

    # Two live dependencies (branches 12 and 13), neither older than the
    # load.  Precise tracking waits for them; a 1-wide matrix overflows
    # and falls back to "wait for older unresolved branches" (none here).
    # Live dependencies are otherwise older unresolved branches, so the
    # fallback only changes a decision in a shape like this one.
    root = completed_load_producer(seq=2, deps={12})
    load = load_dyn(10, producer=root, control_deps={13})
    core = FakeCore(unresolved={12, 13})
    policy = LeviosoPolicy()
    assert not policy.may_issue_load(load, core)
    policy.configure(CoreConfig(dep_matrix_width=1))
    assert policy.dep_matrix_width == 1
    assert policy.may_issue_load(load, core)
    policy.configure(CoreConfig(dep_matrix_width=2))
    assert not policy.may_issue_load(load, core)
    policy.configure(CoreConfig())
    assert policy.dep_matrix_width is None
