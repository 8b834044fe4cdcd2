"""Backing memory, caches, MSHRs, DRAM, hierarchy."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mem import (
    Cache,
    CacheGeometry,
    CacheStats,
    DramModel,
    MemHierarchyConfig,
    MemoryHierarchy,
    MshrFile,
    SparseMemory,
)


# ------------------------------------------------------------ SparseMemory
def test_sparse_memory_roundtrip():
    mem = SparseMemory()
    mem.write_int(0x1000, 0xDEADBEEF, 4)
    assert mem.read_int(0x1000, 4) == 0xDEADBEEF


def test_sparse_memory_cross_page():
    mem = SparseMemory()
    mem.write_bytes(0x0FFE, b"\x01\x02\x03\x04")
    assert mem.read_bytes(0x0FFE, 4) == b"\x01\x02\x03\x04"


def test_sparse_memory_signed_read():
    mem = SparseMemory()
    mem.write_int(0x100, -5, 8)
    assert mem.read_int(0x100, 8, signed=True) == -5
    assert mem.read_int(0x100, 8) == (1 << 64) - 5


def test_sparse_memory_default_zero():
    mem = SparseMemory()
    assert mem.read_int(0x123456, 8) == 0


def test_sparse_memory_copy_is_deep():
    mem = SparseMemory()
    mem.write_int(0x10, 42, 8)
    clone = mem.copy()
    clone.write_int(0x10, 43, 8)
    assert mem.read_int(0x10, 8) == 42
    assert not mem.equal_contents(clone)


# -------------------------------------------------------------------- Cache
def small_cache(assoc=2, sets=4, repl="lru"):
    return Cache(CacheGeometry("t", assoc * sets * 64, assoc, 64, 1, repl))


def test_cache_miss_then_hit():
    cache = small_cache()
    assert cache.access(0x1000, False) is False
    cache.fill(0x1000)
    assert cache.access(0x1000, False) is True
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_cache_lru_eviction_order():
    cache = small_cache(assoc=2, sets=1)
    cache.fill(0 * 64)
    cache.fill(1 * 64)
    cache.access(0 * 64, False)      # touch line 0 -> line 1 becomes LRU
    evicted = cache.fill(2 * 64)
    assert evicted == 1
    assert cache.contains(0 * 64)
    assert not cache.contains(1 * 64)


def test_cache_contains_has_no_side_effects():
    cache = small_cache()
    cache.fill(0x40)
    hits, misses = cache.stats.hits, cache.stats.misses
    cache.contains(0x40)
    cache.contains(0x9999)
    assert (cache.stats.hits, cache.stats.misses) == (hits, misses)


def test_cache_invalidate_and_writeback_counting():
    cache = small_cache()
    cache.fill(0x80, dirty=True)
    assert cache.invalidate(0x80) is True
    assert cache.stats.writebacks == 1
    assert cache.invalidate(0x80) is False


def test_cache_geometry_validation():
    with pytest.raises(ConfigError):
        CacheGeometry("bad", 48 * 1024, 7).num_sets


def test_tree_plru_cache_works():
    cache = small_cache(assoc=4, sets=2, repl="tree_plru")
    for i in range(8):
        cache.fill(i * 64 * 2)  # same set (stride = sets*line)
    assert len(cache.resident_lines()) <= 8


class EagerCache:
    """Reference model: every set's way, tag, dirty and replacement state
    allocated up front, victims found by scanning the ways."""

    def __init__(self, sets, assoc, repl):
        self.sets, self.assoc, self.repl = sets, assoc, repl
        self.tags = [[0] * assoc for _ in range(sets)]
        self.valid = [[False] * assoc for _ in range(sets)]
        self.dirty = [[False] * assoc for _ in range(sets)]
        self.stamps = [[0] * assoc for _ in range(sets)]
        self.bits = [[False] * max(1, assoc - 1) for _ in range(sets)]
        self.clock = 0
        self.rng = 0x9E3779B9
        self.stats = CacheStats()

    def _find(self, address):
        line = address // 64
        s, tag = line % self.sets, line // self.sets
        for way in range(self.assoc):
            if self.valid[s][way] and self.tags[s][way] == tag:
                return s, tag, way
        return s, tag, None

    def _touch(self, s, way):
        if self.repl == "lru":
            self.clock += 1
            self.stamps[s][way] = self.clock
        elif self.repl == "tree_plru":
            node, low, high = 0, 0, self.assoc
            while high - low > 1:
                mid = (low + high) // 2
                right = way >= mid
                self.bits[s][node] = not right
                node = 2 * node + (2 if right else 1)
                low, high = (mid, high) if right else (low, mid)

    def _victim(self, s):
        if not all(self.valid[s]):
            return self.valid[s].index(False)
        if self.repl == "lru":
            return self.stamps[s].index(min(self.stamps[s]))
        if self.repl == "tree_plru":
            node, low, high = 0, 0, self.assoc
            while high - low > 1:
                mid = (low + high) // 2
                right = self.bits[s][node]
                node = 2 * node + (2 if right else 1)
                low, high = (mid, high) if right else (low, mid)
            return low
        x = self.rng
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self.rng = x
        return x % self.assoc

    def access(self, address, is_write):
        s, _, way = self._find(address)
        if way is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        self._touch(s, way)
        if is_write:
            self.dirty[s][way] = True
        return True

    def fill(self, address, dirty=False):
        s, tag, way = self._find(address)
        if way is not None:
            self._touch(s, way)
            if dirty:
                self.dirty[s][way] = True
            return None
        way = self._victim(s)
        evicted = None
        if self.valid[s][way]:
            self.stats.evictions += 1
            self.stats.writebacks += self.dirty[s][way]
            evicted = self.tags[s][way] * self.sets + s
        self.tags[s][way], self.valid[s][way] = tag, True
        self.dirty[s][way] = dirty
        self._touch(s, way)
        return evicted

    def invalidate(self, address):
        s, _, way = self._find(address)
        if way is None:
            return False
        self.stats.writebacks += self.dirty[s][way]
        self.valid[s][way] = self.dirty[s][way] = False
        self.stats.flushes += 1
        return True

    def resident_lines(self):
        return {
            self.tags[s][w] * self.sets + s
            for s in range(self.sets)
            for w in range(self.assoc)
            if self.valid[s][w]
        }


_cache_ops = st.lists(
    st.tuples(
        st.sampled_from(("access", "fill", "invalidate")),
        st.integers(0, 1 << 16),  # line, folded onto ~2x capacity below
        st.integers(0, 63),       # byte offset within the line
        st.booleans(),            # is_write / dirty
    ),
    max_size=200,
)


@settings(max_examples=150, deadline=None)
@given(
    repl=st.sampled_from(("lru", "tree_plru", "random")),
    assoc=st.sampled_from((1, 2, 4)),
    sets=st.sampled_from((1, 2, 4)),
    ops=_cache_ops,
)
def test_lazy_cache_matches_eager_reference(repl, assoc, sets, ops):
    cache = small_cache(assoc=assoc, sets=sets, repl=repl)
    ref = EagerCache(sets, assoc, repl)
    lines = 2 * sets * assoc + 1  # enough to conflict, few enough to recur
    for op, line, offset, flag in ops:
        address = (line % lines) * 64 + offset
        if op == "invalidate":
            got, want = cache.invalidate(address), ref.invalidate(address)
        else:
            got, want = getattr(cache, op)(address, flag), getattr(ref, op)(address, flag)
        assert got == want, (op, line)
    assert cache.stats == ref.stats
    assert cache.resident_lines() == ref.resident_lines()


def test_default_hierarchy_construction_is_small():
    MemoryHierarchy()  # warm imports and interned objects
    tracemalloc.start()
    try:
        hierarchy = MemoryHierarchy()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hierarchy.l1d.resident_lines() == set()
    assert peak < 64 * 1024


# --------------------------------------------------------------------- MSHR
def test_mshr_merge_same_line():
    mshrs = MshrFile(4)
    first = mshrs.allocate(10, cycle=0, fill_latency=100)
    merged = mshrs.lookup(10, cycle=5)
    assert merged == first


def test_mshr_full_delays_start():
    mshrs = MshrFile(2)
    mshrs.allocate(1, 0, 100)
    mshrs.allocate(2, 0, 100)
    ready = mshrs.allocate(3, 0, 100)
    assert ready == 200  # waits for a slot at cycle 100, then 100 latency
    assert mshrs.stats.full_stall_cycles == 100


def test_mshr_outstanding_counts():
    mshrs = MshrFile(8)
    mshrs.allocate(1, 0, 50)
    mshrs.allocate(2, 0, 60)
    assert mshrs.outstanding(10) == 2
    assert mshrs.outstanding(55) == 1
    assert mshrs.outstanding(100) == 0


# --------------------------------------------------------------------- DRAM
def test_dram_row_hit_discount():
    dram = DramModel(latency=100, cycles_per_access=4, row_hit_discount=40)
    first = dram.access(0x0, 0)
    second = dram.access(0x40, 100)  # same row
    assert first == 100
    assert second == 100 + 60
    assert dram.stats.row_hits == 1


def test_dram_channel_queueing():
    dram = DramModel(latency=100, cycles_per_access=10)
    dram.access(0x0, 0)
    # second request issued same cycle queues behind channel occupancy
    second = dram.access(0x100000, 0)
    assert second > 100
    assert dram.stats.queue_cycles > 0


# ---------------------------------------------------------------- Hierarchy
def test_hierarchy_miss_costs_more_than_hit():
    hier = MemoryHierarchy()
    cold = hier.load(0x5000, cycle=0)
    warm = hier.load(0x5000, cycle=cold)
    assert cold - 0 > hier.config.l2.hit_latency
    assert warm - cold == hier.config.l1d.hit_latency


def test_hierarchy_l2_faster_than_dram():
    hier = MemoryHierarchy()
    hier.load(0x5000, 0)          # warm everything
    hier.l1d.invalidate(0x5000)   # now resident only in L2/LLC
    l2_hit = hier.load(0x5000, 1000) - 1000
    dram_cold = hier.load(0xABCDE000, 2000) - 2000
    assert l2_hit < dram_cold


def test_hierarchy_flush_address():
    hier = MemoryHierarchy()
    hier.load(0x6000, 0)
    assert hier.probe_level(0x6000) == "l1d"
    hier.flush_address(0x6000)
    assert hier.probe_level(0x6000) is None


def test_hierarchy_peek_does_not_perturb():
    hier = MemoryHierarchy()
    hier.load(0x7000, 0)
    before = hier.l1d.stats.accesses
    assert hier.peek_l1_hit(0x7000) is True
    assert hier.peek_l1_hit(0x11110000) is False
    assert hier.l1d.stats.accesses == before


def test_hierarchy_stride_prefetcher_reduces_misses():
    base_cfg = MemHierarchyConfig()
    pf_cfg = MemHierarchyConfig(prefetcher="stride", prefetch_degree=4)
    plain, pref = MemoryHierarchy(base_cfg), MemoryHierarchy(pf_cfg)
    t0 = t1 = 0
    for i in range(256):
        addr = 0x20000 + i * 64
        t0 = plain.load(addr, t0, pc=0x1000)
        t1 = pref.load(addr, t1, pc=0x1000)
    assert pref.l2.stats.misses + pref.l1d.stats.misses < (
        plain.l2.stats.misses + plain.l1d.stats.misses
    )


def test_hierarchy_warm_line():
    hier = MemoryHierarchy()
    hier.warm_line(0x8000)
    assert hier.peek_l1_hit(0x8000)
