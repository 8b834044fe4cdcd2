"""Set-associative cache model (presence + timing).

A deliberate and documented simplification (DESIGN.md): caches track *which
lines are present and dirty* but hold no data — architectural data always
comes from the backing :class:`~repro.mem.backing.SparseMemory` plus the
core's store queue.  This is exactly the fidelity cache side channels need
(flush+reload and prime+probe only observe line presence and latency) while
keeping coherence trivially correct.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..errors import ConfigError
from .replacement import make_replacement


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "miss_rate": self.miss_rate,
        }


@dataclass(frozen=True)
class CacheGeometry:
    """Size parameters of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 3
    replacement: str = "lru"

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0 or sets & (sets - 1):
            raise ConfigError(
                f"{self.name}: {self.size_bytes}B/{self.assoc}way/"
                f"{self.line_bytes}B gives non-power-of-two set count {sets}"
            )
        return sets


class Cache:
    """One level of set-associative cache.

    State is proportional to what a run touches: a presence index keyed by
    line number (a line names its own set and tag), a dirty-line set, and
    per-set way arrays created on a set's first fill (DESIGN.md §6).
    """

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.line_bits = geometry.line_bytes.bit_length() - 1
        if (1 << self.line_bits) != geometry.line_bytes:
            raise ConfigError(f"line size {geometry.line_bytes} not a power of two")
        # num_sets is a power of two (CacheGeometry enforces it): a mask.
        self._set_mask = self.num_sets - 1
        assoc = geometry.assoc
        self._where: dict[int, int] = {}  # resident line -> way
        self._ways: defaultdict[int, list[int | None]] = defaultdict(
            lambda: [None] * assoc)  # set -> line per way, on first fill
        self._dirty: set[int] = set()
        self._repl = make_replacement(geometry.replacement, self.num_sets, assoc)
        self.stats = CacheStats()

    # ----------------------------------------------------------- addressing
    def line_of(self, address: int) -> int:
        return address >> self.line_bits

    # -------------------------------------------------------------- queries
    def contains(self, address: int) -> bool:
        """Presence probe with NO side effects (attack receivers use this)."""
        return (address >> self.line_bits) in self._where

    # -------------------------------------------------------------- accesses
    def access(self, address: int, is_write: bool) -> bool:
        """Look up the line; updates recency and stats.  True on hit."""
        line = address >> self.line_bits
        way = self._where.get(line)
        if way is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        self._repl.on_access(line & self._set_mask, way)
        if is_write:
            self._dirty.add(line)
        return True

    def fill(self, address: int, dirty: bool = False) -> int | None:
        """Install the line; returns the evicted line number (or None).

        Counts a writeback when the victim was dirty.  The victim is the
        first invalid way, else the replacement policy's choice.
        """
        line = address >> self.line_bits
        set_index = line & self._set_mask
        way = self._where.get(line)
        if way is not None:
            # Already present (e.g. race between demand fill and prefetch).
            self._repl.on_access(set_index, way)
            if dirty:
                self._dirty.add(line)
            return None
        ways = self._ways[set_index]
        way = ways.index(None) if None in ways else self._repl.victim(set_index)
        evicted = ways[way]
        if evicted is not None:
            self.stats.evictions += 1
            if evicted in self._dirty:
                self.stats.writebacks += 1
                self._dirty.discard(evicted)
            del self._where[evicted]
        ways[way] = line
        self._where[line] = way
        if dirty:
            self._dirty.add(line)
        self._repl.on_fill(set_index, way)
        return evicted

    def invalidate(self, address: int) -> bool:
        """Drop the line if present; True if it was present."""
        line = address >> self.line_bits
        way = self._where.pop(line, None)
        if way is None:
            return False
        if line in self._dirty:
            self.stats.writebacks += 1
            self._dirty.discard(line)
        self._ways[line & self._set_mask][way] = None
        self.stats.flushes += 1
        return True

    # ------------------------------------------------------------- utilities
    def resident_lines(self) -> set[int]:
        """All resident line numbers (test/debug aid)."""
        return set(self._where)
