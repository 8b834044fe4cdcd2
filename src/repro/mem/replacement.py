"""Cache replacement policies.

Policies manage per-set recency metadata; the cache asks them which way to
victimize when a fill finds its set full (an invalid way is always taken
first, by the cache).  Per-set metadata is created on the set's first touch.
All policies are deterministic (the "random" policy is a seeded xorshift) so
simulations reproduce exactly.
"""

from __future__ import annotations

import abc
from collections import defaultdict


class ReplacementPolicy(abc.ABC):
    """Per-set replacement state for ``num_sets`` sets of ``num_ways`` ways."""

    def __init__(self, num_sets: int, num_ways: int):
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abc.abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """A hit touched this way."""

    @abc.abstractmethod
    def victim(self, set_index: int) -> int:
        """Choose a way to evict from a full set."""

    def on_fill(self, set_index: int, way: int) -> None:
        """A fill installed into this way (default: treat as access)."""
        self.on_access(set_index, way)


class LruPolicy(ReplacementPolicy):
    """True LRU via per-set recency stamps."""

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._stamps = defaultdict(lambda: [0] * num_ways)
        self._clock = 0

    def on_access(self, set_index: int, way: int) -> None:
        self._clock += 1
        self._stamps[set_index][way] = self._clock

    def victim(self, set_index: int) -> int:
        stamps = self._stamps[set_index]
        return stamps.index(min(stamps))


class TreePlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (binary decision tree per set); ways must be 2^k."""

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        if num_ways & (num_ways - 1):
            raise ValueError("tree PLRU requires power-of-two associativity")
        self._bits = defaultdict(lambda: [False] * max(1, num_ways - 1))

    def on_access(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self.num_ways
        while high - low > 1:
            mid = (low + high) // 2
            went_right = way >= mid
            bits[node] = not went_right  # point away from the accessed half
            node = 2 * node + (2 if went_right else 1)
            if went_right:
                low = mid
            else:
                high = mid

    def victim(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self.num_ways
        while high - low > 1:
            mid = (low + high) // 2
            go_right = bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                low = mid
            else:
                high = mid
        return low


class SeededRandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random replacement (xorshift64)."""

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0x9E3779B9):
        super().__init__(num_sets, num_ways)
        self._state = seed or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return x

    def on_access(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        return self._next() % self.num_ways


POLICIES = {
    "lru": LruPolicy,
    "tree_plru": TreePlruPolicy,
    "random": SeededRandomPolicy,
}


def make_replacement(name: str, num_sets: int, num_ways: int) -> ReplacementPolicy:
    if name not in POLICIES:
        raise ValueError(f"unknown replacement policy {name!r}")
    return POLICIES[name](num_sets, num_ways)
