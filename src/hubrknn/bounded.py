"""Flat sorted bounded buffer used for all top-k candidate selection."""

from __future__ import annotations

from bisect import insort

from .errors import ConfigError
from .labels import INFINITY


class BoundedBuffer:
    """Keeps the ``capacity`` lexicographically smallest (dist, idx) pairs.

    Backed by a flat sorted list with insertion-shift, which beats a heap at
    the small capacities used here. Ordering by (dist, idx) fixes the tie
    rule once for every stage: equal distances keep the smaller index.
    """

    __slots__ = ("capacity", "items")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.items: list[tuple[int, int]] = []  # (dist, idx), ascending

    def __len__(self) -> int:
        return len(self.items)

    def worst_dist(self) -> int:
        """Distance of the current worst kept pair; INFINITY while not full."""
        if len(self.items) < self.capacity:
            return INFINITY
        return self.items[-1][0]

    def push(self, idx: int, dist: int) -> bool:
        """Plain bounded insert; returns True if the pair was kept."""
        item = (dist, idx)
        items = self.items
        if len(items) >= self.capacity:
            if item >= items[-1]:
                return False
            items.pop()
        insort(items, item)
        return True

    def push_unique(self, idx: int, dist: int) -> bool:
        """Insert with per-index dedup: an index occurs at most once.

        An existing entry with a smaller-or-equal distance wins; a larger one
        is replaced in place. Otherwise behaves like push().
        """
        items = self.items
        for pos, (d0, i0) in enumerate(items):
            if i0 == idx:
                if d0 <= dist:
                    return False
                items.pop(pos)
                insort(items, (dist, idx))
                return True
        return self.push(idx, dist)

    def pairs(self) -> list[tuple[int, int]]:
        """Kept pairs as (idx, dist), ascending by (dist, idx)."""
        return [(i, d) for d, i in self.items]
