"""True LRU replacement (the paper's baseline policy, Table II)."""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used with a precise recency order per set.

    Implemented with a monotonically increasing timestamp per (set, way);
    the smallest timestamp is the LRU way.  The clock is a plain int
    (the last stamp handed out), so a policy deep-copies cleanly into
    warm-state snapshots.
    """

    name = "lru"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._clock = 0
        self._stamp = [[0] * ways for _ in range(num_sets)]

    def on_fill(self, set_idx: int, way: int, pc: int,
                is_prefetch: bool = False) -> None:
        clock = self._clock = self._clock + 1
        self._stamp[set_idx][way] = clock

    #: A hit makes the way most recent, exactly as a fill does.
    on_hit = on_fill

    def victim(self, set_idx: int, lines: Sequence[CacheLine]) -> int:
        stamps = self._stamp[set_idx]
        best = 0
        best_stamp = stamps[0]
        for way in range(1, len(stamps)):
            stamp = stamps[way]
            if stamp < best_stamp:
                best = way
                best_stamp = stamp
        return best

    def eviction_order(self, set_idx: int,
                       lines: Sequence[CacheLine]) -> List[int]:
        stamps = self._stamp[set_idx]
        return sorted(range(self.ways), key=stamps.__getitem__)
