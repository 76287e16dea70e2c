"""SRRIP: Static Re-Reference Interval Prediction (Jaleel et al., ISCA 2010).

Each way keeps a 2-bit re-reference prediction value (RRPV).  On a hit the
RRPV is set to 0; new lines are inserted with RRPV = 2 (long re-reference
interval).  Victim selection evicts a line with RRPV = 3, incrementing all
RRPVs until one reaches 3 (paper Fig. 16).  Ties are broken by the lowest
way index, matching the paper's "ties broken arbitrarily".
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy

#: Maximum RRPV for a 2-bit counter.
RRPV_MAX = 3

#: Insertion RRPV for SRRIP (long re-reference interval).
RRPV_INSERT = 2


class SRRIPPolicy(ReplacementPolicy):
    """2-bit SRRIP."""

    name = "srrip"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self.rrpv = [[RRPV_MAX] * ways for _ in range(num_sets)]

    def on_fill(self, set_idx: int, way: int, pc: int,
                is_prefetch: bool = False) -> None:
        self.rrpv[set_idx][way] = RRPV_INSERT

    def on_hit(self, set_idx: int, way: int, pc: int) -> None:
        self.rrpv[set_idx][way] = 0

    def victim(self, set_idx: int, lines: Sequence[CacheLine]) -> int:
        rrpv = self.rrpv[set_idx]
        while True:
            for way in range(self.ways):
                if rrpv[way] >= RRPV_MAX:
                    return way
            for way in range(self.ways):
                rrpv[way] += 1

    def eviction_order(self, set_idx: int,
                       lines: Sequence[CacheLine]) -> List[int]:
        """Ways from greatest to least RRPV (paper section VII-E)."""
        rrpv = self.rrpv[set_idx]
        # Descending RRPV; a reversed sort is still stable, so ties stay
        # in way order.
        return sorted(range(self.ways), key=rrpv.__getitem__, reverse=True)
