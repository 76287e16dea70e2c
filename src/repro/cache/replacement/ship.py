"""SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011).

SHiP augments RRIP with a table of saturating counters (the SHCT) indexed by
a PC signature.  When a line whose signature "never hits" is inserted it gets
RRPV = 3 (evict soon); otherwise RRPV = 2 as in SRRIP.  The SHCT learns from
per-line outcome bits: increment on a line hit, decrement when a line is
evicted without having been re-referenced.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.srrip import RRPV_INSERT, RRPV_MAX

#: Number of SHCT entries (signature hash buckets).
SHCT_SIZE = 16384

#: Saturating-counter maximum (3-bit counters).
SHCT_MAX = 7


def pc_signature(pc: int) -> int:
    """Hash a program counter into an SHCT index."""
    return (pc ^ (pc >> 14) ^ (pc >> 28)) & (SHCT_SIZE - 1)


class SHiPPolicy(ReplacementPolicy):
    """SHiP-PC on top of 2-bit RRIP."""

    name = "ship"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self.rrpv = [[RRPV_MAX] * ways for _ in range(num_sets)]
        self.shct = [SHCT_MAX // 2] * SHCT_SIZE

    def on_fill(self, set_idx: int, way: int, pc: int,
                is_prefetch: bool = False) -> None:
        sig = pc_signature(pc)
        if self.shct[sig] == 0 and not is_prefetch:
            self.rrpv[set_idx][way] = RRPV_MAX
        else:
            self.rrpv[set_idx][way] = RRPV_INSERT

    def on_hit(self, set_idx: int, way: int, pc: int) -> None:
        self.rrpv[set_idx][way] = 0
        sig = pc_signature(pc)
        if self.shct[sig] < SHCT_MAX:
            self.shct[sig] += 1

    def on_eviction(self, set_idx: int, way: int, line: CacheLine) -> None:
        if line.valid and not line.reused:
            sig = line.signature & (SHCT_SIZE - 1)
            if self.shct[sig] > 0:
                self.shct[sig] -= 1

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
        rrpv = self.rrpv[set_idx]
        # Descending RRPV; a reversed sort is still stable, so ties stay
        # in way order.
        return sorted(range(self.ways), key=rrpv.__getitem__, reverse=True)
