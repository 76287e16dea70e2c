"""DRRIP: Dynamic RRIP with set dueling (Jaleel et al., ISCA 2010).

DRRIP chooses at runtime between SRRIP insertion (RRPV = 2) and BRRIP
insertion (RRPV = 3 most of the time, 2 rarely) using *set dueling*: a few
leader sets are dedicated to each policy and a saturating counter (PSEL)
tracks which leader group misses less; follower sets use the winner.

Included as an extension beyond the paper's LRU/SRRIP/SHiP sweep - BARD's
``eviction_order`` contract (descending RRPV) works unchanged.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cache.line import CacheLine
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.srrip import RRPV_INSERT, RRPV_MAX

#: One leader set per this many sets, for each of the two policies.
_DUEL_PERIOD = 32

#: BRRIP inserts with RRPV_MAX except once per _BRRIP_EPSILON fills.
_BRRIP_EPSILON = 32

#: PSEL saturating counter width.
_PSEL_MAX = 1023


class DRRIPPolicy(ReplacementPolicy):
    """Set-dueling dynamic RRIP."""

    name = "drrip"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self.rrpv = [[RRPV_MAX] * ways for _ in range(num_sets)]
        self.psel = _PSEL_MAX // 2
        self._brrip_tick = 0

    def _set_kind(self, set_idx: int) -> str:
        """'srrip' / 'brrip' leader, or 'follower'."""
        slot = set_idx % _DUEL_PERIOD
        if slot == 0:
            return "srrip"
        if slot == 1:
            return "brrip"
        return "follower"

    def _use_brrip(self, set_idx: int) -> bool:
        kind = self._set_kind(set_idx)
        if kind == "srrip":
            return False
        if kind == "brrip":
            return True
        return self.psel > _PSEL_MAX // 2

    def record_miss(self, set_idx: int) -> None:
        """PSEL training: misses in leader sets vote against their policy."""
        kind = self._set_kind(set_idx)
        if kind == "srrip" and self.psel < _PSEL_MAX:
            self.psel += 1
        elif kind == "brrip" and self.psel > 0:
            self.psel -= 1

    def on_fill(self, set_idx: int, way: int, pc: int,
                is_prefetch: bool = False) -> None:
        self.record_miss(set_idx)
        if self._use_brrip(set_idx):
            self._brrip_tick = (self._brrip_tick + 1) % _BRRIP_EPSILON
            self.rrpv[set_idx][way] = (
                RRPV_INSERT if self._brrip_tick == 0 else RRPV_MAX
            )
        else:
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
        rrpv = self.rrpv[set_idx]
        # Descending RRPV; a reversed sort is still stable, so ties stay
        # in way order.
        return sorted(range(self.ways), key=rrpv.__getitem__, reverse=True)
