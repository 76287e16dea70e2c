"""SPP-like signature-path prefetcher for the L2 (paper Table II).

SPP (Kim et al., MICRO 2016) compresses the recent delta history within a
page into a signature and looks the signature up in a pattern table that
predicts the next block delta, chaining lookahead predictions while
confidence stays high.  This implementation keeps the signature/pattern
mechanism with a compact table and a two-step lookahead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.prefetch.base import Prefetcher

_PAGE_BITS = 12
_SIG_BITS = 12
_SIG_MASK = (1 << _SIG_BITS) - 1
_BLOCK_MASK = (1 << (_PAGE_BITS - 6)) - 1
_TABLE_SIZE = 1024
#: Lookahead steps; at most two keeps the targets distinct lines.
_LOOKAHEAD = 2
_MIN_CONF = 2
_MAX_CONF = 7


def _update_signature(sig: int, delta: int) -> int:
    return ((sig << 3) ^ (delta & 0x3F)) & _SIG_MASK


class SPPPrefetcher(Prefetcher):
    """Signature-path prefetcher with bounded lookahead."""

    name = "spp"

    def __init__(self, degree: int = 2) -> None:
        super().__init__()
        self.degree = degree
        # page -> (signature, last_block)
        self._pages: Dict[int, Tuple[int, int]] = {}
        # signature -> {delta: confidence}
        self._patterns: Dict[int, Dict[int, int]] = {}

    def predict(self, addr: int, pc: int, hit: bool) -> List[int]:
        page = addr >> _PAGE_BITS
        block = (addr >> 6) & _BLOCK_MASK
        pages = self._pages
        state = pages.get(page)
        if state is None:
            if len(pages) >= _TABLE_SIZE:
                pages.pop(next(iter(pages)))
            pages[page] = (0, block)
            return []
        sig, last_block = state
        delta = block - last_block
        if delta == 0:
            pages[page] = (sig, block)
            return []
        patterns = self._patterns
        bucket = patterns.get(sig)
        if bucket is None:
            bucket = patterns[sig] = {}
            if len(patterns) > _TABLE_SIZE:
                patterns.pop(next(iter(patterns)))
        conf = bucket.get(delta, 0)
        if conf < _MAX_CONF:
            bucket[delta] = conf + 1
        sig = _update_signature(sig, delta)
        pages[page] = (sig, block)
        # Chain lookahead predictions from the updated signature.  Every
        # stored delta is non-zero, so the (at most two) lookahead
        # targets are distinct lines and need no de-duplication.
        targets: List[int] = []
        cur_block = block
        cur_sig = sig
        for _ in range(_LOOKAHEAD):
            deltas = patterns.get(cur_sig)
            if not deltas:
                break
            pred = max(deltas, key=deltas.__getitem__)
            if deltas[pred] < _MIN_CONF:
                break
            cur_block += pred
            if not 0 <= cur_block <= _BLOCK_MASK:
                break
            targets.append((page << _PAGE_BITS) | (cur_block << 6))
            cur_sig = _update_signature(cur_sig, pred)
        del targets[self.degree:]
        return targets
