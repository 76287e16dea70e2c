"""Memory controller: the bridge between the LLC and the DRAM channels.

Translates line addresses to DRAM coordinates with the configured mapping
and submits :class:`~repro.dram.commands.MemRequest` objects to the right
channel.  Also exposes the ground-truth pending-write probe used by the
BLP-Tracker accuracy analysis (paper section VII-I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, Op
from repro.dram.mapping import ZenMapping


@dataclass
class MemCtrlStats:
    reads: int = 0
    writes: int = 0


class MemoryController:
    """Routes LLC traffic into the DDR5 channels."""

    def __init__(self, mapping: ZenMapping, channels: List[Channel]) -> None:
        if len(channels) != mapping.channels:
            raise ValueError(
                f"mapping expects {mapping.channels} channels, "
                f"got {len(channels)}"
            )
        self.mapping = mapping
        self.channels = channels
        self.stats = MemCtrlStats()

    def read(self, line_addr: int, now: int, on_done, core_id: int,
             is_prefetch: bool, pc: int = 0) -> None:
        coord = self.mapping.map(line_addr)
        self.stats.reads += 1
        req = MemRequest(
            addr=line_addr,
            op=Op.READ,
            coord=coord,
            arrival_tick=now,
            core_id=core_id,
            is_prefetch=is_prefetch,
            on_complete=on_done,
        )
        self.channels[coord.channel].submit(req)

    def writeback(self, line_addr: int, now: int) -> None:
        coord = self.mapping.map(line_addr)
        self.stats.writes += 1
        req = MemRequest(
            addr=line_addr,
            op=Op.WRITE,
            coord=coord,
            arrival_tick=now,
            on_complete=None,
        )
        self.channels[coord.channel].submit(req)

    def pending_writes_for_line(self, line_addr: int) -> int:
        """Ground truth for the BLP-Tracker accuracy probe."""
        channel, bank = self.mapping.channel_bank(line_addr)
        return self.channels[channel].pending_writes_for_bank(bank)

    def finalize(self) -> None:
        for channel in self.channels:
            channel.finalize()
