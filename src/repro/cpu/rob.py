"""Reorder buffer for the trace-driven core model."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional


class RobEntry:
    """One in-flight instruction; ``done_tick`` is None while outstanding.

    Only a load's entry is ever mutated (its completion sets
    ``done_tick``), so the core pushes one shared entry for all the
    non-load instructions it issues in a cycle.
    """

    __slots__ = ("done_tick", "is_load")

    def __init__(self, done_tick: Optional[int], is_load: bool = False):
        self.done_tick = done_tick
        self.is_load = is_load


class ReorderBuffer:
    """Bounded FIFO of in-flight instructions, retired in order."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.entries: Deque[RobEntry] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.size

    @property
    def head(self) -> Optional[RobEntry]:
        return self.entries[0] if self.entries else None

    def push(self, entry: RobEntry) -> None:
        assert not self.full, "pushed into a full ROB"
        self.entries.append(entry)

    def retire_ready(self, now: int, max_count: int) -> int:
        """Retire up to ``max_count`` completed instructions from the head."""
        retired = 0
        while (
            retired < max_count
            and self.entries
            and self.entries[0].done_tick is not None
            and self.entries[0].done_tick <= now
        ):
            self.entries.popleft()
            retired += 1
        return retired
