"""Discrete-event simulation engine.

A single binary-heap event queue keyed by ``(tick, sequence)`` so that
simultaneous events fire in schedule order (deterministic runs).  Components
self-schedule: cores tick themselves while they can make progress, sleep
when the ROB fills behind an outstanding load (woken by memory-completion
callbacks), and *park* while MSHR back-pressure stalls their issue (see
:meth:`Engine.park`); DRAM channels tick only while their queues are
non-empty.  Simulated time is therefore proportional to *activity*, not
wall-clock cycles.

Performance notes (this is the innermost loop of every simulation):

* Each heap entry is a *slotted event record* - the 4-tuple
  ``(tick, seq, fn, args)``.  Callers pass a callable plus positional
  arguments instead of allocating a closure per event
  (``schedule(t, self._tick_sc, idx)`` rather than
  ``schedule(t, lambda: self._tick_sc(idx))``), which removes one object
  allocation and one indirection from every scheduled event.  Heap
  ordering only ever compares the ``(tick, seq)`` prefix, so the
  callable and args never participate in comparisons.
* :meth:`run` dispatches events in *same-tick batches*: the clock is
  advanced once per distinct tick and every event sharing that tick is
  fired from a tight inner loop with the heap bound to a local.
* Run termination uses the :meth:`stop` flag - a plain attribute test
  per event - rather than calling a ``until()`` predicate before every
  dispatch.  The predicate form is still supported for callers that
  need it.
* A poll that would only reschedule itself every cycle until something
  else changes is parked off the heap as a *virtual poll*.  Every
  dispatch path tests one local set for emptiness before a pop; only
  while a poll is parked does it compare keys and, when virtual polls
  fall due, advance them arithmetically (:meth:`Engine._advance`).
  Parked pollers travel in *cohorts* - pollers that share a period, a
  next-poll tick and a contiguous block of sequence numbers - so an
  advance costs O(cohorts), not O(parked pollers): a cohort moves as a
  whole, and cohorts that land together merge.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Set, Tuple

from repro.errors import SimulationError

#: One scheduled event: (tick, sequence, callable, positional args).
Event = Tuple[int, int, Callable[..., None], tuple]


class _Cohort:
    """Parked pollers that share one period and one next-poll tick.

    Member ``i``'s next poll is keyed ``(tick, base + i)``: the members
    hold one contiguous block of sequence numbers, in firing order, and
    no real event holds a number inside it.  Against any real event a
    cohort is therefore due as a whole or not at all.
    """

    __slots__ = ("tick", "base", "period", "members")

    def __init__(self, tick: int, base: int, period: int,
                 members: List["Poller"]) -> None:
        self.tick = tick
        self.base = base
        self.period = period
        self.members = members
        for poller in members:
            poller.cohort = self


class Poller:
    """A parked periodic poll, returned by :meth:`Engine.park`.

    ``tick`` names the next poll that has not yet (virtually) fired;
    once :meth:`Engine.unpark` has woken the poller it stays at the
    tick of the woken poll.
    """

    __slots__ = ("cohort", "woken_tick", "fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple) -> None:
        self.cohort: Optional[_Cohort] = None
        self.woken_tick = 0
        self.fn = fn
        self.args = args

    @property
    def tick(self) -> int:
        cohort = self.cohort
        return self.woken_tick if cohort is None else cohort.tick


class Engine:
    """Minimal deterministic discrete-event engine (integer ticks)."""

    __slots__ = ("now", "events_fired", "_heap", "_seq", "_stopped",
                 "_parked", "_cohorts", "_park_key")

    def __init__(self) -> None:
        self.now: int = 0
        self.events_fired: int = 0
        self._heap: List[Event] = []
        self._seq: int = 0
        self._stopped: bool = False
        #: Parked pollers, the cohorts they travel in, and the smallest
        #: ``(tick, seq)`` among them.
        self._parked: Set[Poller] = set()
        self._cohorts: List[_Cohort] = []
        self._park_key: Tuple[int, int] = (0, 0)

    def schedule(self, tick: int, fn: Callable[..., None], *args) -> None:
        """Schedule ``fn(*args)`` to run at ``tick`` (clamped to the present).

        Events scheduled for the same tick fire in schedule order.
        """
        if tick < self.now:
            tick = self.now
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (tick, seq, fn, args))

    def schedule_in(self, delay: int, fn: Callable[..., None],
                    *args) -> None:
        """Schedule ``fn(*args)`` after ``delay`` ticks."""
        self.schedule(self.now + delay, fn, *args)

    # ------------------------------------------------------------------
    # Parked pollers
    # ------------------------------------------------------------------

    def park(self, tick: int, period: int, fn: Callable[..., None],
             *args) -> Poller:
        """Schedule ``fn(*args)`` at ``tick``, then every ``period`` - virtually.

        For a poll that would fire and do nothing but reschedule itself
        ``period`` ticks later until its owner is woken.  Instead of
        occupying the heap, the poll waits off it, keyed exactly as the
        events it stands for would have been: the first at ``(tick,
        seq)`` with ``seq`` drawn now, as :meth:`schedule` draws it, and
        each later one at the next ``period`` with the sequence number
        current when its predecessor fired.  :meth:`unpark` turns the
        next unfired poll into a real event at that key, so waking a
        parked poller preserves the same-tick order a polling loop
        would have produced.  Virtual polls never run ``fn``, never
        count as fired events and never move the clock.

        The poll is registered through :meth:`schedule`, so anything
        that wraps ``schedule`` (a tracer) wraps the woken event too.
        """
        heap = self._heap
        self._heap = box = []
        try:
            self.schedule(tick, fn, *args)
        finally:
            self._heap = heap
        ((tick, seq, fn, args),) = box
        poller = Poller(fn, args)
        cohorts = self._cohorts
        cohorts.append(_Cohort(tick, seq, period, [poller]))
        self._parked.add(poller)
        if len(cohorts) == 1 or (tick, seq) < self._park_key:
            self._park_key = (tick, seq)
        return poller

    def unpark(self, poller: Poller) -> int:
        """Make ``poller``'s next poll a real event; returns its tick.

        The woken poll keeps its key, which lies inside its cohort's
        block, so the cohort splits around it.
        """
        parked = self._parked
        if poller not in parked:
            raise SimulationError(
                "unpark() of a poller that is not parked here: it was "
                "woken already, or the handle is stale")
        parked.remove(poller)
        cohort = poller.cohort
        members = cohort.members
        i = members.index(poller)
        tick = cohort.tick
        seq = cohort.base + i
        heapq.heappush(self._heap, (tick, seq, poller.fn, poller.args))
        poller.cohort = None
        poller.woken_tick = tick
        del members[i]
        cohorts = self._cohorts
        if not members:
            cohorts.remove(cohort)
        elif i == 0:
            cohort.base = seq + 1
        elif i < len(members):
            cohorts.append(_Cohort(tick, seq + 1, cohort.period,
                                   members[i:]))
            del members[i:]
        if cohorts:
            self._park_key = min((c.tick, c.base) for c in cohorts)
        return tick

    def _advance(self, limit: tuple) -> None:
        """Fire, virtually, every parked poll keyed before ``limit``.

        ``limit`` is the next real event (or a ``(tick, -1)`` horizon).
        A poller whose next poll is at ``(t, s) < limit`` fires its polls
        at ``t, t + period, ...`` up to the last one keyed before
        ``limit``: each poll after the first draws a sequence number
        newer than every queued event, so only the first may fire at
        ``limit``'s own tick, ahead of it.  The successor of each
        poller's last fired poll becomes its new key, with a sequence
        number drawn in the order those last polls fired: by tick, then
        fewer polls fired first, then by the old key.  (Walk two equal-
        period chains back from a shared tick one period at a time: the
        shorter reaches its first poll, whose sequence number predates
        this advance, while the other is still on a repeat.  Pollers
        with different periods never meet at a tick again, so how they
        tie does not matter.)

        The members of a cohort share all three sort keys but the old
        one, which orders them as their block does, so each due cohort
        moves as a whole to a fresh block.  Due cohorts that sort next
        to each other and land on one tick with one period merge.
        """
        limit_tick = limit[0]
        limit_seq = limit[1]
        cohorts = self._cohorts
        due = []
        for c in cohorts:
            tick = c.tick
            if tick < limit_tick or (tick == limit_tick
                                     and c.base < limit_seq):
                period = c.period
                polls = (limit_tick - tick + period - 1) // period or 1
                due.append((tick + (polls - 1) * period, polls, c.base, c))
        # Blocks are disjoint, so no two entries tie before the cohort.
        due.sort()
        seq = self._seq
        prev = None
        for last, _, _, c in due:
            tick = last + c.period
            members = c.members
            if prev is not None and prev.tick == tick \
                    and prev.period == c.period:
                for poller in members:
                    poller.cohort = prev
                prev.members += members
                cohorts.remove(c)
            else:
                c.tick = tick
                c.base = seq
                prev = c
            seq += len(members)
        self._seq = seq
        if len(cohorts) == 1:
            self._park_key = (cohorts[0].tick, cohorts[0].base)
        else:
            self._park_key = min((c.tick, c.base) for c in cohorts)

    def _drained(self) -> None:
        """The heap is empty: nothing is left that could wake a poller."""
        if self._parked:
            raise SimulationError(
                f"{len(self._parked)} parked poller(s) remain with no "
                "event left to wake them")

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the current :meth:`run` call to return after this event.

        Intended to be called from inside an event callback (e.g. when the
        last core retires its budget); pending events stay queued so a
        subsequent :meth:`run` can resume them.
        """
        self._stopped = True

    @property
    def pending(self) -> int:
        """Events waiting in the queue; a parked poller counts as one."""
        return len(self._heap) + len(self._parked)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        heap = self._heap
        if not heap:
            self._drained()
            return False
        if self._parked and self._park_key < heap[0]:
            self._advance(heap[0])
        tick, _, fn, args = heapq.heappop(heap)
        if tick < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = tick
        self.events_fired += 1
        fn(*args)
        return True

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_events: int = 500_000_000,
    ) -> None:
        """Run events until stopped, ``until()`` is true, or the queue drains.

        Without ``until`` this is the fast path: events are dispatched in
        same-tick batches and only the :meth:`stop` flag is tested between
        events.  With ``until`` the predicate is evaluated before every
        event, exactly as the historical engine did.  Virtual polls are
        not events: ``until()`` is not evaluated between them.
        """
        heap = self._heap
        parked = self._parked
        pop = heapq.heappop
        fired = 0
        limit = max_events
        self._stopped = False
        try:
            if until is None:
                while heap:
                    tick = heap[0][0]
                    self.now = tick
                    # Same-tick batch: drain every event at `tick` without
                    # touching the clock again.  Events scheduled *for this
                    # tick* during the batch keep the batch alive (their
                    # sequence numbers order them after the current event),
                    # so the storm guard must run per event - a zero-delay
                    # self-rescheduling loop never leaves this batch.
                    while heap and heap[0][0] == tick:
                        if parked and self._park_key < heap[0]:
                            self._advance(heap[0])
                        _, _, fn, args = pop(heap)
                        fired += 1
                        fn(*args)
                        if self._stopped:
                            return
                        if fired > limit:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; "
                                "likely an event storm"
                            )
            else:
                # A parked poll stands for a queued event, so until() is
                # consulted while one waits even if the heap is empty.
                while heap or parked:
                    if self._stopped or until():
                        return
                    if not heap:
                        break
                    if parked and self._park_key < heap[0]:
                        self._advance(heap[0])
                    tick, _, fn, args = pop(heap)
                    self.now = tick
                    fired += 1
                    fn(*args)
                    if fired > limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely an event storm"
                        )
            self._drained()
        finally:
            self.events_fired += fired

    def run_for(self, ticks: int, max_events: int = 500_000_000) -> None:
        """Run until simulated time advances by ``ticks``.

        Honours the same run controls as :meth:`run`: a :meth:`stop`
        call from inside an event halts at that event boundary (the
        clock stays at the stopping event's tick), and ``max_events``
        bounds the dispatch count so a zero-delay self-rescheduling
        event cannot spin forever inside the window.  Parked polls due
        inside the window fire (virtually) before it closes.
        """
        deadline = self.now + ticks
        heap = self._heap
        parked = self._parked
        pop = heapq.heappop
        fired = 0
        limit = max_events
        self._stopped = False
        try:
            while heap and heap[0][0] <= deadline:
                if parked and self._park_key < heap[0]:
                    self._advance(heap[0])
                tick, _, fn, args = pop(heap)
                self.now = tick
                fired += 1
                fn(*args)
                if self._stopped:
                    return
                if fired > limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely an event storm"
                    )
        finally:
            self.events_fired += fired
        if parked and self._park_key[0] <= deadline:
            self._advance((deadline + 1, -1))
        if self.now < deadline:
            self.now = deadline
