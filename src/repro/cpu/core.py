"""Trace-driven out-of-order core model.

The core consumes an infinite instruction trace and retires a configured
budget.  Fidelity targets the paper's needs: memory-level parallelism is
bounded by the ROB (512 entries) and the cache MSHRs, loads block retirement
until their data returns, and stores dirty cache lines that later percolate
to the LLC and DRAM as writebacks.

Event-efficiency: a core self-schedules ticks only while it can make
progress.  When the ROB head is an outstanding load and the ROB is full,
the core sleeps until the load-completion callback wakes it, so that wait
costs no events.  When MSHR back-pressure stalls issue (``l1d.stalled``)
and the ROB head cannot retire, the core would poll every cycle to no
effect; it parks that poll on the engine instead (:meth:`Engine.park
<repro.sim.engine.Engine.park>`).  The L1D draining its admission queue,
or the head load completing, wakes it at the exact position its next
poll would have had, and the skipped polls count as stall cycles.  A
stall costs two events however long it lasts, except while the head
keeps retiring: then the core still ticks every cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.clock import TICKS_PER_CPU_CYCLE
from repro.cpu.rob import ReorderBuffer, RobEntry
from repro.cpu.trace import LOAD, NONMEM, TraceRecord
from repro.dram.commands import LINE_BITS

#: Budget sentinel for quota-driven windows: never reached, so the core
#: runs until explicitly re-targeted (see :meth:`Core.begin_quota`).
_UNBOUNDED = 1 << 62


@dataclass
class CoreStats:
    """Retirement / traffic counters for one core."""

    retired: int = 0
    loads: int = 0
    stores: int = 0
    nonmem: int = 0
    start_tick: int = 0
    finish_tick: int = 0
    sleeps: int = 0
    #: CPU cycles issue stalled because the L1D MSHR pipeline backed up
    #: (admission queue non-empty; only a pipeline-regime L1D raises it).
    mshr_stall_cycles: int = 0

    @property
    def cycles(self) -> float:
        return (self.finish_tick - self.start_tick) / TICKS_PER_CPU_CYCLE

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles > 0 else 0.0


class Core:
    """One out-of-order core fed by a trace iterator.

    :meth:`_tick`, the per-cycle step, writes its retire loop, the
    instruction-fetch line check and the next-tick plan out inline.  It
    sends a memory instruction straight to ``self.l1d.access`` when the
    DTLB adds no delay (a delayed one goes through :meth:`_send` on the
    engine), and it looks the cache entry points up at each call, never
    at construction: a cache's ``access`` may be re-bound on the
    instance after the system is built (the layer tracer does this).
    The non-load instructions issued in one cycle share one ROB entry;
    that is safe because only a load's entry is ever written to, by its
    completion callback.
    """

    def __init__(
        self,
        core_id: int,
        trace: Iterator[TraceRecord],
        engine,
        l1d,
        l1i,
        dtlb,
        itlb,
        rob_size: int = 512,
        issue_width: int = 4,
        retire_width: int = 4,
        budget: int = 100_000,
        on_finish: Optional[Callable[["Core"], None]] = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.engine = engine
        self.l1d = l1d
        if not hasattr(l1d, "stalled"):
            # Duck-type substitutes (test fakes, ideal memories) never
            # stall; give them the flag so the per-tick read stays a
            # plain attribute load.
            l1d.stalled = False
        self.l1i = l1i
        self.dtlb = dtlb
        self.itlb = itlb
        self.rob = ReorderBuffer(rob_size)
        self.issue_width = issue_width
        self.retire_width = retire_width
        self.budget = budget
        self.on_finish = on_finish
        self.stats = CoreStats()
        self.finished = False
        self._sleeping = False
        self._tick_scheduled = False
        #: The engine's handle on this core's parked stall poll, and the
        #: tick of the last poll already counted in mshr_stall_cycles.
        self._poller = None
        self._park_tick = 0
        l1d.on_unstall = self._unstalled
        self._last_fetch_line = -1
        #: Soft retirement quota (sampled intervals): the core keeps
        #: executing when it is reached - only the callback fires.
        self._quota: Optional[int] = None
        self._on_quota: Optional[Callable[["Core"], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.stats.start_tick = self.engine.now
        self._schedule_tick(self.engine.now)

    def reset_measurement(self, budget: int) -> None:
        """Begin a fresh measurement epoch (end of warmup).

        A parked stall carries over: polls after this point count in
        the new epoch.
        """
        self._count_parked_polls()
        self.stats = CoreStats(start_tick=self.engine.now)
        self.budget = budget
        self.finished = False

    def begin_quota(self, quota: int,
                    on_quota: Callable[["Core"], None]) -> None:
        """Begin a soft measurement window without stopping the core.

        Counters reset and ``on_quota`` fires once ``quota`` more
        instructions have retired (``stats.finish_tick`` records the
        crossing) - but unlike the budget mechanism the core *keeps
        executing*, so memory contention from this core persists while
        slower cores complete their own windows.  That is what makes
        short sampled intervals faithful: stopping each core at its
        quota would hand the remaining cores an artificially idle
        memory system.  Retirement is clamped at the quota tick, so the
        snapshot taken by the callback holds exactly ``quota`` retired
        instructions.

        The core is (re)scheduled if it is not already live - sampled
        intervals chain without interruption, but the first interval
        after a functional warmup starts from an idle core, and a
        parked stall carries over like :meth:`reset_measurement`'s.
        """
        self._count_parked_polls()
        self.stats = CoreStats(start_tick=self.engine.now)
        self.budget = _UNBOUNDED
        self.finished = False
        self._quota = quota
        self._on_quota = on_quota
        self._sleeping = False
        if not self._tick_scheduled:
            self._schedule_tick(self.engine.now)

    def pause(self) -> None:
        """Idle the core at a fast-forward boundary.

        Pending completion callbacks still land (they only mark ROB
        entries done), but the core schedules no further work until
        :meth:`begin_quota` or :meth:`reset_measurement`/:meth:`start`
        resume it.  Used by the sampled run loop so the event queue can
        drain before functional warming mutates cache state.  A parked
        stall poll is woken to fire once and see the core idle, as a
        polling core's next tick would.
        """
        self.finished = True
        self._sleeping = False
        if self._poller is not None:
            self._unpark()

    # ------------------------------------------------------------------
    # Functional warmup
    # ------------------------------------------------------------------

    def warm_up(self, budget: int) -> None:
        """Drive ``budget`` trace records through the warm state machines.

        The functional counterpart of the detailed warmup phase: every
        record updates the TLBs, the instruction-fetch line cursor, and
        the cache hierarchy's tag/replacement/prefetcher state through
        :meth:`~repro.cache.cache.Cache.warm_access` - with zero engine
        events (no ROB, no MSHRs, no DRAM timing).  One record counts as
        one warmed instruction, so exactly ``budget`` records are
        consumed; the trace iterator then continues seamlessly into the
        measurement phase.
        """
        trace_next = self.trace.__next__
        l1d_warm = self.l1d.warm_access
        l1i_warm = self.l1i.warm_access
        dtlb_translate = self.dtlb.translate
        itlb_translate = self.itlb.translate
        last_line = self._last_fetch_line
        for _ in range(budget):
            kind, addr, pc = trace_next()
            line = pc >> LINE_BITS
            if line != last_line:
                last_line = line
                itlb_translate(pc)
                l1i_warm(pc, False, pc)
            if kind == NONMEM:
                continue
            dtlb_translate(addr)
            l1d_warm(addr, kind != LOAD, pc)
        self._last_fetch_line = last_line

    def skip_trace(self, records: int) -> None:
        """Fast-forward the trace cursor (warm-state checkpoint restore)."""
        trace_next = self.trace.__next__
        for _ in range(records):
            trace_next()

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _schedule_tick(self, tick: int) -> None:
        if self._tick_scheduled or self.finished:
            return
        self._tick_scheduled = True
        self.engine.schedule(tick, self._tick)

    def _wake(self) -> None:
        if self._sleeping:
            if not self.finished:
                self._sleeping = False
                self._schedule_tick(self.engine.now)
        elif self._poller is not None:
            head = self.rob.head
            if head is not None and head.done_tick is not None:
                self._unpark()

    def _unstalled(self) -> None:
        """The L1D admission queue drained: a parked stall poll resumes."""
        if self._poller is not None:
            self._unpark()

    def _park(self, now: int) -> None:
        """Park the stall poll due next cycle until a wakeup."""
        self._tick_scheduled = True
        self._park_tick = now
        self._poller = self.engine.park(now + TICKS_PER_CPU_CYCLE,
                                        TICKS_PER_CPU_CYCLE, self._tick)

    def _count_parked_polls(self) -> None:
        """Add the parked polls fired so far to ``mshr_stall_cycles``."""
        poller = self._poller
        if poller is not None:
            last = poller.tick - TICKS_PER_CPU_CYCLE
            self.stats.mshr_stall_cycles += \
                (last - self._park_tick) // TICKS_PER_CPU_CYCLE
            self._park_tick = last

    def _unpark(self) -> None:
        """Turn the parked poll into a real tick at its exact position."""
        self._count_parked_polls()
        self.engine.unpark(self._poller)
        self._poller = None

    # ------------------------------------------------------------------
    # The per-activation core step
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._tick_scheduled = False
        if self.finished:
            return
        # This method runs once per active CPU cycle per core, so the
        # retire loop, the fetch-line check and the next-tick plan are
        # written out here rather than called, and invariant state is
        # hoisted into locals.
        now = self.engine.now
        stats = self.stats
        rob_entries = self.rob.entries
        budget = self.budget
        cpu_cycle = TICKS_PER_CPU_CYCLE

        quota = self._quota
        cap = budget if quota is None or budget < quota else quota
        limit = cap - stats.retired
        if limit > self.retire_width:
            limit = self.retire_width
        retired = 0
        while retired < limit and rob_entries:
            done_tick = rob_entries[0].done_tick
            if done_tick is None or done_tick > now:
                break
            rob_entries.popleft()
            retired += 1
        stats.retired += retired
        if quota is not None and stats.retired >= quota:
            # Soft window boundary: record it and keep executing.
            stats.finish_tick = now
            self._quota = None
            on_quota, self._on_quota = self._on_quota, None
            on_quota(self)
        if stats.retired >= budget:
            self._finish(now)
            return

        if self.l1d.stalled:
            # The L1D's MSHR admission queue backed up into us: issue
            # stalls this cycle (retirement above still ran).  While the
            # ROB head can still retire the core retries next cycle;
            # otherwise every retry would be a no-op until the queue
            # drains or the head load completes, so the core parks
            # until one of those wakes it.  Progress is guaranteed - a
            # non-empty queue implies a fill in flight.  Always False in
            # the legacy regime, so the default configuration's event
            # schedule is untouched.
            stats.mshr_stall_cycles += 1
            head = self.rob.head
            if head is not None and head.done_tick is not None:
                self._schedule_tick(now + cpu_cycle)
            else:
                self._park(now)
            return

        rob_size = self.rob.size
        trace_next = self.trace.__next__
        push = rob_entries.append
        core_id = self.core_id
        dtlb_translate = self.dtlb.translate
        last_line = self._last_fetch_line
        wake = self._wake
        # The non-load records of this cycle share one entry (see the
        # class docstring for why that is safe).
        ready = RobEntry(now + cpu_cycle)
        # Every record takes one ROB entry, and nothing else touches the
        # ROB while the core issues, so the room left fixes the count.
        room = rob_size - len(rob_entries)
        count = self.issue_width if self.issue_width < room else room
        for _ in range(count):
            kind, addr, pc = trace_next()
            line = pc >> LINE_BITS
            if line != last_line:
                # Instruction-side traffic: one L1I access per new line.
                last_line = self._last_fetch_line = line
                self.itlb.translate(pc)
                self.l1i.access(pc, False, pc, now, None, core_id)
            if kind == NONMEM:
                push(ready)
                stats.nonmem += 1
            elif kind == LOAD:
                entry = RobEntry(None, is_load=True)
                push(entry)
                stats.loads += 1

                def done(t: int, entry: RobEntry = entry) -> None:
                    entry.done_tick = t
                    wake()

                delay = dtlb_translate(addr) * cpu_cycle
                if delay:
                    self.engine.schedule(now + delay, self._send, addr,
                                         False, pc, done)
                else:
                    self.l1d.access(addr, False, pc, now, done, core_id)
            else:
                # Stores retire immediately (post-retirement store buffer);
                # the write still traverses the hierarchy and dirties lines.
                push(ready)
                stats.stores += 1
                delay = dtlb_translate(addr) * cpu_cycle
                if delay:
                    self.engine.schedule(now + delay, self._send, addr,
                                         True, pc, None)
                else:
                    self.l1d.access(addr, True, pc, now, None, core_id)

        if count < room:
            # Still issuing: out-of-order issue continues past a blocked
            # head until the ROB fills.
            next_tick = now + cpu_cycle
        else:
            done_tick = rob_entries[0].done_tick if rob_entries else None
            if done_tick is None:
                # ROB full behind an outstanding load; sleep until a
                # completion callback wakes us.
                self._sleeping = True
                stats.sleeps += 1
                return
            next_tick = done_tick if done_tick > now + cpu_cycle \
                else now + cpu_cycle
        if not (self._tick_scheduled or self.finished):
            self._tick_scheduled = True
            self.engine.schedule(next_tick, self._tick)

    def _finish(self, now: int) -> None:
        self.finished = True
        self.stats.finish_tick = now
        if self.on_finish is not None:
            self.on_finish(self)

    # ------------------------------------------------------------------
    # Memory interfaces
    # ------------------------------------------------------------------

    def _send(self, addr: int, is_write: bool, pc: int,
              on_done: Optional[Callable[[int], None]]) -> None:
        """An access the DTLB delayed reaches the L1D."""
        self.l1d.access(addr, is_write, pc, self.engine.now, on_done,
                        core_id=self.core_id)
