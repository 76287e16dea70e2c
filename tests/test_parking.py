"""Parked pollers: a woken poll fires exactly where polling would fire it.

Two references live only in this module.  ``World`` drives the engine
with random programs of events and pollers, once with pollers that
reschedule themselves every period (the reference) and once with
pollers parked on the engine; the two must dispatch the same real events
in the same order, at the same ticks, through every dispatch path.
``_check_cohorts`` asserts the invariants of the cohorts the engine
keeps its parked pollers in.  ``PollingCore`` is a
:class:`~repro.cpu.core.Core` whose MSHR stall branch re-polls every
cycle instead of parking; systems built from it are the reference the
parked core must match counter for counter.
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.system as system_module
from repro.clock import TICKS_PER_CPU_CYCLE
from repro.cpu.core import Core
from repro.errors import SimulationError
from repro.sampling import SamplingConfig
from repro.sim.engine import Engine
from repro.sim.system import System
from repro.workloads.suites import trace_factory

from .conftest import tiny_config

#: Tick of the program's last event: it makes every poller ready, so
#: both worlds drain.  Every other event fires well before it.
FINAL_TICK = 400


def _check_cohorts(eng: Engine) -> None:
    """The invariants that let a cohort of parked pollers move as one."""
    cohorts = eng._cohorts
    blocks = sorted((c.base, c.base + len(c.members)) for c in cohorts)
    for (_, end), (start, _) in zip(blocks, blocks[1:]):
        assert end <= start, "cohort blocks overlap"
    # A real event inside a block would make the cohort partly due.
    for _, seq, _, _ in eng._heap:
        assert not any(start <= seq < end for start, end in blocks)
    members = []
    for c in cohorts:
        assert c.members and c.period > 0
        keys = []
        for i, poller in enumerate(c.members):
            assert poller.cohort is c
            keys.append((poller.tick, c.base + i))
        assert all(a < b for a, b in zip(keys, keys[1:]))
        members += c.members
    if cohorts:
        assert eng._park_key == min((c.tick, c.base) for c in cohorts)
    assert len(members) == len(eng._parked)
    assert set(members) == eng._parked


class Program(NamedTuple):
    """What a :class:`World` runs.

    ``events[i]`` lists event ``i``'s actions; ``initial`` schedules
    ``(tick, event)`` pairs up front.  A poller with an echo delay, on
    the poll that finds it ready, schedules an echo that fires that many
    ticks later: a woken poll that draws a sequence number, as a woken
    core's tick does.  The final event wakes the pollers in
    ``final_wakes`` order, then any it leaves out.
    """

    periods: List[int]
    events: List[list]
    initial: List[tuple]
    echoes: List[Optional[int]]
    final_wakes: Sequence[int] = ()


class World:
    """An engine, pollers and a program of events that wake them."""

    def __init__(self, program: Program, parked: bool) -> None:
        periods, events, initial, echoes, self.final_wakes = program
        self.eng = Engine()
        self.parked = parked
        self.periods = periods
        self.events = events
        self.echoes = echoes
        n = len(periods)
        self.log = []
        self.ready = [False] * n
        self.active = [False] * n
        self.polls = [0] * n
        self.real_polls = 0
        self.handles = [None] * n
        self.park_tick = [0] * n
        for tick, event in initial:
            self.eng.schedule(tick, self.fire, event)
        self.eng.schedule(FINAL_TICK, self.wake_all)

    def fire(self, i: int) -> None:
        self.log.append(("event", i, self.eng.now))
        for action, *operands in self.events[i]:
            if action == "spawn":
                target, delay = operands
                if target < len(self.events):
                    self.eng.schedule_in(delay, self.fire, target)
            elif action == "wake":
                self.wake(operands[0] % len(self.periods))
            elif action == "unready":
                p = operands[0] % len(self.periods)
                if self.active[p]:
                    self.ready[p] = False
            elif action == "arm":
                p, delay = operands
                self.arm(p % len(self.periods), delay)
            else:
                self.eng.stop()

    def arm(self, p: int, delay: int) -> None:
        if not self.active[p]:
            self.active[p] = True
            self.ready[p] = False
            self.eng.schedule_in(delay, self.poll, p)

    def poll(self, p: int) -> None:
        now = self.eng.now
        self.polls[p] += 1
        self.real_polls += 1
        if self.ready[p]:
            self.active[p] = False
            self.log.append(("ready", p, now))
            if self.echoes[p] is not None:
                self.eng.schedule_in(self.echoes[p], self.echo, p)
        elif self.parked:
            self.park_tick[p] = now
            self.handles[p] = self.eng.park(now + self.periods[p],
                                            self.periods[p], self.poll, p)
        else:
            self.eng.schedule(now + self.periods[p], self.poll, p)

    def echo(self, p: int) -> None:
        self.log.append(("echo", p, self.eng.now))

    def wake(self, p: int) -> None:
        self.ready[p] = True
        handle = self.handles[p]
        if handle is not None:
            self.handles[p] = None
            tick = self.eng.unpark(handle)
            self.polls[p] += (tick - self.park_tick[p]) \
                // self.periods[p] - 1
            _check_cohorts(self.eng)

    def wake_all(self) -> None:
        self.log.append(("final", self.eng.now))
        for p in (*self.final_wakes, *range(len(self.periods))):
            self.wake(p)

    def drive(self, ops) -> None:
        """Apply dispatch ops, then run to completion; log each boundary."""
        eng = self.eng
        for op, arg in ops:
            if op == "run":
                eng.run()
            elif op == "until":
                target = len(self.log) + arg
                eng.run(until=lambda: len(self.log) >= target)
            elif op == "for":
                eng.run_for(arg)
            else:
                # step() has no stop flag to honour, and the reference
                # steps through its polls one at a time: both step until
                # `arg` more events have been logged.
                target = len(self.log) + arg
                while len(self.log) < target and eng.step():
                    pass
            self.log.append(("op", op, eng.now, eng.pending))
            _check_cohorts(eng)
        while eng.pending:
            eng.run()
            self.log.append(("resume", eng.now))


_actions = st.one_of(
    st.tuples(st.just("spawn"), st.integers(1, 4), st.integers(0, 6)),
    st.tuples(st.just("wake"), st.integers(0, 3)),
    st.tuples(st.just("unready"), st.integers(0, 3)),
    st.tuples(st.just("arm"), st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.just("stop")),
)


@st.composite
def programs(draw):
    periods = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    shared = draw(st.booleans())
    if shared:
        # One period and one first poll for three or four pollers: their
        # parks line up into one cohort, and wakes split it.
        periods = [periods[0]] * draw(st.integers(3, 4))
    n_events = draw(st.integers(1, 24))
    events = []
    for i in range(n_events):
        actions = draw(st.lists(_actions, max_size=4))
        # Spawns only reach later events: every program terminates.
        events.append([(a[0], i + a[1], a[2]) if a[0] == "spawn" else a
                       for a in actions])
    initial = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, n_events - 1)),
        min_size=1, max_size=8))
    # Arm every poller early so most programs park something.
    delay = draw(st.integers(0, 3))
    arms = [("arm", p, delay if shared else draw(st.integers(0, 3)))
            for p in range(len(periods))]
    events[0] = arms + events[0]
    echoes = draw(st.lists(st.one_of(st.none(), st.integers(0, 5)),
                           min_size=len(periods), max_size=len(periods)))
    # Pollers still parked at the end share a cohort more often than
    # not; a shuffled final wake splits it in the middle.
    final_wakes = draw(st.permutations(range(len(periods))))
    return Program(periods, events, initial, echoes, final_wakes)


_ops = st.lists(st.one_of(
    st.tuples(st.just("run"), st.just(0)),
    st.tuples(st.just("until"), st.integers(0, 6)),
    st.tuples(st.just("for"), st.integers(0, 40)),
    st.tuples(st.just("step"), st.integers(0, 6)),
), max_size=6)


def _assert_equivalent(reference: World, parked: World) -> None:
    assert parked.log == reference.log
    assert parked.polls == reference.polls
    assert parked.eng.now == reference.eng.now
    assert not parked.eng._parked
    # The only events the parked world saves are the virtual polls.
    virtual = sum(parked.polls) - parked.real_polls
    assert reference.eng.events_fired - parked.eng.events_fired == virtual


class TestParkedPollersMatchPolling:
    @settings(max_examples=300, deadline=None)
    @given(programs(), _ops)
    def test_run_until_run_for_and_step_match(self, program, ops):
        """Every dispatch path, stops mid-batch included, dispatches the
        same real events in the same order as the polling reference."""
        reference = World(program, parked=False)
        reference.drive(ops)
        parked = World(program, parked=True)
        parked.drive(ops)
        _assert_equivalent(reference, parked)

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_step_to_exhaustion_matches(self, program):
        reference = World(program, parked=False)
        parked = World(program, parked=True)
        for world in (reference, parked):
            while world.eng.step():
                pass
        _assert_equivalent(reference, parked)


class TestParkingUnits:
    def _chain(self, eng, log, name, period, first):
        """A poller that logs each *real* firing and parks again."""
        handle = {}

        def poll():
            log.append((name, eng.now))
            handle["p"] = eng.park(eng.now + period, period, poll)

        eng.schedule(first, poll)
        return handle

    def test_fewer_polls_fired_ranks_first_at_a_shared_tick(self):
        """A polls from 0 and B from 4, both every 2 ticks: B's chain
        started later, so it reaches tick 8 through fewer polls and its
        poll there was scheduled first."""
        eng = Engine()
        log = []
        a = self._chain(eng, log, "a", 2, 0)
        b = self._chain(eng, log, "b", 2, 4)

        def wake():
            eng.unpark(b["p"])
            eng.unpark(a["p"])

        eng.schedule(7, wake)
        eng.run(until=lambda: len(log) >= 4)
        assert log == [("a", 0), ("b", 4), ("b", 8), ("a", 8)]

    def test_earlier_predecessor_ranks_first_at_a_shared_tick(self):
        """Both repeat into tick 12; A's predecessor fired at 8 (period
        4), B's at 9 (period 3), so A's poll was scheduled first."""
        eng = Engine()
        log = []
        a = self._chain(eng, log, "a", 4, 0)
        b = self._chain(eng, log, "b", 3, 0)

        def wake():
            eng.unpark(b["p"])
            eng.unpark(a["p"])

        eng.schedule(11, wake)
        eng.run(until=lambda: len(log) >= 4)
        assert log == [("a", 0), ("b", 0), ("a", 12), ("b", 12)]

    def test_woken_poll_precedes_events_scheduled_after_its_predecessor(
            self):
        eng = Engine()
        log = []
        handle = self._chain(eng, log, "poll", 5, 0)
        # Scheduled before the poll due at 10 draws its sequence number
        # (when the poll at 5 fires), so it fires first.
        eng.schedule(10, log.append, ("early", 10))
        eng.schedule(8, lambda: eng.unpark(handle["p"]))
        eng.run(until=lambda: len(log) >= 3)
        assert log == [("poll", 0), ("early", 10), ("poll", 10)]

    def test_parked_poller_without_a_waker_is_a_deadlock(self):
        eng = Engine()
        eng.park(3, 3, lambda: None)
        assert eng.pending == 1
        with pytest.raises(SimulationError, match="parked poller"):
            eng.run()
        with pytest.raises(SimulationError, match="parked poller"):
            eng.step()

    def test_run_for_fires_due_polls_before_the_window_closes(self):
        eng = Engine()
        fired = []
        poller = eng.park(2, 4, fired.append, "poll")
        eng.run_for(11)
        # Polls at 2, 6 and 10 fired virtually; 14 is the next.
        assert eng.now == 11
        assert eng.unpark(poller) == 14
        eng.run()
        assert fired == ["poll"]
        assert eng.events_fired == 1

    def test_a_wake_splits_its_cohort(self):
        """Three pollers poll every 2 ticks in one cohort; an event at 3
        wakes the middle one, whose poll at 4 echoes at 6, and an event
        at 5 wakes the others.  At 4 the first poller's poll fires
        before the woken one and the third's after it, so at 6 the
        first is ready before the echo and the third after it."""
        program = Program([2, 2, 2],
                          [[("arm", p, 0) for p in range(3)],
                           [("wake", 1)],
                           [("wake", 0), ("wake", 2)]],
                          [(0, 0), (3, 1), (5, 2)],
                          [None, 2, None])
        reference = World(program, parked=False)
        reference.drive([])
        parked = World(program, parked=True)
        parked.eng.run_for(2)
        (cohort,) = parked.eng._cohorts
        assert cohort.members == parked.handles and cohort.tick == 4
        parked.drive([])
        assert reference.log[:7] == [
            ("event", 0, 0), ("event", 1, 3), ("ready", 1, 4),
            ("event", 2, 5), ("ready", 0, 6), ("echo", 1, 6),
            ("ready", 2, 6)]
        _assert_equivalent(reference, parked)

    def test_unparking_a_poller_that_is_not_parked_is_an_error(self):
        eng = Engine()
        poller = eng.park(3, 3, lambda: None)
        assert eng.unpark(poller) == 3
        with pytest.raises(SimulationError, match="not parked"):
            eng.unpark(poller)
        with pytest.raises(SimulationError, match="not parked"):
            Engine().unpark(eng.park(3, 3, lambda: None))
        assert eng.pending == 2
        _check_cohorts(eng)

    def test_a_woken_poller_keeps_its_tick(self):
        eng = Engine()
        pollers = [eng.park(3, 3, lambda: None) for _ in range(3)]
        # The polls at 3 fire virtually and the three merge at 6.
        eng.run_for(4)
        (cohort,) = eng._cohorts
        assert cohort.members == pollers
        assert eng.unpark(pollers[1]) == 6
        # The woken poll fires at 6; the others fire 6, 9 and 12 virtually.
        eng.run_for(10)
        _check_cohorts(eng)
        assert [p.tick for p in pollers] == [15, 6, 15]
        assert eng.unpark(pollers[0]) == 15 and eng.unpark(pollers[2]) == 15
        eng.run()
        assert eng.events_fired == 3

    def test_park_routes_through_a_wrapped_schedule(self):
        """A tracer that wraps schedule() also wraps the woken poll."""
        seen = []

        class Traced(Engine):
            __slots__ = ()

            def schedule(self, tick, fn, *args):
                def dispatch(*a):
                    seen.append(fn.__name__)
                    fn(*a)
                super().schedule(tick, dispatch, *args)

        eng = Traced()

        def poll():
            pass

        eng.unpark(eng.park(3, 3, poll))
        eng.run()
        assert seen == ["poll"]


# ----------------------------------------------------------------------
# Core lifecycle against a polling core
# ----------------------------------------------------------------------


class PollingCore(Core):
    """The stall branch re-polls every cycle instead of parking."""

    def _park(self, now: int) -> None:
        self._schedule_tick(now + TICKS_PER_CPU_CYCLE)


def _check_parks(system: System) -> None:
    """Every parked poller is a live core stalled behind an unready head."""
    parked = system.engine._parked
    owners = [c for c in system.cores if c._poller is not None]
    assert sorted(map(id, parked)) == sorted(id(c._poller) for c in owners)
    _check_cohorts(system.engine)
    for core in owners:
        head = core.rob.head
        assert not core.finished and core._tick_scheduled
        assert core.l1d.stalled
        assert head is None or head.done_tick is None


class _CheckedSystem(System):
    """Checks the parked pollers at every sampled-run boundary."""

    boundaries = 0

    def reset_stats(self) -> None:
        _check_parks(self)
        self.boundaries += 1
        super().reset_stats()

    def _run_quota(self, quota):
        _check_parks(self)
        return super()._run_quota(quota)

    def _prime_writeback_policy(self) -> None:
        # Runs after the pause-and-drain of a warm gap: nothing may be
        # left parked across functional warming.
        if self._warmed and self.engine.now:
            assert not self.engine._parked
        _check_parks(self)
        super()._prime_writeback_policy()


def _result_fields(result) -> dict:
    fields = dataclasses.asdict(result)
    del fields["events"], fields["phase_breakdown"]
    return fields


def _run(config, workload, seed, core_cls, monkeypatch, system_cls=System):
    with monkeypatch.context() as m:
        m.setattr(system_module, "Core", core_cls)
        system = system_cls(config, trace_factory(workload, config,
                                                  seed=seed))
        result = system.run()
    return system, result


SAMPLED = SamplingConfig(intervals=4, interval_instructions=300,
                         warm_instructions=150,
                         detailed_warm_instructions=150)


@pytest.mark.parametrize("workload,mshrs,seed,sampling", [
    ("bc", 1, 7, None),
    ("lbm", 2, 4099, None),
    ("bc", 2, 7, SAMPLED),
    ("lbm", 1, 7, SAMPLED),
    # Back-to-back intervals: cores run on (and stay parked) across
    # every boundary, so begin_quota must carry the park over.
    ("whiskey", 1, 4099, SamplingConfig(
        intervals=4, interval_instructions=400, period_instructions=400)),
    ("bc", 2, 4099, SamplingConfig(
        intervals=3, interval_instructions=300, warm_instructions=0,
        detailed_warm_instructions=200)),
])
def test_parked_core_matches_polling_core(workload, mshrs, seed, sampling,
                                          monkeypatch):
    config = tiny_config(warmup_mode="functional").with_mshrs(mshrs)
    if sampling is not None:
        config = config.with_sampling(sampling)
    polling, want = _run(config, workload, seed, PollingCore, monkeypatch)
    parked, got = _run(config, workload, seed, Core, monkeypatch,
                       _CheckedSystem)
    assert got.mshr_stall_cycles > 0
    assert _result_fields(got) == _result_fields(want)
    assert parked.engine.now == polling.engine.now
    assert got.events < want.events
    assert parked.boundaries >= (sampling.intervals if sampling else 1)


def _parked_system():
    """A detailed run stopped at the first event that leaves a core parked."""
    config = tiny_config().with_mshrs(1)
    system = System(config, trace_factory("bc", config, seed=7))
    for core in system.cores:
        core.start()
    while not system.engine._parked:
        assert system.engine.step()
    core = next(c for c in system.cores if c._poller is not None)
    return system, core


class TestCoreLifecycle:
    def test_pause_wakes_the_park_to_fire_once_and_idle(self):
        system, core = _parked_system()
        poller = core._poller
        due = poller.tick
        core.pause()
        assert core._poller is None and poller not in system.engine._parked
        assert core._tick_scheduled
        fired = system.engine.events_fired
        while core._tick_scheduled:
            system.engine.step()
        # The woken poll fired at its due tick and left the core idle.
        assert system.engine.now == due
        assert system.engine.events_fired > fired
        _check_parks(system)

    @pytest.mark.parametrize("restart", ["begin_quota",
                                         "reset_measurement"])
    def test_new_epoch_carries_the_park_and_counts_from_there(self,
                                                              restart):
        system, core = _parked_system()
        engine = system.engine
        # Let the stall run on for a while, virtually.
        engine.run_for(30 * TICKS_PER_CPU_CYCLE)
        _check_parks(system)
        assert core._poller is not None  # still stalled (deterministic)
        old = core.stats
        due = core._poller.tick
        polls_so_far = (due - core._park_tick) // TICKS_PER_CPU_CYCLE - 1
        before = old.mshr_stall_cycles
        if restart == "begin_quota":
            core.begin_quota(10_000, lambda c: None)
        else:
            core.reset_measurement(10_000)
        assert old.mshr_stall_cycles == before + polls_so_far
        assert core._poller is not None and core.stats.mshr_stall_cycles == 0
        _check_parks(system)
        # The first poll the new epoch counts is the one due next; the
        # woken poll (queued at `woken`) counts itself when it fires.
        while core._poller is not None:
            engine.step()
        woken = min(e[0] for e in engine._heap if e[2] == core._tick)
        assert core.stats.mshr_stall_cycles == \
            (woken - due) // TICKS_PER_CPU_CYCLE

    def test_cache_drain_wakes_a_parked_core(self):
        system, core = _parked_system()
        system.drain()
        assert not core.l1d.stalled
        assert core._poller is None and not system.engine._parked
        _check_parks(system)
