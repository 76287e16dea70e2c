"""Host-speed normalisation for timings taken on a shared host.

On a shared machine the simulator's speed moves with the neighbours'
load.  On the 2-vCPU container the benchmark was tuned on, the host
flipped between a fast and a slow state every few seconds, and the
slow one ran Python about 1.5-2x slower.  Raw wall-clock throughput of
back-to-back units spread by 25% (quartile distance over median), which
swamps any change to the simulator itself.

:class:`HostSpeed` measures the host's speed *while* a timed section
runs: a ``SIGALRM`` every :data:`INTERVAL_S` runs a sub-millisecond
probe twice in the main thread and records how long the second run
took.  The first run only brings the probe back into the CPU caches the
simulator evicted it from; timed cold, the probe tracks how much memory
the interrupted work touches rather than the host.  A section's
host-normalised time is its wall time, less the probes' own time,
scaled by :data:`REFERENCE_S` over the timed runs' mean.  It reads as
the seconds the section would have taken on a host where the probe
takes :data:`REFERENCE_S`.  On the same minutes of the same host,
normalised throughput of back-to-back ``write_drain`` units spread by
6% against 16% raw.

The probe is a small event-driven LRU cache model: a ``heapq`` event
queue, bound-method callbacks, attribute access on ``__slots__``
objects, dictionary lookups and list shuffles, which is how the
simulator spends its time.  It imports nothing from ``repro``, so a
change to the simulator cannot change the yardstick.  It touches no
simulator state, so it cannot change a modelled result either.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Any, List, Optional

#: Probe period.  Both probe runs take about 1.2 ms, so they cost about
#: 5% of the section; that share is subtracted from the section's time.
INTERVAL_S = 0.025
#: The probe's time on the host the benchmark was tuned on while that
#: host was in its fast state, so normalised figures read close to
#: wall-clock ones there.
REFERENCE_S = 0.0006
#: What :func:`probe` returns; anything else is a broken probe.
CHECKSUM = 246

_SETS, _WAYS, _ACCESSES, _SPAN = 64, 4, 300, 1024

_clock = time.perf_counter


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int, dirty: bool) -> None:
        self.tag = tag
        self.dirty = dirty


class _Model:
    """An LRU set-associative cache fed by a timed event queue."""

    __slots__ = ("sets", "events", "hits", "writebacks", "rng", "now")

    def __init__(self) -> None:
        self.sets = {i: [] for i in range(_SETS)}
        self.events: List[Any] = []
        self.hits = self.writebacks = 0
        self.rng = random.Random(20260101)
        self.now = 0

    def access(self, addr: int, write: bool) -> None:
        ways = self.sets[addr % _SETS]
        tag = addr // _SETS
        for i, line in enumerate(ways):
            if line.tag == tag:
                self.hits += 1
                ways.append(ways.pop(i))
                line.dirty = line.dirty or write
                return
        if len(ways) >= _WAYS and ways.pop(0).dirty:
            self.writebacks += 1
        ways.append(_Line(tag, write))

    def tick(self, n: int) -> None:
        rng = self.rng
        addr = rng.randrange(_SPAN) if n % 3 else n % _SPAN
        self.access(addr, rng.random() < 0.3)
        if n < _ACCESSES:
            heapq.heappush(self.events, (self.now + 1 + (n & 7), n + 1,
                                         self.tick))

    def run(self) -> int:
        heapq.heappush(self.events, (0, 0, self.tick))
        events = self.events
        while events:
            self.now, n, fn = heapq.heappop(events)
            fn(n)
        return self.hits * 7 + self.writebacks


def probe() -> int:
    """Run the probe once; returns its checksum."""
    return _Model().run()


class HostSpeed:
    """Probe the host's speed while a ``with`` block runs.

    Only the main thread receives the signal, so the block must be
    entered from it; work on other threads (the service's shard) is
    timed all the same, because the probe measures the host, not a
    thread.
    """

    def __init__(self) -> None:
        #: Seconds of each timed (second) probe run.
        self.samples: List[float] = []
        #: Seconds the probes took in all, first runs included.
        self.probing = 0.0
        self.wall = 0.0
        self._start = 0.0
        self._previous: Optional[Any] = None

    def _sample(self, signum: int, frame: Any) -> None:
        start = _clock()
        probe()
        middle = _clock()
        value = probe()
        end = _clock()
        self.samples.append(end - middle)
        self.probing += end - start
        if value != CHECKSUM:
            raise RuntimeError(f"host-speed probe returned {value}, "
                               f"expected {CHECKSUM}")

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        self.probing = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = _clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = _clock() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # A section shorter than one period still gets a reading,
            # taken after it, so the probe costs the section nothing.
            self._sample(signal.SIGALRM, None)
            self.probing = 0.0

    def normalise(self, seconds: float) -> float:
        """``seconds`` of the block, less probe time, in reference seconds.

        The probes' share of the block's wall time is taken off first,
        then the rest is scaled by the host's speed during the block.
        """
        share = self.probing / self.wall if self.wall else 0.0
        # A slow host (long probes) shrinks the section's time.
        factor = REFERENCE_S / statistics.fmean(self.samples)
        return seconds * max(0.0, 1.0 - share) * factor
