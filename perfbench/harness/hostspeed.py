"""Host speed, sampled while a workload runs, and times normalised by it.

The benchmark shares a few cores of a virtual machine with other
tenants, and the speed those cores give the interpreter moves by a third
or more over seconds to minutes (the same deterministic exploration takes
1.6 s in one minute and 2.5 s in the next). Every timing the benchmark
reports moves with it. To separate the program's cost from the host's
speed, :class:`HostSpeed` runs a fixed pure-Python probe, which touches
no ``repro`` code, every :data:`INTERVAL_S` of process CPU time while a
run is under way and records how long each probe took.

A span of time is then *normalised*, part by part:

* the event loop's waits for its next event (:meth:`HostSpeed.event_loop`)
  are kept as measured: they are set by timers and by the load's
  schedule, not by the host;
* full (generation 2) collections are kept as measured. They walk the
  whole heap, are bound by memory rather than by the interpreter, and
  do not follow the probe: over five kv-saturate runs of equal work
  whose factors ranged from 0.87 to 1.18, full collections took 3.65 to
  3.89 s with no trend in the factor;
* each ``fsync`` counts :data:`FSYNC_REF_S`, whatever the shared disk
  took;
* the probes' own time counts nothing;
* the rest is time the process computed, or was stalled (blocked on the
  disk, or descheduled by the host). Its CPU time, young collections
  included, is multiplied by the *factor*, :data:`PROBE_REF_S` over the
  trimmed mean probe time measured alongside it, and stalls count
  nothing.

The result is the time the same work would take on a reference host
whose probe takes exactly :data:`PROBE_REF_S`, whose disk syncs in
:data:`FSYNC_REF_S` and which never stalls. It is lower when the program
does less work, and it does not move when only the host's speed does.
Every run's artifact also holds its figures as measured and the probe
summary.

The probe runs from a ``SIGPROF`` handler, so it samples exactly while
the process computes (an idle event loop gets no probes), and the timer
is re-armed after each probe, so probes do not count towards the next
interval. The collector is off during a probe, so no collection that
the program's allocations owe lands inside one. A probe blocks the
process for about :data:`PROBE_REF_S`, about 1 % of the CPU time.
"""

from __future__ import annotations

import asyncio
import gc
import os
import selectors
import signal
import struct
import time
from bisect import bisect_left, bisect_right
from statistics import fmean
from typing import List, Optional, Tuple

#: Process CPU seconds between the end of one probe and the next.
INTERVAL_S = 0.04
#: Probe time on the reference host (about a 2-vCPU cloud VM's typical speed).
PROBE_REF_S = 0.0004
#: Share of probes dropped at each end before averaging their times.
TRIM = 0.1
#: Time one ``fsync`` counts as on the reference host's disk (about a 2-vCPU
#: cloud VM's median when its shared virtual disk is quiet).
FSYNC_REF_S = 0.0002
#: Shortest wait in the event loop's ``select`` that is recorded as idle.
IDLE_MIN_S = 0.00005
#: Fewest probes an interval needs for a factor of its own.
MIN_SAMPLES = 16

_PACK = struct.Struct("<IIq").pack


class _Record:
    __slots__ = ("key", "count", "tags")

    def __init__(self, key: Tuple[int, str]) -> None:
        self.key = key
        self.count = 0
        self.tags = frozenset((key[0] & 7, key[1][:2]))


def probe(rounds: int = 250) -> int:
    """Fixed interpreter work: the operation mix of a protocol handler.

    Small objects, dict lookups and updates, tuple and frozenset hashing,
    method calls, struct packing, byte joins and a short sort.
    """
    table = {}
    chunks = []
    checksum = 0
    for i in range(rounds):
        key = (i & 15, "k%02d" % (i & 7))
        record = table.get(key)
        if record is None:
            record = table[key] = _Record(key)
        record.count += 1
        checksum ^= hash((record.tags, record.count))
        chunks.append(_PACK(i, record.count, checksum & 0xFFFFFFFF))
        if i % 16 == 15:
            blob = b"".join(chunks)
            checksum += len(blob) + sum(sorted(len(c) + j for j, c in enumerate(chunks))[:4])
            chunks.clear()
    return checksum


class Intervals:
    """Disjoint time intervals, added in order, and how much of a span they cover."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._before = [0.0]  # total length of the intervals before index i

    def __len__(self) -> int:
        return len(self.starts)

    def add(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self._before.append(self._before[-1] + end - start)

    def durations(self) -> List[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def total(self) -> float:
        return self._before[-1]

    def count(self, begin: float, end: float) -> int:
        """Number of intervals that start in [*begin*, *end*)."""
        return bisect_left(self.starts, end) - bisect_left(self.starts, begin)

    def covered(self, begin: float, end: float) -> float:
        """Length of the part of [*begin*, *end*) the intervals cover."""
        first = bisect_right(self.ends, begin)
        stop = bisect_left(self.starts, end)
        if first >= stop:
            return 0.0
        length = self._before[stop] - self._before[first]
        length -= max(0.0, begin - self.starts[first])
        length -= max(0.0, self.ends[stop - 1] - end)
        return length


class HostSpeed:
    """What a run's timings are normalised by, recorded between :meth:`start` and :meth:`stop`.

    Probe times (on ``SIGPROF``), full collections (``gc.callbacks``),
    ``os.fsync`` calls, and the waits of an event loop made by
    :meth:`event_loop`.
    """

    def __init__(self) -> None:
        self.probes = Intervals()
        #: Full (generation 2) collections.
        self.full = Intervals()
        #: Calls to ``os.fsync``.
        self.fsyncs = Intervals()
        #: Waits of the event loop for its next event (see :meth:`event_loop`).
        self.idle = Intervals()
        self._collecting_since = 0.0
        self._fsync = os.fsync
        self._previous = None
        self._running = False

    def _handler(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        probe()
        self.probes.add(began, time.perf_counter())
        if collecting:
            gc.enable()
        if self._running:
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def _collection(self, phase: str, info) -> None:
        if phase == "start":
            self._collecting_since = time.perf_counter()
        elif info.get("generation") == 2:
            self.full.add(self._collecting_since, time.perf_counter())

    def _timed_fsync(self, fd) -> None:
        began = time.perf_counter()
        try:
            self._fsync(fd)
        finally:
            self.fsyncs.add(began, time.perf_counter())

    def event_loop(self) -> asyncio.AbstractEventLoop:
        """The default event loop, with its waits for events recorded as idle."""
        idle = self.idle

        class WaitingSelector(selectors.DefaultSelector):
            def select(self, timeout=None):
                began = time.perf_counter()
                try:
                    return super().select(timeout)
                finally:
                    ended = time.perf_counter()
                    if ended - began >= IDLE_MIN_S:
                        idle.add(began, ended)

        return asyncio.SelectorEventLoop(WaitingSelector())

    def start(self) -> None:
        probe()  # warm the probe's code path before the first sample
        gc.callbacks.append(self._collection)
        self._fsync = os.fsync
        os.fsync = self._timed_fsync
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        self._running = True
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        if self._collection in gc.callbacks:
            gc.callbacks.remove(self._collection)
        os.fsync = self._fsync

    def _mean_probe_s(self, begin: float, end: float, least: int) -> Optional[float]:
        """Trimmed mean time of the probes started in [*begin*, *end*).

        None when fewer than *least* probes started in it.
        """
        starts = self.probes.starts
        lo, hi = bisect_left(starts, begin), bisect_left(starts, end)
        window = sorted(self.probes.durations()[lo:hi])
        if not window or len(window) < least:
            return None
        cut = int(len(window) * TRIM)
        return fmean(window[cut : len(window) - cut])

    def factor(self, begin: float = float("-inf"), end: float = float("inf")) -> float:
        """Multiplier from measured to reference interpreter time in [*begin*, *end*).

        Uses the probes of that interval, or of the whole run when the
        interval has fewer than :data:`MIN_SAMPLES`.
        """
        mean = self._mean_probe_s(begin, end, MIN_SAMPLES)
        if mean is None:
            mean = self._mean_probe_s(float("-inf"), float("inf"), 1)
        if mean is None:
            raise ValueError("no host-speed probe was recorded")
        return PROBE_REF_S / mean

    def normalise(
        self,
        begin: float,
        end: float,
        cpu: Optional[float] = None,
        share: float = 1.0,
        factor: Optional[float] = None,
    ) -> Tuple[float, float]:
        """Reference-host (wall, CPU) seconds of the span [*begin*, *end*).

        The span splits into the event loop's waits for events, probes,
        full collections, ``fsync`` calls, and the rest, in which the
        process either computed or was stalled (blocked on the disk or
        descheduled by the host). *cpu* is the process CPU time spent in
        the span; when it is not known, *share* is the estimated share of
        the rest spent computing. Computing time is multiplied by
        *factor*, by default :meth:`factor` of the span; waits and full
        collections are kept as measured; each ``fsync`` counts
        :data:`FSYNC_REF_S`; probes and stalls count nothing.
        """
        if factor is None:
            factor = self.factor(begin, end)
        idle = self.idle.covered(begin, end)
        probed = self.probes.covered(begin, end)
        full = self.full.covered(begin, end)
        synced = self.fsyncs.covered(begin, end)
        rest = max(0.0, end - begin - idle - probed - full - synced)
        if cpu is None:
            busy = share * rest
        else:
            busy = min(rest, max(0.0, cpu - probed - full))
        computed = busy * factor + full
        return idle + computed + self.fsyncs.count(begin, end) * FSYNC_REF_S, computed

    def cpu_share(self, begin: float, end: float, cpu: float) -> float:
        """Share of the rest of [*begin*, *end*) (see :meth:`normalise`) spent computing."""
        aside = self.probes.covered(begin, end) + self.full.covered(begin, end)
        rest = (
            end - begin - aside - self.idle.covered(begin, end) - self.fsyncs.covered(begin, end)
        )
        return min(1.0, max(0.0, (cpu - aside) / rest)) if rest > 0 else 1.0

    def summary(self) -> dict:
        mean = self._mean_probe_s(float("-inf"), float("inf"), 1)
        return {
            "probes": len(self.probes),
            "interval_s": INTERVAL_S,
            "probe_ref_s": PROBE_REF_S,
            "probe_mean_s": mean,
            "probe_total_s": self.probes.total(),
            "factor": PROBE_REF_S / mean if mean else None,
            "full_collections": len(self.full),
            "full_collection_s": self.full.total(),
            "fsyncs": len(self.fsyncs),
            "fsync_s": self.fsyncs.total(),
            "idle_s": self.idle.total(),
        }
