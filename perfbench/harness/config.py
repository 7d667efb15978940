"""Frozen, seeded run configurations for every benchmark workload.

A run is fully described by a :class:`RunConfig`: the workload's
parameters plus the seed, the measured seconds and whether the layer
tracer is on. Settings shared by every workload are the module constants
below. ``to_dict()`` records both and is what the run artifact holds, so
a result file always says exactly what produced it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Tuple, Union

#: Δ in real seconds for the live clusters (the ballot timer is 2Δ).
LIVE_DELTA = 0.05


#: Every ``kv-*`` cluster: 3 replicas, SMR window 1, 70 % puts over
#: 1,000 keys, a snapshot every 256 slots when durable.
REPLICAS = 3
SMR_WINDOW = 1
KEYS = 1000
PUT_FRACTION = 0.7
SNAPSHOT_EVERY = 256
#: Whether a WAL group commit calls ``fsync`` after its write and flush.
#: Off: ``fsync`` on a 2-vCPU VM's shared virtual disk took 0.2 to 0.7 ms
#: on average from one minute to the next, and the durable workload,
#: which commits several times per command, then read a median latency
#: of 3.6 to 6.3 ms even with that time taken out (the event loop sat
#: blocked in ``fsync`` for up to two fifths of a run, so commands
#: queued). With it off the WAL still writes and flushes every commit,
#: snapshots are still written and synced, and recovery still replays.
WAL_FSYNC = False
#: Fault schedule of the durable workload: kill -9 this follower at this
#: share of the measured time, restart it from its data dir after a pause.
KILL_PID = 2
KILL_AT = 0.4
RESTART_AFTER_S = 1.0

#: The explored task variant: n = 3, f = e = 1, one timer fire.
EXPLORE_N = 3
EXPLORE_F = 1
EXPLORE_E = 1
EXPLORE_TIMER_FIRES = 1

#: Width of the measurement windows (tracing toggles per window).
WINDOW_S = 1.0


@dataclass(frozen=True)
class KVWorkload:
    """A load on a 3-replica live cluster (f = e = 1, object variant)."""

    name: str
    why: str
    batch_size: int
    #: Proxy each client connection is bound to (one connection each).
    proxies: Tuple[int, ...] = (0, 0)
    #: Closed window: commands kept in flight over all connections, dealt
    #: round-robin (0 = open loop).
    outstanding: int = 0
    #: Open loop: total commands per second over all connections.
    rate: float = 0.0
    durable: bool = False
    #: Warm-up commands per client before measuring (part of set-up).
    warmup_commands: int = 256

    @property
    def closed(self) -> bool:
        return self.outstanding > 0


@dataclass(frozen=True)
class ExploreWorkload:
    """Bounded exhaustive exploration of the Figure 1 task variant."""

    name: str
    why: str
    #: Each exploration stops after this many states (crashes <= f).
    max_states: int = 20_000
    warmup_states: int = 2_000


Workload = Union[KVWorkload, ExploreWorkload]

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        KVWorkload(
            name="kv-saturate",
            why=(
                "256 commands in flight over 2 pipelined connections to proxy 0, batch "
                "128: codec, NodeServer/KVService and batch sealing do the work; "
                "measures capacity"
            ),
            batch_size=128,
            proxies=(0, 0),
            outstanding=256,
            warmup_commands=1024,
        ),
        KVWorkload(
            name="kv-unbatched",
            why=(
                "batch 1, one command in flight, sent alternately through proxies 0 "
                "and 1: every command is its own consensus slot, so the two-step "
                "commit path dominates"
            ),
            batch_size=1,
            proxies=(0, 1),
            # One command in flight, not one per connection: two closed-loop
            # clients on one event loop fall, run by run, into an in-phase
            # pattern (each command waits for the other's, ~2.4 ms) or an
            # interleaved one (~1.5 ms), and the median jumps between them.
            outstanding=1,
            warmup_commands=200,
        ),
        KVWorkload(
            name="kv-durable-paced",
            why=(
                "open loop at 300 commands/s with WAL group commits and snapshots, "
                "follower 2 killed and restarted mid-run: the only load on repro.storage"
            ),
            batch_size=128,
            proxies=(0, 0),
            rate=300.0,
            durable=True,
            warmup_commands=100,
        ),
        ExploreWorkload(
            name="verify-explore",
            why=(
                "fixed-budget exhaustive exploration of Figure 1 (n=3, f=e=1, one "
                "timer fire): twostep handlers and state hashing, no network"
            ),
        ),
    )
}


def setups_before(repeats: int) -> int:
    """How many of a run's set-ups happen before the measurement.

    The rest happen after it. The host's speed drifts over seconds, so
    set-ups timed at both ends of a run give a steadier median than a
    burst of them at the start.
    """
    return (repeats + 1) // 2


@dataclass(frozen=True)
class RunConfig:
    """One benchmark invocation."""

    workload: Workload
    seed: int
    seconds: float
    trace: bool
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 5
    #: How long to wait for owed replies and convergence after measuring.
    drain_timeout: float = 15.0

    def to_dict(self) -> Dict[str, Any]:
        record = dataclasses.asdict(self)
        record["workload"] = dataclasses.asdict(self.workload)
        record["workload"]["kind"] = type(self.workload).__name__
        # Every upper-case number of this module: the shared settings.
        record["constants"] = {
            name: value
            for name, value in globals().items()
            if name.isupper() and isinstance(value, (int, float))
        }
        return record
