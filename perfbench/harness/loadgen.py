"""Time-bounded load for the live KV stack: closed window and open loop.

A fixed command count (the set-up's warm-up) goes through
``KVClient.run_pipelined``. A measurement instead lasts a fixed time, so
this module writes pipelined ``ClientSubmit`` frames to links that
``KVClient`` opened and matches ``ClientReply`` frames by command id, with
two disciplines:

* **closed window** — ``outstanding`` commands are in flight and the
  next one is sent only when a reply arrives, so a slower system
  receives less load;
* **open loop** — commands are due on a fixed schedule and are sent when
  due whatever the replies do. Latency is timed from the due time, so a
  stall also charges the commands queued behind it, and the generator's
  own lateness (send time minus due time) is recorded.

Inputs come from a seeded generator: the same seed, client index and
namespace give the same commands in the same order. Every command id
starts with the phase's namespace, so two phases never share ids.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.net.client import KVClient
from repro.net.codec import FrameDecoder
from repro.net.wire import ClientReply, ClientSubmit
from repro.smr.kvstore import KVCommand

_READ_CHUNK = 256 * 1024


def command_stream(
    seed: int, client: int, namespace: str, keys: int, put_fraction: float
) -> Iterator[KVCommand]:
    """Endless seeded command sequence for one client of one phase."""
    rng = random.Random(f"{seed}:{client}")
    index = 0
    while True:
        key = f"k{rng.randrange(keys):04d}"
        command_id = f"{namespace}.c{client}.{index}"
        if rng.random() < put_fraction:
            yield KVCommand(op="put", key=key, value=rng.randrange(1 << 30), command_id=command_id)
        else:
            yield KVCommand(op="get", key=key, command_id=command_id)
        index += 1


@dataclass
class PhaseLog:
    """Everything one load phase sent and received."""

    sent: Dict[str, float] = field(default_factory=dict)  # id -> send/due time
    replies: Dict[str, ClientReply] = field(default_factory=dict)
    done_at: Dict[str, float] = field(default_factory=dict)  # id -> reply time
    lateness: List[float] = field(default_factory=list)  # open loop only
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.sent)

    @property
    def completed(self) -> int:
        return len(self.replies)

    @property
    def duplicates(self) -> int:
        return sum(1 for reply in self.replies.values() if reply.duplicate)

    def latencies(self, start: float, end: float, penalty: float) -> List[float]:
        """Latency of every command sent in ``[start, end)``, seconds.

        A command that never completed counts as *penalty* — it misses
        every latency limit below that.
        """
        samples = []
        for command_id, sent in self.sent.items():
            if not start <= sent < end:
                continue
            done = self.done_at.get(command_id)
            samples.append(penalty if done is None else done - sent)
        return samples


class Connection(KVClient):
    """One client link to one proxy, written to without waiting for replies.

    :class:`KVClient` opens the link (hello, wire-version negotiation,
    ``TCP_NODELAY``); the time-bounded load functions below write pipelined
    ``ClientSubmit`` frames to it and read the replies themselves.
    """

    async def open(self) -> None:
        await self._ensure_connected()

    @property
    def reader(self) -> asyncio.StreamReader:
        assert self._reader is not None
        return self._reader

    def send(self, commands: List[KVCommand]) -> None:
        assert self._writer is not None
        frames = []
        for command in commands:
            frames.append(
                self.codec.encode(
                    ClientSubmit(f"{self.client_id}:{self._seq}", command),
                    self._link_version,
                )
            )
            self._seq += 1
        self._writer.write(b"".join(frames))


async def _read_replies(
    connection: Connection,
    log: PhaseLog,
    on_reply,
    finished: asyncio.Event,
) -> None:
    """Collect replies for *connection* until *finished* is set."""
    decoder = FrameDecoder(connection.codec)
    clock = time.perf_counter
    while not finished.is_set():
        data = await connection.reader.read(_READ_CHUNK)
        if not data:
            raise ConnectionError(f"{connection.client_id}: proxy closed the link")
        now = clock()
        for message in decoder.feed(data):
            if not isinstance(message, ClientReply):
                continue
            command_id = message.command_id
            if command_id in log.replies or command_id not in log.sent:
                continue
            log.replies[command_id] = message
            log.done_at[command_id] = now
            on_reply()


async def closed_window(
    connections: List[Connection],
    streams: List[Iterator[KVCommand]],
    outstanding: int,
    stop: asyncio.Event,
    drain_timeout: float,
    log: Optional[PhaseLog] = None,
) -> PhaseLog:
    """Keep *outstanding* commands in flight in total until *stop* is set.

    The first window is dealt round-robin over the connections. Each
    reply's successor goes to the connection with the fewest commands in
    flight, the one after the replier on a tie: with many commands per
    connection each connection keeps its own window, and with one command
    in flight the connections take turns, so no command ever waits behind
    another.

    Once *stop* is set no new command is sent; the phase waits up to
    *drain_timeout* for the replies still owed. Commands left without a
    reply are failures (they stay in ``sent`` without a ``done_at``).
    """
    log = log if log is not None else PhaseLog()
    clock = time.perf_counter
    owed = [0] * len(connections)
    all_done = asyncio.Event()

    def submit(index: int) -> None:
        command = next(streams[index])
        log.sent[command.command_id] = clock()
        connections[index].send([command])
        owed[index] += 1

    def replied(index: int) -> None:
        owed[index] -= 1
        if not stop.is_set():
            count = len(connections)
            after = [(index + step) % count for step in range(1, count + 1)]
            submit(min(after, key=owed.__getitem__))
        if not any(owed):
            all_done.set()

    readers = [
        asyncio.ensure_future(
            _read_replies(conn, log, lambda i=i: replied(i), all_done)
        )
        for i, conn in enumerate(connections)
    ]
    try:
        for count in range(outstanding):
            submit(count % len(connections))
        stop_sending = asyncio.ensure_future(stop.wait())
        done_wait = asyncio.ensure_future(all_done.wait())
        try:
            await asyncio.wait(
                {stop_sending, done_wait}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_sending.cancel()
            done_wait.cancel()
        if any(owed):
            done_wait = asyncio.ensure_future(all_done.wait())
            waiters = {done_wait, *readers}
            try:
                done, _ = await asyncio.wait(
                    waiters,
                    timeout=drain_timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                done_wait.cancel()
            for task in readers:
                if task in done and task.exception() is not None:
                    log.errors.append(repr(task.exception()))
    finally:
        all_done.set()
        await _stop(readers)
    unanswered = log.attempted - log.completed
    if unanswered:
        log.errors.append(f"{unanswered} command(s) without a reply")
    return log


async def open_loop(
    connections: List[Connection],
    streams: List[Iterator[KVCommand]],
    rate: float,
    start: float,
    deadline: float,
    drain_timeout: float,
    log: Optional[PhaseLog] = None,
) -> PhaseLog:
    """Send commands due every ``1/rate`` seconds from *start* to *deadline*.

    Commands are dealt round-robin over the connections. A sender that
    fell behind (the loop was busy) sends everything already due at once,
    as independent users would have.
    """
    log = log if log is not None else PhaseLog()
    clock = time.perf_counter
    finished = asyncio.Event()
    readers = [
        asyncio.ensure_future(_read_replies(conn, log, lambda: None, finished))
        for conn in connections
    ]
    try:
        interval = 1.0 / rate
        index = 0
        while True:
            due = start + index * interval
            if due >= deadline:
                break
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            lane = index % len(connections)
            command = next(streams[lane])
            log.sent[command.command_id] = due
            log.lateness.append(max(0.0, clock() - due))
            connections[lane].send([command])
            index += 1
        drain_until = clock() + drain_timeout
        while log.completed < log.attempted and clock() < drain_until:
            if any(task.done() for task in readers):
                break
            await asyncio.sleep(0.005)
        for task in readers:
            if task.done() and not task.cancelled() and task.exception() is not None:
                log.errors.append(repr(task.exception()))
    finally:
        finished.set()
        await _stop(readers)
    unanswered = log.attempted - log.completed
    if unanswered:
        log.errors.append(f"{unanswered} command(s) without a reply")
    return log


async def _stop(tasks: List["asyncio.Future[Any]"]) -> None:
    for task in tasks:
        task.cancel()
    for task in tasks:
        try:
            await task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
