"""The ``kv-*`` workloads: a live 3-replica cluster under seeded load.

One run, all on one asyncio loop in one process:

1. **Set-up**: boot a :class:`LocalCluster`, complete a fixed warm-up
   through ``KVClient.run_pipelined`` and open the measurement's client
   connections. Of ``setup_repeats`` set-ups, the first half runs before
   the measurement (the last of those is measured) and the rest after
   it; ``setup_s`` is their median.
2. **Measurement** for ``seconds``: closed-window or open-loop load in a
   fresh command-id namespace. A sampler cuts the time into windows and,
   in a traced run, switches the layer tracer on for every other one.
   The durable workload kills and restarts follower 2 on a fixed
   schedule meanwhile.
3. **Checks**: replies drained, replica logs converged and consistent,
   the accounting invariant (completed = newly applied + reported
   duplicates, and slots were decided), and a replay of the applied log
   through a fresh :class:`KVStore` that every reply must match.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import pathlib
import shutil
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from statistics import fmean, median
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import percentile
from repro.net.client import ClientError, KVClient
from repro.net.cluster import LocalCluster
from repro.net.codec import WIRE_VERSION_BINARY, MessageCodec
from repro.net.node import KVService
from repro.obs import fast_path_ratio, merge_snapshots
from repro.omega import StaticOmega
from repro.protocols.twostep import TwoStepConfig, TwoStepProcess
from repro.smr.client import check_logs_consistent
from repro.smr.kvstore import KVStore, commands_in
from repro.smr.log import SMRReplica
from repro.storage import recovery as storage_recovery
from repro.storage.recovery import ReplicaPersister
from repro.storage.wal import WriteAheadLog

from .config import (
    KEYS,
    KILL_AT,
    KILL_PID,
    LIVE_DELTA,
    PUT_FRACTION,
    REPLICAS,
    RESTART_AFTER_S,
    SMR_WINDOW,
    SNAPSHOT_EVERY,
    WAL_FSYNC,
    WINDOW_S,
    KVWorkload,
    RunConfig,
    setups_before,
)
from .loadgen import Connection, PhaseLog, closed_window, command_stream, open_loop
from .hostspeed import HostSpeed
from .measure import (
    GCWatch,
    counter_sum,
    histogram_ms,
    rss_mib,
    snapshot_delta,
)
from .tracer import Tracer


class AccountingError(Exception):
    """A run's counters do not add up; the run is not valid."""


# ----------------------------------------------------------------------
# Layer wrappers: subclasses for what the cluster takes as a parameter.
# ----------------------------------------------------------------------


def traced_codec(tracer: Tracer) -> MessageCodec:
    """The nodes' binary codec, with encode/decode inside spans."""

    class TracedCodec(MessageCodec):
        def encode(self, obj, version=None):
            return tracer.call("codec.encode", super().encode, obj, version)

        def encode_payload(self, obj, version=None):
            return tracer.call(
                "codec.encode_payload", super().encode_payload, obj, version
            )

        def decode_payload(self, payload):
            return tracer.call("codec.decode_payload", super().decode_payload, payload)

    return TracedCodec(wire_version=WIRE_VERSION_BINARY)


def traced_service(tracer: Tracer):
    class TracedKVService(KVService):
        def submit(self, node, request, reply):
            return tracer.call("node.submit", super().submit, node, request, reply)

        def poll(self, node):
            return tracer.call("node.poll", super().poll, node)

    return TracedKVService


def replica_factory(workload: KVWorkload, tracer: Optional[Tracer]):
    """Build the SMR replicas: static Ω leader 0, object variant, f = e = 1."""
    base = SMRReplica
    if tracer is not None:

        class TracedSMRReplica(SMRReplica):
            def on_message(self, ctx, sender, message):
                return tracer.call(
                    "smr.on_message", super().on_message, ctx, sender, message
                )

            def on_timer(self, ctx, name):
                return tracer.call("smr.on_timer", super().on_timer, ctx, name)

        base = TracedSMRReplica
    config = TwoStepConfig(f=1, e=1, delta=LIVE_DELTA, is_object=True)

    def build(pid: int, n: int) -> SMRReplica:
        return base(
            pid,
            n,
            1,
            1,
            delta=LIVE_DELTA,
            omega=StaticOmega(0),
            consensus_config=config,
            batch_size=workload.batch_size,
            window=SMR_WINDOW,
        )

    return build


#: Class-level entry points traced in every kv run: (owner, attribute, span).
CLASS_ENTRY_POINTS = (
    (TwoStepProcess, "propose", "consensus.propose"),
    (TwoStepProcess, "on_message", "consensus.on_message"),
    (TwoStepProcess, "on_timer", "consensus.on_timer"),
    (KVStore, "apply", "kvstore.apply"),
    (WriteAheadLog, "append", "wal.append"),
    (WriteAheadLog, "commit", "wal.commit"),
    (ReplicaPersister, "after_activation", "persist.after_activation"),
    (storage_recovery, "write_snapshot", "snapshot.write"),
)


# ----------------------------------------------------------------------
# Per-node registry bookkeeping across kill/restart.
# ----------------------------------------------------------------------


class RegistryLedger:
    """Per-node registry deltas over the measurement, restarts included."""

    def __init__(self, cluster: LocalCluster) -> None:
        self.cluster = cluster
        self.start = {node.pid: node.stats_snapshot() for node in cluster.nodes}
        self.closed: List[Tuple[int, Dict[str, Any]]] = []

    def retire(self, pid: int) -> None:
        """Close node *pid*'s current incarnation (call right before a kill)."""
        node = self.cluster.nodes[pid]
        self.closed.append((pid, snapshot_delta(self.start[pid], node.stats_snapshot())))
        # A restarted node starts a fresh registry: its baseline is zero.
        self.start[pid] = {}

    def deltas(self) -> Dict[int, List[Dict[str, Any]]]:
        per_node: Dict[int, List[Dict[str, Any]]] = {}
        for pid, delta in self.closed:
            per_node.setdefault(pid, []).append(delta)
        for node in self.cluster.nodes:
            if not node.crashed:
                per_node.setdefault(node.pid, []).append(
                    snapshot_delta(self.start[node.pid], node.stats_snapshot())
                )
        return per_node


# ----------------------------------------------------------------------
# The run.
# ----------------------------------------------------------------------


@dataclass
class Booted:
    cluster: LocalCluster
    connections: List[Connection]
    data_dir: Optional[pathlib.Path]


@dataclass
class KVOutcome:
    """Raw measurements of one kv run (see :func:`end_to_end`, :func:`per_layer`)."""

    setup_times: List[float]
    log: PhaseLog
    windows: List[Dict[str, float]] = field(default_factory=list)
    rss_growth_mib: float = 0.0
    gc: Optional[GCWatch] = None
    #: Host-speed probes of an untraced measurement (None when traced).
    speed: Optional[HostSpeed] = None
    newly_applied: int = 0
    slots_decided: int = 0
    state_entries: int = 0
    registry: Dict[str, Any] = field(default_factory=dict)
    per_node: Dict[str, Any] = field(default_factory=dict)
    recovery_s: Optional[float] = None
    #: (start, end, CPU seconds) of every set-up of the run.
    setup_spans: List[Tuple[float, float, float]] = field(default_factory=list)
    restarted_registry: Dict[str, Any] = field(default_factory=dict)
    snapshot_bytes_last: int = 0
    problems: List[str] = field(default_factory=list)
    checks: Dict[str, Any] = field(default_factory=dict)


class KVRun:
    def __init__(self, config: RunConfig, workdir: pathlib.Path, tracer: Optional[Tracer]):
        if not isinstance(config.workload, KVWorkload):
            raise TypeError("KVRun needs a KVWorkload")
        self.config = config
        self.workload: KVWorkload = config.workload
        self.workdir = workdir
        self.tracer = tracer
        self.client_codec = MessageCodec(wire_version=WIRE_VERSION_BINARY)
        #: Host-speed probes over the whole run, when untraced.
        self.speed: Optional[HostSpeed] = None if tracer else HostSpeed()
        #: (start, end, CPU seconds) of every set-up, in order.
        self.setup_spans: List[Tuple[float, float, float]] = []

    # -- set-up ---------------------------------------------------------

    async def boot(self, index: int) -> Tuple[Booted, float]:
        workload = self.workload
        began, cpu = time.perf_counter(), time.process_time()
        data_dir = None
        if workload.durable:
            data_dir = self.workdir / f"cluster-{index}"
            data_dir.mkdir(parents=True)
        tracer = self.tracer
        cluster = LocalCluster(
            REPLICAS,
            replica_factory(workload, tracer),
            client_service_factory=traced_service(tracer) if tracer else KVService,
            codec=(
                traced_codec(tracer)
                if tracer
                else MessageCodec(wire_version=WIRE_VERSION_BINARY)
            ),
            data_dir=str(data_dir) if data_dir else None,
            fsync=WAL_FSYNC,
            snapshot_every=SNAPSHOT_EVERY,
        )
        await cluster.start()
        booted = Booted(cluster, [], data_dir)
        try:
            warm = await self.fixed_phase(
                booted, f"s{self.config.seed}.setup{index}", workload.warmup_commands
            )
            if warm.problems:
                raise AccountingError(f"warm-up failed its checks: {warm.problems[:3]}")
            # The measurement's links open after the warm-up's have closed,
            # so no more than one connection per client is ever open.
            for client, proxy in enumerate(workload.proxies):
                connection = Connection(
                    cluster.addresses, f"bench-{index}-{client}",
                    codec=self.client_codec, proxy=proxy,
                )
                booted.connections.append(connection)
                await connection.open()
        except BaseException:
            await self.teardown(booted)
            raise
        ended = time.perf_counter()
        self.setup_spans.append((began, ended, time.process_time() - cpu))
        return booted, ended - began

    async def fixed_phase(self, booted: Booted, namespace: str, per_client: int) -> KVOutcome:
        """Send *per_client* commands per client in *namespace*, then check.

        Each client is a :class:`KVClient` on the workload's proxy driving
        its commands through ``run_pipelined`` with the workload's window
        (16 for an open-loop workload). The returned outcome carries the
        accounting and replay verdict like a measured run's.
        """
        workload = self.workload
        cluster = booted.cluster
        before = _counts(cluster)
        log = PhaseLog()
        window = max(1, min(workload.outstanding or 16, per_client))

        def on_reply(reply, _latency) -> None:
            log.replies[reply.command_id] = reply
            log.done_at[reply.command_id] = time.perf_counter()

        async def drive(client: int, proxy: int, stream) -> None:
            commands = list(itertools.islice(stream, per_client))
            now = time.perf_counter()
            log.sent.update((command.command_id, now) for command in commands)
            session = KVClient(
                cluster.addresses, f"{namespace}-{client}", codec=self.client_codec,
                timeout=self.config.drain_timeout, proxy=proxy,
            )
            try:
                await session.run_pipelined(commands, window, proxy, on_reply)
            except ClientError as exc:
                log.errors.append(repr(exc))
            finally:
                await session.close()

        await asyncio.gather(
            *(
                drive(client, proxy, stream)
                for client, (proxy, stream) in enumerate(
                    zip(workload.proxies, self._streams(namespace))
                )
            )
        )
        unanswered = log.attempted - log.completed
        if unanswered:
            log.errors.append(f"{unanswered} command(s) without a reply")
        outcome = KVOutcome(setup_times=[], log=log)
        outcome.problems.extend(log.errors)
        await self._settle(booted, outcome, before)
        return outcome

    async def _settle(
        self, booted: Booted, outcome: KVOutcome, before: Tuple[int, int]
    ) -> None:
        """Wait for convergence, then run every correctness check."""
        cluster = booted.cluster
        leader: SMRReplica = cluster.nodes[0].process  # type: ignore[assignment]
        try:
            await cluster.wait_logs_converged(timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            outcome.problems.append("replica logs did not converge")
        outcome.problems.extend(
            str(v) for v in check_logs_consistent(cluster.survivor_replicas())
        )
        applied, slots = _counts(cluster)
        outcome.newly_applied = applied - before[0]
        outcome.slots_decided = slots - before[1]
        outcome.checks = check_outcome(outcome, leader)
        outcome.problems.extend(outcome.checks["problems"])

    async def teardown(self, booted: Booted) -> None:
        for connection in booted.connections:
            await connection.close()
        await booted.cluster.stop()
        if booted.data_dir is not None:
            shutil.rmtree(booted.data_dir, ignore_errors=True)

    def _streams(self, namespace: str):
        return [
            command_stream(self.config.seed, client, namespace, KEYS, PUT_FRACTION)
            for client in range(len(self.workload.proxies))
        ]

    # -- measurement ----------------------------------------------------

    async def run(self) -> KVOutcome:
        if self.speed is None:
            return await self._run()
        self.speed.start()
        try:
            return await self._run()
        finally:
            self.speed.stop()

    async def _run(self) -> KVOutcome:
        setup_times: List[float] = []
        booted: Optional[Booted] = None
        first = setups_before(self.config.setup_repeats)
        for index in range(first):
            if booted is not None:
                await self.teardown(booted)
            booted, seconds = await self.boot(index)
            setup_times.append(seconds)
        assert booted is not None
        try:
            outcome = await self._measure(booted, setup_times)
        finally:
            await self.teardown(booted)
        for index in range(first, self.config.setup_repeats):
            gc.collect()  # drop the measured cluster's garbage outside the timing
            extra, seconds = await self.boot(index)
            await self.teardown(extra)
            setup_times.append(seconds)
        return outcome

    async def _measure(self, booted: Booted, setup_times: List[float]) -> KVOutcome:
        config, workload, tracer = self.config, self.workload, self.tracer
        cluster = booted.cluster
        leader: SMRReplica = cluster.nodes[0].process  # type: ignore[assignment]
        before = _counts(cluster)
        ledger = RegistryLedger(cluster)
        streams = self._streams(f"s{config.seed}.m")
        outcome = KVOutcome(setup_times=setup_times, log=PhaseLog())
        gc_watch = GCWatch()
        rss_before = rss_mib()
        gc_watch.start()
        outcome.speed = self.speed
        outcome.setup_spans = self.setup_spans
        stop = asyncio.Event()
        start = time.perf_counter()
        sampler = asyncio.ensure_future(self._sample(outcome, start, stop))
        fault = (
            asyncio.ensure_future(self._fault(cluster, ledger, outcome, start))
            if workload.durable
            else None
        )
        try:
            if workload.closed:
                await closed_window(
                    booted.connections,
                    streams,
                    workload.outstanding,
                    stop,
                    config.drain_timeout,
                    log=outcome.log,
                )
            else:
                await open_loop(
                    booted.connections,
                    streams,
                    workload.rate,
                    start,
                    start + config.seconds,
                    config.drain_timeout,
                    log=outcome.log,
                )
        finally:
            await _finish(sampler)
            if fault is not None:
                # The restart and catch-up may outlast the load; let them end.
                await asyncio.wait({fault}, timeout=config.drain_timeout)
                if not fault.done():
                    outcome.problems.append("fault schedule did not finish")
                await _finish(fault)
            if tracer is not None:
                tracer.enabled = False
            gc_watch.stop()
        outcome.rss_growth_mib = rss_mib() - rss_before
        outcome.gc = gc_watch
        outcome.problems.extend(outcome.log.errors)

        await self._settle(booted, outcome, before)
        per_node = ledger.deltas()
        outcome.per_node = {str(pid): deltas for pid, deltas in sorted(per_node.items())}
        outcome.registry = merge_snapshots([d for ds in per_node.values() for d in ds])
        outcome.state_entries = (
            len(leader.results)
            + len(leader.commit_times)
            + len(leader.submissions)
            + len(leader.store.applied_ids)
        )
        if booted.data_dir is not None:
            outcome.snapshot_bytes_last = _newest_snapshot_bytes(booted.data_dir)
        return outcome

    async def _sample(self, outcome: KVOutcome, start: float, stop: asyncio.Event) -> None:
        """Cut the measurement into windows; set *stop* after the last one.

        A traced run toggles the tracer per window. An open loop, and any
        traced run, lasts ``seconds`` of wall time. An untraced closed
        window lasts ``seconds`` of reference-host time (the sum of its
        windows' normalised widths, see :mod:`.hostspeed`, at most
        :data:`MAX_STRETCH` times ``seconds`` of wall time): such a run
        does as much work as on the reference host whatever the host's
        speed, so state that grows with the commands served, and the
        collector pauses it causes, stay the same.
        """
        tracer, speed, seconds = self.tracer, outcome.speed, self.config.seconds
        width = WINDOW_S
        count = max(1, int(round(seconds / width)))
        by_work = speed is not None and self.workload.closed
        cpu = time.process_time()
        reference = 0.0
        index = 0
        try:
            while True:
                traced = tracer is not None and index % 2 == 1
                if tracer is not None:
                    tracer.enabled = traced
                began = start + index * width
                delay = began + width - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                now_cpu = time.process_time()
                used, cpu = now_cpu - cpu, now_cpu
                outcome.windows.append(
                    {"start": began, "end": began + width, "cpu_s": used, "traced": traced}
                )
                index += 1
                if by_work:
                    reference += speed.normalise(began, began + width, used)[0]
                    if reference >= seconds - width / 2 or index * width >= MAX_STRETCH * seconds:
                        break
                elif index >= count:
                    break
        finally:
            stop.set()
            if tracer is not None:
                tracer.enabled = False

    async def _fault(
        self,
        cluster: LocalCluster,
        ledger: RegistryLedger,
        outcome: KVOutcome,
        start: float,
    ) -> None:
        """kill -9 the follower, restart it, time its catch-up."""
        pid = KILL_PID
        await asyncio.sleep(max(0.0, start + KILL_AT * self.config.seconds - time.perf_counter()))
        ledger.retire(pid)
        await cluster.kill(pid)
        await asyncio.sleep(RESTART_AFTER_S)
        node = await cluster.restart(pid)
        restarted = time.perf_counter()
        target = cluster.nodes[0].process.applied_upto  # type: ignore[attr-defined]
        limit = restarted + self.config.drain_timeout
        while node.process.applied_upto < target:  # type: ignore[attr-defined]
            if time.perf_counter() > limit:
                outcome.problems.append(f"follower {pid} did not catch up")
                return
            await asyncio.sleep(0.002)
        outcome.recovery_s = time.perf_counter() - restarted
        outcome.restarted_registry = node.stats_snapshot()


async def _finish(task: "asyncio.Future[Any]") -> None:
    if not task.done():
        task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


def _counts(cluster: LocalCluster) -> Tuple[int, int]:
    """(non-no-op commands in the leader's applied log, slots it decided)."""
    leader = cluster.nodes[0]
    applied = sum(1 for command in leader.process.store.log if command.op != "noop")  # type: ignore[attr-defined]
    return applied, leader.obs.registry.counter_value("smr.slots_decided")


def _newest_snapshot_bytes(data_dir: pathlib.Path) -> int:
    snapshots = sorted(
        data_dir.glob("node-0/*.snap"), key=lambda path: path.stat().st_mtime
    )
    return snapshots[-1].stat().st_size if snapshots else 0


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------


def check_outcome(outcome: KVOutcome, leader: SMRReplica) -> Dict[str, Any]:
    """Accounting invariant plus replay of the applied log.

    * completed = newly applied (leader store-log growth, no-ops excluded)
      + replies flagged duplicate;
    * the leader decided at least one slot during the run;
    * every non-duplicate reply's result equals the result of replaying
      the leader's applied log through a fresh store, and where the
      leader still holds every decided slot, flattening ``committed_log()``
      reproduces that applied log.
    """
    log = outcome.log
    problems: List[str] = []
    accounted = outcome.newly_applied + log.duplicates
    if log.completed != accounted:
        problems.append(
            f"accounting: completed {log.completed} != newly applied "
            f"{outcome.newly_applied} + duplicates {log.duplicates}"
        )
    if outcome.slots_decided <= 0:
        problems.append("accounting: no consensus slot decided during the run")

    replay = KVStore()
    expected: Dict[str, Any] = {}
    for command in leader.store.log:
        expected[command.command_id] = replay.apply(command)
    mismatched = missing = 0
    for command_id, reply in log.replies.items():
        if reply.duplicate:
            continue
        if command_id not in expected:
            missing += 1
        elif reply.result != expected[command_id]:
            mismatched += 1
    if missing:
        problems.append(f"replay: {missing} replied command(s) absent from the applied log")
    if mismatched:
        problems.append(f"replay: {mismatched} reply result(s) differ from the replay")

    committed = leader.committed_log()
    committed_checked = bool(committed) and min(committed) == 0
    if committed_checked:
        flattened: List[str] = []
        seen = set()
        for slot in sorted(committed):
            for command in commands_in(committed[slot]):
                if command.command_id not in seen:
                    seen.add(command.command_id)
                    flattened.append(command.command_id)
        applied_ids = [command.command_id for command in leader.store.log]
        if flattened[: len(applied_ids)] != applied_ids:
            problems.append("replay: committed_log() does not flatten to the applied log")
    return {
        "problems": problems,
        "completed": log.completed,
        "newly_applied": outcome.newly_applied,
        "duplicates": log.duplicates,
        "slots_decided": outcome.slots_decided,
        "replayed_commands": len(expected),
        "replies_checked": log.completed - log.duplicates,
        "committed_log_checked": committed_checked,
    }


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


#: Longest wall time of an untraced closed-window measurement, in ``seconds``.
MAX_STRETCH = 1.25

#: Share of windows dropped at each end before averaging their percentiles.
WINDOW_TRIM = 0.1


def window_rates(outcome: KVOutcome, penalty: float) -> List[Dict[str, Any]]:
    """Completions, CPU and latency percentiles per window.

    A window's latencies are those of the commands *sent* in it; a
    command without a reply counts as *penalty* seconds. In an untraced
    run each window also carries its host-speed factor and its
    normalised wall time, CPU time and latency percentiles (see
    :mod:`.hostspeed`); a command's share of time on the CPU is taken to
    be its window's.
    """
    log = outcome.log
    done = sorted(log.done_at.values())
    start = outcome.windows[0]["start"]
    speed = outcome.speed
    sent_in: List[List[Tuple[float, Optional[float]]]] = [[] for _ in outcome.windows]
    for command_id, sent in log.sent.items():
        index = int((sent - start) // WINDOW_S)
        if 0 <= index < len(sent_in):
            sent_in[index].append((sent, log.done_at.get(command_id)))
    rows = []
    for window, commands in zip(outcome.windows, sent_in):
        latencies = [penalty if end is None else end - sent for sent, end in commands]
        row = {
            **window,
            "completed": bisect_left(done, window["end"])
            - bisect_left(done, window["start"]),
            "sent": len(latencies),
            "p50_ms": 1000 * percentile(latencies, 50) if latencies else None,
            "p99_ms": 1000 * percentile(latencies, 99) if latencies else None,
        }
        if speed is not None:
            began, ended = window["start"], window["end"]
            factor = speed.factor(began, ended)
            share = speed.cpu_share(began, ended, window["cpu_s"])
            normalised = [
                penalty
                if end is None
                else speed.normalise(sent, end, share=share, factor=factor)[0]
                for sent, end in commands
            ]
            wall, cpu = speed.normalise(began, ended, window["cpu_s"], factor=factor)
            row.update(
                factor=factor,
                norm_wall_s=wall,
                norm_cpu_s=cpu,
                norm_p50_ms=1000 * percentile(normalised, 50) if normalised else None,
                norm_p99_ms=1000 * percentile(normalised, 99) if normalised else None,
            )
        rows.append(row)
    return rows


def end_to_end(
    config: RunConfig, outcome: KVOutcome, rows: List[Dict[str, Any]]
) -> Dict[str, Dict[str, float]]:
    """The user-visible numbers of an untraced run, normalised and raw.

    *rows* are the run's :func:`window_rates`. Returns ``{"normalised": ..., "raw": ...}``; the result line prints
    the normalised ones. Raw figures are as measured; a normalised one
    is computed the same way from normalised times (see
    :mod:`.hostspeed`): each command's latency, each window's wall and
    CPU time, and each set-up.

    ``ops_per_s`` counts the commands sent during the measurement that
    completed, over the time from its start until the last of them
    completed (a backlog stretches that time, so an open loop that falls
    behind reads below its offered rate). CPU per op is over the
    measurement windows.

    ``latency_p50_ms`` and ``latency_p99_ms`` are each window's percentile
    of the commands sent in it, averaged over the windows after dropping
    the highest and lowest tenth. Batching is bistable on kv-saturate (a
    window's median sits near one of two values) and collector pauses or
    snapshots land in some windows only, so a median of windows jumps
    with the share of time in each state, while a mean follows it
    smoothly; the trim drops the few windows a host stall or the durable
    restart distorts (the restart itself is ``recovery_s``).
    """
    speed = outcome.speed
    assert speed is not None, "end-to-end metrics come from untraced runs"
    start = rows[0]["start"]
    end = rows[-1]["end"]
    log = outcome.log
    issued = [cid for cid, sent in log.sent.items() if start <= sent < end]
    finished = [log.done_at[cid] for cid in issued if cid in log.done_at]
    last = max(finished) if finished else end
    completed = max(1, sum(row["completed"] for row in rows))
    sampled = [row for row in rows if row["sent"]]
    rss = 1024 * outcome.rss_growth_mib / completed
    # The span until the last reply, at the windows' normalised pace. An
    # open loop's pace is its schedule's: a faster host would wait longer
    # for the next command, so its span is kept as measured.
    stretch = 1.0
    if config.workload.closed:
        stretch = sum(row["norm_wall_s"] for row in rows) / (end - start)

    def figures(setups, span, p50, p99, cpu, prefix):
        return {
            "setup_s": median(setups),
            f"{prefix}ops_per_s": len(finished) / span if finished else 0.0,
            f"{prefix}latency_p50_ms": _trimmed_mean(
                [row[p50] for row in sampled], WINDOW_TRIM
            ),
            f"{prefix}latency_p99_ms": _trimmed_mean(
                [row[p99] for row in sampled], WINDOW_TRIM
            ),
            f"{prefix}cpu_us_per_op": 1e6 * sum(row[cpu] for row in rows) / completed,
            "rss_kib_per_op": rss,
        }

    return {
        "normalised": figures(
            [speed.normalise(*span)[0] for span in outcome.setup_spans],
            (last - start) * stretch,
            "norm_p50_ms",
            "norm_p99_ms",
            "norm_cpu_s",
            "norm_",
        ),
        "raw": figures(
            [end - began for began, end, _cpu in outcome.setup_spans],
            last - start,
            "p50_ms",
            "p99_ms",
            "cpu_s",
            "",
        ),
    }


def _trimmed_mean(values: List[float], share: float) -> float:
    """Mean of *values* without the lowest and highest *share* of them."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return fmean(ordered[cut : len(ordered) - cut])


def per_layer(
    config: RunConfig, outcome: KVOutcome, tracer: Tracer, rows: List[Dict[str, Any]]
) -> Dict[str, float]:
    traced = [row for row in rows if row["traced"]]
    plain = [row for row in rows if not row["traced"]]
    traced_cmds = max(1, sum(row["completed"] for row in traced))
    completed = max(1, outcome.log.completed)
    registry = outcome.registry
    counters = registry.get("counters", {})
    encode_calls = tracer.calls("codec.encode")
    decode_calls = tracer.calls("codec.decode_payload")
    frames = encode_calls + decode_calls
    codec_self = tracer.self_seconds(
        "codec.encode", "codec.encode_payload", "codec.decode_payload"
    )
    fast_ratio = fast_path_ratio(registry)
    appends = counters.get("storage.wal_appends", 0)
    commits = counters.get("storage.wal_commits", 0)
    restarted = outcome.restarted_registry.get("counters", {})
    lateness = outcome.log.lateness
    gc_watch = outcome.gc or GCWatch()
    metrics = {
        "codec.encode_calls": encode_calls,
        "codec.encode_self_s": tracer.self_seconds("codec.encode", "codec.encode_payload"),
        "codec.decode_calls": decode_calls,
        "codec.decode_self_s": tracer.self_seconds("codec.decode_payload"),
        "codec.frames_per_cmd": frames / traced_cmds,
        "codec.us_per_frame": 1e6 * codec_self / frames if frames else 0.0,
        "node.submit_self_s": tracer.self_seconds("node.submit"),
        "node.poll_calls": tracer.calls("node.poll"),
        "node.poll_self_s": tracer.self_seconds("node.poll"),
        "net.msgs_per_cmd": counter_sum(registry, "sent.") / completed,
        "net.bytes_per_cmd": counter_sum(registry, "sent_bytes.") / completed,
        "net.drain_p99_ms": histogram_ms(registry, "net.drain_seconds", 0.99),
        "runtime.loop_lag_p99_ms": histogram_ms(registry, "runtime.loop_lag_seconds", 0.99),
        "smr.handler_self_s": tracer.self_seconds("smr.on_message", "smr.on_timer"),
        "smr.slots_decided": outcome.slots_decided,
        "smr.cmds_per_slot": outcome.newly_applied / max(outcome.slots_decided, 1),
        "stage.queue_p50_ms": histogram_ms(registry, "stage.queue_seconds", 0.5),
        "stage.consensus_p50_ms": histogram_ms(registry, "stage.consensus_seconds", 0.5),
        "stage.apply_p50_ms": histogram_ms(registry, "stage.apply_seconds", 0.5),
        "smr.state_entries": outcome.state_entries,
        "consensus.handler_calls": tracer.calls(
            "consensus.propose", "consensus.on_message", "consensus.on_timer"
        ),
        "consensus.handler_self_s": tracer.self_seconds(
            "consensus.propose", "consensus.on_message", "consensus.on_timer"
        ),
        "consensus.fast_path_ratio": fast_ratio if fast_ratio is not None else 0.0,
        "consensus.decisions_slow": counters.get("consensus.decisions_slow", 0),
        "timer.fired": counters.get("timer.fired", 0),
        "kvstore.apply_calls": tracer.calls("kvstore.apply"),
        "kvstore.apply_self_s": tracer.self_seconds("kvstore.apply"),
        "kvstore.applied_new": outcome.newly_applied,
        "wal.appends": appends,
        "wal.commits": commits,
        "wal.records_per_commit": appends / commits if commits else 0.0,
        "wal.bytes_per_cmd": counters.get("storage.wal_bytes", 0) / completed,
        "persist.after_activation_self_s": tracer.self_seconds("persist.after_activation"),
        "snapshot.writes": counters.get("storage.snapshots_written", 0),
        "snapshot.bytes_last": outcome.snapshot_bytes_last,
        "recovery.replayed_entries": restarted.get("storage.replayed_entries", 0),
        "recovery.transferred_entries": restarted.get("storage.transferred_entries", 0),
        "recovery_s": outcome.recovery_s or 0.0,
        "gc.gen2_collections": gc_watch.gen2_collections,
        "gc.pause_s": gc_watch.pause_s,
        "gc.pause_max_ms": 1000 * gc_watch.pause_max_s,
        "loadgen.late_p99_ms": 1000 * percentile(lateness, 99) if lateness else 0.0,
        "loadgen.late_max_ms": 1000 * max(lateness) if lateness else 0.0,
        "loadgen.error_rate": (
            (outcome.log.attempted - outcome.log.completed) / outcome.log.attempted
            if outcome.log.attempted
            else 0.0
        ),
        "trace.overhead_pct": _overhead_pct(plain, traced),
    }
    return metrics


def _overhead_pct(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]]) -> float:
    """CPU per command in traced windows vs untraced ones, in percent."""

    def cpu_per_cmd(rows):
        values = [row["cpu_s"] / row["completed"] for row in rows if row["completed"]]
        return median(values) if values else None

    base, with_spans = cpu_per_cmd(plain), cpu_per_cmd(traced)
    if not base or with_spans is None:
        return 0.0
    return 100.0 * (with_spans / base - 1.0)
