"""The metrics every run prints, with units, directions and bounds.

``BENCHMARK.json`` at the repository root lists the same names; the
harness tests keep the two in step. A run with ``--trace 0`` prints every
end-to-end metric, a run with ``--trace 1`` every per-layer metric; a
per-layer metric a workload does not exercise reads 0.

An *op* is what the workload's user waits for: one client command on
the ``kv-*`` workloads, one explored state on ``verify-explore`` (whose
latency is the wall time of one fixed-budget exploration).

Timings named ``norm_*`` are normalised for the host's speed, and so is
``setup_s``: they read what the same work would take on a reference
host (see :mod:`.hostspeed`). Each run's artifact also holds them as
measured.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("norm_ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("norm_latency_p50_ms", "ms", "lower", 0.25),
    EndToEnd("norm_latency_p99_ms", "ms", "lower", 0.25),
    EndToEnd("norm_cpu_us_per_op", "us", "lower", 0.25),
    EndToEnd("rss_kib_per_op", "KiB", "lower", 0.25),
]

PER_LAYER: List[PerLayer] = [
    # repro.net.codec
    PerLayer("codec.encode_calls", "count", "lower"),
    PerLayer("codec.encode_self_s", "s", "lower"),
    PerLayer("codec.decode_calls", "count", "lower"),
    PerLayer("codec.decode_self_s", "s", "lower"),
    PerLayer("codec.frames_per_cmd", "count", "lower"),
    PerLayer("codec.us_per_frame", "us", "lower"),
    # repro.net.node
    PerLayer("node.submit_self_s", "s", "lower"),
    PerLayer("node.poll_calls", "count", "lower"),
    PerLayer("node.poll_self_s", "s", "lower"),
    PerLayer("net.msgs_per_cmd", "count", "lower"),
    PerLayer("net.bytes_per_cmd", "B", "lower"),
    PerLayer("net.drain_p99_ms", "ms", "lower"),
    PerLayer("runtime.loop_lag_p99_ms", "ms", "lower"),
    # repro.smr.log
    PerLayer("smr.handler_self_s", "s", "lower"),
    PerLayer("smr.slots_decided", "count", "higher"),
    PerLayer("smr.cmds_per_slot", "count", "higher"),
    PerLayer("stage.queue_p50_ms", "ms", "lower"),
    PerLayer("stage.consensus_p50_ms", "ms", "lower"),
    PerLayer("stage.apply_p50_ms", "ms", "lower"),
    PerLayer("smr.state_entries", "count", "lower"),
    # repro.protocols.twostep
    PerLayer("consensus.handler_calls", "count", "lower"),
    PerLayer("consensus.handler_self_s", "s", "lower"),
    PerLayer("consensus.fast_path_ratio", "ratio", "higher"),
    PerLayer("consensus.decisions_slow", "count", "lower"),
    PerLayer("timer.fired", "count", "lower"),
    # repro.smr.kvstore
    PerLayer("kvstore.apply_calls", "count", "lower"),
    PerLayer("kvstore.apply_self_s", "s", "lower"),
    PerLayer("kvstore.applied_new", "count", "higher"),
    # repro.storage
    PerLayer("wal.appends", "count", "lower"),
    PerLayer("wal.commits", "count", "lower"),
    PerLayer("wal.records_per_commit", "count", "higher"),
    PerLayer("wal.bytes_per_cmd", "B", "lower"),
    PerLayer("persist.after_activation_self_s", "s", "lower"),
    PerLayer("snapshot.writes", "count", "lower"),
    PerLayer("snapshot.bytes_last", "B", "lower"),
    PerLayer("recovery.replayed_entries", "count", "lower"),
    PerLayer("recovery.transferred_entries", "count", "lower"),
    PerLayer("recovery_s", "s", "lower"),
    # CPython runtime and the load generator
    PerLayer("gc.gen2_collections", "count", "lower"),
    PerLayer("gc.pause_s", "s", "lower"),
    PerLayer("gc.pause_max_ms", "ms", "lower"),
    PerLayer("loadgen.late_p99_ms", "ms", "lower"),
    PerLayer("loadgen.late_max_ms", "ms", "lower"),
    PerLayer("loadgen.error_rate", "ratio", "lower"),
    # repro.checks.explore
    PerLayer("explore.self_s", "s", "lower"),
    PerLayer("explore.states", "count", "higher"),
    PerLayer("explore.dedup_hit_ratio", "ratio", "lower"),
    PerLayer("explore.max_depth", "count", "higher"),
    PerLayer("explore.peak_rss_mib", "MiB", "lower"),
    # the tracer itself
    PerLayer("trace.overhead_pct", "%", "lower"),
]

#: Which end-to-end metric each layer should move, on which workload.
LAYER_MAP: Dict[str, str] = {
    "codec": "norm_ops_per_s and norm_cpu_us_per_op on kv-saturate; less on kv-unbatched; nothing on verify-explore",
    "node": "norm_ops_per_s on kv-saturate (poll scans pending requests); ~0 on kv-unbatched; net.msgs_per_cmd moves norm_latency_p50_ms on kv-unbatched",
    "smr": "norm_ops_per_s on kv-saturate and norm_latency_p50_ms on kv-unbatched; smr.state_entries moves rss_kib_per_op on kv-durable-paced",
    "consensus": "norm_latency_p50_ms on kv-unbatched and norm_ops_per_s on verify-explore; no change on kv-saturate",
    "kvstore": "norm_cpu_us_per_op on every kv-* workload",
    "storage": "norm_latency_p50_ms, norm_latency_p99_ms and recovery_s on kv-durable-paced; zero elsewhere",
    "gc/loadgen": "norm_latency_p99_ms on kv-durable-paced",
    "explore": "norm_ops_per_s on verify-explore",
}


def complete(values: Dict[str, float], specs) -> Dict[str, Dict[str, float]]:
    """``{name: {"value", "unit"}}`` for every spec, 0 where unmeasured."""
    unknown = set(values) - {spec.name for spec in specs}
    if unknown:
        raise KeyError(f"metrics without a spec: {sorted(unknown)}")
    return {
        spec.name: {"value": float(values.get(spec.name, 0.0)), "unit": spec.unit}
        for spec in specs
    }
