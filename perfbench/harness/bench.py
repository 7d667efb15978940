"""One benchmark run: set up, measure, check, report.

:func:`run_benchmark` is what ``perfbench/run.py`` calls. It returns the
result line (``correct``, ``attempted``, ``failed``, ``metrics``) and
writes a self-describing artifact next to it: the frozen run config,
seed, git commit, host cores, Python version, the registry counter
deltas of the run, the checks, the per-layer self-time table and the
tracing overhead. A traced run also writes its spans as JSON lines.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import shutil
import time
from contextlib import ExitStack
from typing import Any, Dict, Optional

from . import explorer, kv
from .config import WORKLOADS, ExploreWorkload, RunConfig
from .measure import git_commit, host_info
from .metrics import END_TO_END, LAYER_MAP, PER_LAYER, complete
from .tracer import Tracer

#: Where artifacts, spans and the durable workload's data dirs go,
#: relative to the directory the benchmark runs in.
OUT_DIR = ".perfbench_out"


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str = OUT_DIR,
    **overrides: Any,
) -> Dict[str, Any]:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    config = RunConfig(
        workload=WORKLOADS[workload], seed=seed, seconds=seconds, trace=trace, **overrides
    )
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    tracer = Tracer() if trace else None
    began = time.perf_counter()
    if isinstance(config.workload, ExploreWorkload):
        result, details = _run_explore(config, tracer)
    else:
        workdir = out / f"work-{stem}-{os.getpid()}"
        try:
            result, details = _run_kv(config, tracer, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    artifact: Dict[str, Any] = {
        "config": config.to_dict(),
        "git_commit": git_commit(),
        "host": host_info(),
        "elapsed_s": time.perf_counter() - began,
        "result": result,
        "layer_map": LAYER_MAP,
        **details,
    }
    if tracer is not None:
        artifact["self_time"] = tracer.self_time_table()
        artifact["spans_kept"] = tracer.write_spans(str(out / f"{stem}-spans.jsonl"))
        artifact["spans_dropped"] = tracer.dropped
    with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True, default=str)
    return result


def _patched(tracer: Optional[Tracer], entry_points) -> ExitStack:
    stack = ExitStack()
    if tracer is not None:
        for owner, attribute, name in entry_points:
            stack.enter_context(tracer.patch(owner, attribute, name))
    return stack


def _run_kv(config: RunConfig, tracer: Optional[Tracer], workdir: pathlib.Path):
    run = kv.KVRun(config, workdir, tracer)
    loop_factory = run.speed.event_loop if run.speed else None
    with _patched(tracer, kv.CLASS_ENTRY_POINTS), asyncio.Runner(
        loop_factory=loop_factory
    ) as runner:
        outcome = runner.run(asyncio.wait_for(run.run(), _budget(config)))
    log = outcome.log
    rows = kv.window_rates(outcome, config.drain_timeout)
    raw = None
    if tracer is None:
        figures = kv.end_to_end(config, outcome, rows)
        metrics = complete(figures["normalised"], END_TO_END)
        raw = figures["raw"]
    else:
        metrics = complete(kv.per_layer(config, outcome, tracer, rows), PER_LAYER)
    result = {
        "correct": not outcome.problems,
        "attempted": log.attempted,
        "failed": log.attempted - log.completed,
        "metrics": metrics,
    }
    traced_windows = [w for w in outcome.windows if w["traced"]]
    start = outcome.windows[0]["start"]
    end = outcome.windows[-1]["end"]
    gc_watch = outcome.gc
    details = {
        "problems": outcome.problems,
        "checks": outcome.checks,
        "raw_end_to_end": raw,
        "host_speed": outcome.speed.summary() if outcome.speed else None,
        "setup_times_s": outcome.setup_times,
        "windows": rows,
        "registry_delta": outcome.registry,
        "registry_delta_per_node": outcome.per_node,
        "recovery_s": outcome.recovery_s,
        "latency_samples": len(log.latencies(start, end, config.drain_timeout)),
        "gc": {
            "collections": gc_watch.collections,
            "gen2_collections": gc_watch.gen2_collections,
            "pause_s": gc_watch.pause_s,
            "pause_max_s": gc_watch.pause_max_s,
        }
        if gc_watch
        else None,
        "traced_wall_s": sum(w["end"] - w["start"] for w in traced_windows),
    }
    return result, details


def _run_explore(config: RunConfig, tracer: Optional[Tracer]):
    with _patched(tracer, explorer.CLASS_ENTRY_POINTS):
        outcome = explorer.ExploreRun(config, tracer).run()
    raw = None
    if tracer is None:
        figures = explorer.end_to_end(outcome)
        metrics = complete(figures["normalised"], END_TO_END)
        raw = figures["raw"]
    else:
        metrics = complete(explorer.per_layer(outcome, tracer), PER_LAYER)
    runs = outcome.explorations
    result = {
        "correct": not outcome.problems,
        "attempted": len(runs),
        "failed": sum(1 for run in runs if not run.safe),
        "metrics": metrics,
    }
    details = {
        "problems": outcome.problems,
        "checks": outcome.checks,
        "raw_end_to_end": raw,
        "host_speed": outcome.speed.summary() if outcome.speed else None,
        "setup_times_s": outcome.setup_times,
        "explorations": [vars(run) for run in runs],
        "latency_samples": sum(1 for run in runs if not run.traced),
        "traced_wall_s": sum(run.seconds for run in runs if run.traced),
    }
    return result, details


def _budget(config: RunConfig) -> float:
    """Upper bound on one kv run's wall time before it is abandoned."""
    return config.seconds + 3 * config.drain_timeout + 5 * config.setup_repeats
