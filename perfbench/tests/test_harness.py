"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import asyncio
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from harness import kv
from harness.bench import run_benchmark
from harness.config import WORKLOADS, RunConfig
from harness.explorer import ExploreRun
from harness.hostspeed import FSYNC_REF_S, HostSpeed, Intervals
from harness.metrics import END_TO_END, PER_LAYER
from harness.tracer import Tracer

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
RUN = BENCH / "run.py"


def self_times_from_spans(spans: list) -> dict:
    """Recompute per-name self time from retained spans alone.

    The independent check on :attr:`Tracer.totals`: each span's duration
    minus the durations of the spans whose parent it is.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
    return totals


def root_span_seconds(spans: list) -> float:
    """Total duration of top-level spans (those without a parent)."""
    return sum(end - start for _name, start, end, parent in spans if parent < 0)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_explore(**changes):
    workload = dataclasses.replace(
        WORKLOADS["verify-explore"], max_states=1500, warmup_states=200, **changes
    )
    return RunConfig(workload=workload, seed=0, seconds=0.0, trace=False, setup_repeats=1)


def _run_cli(workload, seconds, trace, cwd):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed


class TestBenchmarkJson:
    def test_end_to_end_specs_match(self):
        listed = [
            (m["name"], m["unit"], m["better"], m["bound"])
            for m in _benchmark_json()["end_to_end"]
        ]
        assert listed == [tuple(spec) for spec in END_TO_END]

    def test_per_layer_specs_match(self):
        listed = [(m["name"], m["unit"], m["better"]) for m in _benchmark_json()["per_layer"]]
        assert listed == [tuple(spec) for spec in PER_LAYER]

    def test_workloads_match(self):
        listed = {w["name"]: w["why"] for w in _benchmark_json()["workloads"]}
        assert listed == {name: workload.why for name, workload in WORKLOADS.items()}

    def test_setup_has_the_largest_bound(self):
        bounds = {spec.name: spec.bound for spec in END_TO_END}
        assert bounds["setup_s"] == max(bounds.values())


class TestPrintedNames:
    def test_untraced_run_prints_every_end_to_end_metric(self):
        completed = _run_cli("verify-explore", 0.5, 0, ROOT)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())

    def test_traced_run_prints_every_per_layer_metric(self):
        completed = _run_cli("kv-unbatched", 2, 1, ROOT)
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["codec.encode_calls"] > 0
        assert metrics["consensus.handler_calls"] > 0
        assert metrics["wal.appends"] == 0  # storage is idle off kv-durable-paced

    def test_exits_nonzero_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        shutil.copytree(BENCH, tmp_path / "perfbench")
        completed = _run_cli("kv-saturate", 1, 0, tmp_path)
        assert completed.returncode != 0
        assert completed.stdout.strip() == ""


class TestAccountingInvariant:
    def _run(self, namespaces):
        config = RunConfig(
            workload=WORKLOADS["kv-unbatched"], seed=5, seconds=0.0, trace=False,
            setup_repeats=1, drain_timeout=10.0,
        )

        async def scenario():
            run = kv.KVRun(config, pathlib.Path("."), None)
            booted, _ = await run.boot(0)
            try:
                return [await run.fixed_phase(booted, ns, 30) for ns in namespaces]
            finally:
                await run.teardown(booted)

        return asyncio.run(asyncio.wait_for(scenario(), 60))

    def test_fresh_namespaces_account_exactly(self):
        first, second = self._run(["a", "b"])
        for outcome in (first, second):
            assert outcome.problems == []
            assert outcome.newly_applied == outcome.log.completed == 60
            assert outcome.slots_decided > 0

    def test_colliding_rerun_fails_the_invariant(self):
        first, rerun = self._run(["same", "same"])
        assert first.problems == []
        # Every command of the rerun is answered, but none is applied.
        assert rerun.log.completed == 60
        assert rerun.newly_applied == 0
        assert any(p.startswith("accounting:") for p in rerun.problems)


class TestTracer:
    def test_nesting_and_self_time(self):
        tracer = Tracer()
        tracer.enabled = True

        def inner():
            return sum(range(20000))

        def outer():
            return tracer.call("inner", inner) + tracer.call("inner", inner)

        tracer.call("outer", outer)
        names = [span[0] for span in tracer.spans]
        assert names == ["outer", "inner", "inner"]
        assert [span[3] for span in tracer.spans] == [-1, 0, 0]
        outer_span = tracer.spans[0]
        wall = outer_span[2] - outer_span[1]
        assert tracer.totals["outer"].self_s + tracer.totals["inner"].self_s == pytest.approx(wall)
        recomputed = self_times_from_spans(tracer.spans)
        for name, totals in tracer.totals.items():
            assert recomputed[name] == pytest.approx(totals.self_s)

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        assert tracer.call("x", lambda: 7) == 7
        assert tracer.spans == [] and tracer.totals == {}

    def test_traced_self_times_fit_in_wall_time(self, tmp_path):
        tracer = Tracer()
        config = RunConfig(
            workload=WORKLOADS["kv-unbatched"], seed=2, seconds=2.0, trace=True,
            setup_repeats=1,
        )
        with kv_patches(tracer):
            outcome = asyncio.run(kv.KVRun(config, tmp_path, tracer).run())
        assert outcome.problems == []
        traced_wall = sum(w["end"] - w["start"] for w in outcome.windows if w["traced"])
        total_self = sum(t.self_s for t in tracer.totals.values())
        assert 0 < total_self <= traced_wall
        assert tracer.dropped == 0
        assert total_self == pytest.approx(root_span_seconds(tracer.spans))
        recomputed = self_times_from_spans(tracer.spans)
        for name, totals in tracer.totals.items():
            assert recomputed[name] == pytest.approx(totals.self_s, rel=1e-6, abs=1e-9)


def kv_patches(tracer):
    from contextlib import ExitStack

    stack = ExitStack()
    for owner, attribute, name in kv.CLASS_ENTRY_POINTS:
        stack.enter_context(tracer.patch(owner, attribute, name))
    return stack


class TestExplore:
    def test_counts_repeat_exactly_across_runs(self):
        first = ExploreRun(_small_explore(), None).run()
        second = ExploreRun(_small_explore(), None).run()
        assert first.problems == [] and second.problems == []
        counts = {run.counts for run in first.explorations + second.explorations}
        assert len(counts) == 1
        (states, exhaustive, safe, _ratio, _depth), = counts
        assert states == 1501 and not exhaustive and safe

    def test_artifact_describes_itself(self, tmp_path):
        result = run_benchmark(
            "verify-explore", seed=4, seconds=0.0, trace=True, out_dir=str(tmp_path),
            setup_repeats=1,
        )
        assert result["correct"] is True
        artifact = json.loads((tmp_path / "verify-explore-seed4-trace1.json").read_text())
        for key in ("config", "git_commit", "host", "self_time", "checks", "latency_samples"):
            assert key in artifact
        assert artifact["config"]["seed"] == 4
        assert artifact["config"]["constants"]["EXPLORE_N"] == 3
        assert artifact["host"]["cores"] >= 1
        assert "trace.overhead_pct" in result["metrics"]
        assert (tmp_path / "verify-explore-seed4-trace1-spans.jsonl").exists()


class TestHostSpeed:
    def test_covered_counts_only_the_overlap(self):
        spans = Intervals()
        for start, end in ((1.0, 2.0), (3.0, 5.0), (6.0, 6.5)):
            spans.add(start, end)
        assert spans.covered(0.0, 10.0) == pytest.approx(3.5)
        assert spans.covered(1.5, 4.0) == pytest.approx(1.5)
        assert spans.covered(2.0, 3.0) == 0.0
        assert spans.covered(4.0, 4.5) == pytest.approx(0.5)
        assert spans.count(1.5, 6.0) == 1

    def test_normalise_scales_only_computing_time(self):
        speed = HostSpeed()
        speed.idle.add(1.0, 2.0)
        speed.probes.add(3.0, 3.5)
        speed.full.add(4.0, 5.0)
        speed.fsyncs.add(6.0, 6.5)
        # 10 s span: 1 s waiting, 0.5 s probing, 1 s full collection,
        # 0.5 s in fsync; of the 7 s left, 6 - 0.5 - 1 = 4.5 s computed.
        wall, cpu = speed.normalise(0.0, 10.0, cpu=6.0, factor=2.0)
        assert cpu == pytest.approx(4.5 * 2.0 + 1.0)
        assert wall == pytest.approx(1.0 + cpu + FSYNC_REF_S)
        assert speed.cpu_share(0.0, 10.0, 6.0) == pytest.approx(4.5 / 7.0)
        share_wall, _ = speed.normalise(0.0, 10.0, share=4.5 / 7.0, factor=2.0)
        assert share_wall == pytest.approx(wall)
