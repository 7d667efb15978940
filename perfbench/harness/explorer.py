"""The ``verify-explore`` workload: fixed-budget exhaustive exploration.

Each exploration searches the Figure 1 task variant (n=3, f=e=1, static
Ω leader 0, one timer fire, up to f crashes) until it has visited the
state budget. The search is deterministic, so every exploration must
report the same counts and a safe result; the run repeats explorations
until ``seconds`` have passed and reports medians over them. In a traced
run every other exploration runs with the layer tracer on. Set-up is a
small warm-up exploration, timed like the ``kv-*`` set-ups: half before
the measurement, the rest after it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import percentile
from repro.checks.explore import ExplorationReport, explore
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepProcess, twostep_task_factory

from .config import (
    EXPLORE_E,
    EXPLORE_F,
    EXPLORE_N,
    EXPLORE_TIMER_FIRES,
    ExploreWorkload,
    RunConfig,
    setups_before,
)
from .hostspeed import HostSpeed
from .measure import rss_mib
from .tracer import Tracer

#: Class-level entry points traced in a verify-explore run.
CLASS_ENTRY_POINTS = (
    (TwoStepProcess, "on_message", "consensus.on_message"),
    (TwoStepProcess, "on_timer", "consensus.on_timer"),
)


@dataclass
class Exploration:
    seconds: float
    cpu_s: float
    traced: bool
    states: int
    exhaustive: bool
    safe: bool
    dedup_hit_ratio: float
    max_depth: int
    peak_rss_kb: int
    #: (wall, CPU) seconds normalised by host speed (untraced runs only).
    normalised: Optional[Tuple[float, float]] = None

    @property
    def counts(self) -> tuple:
        return (self.states, self.exhaustive, self.safe, self.dedup_hit_ratio, self.max_depth)


@dataclass
class ExploreOutcome:
    setup_times: List[float]
    budget: int
    #: (start, end, CPU seconds) of every set-up.
    setup_spans: List[Tuple[float, float, float]] = field(default_factory=list)
    explorations: List[Exploration] = field(default_factory=list)
    rss_growth_mib: float = 0.0
    speed: Optional[HostSpeed] = None
    problems: List[str] = field(default_factory=list)
    checks: Dict[str, Any] = field(default_factory=dict)


class ExploreRun:
    def __init__(self, config: RunConfig, tracer: Optional[Tracer]) -> None:
        if not isinstance(config.workload, ExploreWorkload):
            raise TypeError("ExploreRun needs an ExploreWorkload")
        self.config = config
        self.workload: ExploreWorkload = config.workload
        self.tracer = tracer
        self.proposals = {pid: pid % 2 for pid in range(EXPLORE_N)}

    def _explore(self, budget: int) -> ExplorationReport:
        factory = twostep_task_factory(
            self.proposals,
            EXPLORE_F,
            EXPLORE_E,
            omega_factory=static_omega_factory(0),
        )
        return explore(
            factory,
            EXPLORE_N,
            EXPLORE_F,
            proposals=self.proposals,
            timer_fires=EXPLORE_TIMER_FIRES,
            max_states=budget,
        )

    def _timed(
        self, budget: int, traced: bool, speed: Optional[HostSpeed] = None
    ) -> Exploration:
        tracer = self.tracer
        if tracer is not None:
            tracer.enabled = traced
        began, cpu = time.perf_counter(), time.process_time()
        try:
            if tracer is not None and traced:
                report = tracer.call("explore.explore", self._explore, budget)
            else:
                report = self._explore(budget)
        finally:
            if tracer is not None:
                tracer.enabled = False
        ended, cpu = time.perf_counter(), time.process_time() - cpu
        metrics = report.metrics
        return Exploration(
            seconds=ended - began,
            cpu_s=cpu,
            normalised=speed.normalise(began, ended, cpu) if speed else None,
            traced=traced,
            states=report.states_visited,
            exhaustive=report.exhaustive,
            safe=report.safe,
            dedup_hit_ratio=metrics.dedup_hit_rate if metrics else 0.0,
            max_depth=metrics.max_depth if metrics else 0,
            peak_rss_kb=metrics.peak_rss_kb if metrics else 0,
        )

    def _setup(self, outcome: ExploreOutcome) -> None:
        """One warm-up exploration, timed."""
        began, cpu = time.perf_counter(), time.process_time()
        warm = self._explore(self.workload.warmup_states)
        ended = time.perf_counter()
        outcome.setup_times.append(ended - began)
        outcome.setup_spans.append((began, ended, time.process_time() - cpu))
        if not warm.safe:
            raise AssertionError(f"warm-up exploration unsafe: {warm.violation}")

    def run(self) -> ExploreOutcome:
        outcome = ExploreOutcome(setup_times=[], budget=self.workload.max_states)
        if self.tracer is None:
            outcome.speed = HostSpeed()
            outcome.speed.start()
        try:
            self._run(outcome)
        finally:
            if outcome.speed is not None:
                outcome.speed.stop()
        outcome.checks = check_outcome(outcome)
        outcome.problems.extend(outcome.checks["problems"])
        return outcome

    def _run(self, outcome: ExploreOutcome) -> None:
        config, workload = self.config, self.workload
        first = setups_before(config.setup_repeats)
        for _ in range(first):
            self._setup(outcome)
        rss_before = rss_mib()
        deadline = time.perf_counter() + config.seconds
        index = 0
        # At least two explorations, so the repeat check always has a pair
        # (and a traced run has one of each kind).
        while index < 2 or time.perf_counter() < deadline:
            traced = self.tracer is not None and index % 2 == 1
            outcome.explorations.append(
                self._timed(workload.max_states, traced, outcome.speed)
            )
            index += 1
        outcome.rss_growth_mib = rss_mib() - rss_before
        for _ in range(first, config.setup_repeats):
            gc.collect()
            self._setup(outcome)


def check_outcome(outcome: ExploreOutcome) -> Dict[str, Any]:
    """Safe, budget reached, and identical counts on every exploration.

    The explorer counts the state that hit the cap, so a capped search
    reports ``budget + 1`` states.
    """
    problems: List[str] = []
    runs = outcome.explorations
    for number, run in enumerate(runs):
        if not run.safe:
            problems.append(f"exploration {number} found a safety violation")
        if run.states != outcome.budget + 1 or run.exhaustive:
            problems.append(
                f"exploration {number} visited {run.states} states, "
                f"expected the budget {outcome.budget} (+1 capping state)"
            )
    distinct = {run.counts for run in runs}
    if len(distinct) > 1:
        problems.append(f"exploration counts differ between repeats: {sorted(distinct)}")
    return {
        "problems": problems,
        "explorations": len(runs),
        "states_each": runs[0].states if runs else 0,
        "counts_repeat": len(distinct) == 1,
    }


def end_to_end(outcome: ExploreOutcome) -> Dict[str, Dict[str, float]]:
    """``{"normalised": ..., "raw": ...}`` figures of an untraced run.

    The normalised figures use each exploration's and set-up's normalised
    wall and CPU time (see :mod:`.hostspeed`), the raw ones the measured.
    """
    runs = [run for run in outcome.explorations if not run.traced]
    speed = outcome.speed
    assert speed is not None, "end-to-end metrics come from untraced runs"
    # Each exploration frees its states before the next one starts, so the
    # growth over the measurement is one exploration's footprint.
    rss = 1024 * outcome.rss_growth_mib / (outcome.budget + 1)

    def figures(setup, seconds, cpu_s, prefix):
        return {
            "setup_s": median(setup),
            f"{prefix}ops_per_s": median(
                [run.states / s for run, s in zip(runs, seconds)]
            ),
            f"{prefix}latency_p50_ms": 1000 * median(seconds),
            f"{prefix}latency_p99_ms": 1000 * percentile(seconds, 99),
            f"{prefix}cpu_us_per_op": 1e6
            * median([c / run.states for run, c in zip(runs, cpu_s)]),
            "rss_kib_per_op": rss,
        }

    return {
        "normalised": figures(
            [speed.normalise(*span)[0] for span in outcome.setup_spans],
            [run.normalised[0] for run in runs],
            [run.normalised[1] for run in runs],
            "norm_",
        ),
        "raw": figures(
            outcome.setup_times,
            [run.seconds for run in runs],
            [run.cpu_s for run in runs],
            "",
        ),
    }


def per_layer(outcome: ExploreOutcome, tracer: Tracer) -> Dict[str, float]:
    runs = outcome.explorations
    traced = [run for run in runs if run.traced]
    plain = [run for run in runs if not run.traced]
    last = runs[-1]
    overhead = 0.0
    if traced and plain:
        base = median([run.cpu_s / run.states for run in plain])
        overhead = 100.0 * (median([run.cpu_s / run.states for run in traced]) / base - 1.0)
    return {
        "consensus.handler_calls": tracer.calls("consensus.on_message", "consensus.on_timer"),
        "consensus.handler_self_s": tracer.self_seconds(
            "consensus.on_message", "consensus.on_timer"
        ),
        "explore.self_s": tracer.self_seconds("explore.explore"),
        "explore.states": last.states,
        "explore.dedup_hit_ratio": last.dedup_hit_ratio,
        "explore.max_depth": last.max_depth,
        "explore.peak_rss_mib": max(run.peak_rss_kb for run in runs) / 1024,
        "trace.overhead_pct": overhead,
    }
