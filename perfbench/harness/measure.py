"""Process-level probes and registry arithmetic shared by the workloads."""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import time
from typing import Any, Dict, Mapping, Optional

from repro.obs import Histogram

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_mib() -> float:
    """Current resident set size of this process in MiB."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * _PAGE / (1 << 20)
    except (OSError, ValueError, IndexError):
        # No procfs: fall back to the peak, the closest portable figure.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class GCWatch:
    """Collector pauses seen through ``gc.callbacks`` while started."""

    def __init__(self) -> None:
        self.collections = 0
        self.gen2_collections = 0
        self.pause_s = 0.0
        self.pause_max_s = 0.0
        self._began = 0.0

    def _callback(self, phase: str, info: Mapping[str, Any]) -> None:
        if phase == "start":
            self._began = time.perf_counter()
            return
        pause = time.perf_counter() - self._began
        self.collections += 1
        self.pause_s += pause
        self.pause_max_s = max(self.pause_max_s, pause)
        if info.get("generation") == 2:
            self.gen2_collections += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)


def snapshot_delta(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> Dict[str, Any]:
    """Registry snapshot of what happened between *before* and *after*.

    Counters subtract; histograms subtract bucket counts (the delta keeps
    ``after``'s max, an upper bound, since a window's own max is not
    recoverable from two cumulative snapshots). Gauges are high-water
    marks and are taken from *after*.
    """
    counters_before = before.get("counters", {})
    counters = {
        name: value - counters_before.get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    histograms: Dict[str, Any] = {}
    for name, payload in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        counts = list(payload["counts"])
        count = payload["count"]
        total = payload["sum"]
        if prior is not None and prior["bounds"] == payload["bounds"]:
            counts = [a - b for a, b in zip(counts, prior["counts"])]
            count -= prior["count"]
            total -= prior["sum"]
        histograms[name] = {
            "bounds": payload["bounds"],
            "counts": counts,
            "count": count,
            "sum": total,
            "min": None,
            "max": payload["max"] if count else None,
        }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


def histogram_ms(snapshot: Mapping[str, Any], name: str, q: float) -> float:
    """*q*-quantile of histogram *name* in milliseconds (0 when empty)."""
    payload = snapshot.get("histograms", {}).get(name)
    if not payload or not payload["count"]:
        return 0.0
    value = Histogram.from_dict(payload).percentile(q)
    return 1000.0 * value if value is not None else 0.0


def counter_sum(snapshot: Mapping[str, Any], prefix: str) -> int:
    """Sum of every counter whose name starts with *prefix*."""
    return sum(
        value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith(prefix)
    )


def host_info() -> Dict[str, Any]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def git_commit(root: str = ".") -> Optional[str]:
    """The checked-out commit, or None outside a git work tree.

    A benchmark checkout is a plain file tree; ``--git-dir`` keeps git
    from answering for a repository that merely encloses it.
    """
    try:
        completed = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None
