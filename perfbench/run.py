"""Run one benchmark workload and print its result as the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload kv-saturate --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs with the
layer tracer and prints every per-layer metric. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every check of
the run passed. Artifacts go to ``.perfbench_out/`` in the current
directory. Workloads and metrics are listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: A run that has not finished by then is abandoned (exit code 3).
HARD_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _abandon(signum, frame):
    print(f"error: run exceeded {HARD_LIMIT_S}s", file=sys.stderr)
    sys.stderr.flush()
    # Skip interpreter teardown: sockets and the event loop die with us.
    os._exit(3)


def main(argv=None) -> int:
    args = _parse(argv)
    source = pathlib.Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {source}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    signal.signal(signal.SIGALRM, _abandon)
    signal.alarm(HARD_LIMIT_S)
    from harness.bench import run_benchmark

    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
