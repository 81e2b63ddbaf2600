#!/usr/bin/env python3
"""Cold-start cost of one CLI call: wall time and peak RSS.

    python3 scripts/cold_start.py [-k 10] [--src DIR]

Runs `python -m carleson_lab.cli moments --n-max 8` k times, each in a fresh
interpreter with the package imported from DIR (default: this tree's src/),
stdout discarded.  Each process is started with posix_spawn and reaped with
os.wait4, so its resource usage is its own: ru_maxrss is that process's peak
resident set, not the largest of all children.  Prints one JSON object with
the median wall time in seconds and the median peak RSS in MB, and exits 1
if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["-m", "carleson_lab.cli", "moments", "--n-max", "8"]


def cold_run(src: str) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=src)
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *COMMAND], env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(COMMAND)} exited with status {status}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-k", type=int, default=10, help="fresh processes to run (default 10)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the carleson_lab package")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("-k must be at least 1")
    try:
        runs = [cold_run(os.path.abspath(args.src)) for _ in range(args.k)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"command": " ".join(["python", *COMMAND]), "runs": args.k,
                      "wall_s": statistics.median(w for w, _ in runs),
                      "peak_rss_mb": statistics.median(r for _, r in runs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
