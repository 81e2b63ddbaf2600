#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, with a verdict per metric.

    python3 scripts/bench_pairs.py --base REV --head REV --pairs 10 \\
        --workloads corpus solve weights --seed 42 [--out runs.json]

Each revision is unpacked with `git archive` into a fresh directory, and
`bench/run.py --trace 0` runs there once per side of each pair, the side
that runs first alternating from pair to pair.  For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the pairs the change won and a verdict:

  regression  the change's median is worse than the parent's by more than
              the metric's bound (relative to the parent's median);
  unresolved  one side's interquartile range exceeds the bound, relative to
              its median, and not every run of the change beats every run
              of the parent;
  gain        the change won at least nine tenths of the pairs (ties count
              for neither side) and its median beats the parent's by more
              than the parent's interquartile range;
  same        none of the above.

Below each workload's table it prints, per op kind, each side's median of
the seconds that kind took in a run (bench/run.py's `# seconds_by_op`
line) and the change/parent ratio, which shows where time moved.

The script reads `bench/` and BENCHMARK.json of the trees it unpacks and
writes nothing into the repository; --out writes every run and summary.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_WINS = 0.9  # share of pairs the change must win for a gain
OPS_LINE = "# seconds_by_op "  # bench/run.py's line of seconds per op kind


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated as numpy's default does."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric: base[i] and head[i] ran in pair i.
    `better` is "higher" or "lower" and `bound` the relative worsening the
    benchmark tolerates."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same positive number of base and head runs")
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(sign * (h - b) > 0.0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0.0 for b, h in zip(base, head))
    change = sign * (hm - bm)  # > 0 when the change's median is better
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (h3 - h1) / abs(hm) if hm else 0.0)
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if -change > bound * abs(bm):
        call = "regression"
    elif spread > bound and not all_better:
        call = "unresolved"
    elif wins >= math.ceil(GAIN_WINS * len(base)) and change > b3 - b1:
        call = "gain"
    else:
        call = "same"
    return {"base": [b1, bm, b3], "head": [h1, hm, h3], "wins": wins, "losses": losses,
            "pairs": len(base), "spread": spread, "verdict": call}


def unpack(rev: str, dest: str) -> str:
    """Extract the committed files of rev into dest; returns dest."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            tf.extractall(dest)
    return dest


def parse_run(stdout: str) -> dict:
    """The final JSON line of one bench/run.py stdout, with its seconds per
    op kind from the `# seconds_by_op` line ({} without one) added as
    "seconds_by_op"."""
    lines = stdout.strip().splitlines()
    run = json.loads(lines[-1])
    run["seconds_by_op"] = next((json.loads(line[len(OPS_LINE):]) for line in lines
                                 if line.startswith(OPS_LINE)), {})
    return run


def op_seconds(base: list[dict], head: list[dict]) -> dict:
    """Per op kind of either side's runs: each side's median seconds (a run
    without the kind counts 0) and the ratio head/base (inf over a 0 base)."""
    out = {}
    for kind in sorted({k for r in base + head for k in r["seconds_by_op"]}):
        b, h = (statistics.median(r["seconds_by_op"].get(kind, 0.0) for r in runs)
                for runs in (base, head))
        out[kind] = {"base": b, "head": h, "ratio": h / b if b else math.inf}
    return out


def bench_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced bench/run.py in tree; returns parse_run of its stdout."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    return parse_run(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="parent revision")
    ap.add_argument("--head", default="HEAD", help="changed revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=["corpus", "solve", "weights"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", default=None, help="write every run and the summary as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: unpack(getattr(args, side), os.path.join(tmp, side))
                 for side in ("base", "head")}
        with open(os.path.join(trees["base"], "BENCHMARK.json")) as fh:
            metrics = json.load(fh)["end_to_end"]
        runs = {w: {"base": [], "head": []} for w in args.workloads}
        for w in args.workloads:
            for i in range(args.pairs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    run = bench_once(trees[side], w, args.seed, args.seconds)
                    runs[w][side].append(run)
                    print(f"# {w} pair {i} {side}: correct={run['correct']} "
                          f"failed={run['failed']} " + " ".join(
                              f"{k}={v['value']:.6g}" for k, v in run["metrics"].items()),
                          flush=True)

    summary, by_op = {}, {}
    print(f"{'workload':8s} {'metric':12s} {'base median [q1, q3]':>30s} "
          f"{'head median [q1, q3]':>30s} {'wins':>6s}  verdict")
    for w in args.workloads:
        for m in metrics:
            name = m["name"]
            vals = {side: [r["metrics"][name]["value"] for r in runs[w][side]]
                    for side in ("base", "head")}
            v = verdict(vals["base"], vals["head"], m["better"], m["bound"])
            summary.setdefault(w, {})[name] = v
            base, head = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (v["base"], v["head"]))
            print(f"{w:8s} {name:12s} {base:>30s} {head:>30s} "
                  f"{v['wins']:>3d}/{v['pairs']:<2d}  {v['verdict']}")
        by_op[w] = op_seconds(runs[w]["base"], runs[w]["head"])
        for kind, v in by_op[w].items():
            print(f"# {w} {kind}: base {v['base']:.4g} s, head {v['head']:.4g} s, "
                  f"head/base {v['ratio']:.3f}")
        for side in ("base", "head"):
            bad = [r for r in runs[w][side] if not r["correct"]]
            if bad:
                print(f"# {w} {side}: {len(bad)} runs not correct")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"base": args.base, "head": args.head, "seed": args.seed,
                       "seconds": args.seconds, "runs": runs, "summary": summary,
                       "seconds_by_op": by_op}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
