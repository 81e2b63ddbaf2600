#!/usr/bin/env python3
"""carleson-lab benchmark: one workload per process.

    python3 bench/run.py --workload {corpus,solve,weights} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree; the package is imported from ./src.
The seed makes the inputs: round(S / ROUND_SECONDS) rounds of the
workload (at least one), so every run of one seed does the same work and
takes about S seconds on the reference machine.  Every output is checked
after the timed region.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced pass
over half as many rounds, after an untraced pass over the same rounds
that gives the tracing overhead.  Lines before it starting with '#' give
the environment, the ops op_tail_ms averages, IntegrationWarnings per
module, time per op kind and every failed op.

`correct` is false when an op fails that is not a listed known red
(workloads.KNOWN_REDS) or a known red fails for an unlisted reason.
`failed` counts every op whose output check failed, known reds included.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus", "solve", "weights")
SETUP_PROBES = 2  # fresh interpreters timed besides this one


def require_tree():
    """Exit with code 2 unless run from a source tree holding the package
    and the report schema."""
    for rel in ("src/carleson_lab/__init__.py", "schemas/report.schema.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            print(f"error: {rel} not found under {ROOT}", file=sys.stderr)
            sys.exit(2)
    sys.path.insert(0, SRC)


def timed_setup(workload: str) -> float:
    """Seconds to import carleson_lab and make one tiny call per entry point
    the workload uses.  Must run before anything imports the package."""
    t0 = time.perf_counter()
    import carleson_lab
    from carleson_lab import cli, halfplane, harness, measures, norms, sumnorm

    leb = measures.lebesgue_disk()
    if workload == "corpus":
        harness.corpus_scan(leb, 1, seed=0, n_max=2, which="adapted", m=8, tol=1e-2)
    elif workload == "solve":
        sumnorm.sum_norm(harness.random_poly(0, 0, 1), leb, m=4, tol=1e-2)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["moments", "--n-max", "2"])
        pi = measures.lebesgue_halfplane()
        norms.poisson_sup(measures.atom_disk(0.5), theta_grid=[1.0])
        halfplane.w_pi(pi, 1.0)
        halfplane.w_pi_truncated_fourier_check(pi, 0.1, 10.0, n_x=16, xi_test=[1.0])
        measures.laplace_transform(pi, 1.0)
    elapsed = time.perf_counter() - t0
    if not carleson_lab.__file__.startswith(SRC):
        raise ImportError(f"carleson_lab imported from {carleson_lab.__file__}, not {SRC}")
    return elapsed


def setup_seconds(workload: str, first: float, probes: int) -> float:
    """Median set-up time over this process and `probes` fresh interpreters."""
    times = [first]
    for _ in range(probes):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                              "--workload", workload], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class WarningCounter:
    """Counts every IntegrationWarning by the carleson_lab module that raised
    it, and still shows the first of each distinct warning on stderr."""

    def __init__(self, category):
        self.category = category
        self.by_layer = Counter()
        self._seen = set()

    @contextlib.contextmanager
    def counting(self):
        with warnings.catch_warnings():
            warnings.simplefilter("always", self.category)
            shown = warnings.showwarning

            def show(message, category, filename, lineno, file=None, line=None):
                if issubclass(category, self.category):
                    layer = os.path.splitext(os.path.basename(filename))[0]
                    self.by_layer[layer] += 1
                    key = (filename, lineno, str(message))
                    if key in self._seen:
                        return
                    self._seen.add(key)
                shown(message, category, filename, lineno, file, line)

            warnings.showwarning = show
            yield


def run_ops(rounds, counter) -> list:
    """[(op, seconds, output, error)] for every op of every round."""
    out = []
    with counter.counting():
        for ops in rounds:
            for op in ops:
                t0 = time.perf_counter()
                try:
                    res, err = op.call(), None
                except Exception as exc:  # an op that raises is a failed op
                    res, err = None, f"{type(exc).__name__}: {exc}"
                out.append((op, time.perf_counter() - t0, res, err))
    return out


def check_ops(results, known_reds) -> tuple[int, int, list]:
    """(attempted, failed, unexpected failure lines) of a phase."""
    attempted = failed = 0
    lines = []
    for op, _, res, err in results:
        attempted += op.count
        if err is not None:
            reasons = [err]
        else:
            try:
                reasons = op.check(res)
            except Exception as exc:  # a check that cannot run fails the op
                reasons = [f"check raised {type(exc).__name__}: {exc}"]
        if not reasons:
            continue
        failed += op.count
        expected = op.red is not None and all(
            r.startswith(known_reds[op.red]["prefixes"]) for r in reasons)
        tag = f"known red {op.red}" if expected else "UNEXPECTED"
        print(f"# failed [{tag}] {op.kind}: {'; '.join(reasons[:3])}")
        if not expected:
            lines.append(op.kind)
    return attempted, failed, lines


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten ops beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 85.0, 80.0, 75.0):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return 50.0


def tail_mean(sorted_vals, q: float) -> float:
    """Mean of the values beyond the q-th percentile (nearest rank).  The
    percentile itself jumps between op kinds as the seed changes which
    inputs are slow; the mean of the ten or more ops beyond it does not."""
    return statistics.fmean(sorted_vals[math.ceil(q / 100.0 * len(sorted_vals)):])


def end_to_end(results, attempted: int, failed: int, setup_s: float, rss_mb: float) -> dict:
    lat = sorted(dt / op.count for op, dt, _, _ in results for _ in range(op.count))
    q = tail_percentile(len(lat))
    beyond = len(lat) - math.ceil(q / 100.0 * len(lat))
    print(f"# op_tail_ms is the mean of the {beyond} ops beyond p{q:g} of {len(lat)} ops")
    by_kind = Counter()
    for op, dt, _, _ in results:
        by_kind[op.kind] += dt
    print("# seconds_by_op " + json.dumps({k: round(v, 4) for k, v in sorted(by_kind.items())}))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(dt for _, dt, _, _ in results), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_mean(lat, q), "ms"),
        "pass_frac": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one small round, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    require_tree()
    inherited_threads = os.environ.pop("CARLESON_LAB_THREADS", None)
    first_setup = timed_setup(args.workload)
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    import numpy
    import scipy
    from scipy.integrate import IntegrationWarning

    import spans
    import workloads

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "CARLESON_LAB_THREADS": None,
           "CARLESON_LAB_THREADS_inherited": inherited_threads}
    print("# env " + json.dumps(env, sort_keys=True))

    ctx = workloads.Context(root=ROOT, tiny=args.tiny)
    n_rounds = 1 if args.tiny else max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
    if args.trace:
        # an untraced and a traced pass over the same rounds take as long as a plain run
        n_rounds = max(1, n_rounds // 2)
    rounds = [workloads.ROUNDS[args.workload](ctx, args.seed, r) for r in range(n_rounds)]
    for r, ops in enumerate(rounds):
        # spread every op kind over its round: a burst of short ops would time
        # the host's speed at one moment, and that speed swings over seconds
        numpy.random.default_rng([args.seed, r, 0]).shuffle(ops)
    plain = WarningCounter(IntegrationWarning)
    with workloads.recording_solves(ctx):
        results = run_ops(rounds, plain)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# integration_warnings " + json.dumps(plain.by_layer, sort_keys=True))
    attempted, failed, unexpected = check_ops(results, workloads.KNOWN_REDS)
    if args.trace:
        traced = WarningCounter(IntegrationWarning)
        with spans.Tracer() as tracer, workloads.recording_solves(ctx):
            traced_results = run_ops(rounds, traced)
        print("# traced integration_warnings " + json.dumps(traced.by_layer, sort_keys=True))
        attempted, failed, bad = check_ops(traced_results, workloads.KNOWN_REDS)
        unexpected += bad
        wall = sum(dt for _, dt, _, _ in results)
        traced_wall = sum(dt for _, dt, _, _ in traced_results)
        metrics = tracer.metrics(traced_wall, traced.by_layer)
        metrics["trace.overhead_frac"] = (1.0 - wall / traced_wall, "1")
        metrics["checks.failed_frac"] = (failed / attempted, "1")
    else:
        setup_s = setup_seconds(args.workload, first_setup, 1 if args.tiny else SETUP_PROBES)
        metrics = end_to_end(results, attempted, failed, setup_s, rss_mb)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
