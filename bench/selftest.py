#!/usr/bin/env python3
"""Fast self-test of the benchmark (about half a minute).

    python3 bench/selftest.py

Runs every workload on one tiny round, untraced and traced, and checks
that each metric BENCHMARK.json names is printed with its unit; shows
that the output checks flag a tampered certificate and a wrong w_sup; and
that run.py fails without printing a result in a tree that holds only the
benchmark.  Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def expect(cond: bool, what: str):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics_emitted(spec: dict):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", trace, "--tiny")
            expect(out.returncode == 0, f"{workload} trace={trace} exits 0")
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            expect(sorted(doc) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace={trace} result keys")
            expect(doc["correct"] is True and doc["attempted"] >= 1, f"{workload} trace={trace} correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} emits every {key} metric with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in doc["metrics"].values()), f"{workload} trace={trace} values finite")


def check_checkers():
    sys.path.insert(0, HERE)
    from carleson_lab import harness, measures, sumnorm

    import checks
    import run
    import workloads

    leb = measures.lebesgue_disk()
    u = harness.random_poly(3, 0, 2)
    cert = sumnorm.sum_norm(u, leb, m=16, tol=1e-4)
    expect(checks.certificate_failures(u, leb, 16, 1e-4, cert) == [], "a true certificate passes")
    swapped = dataclasses.replace(cert, lower=cert.upper * 1.5)
    expect(any("above upper" in r for r in checks.certificate_failures(u, leb, 16, 1e-4, swapped)),
           "lower > upper is flagged")
    wide = dataclasses.replace(cert, gap=cert.upper * 1e-2)
    expect(any(r.startswith(checks.GAP_ABOVE_TOL)
               for r in checks.certificate_failures(u, leb, 16, 1e-4, wide)), "a gap above tol is flagged")

    buf = io.StringIO()
    from carleson_lab import cli
    with contextlib.redirect_stdout(buf):
        cli.main(["halfplane", "--measure", "lebesgue-halfplane"])
    results = json.loads(buf.getvalue())["results"]
    check = workloads.halfplane_checks(math.pi / 2.0, 1.0)
    expect(check(results) == [], "w_sup = pi/2 on lebesgue-halfplane passes")
    expect(any(r.startswith("w_sup") for r in check(dict(results, w_sup=1.5))), "a wrong w_sup is flagged")

    # a known red failing for an unlisted reason is unexpected
    op = workloads.solve_op("sum_norm.red", u, leb, 16, 1e-4, red="solve-atom-0.9-unconverged")
    with contextlib.redirect_stdout(io.StringIO()):
        ok = run.check_ops([(op, 0.0, cert, None)], workloads.KNOWN_REDS)
        bad = run.check_ops([(op, 0.0, swapped, None)], workloads.KNOWN_REDS)
    expect(ok == (1, 0, []), "a known red that passes counts as passed")
    expect(bad[1] == 1 and bad[2] == ["sum_norm.red"], "a known red failing otherwise is unexpected")

    # 20 ops of 1..20 ms: the tail percentile is p50, and op_tail_ms the mean of the ten beyond it
    ops = [workloads.Op(f"op{i}", None, None) for i in range(20)]
    with contextlib.redirect_stdout(io.StringIO()):
        e2e = run.end_to_end([(o, 1e-3 * (i + 1), None, None) for i, o in enumerate(ops)],
                             20, 0, 0.5, 1.0)
    expect(math.isclose(e2e["op_tail_ms"][0], 15.5), "op_tail_ms is the mean beyond the tail percentile")


def check_bare_tree():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(tmp, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(out.returncode != 0 and '"metrics"' not in out.stdout,
               "fails without a result when the tree holds only the benchmark")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_checkers()
    check_bare_tree()
    check_metrics_emitted(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
