"""The benchmark's tiny `corpus` and `solve` rounds, run in-process through
bench/workloads and bench/checks (neither is edited here): every op must
pass its output check, or be a listed known red (workloads.KNOWN_REDS)
failing only with its listed reasons.  The corpus checks also need one
recorded harness.sum_norm call per vector, so a change that stops
corpus_scan from solving each vector through harness.sum_norm fails here
rather than in a benchmark run.  A few seconds.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))  # workloads imports checks by name

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["corpus", "solve"])
def test_tiny_round_passes_its_checks(workload):
    ctx = workloads.Context(root=ROOT, tiny=True)
    ops = workloads.ROUNDS[workload](ctx, 7, 0)
    with workloads.recording_solves(ctx):
        outputs = [op.call() for op in ops]
    failed = []
    for op, out in zip(ops, outputs):
        reasons = op.check(out)
        allowed = op.red is not None and all(
            r.startswith(workloads.KNOWN_REDS[op.red]["prefixes"]) for r in reasons)
        if reasons and not allowed:
            failed.append(f"{op.kind}: {'; '.join(reasons)}")
    assert not failed
    if workload == "corpus":
        # two vectors per sample, each solved by one harness.sum_norm call
        assert len(ctx.solves) == 2 * sum(op.count for op in ops)
