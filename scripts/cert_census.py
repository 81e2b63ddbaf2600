#!/usr/bin/env python3
"""One line per sum_norm call of the benchmark's `solve` and `corpus` rounds,
or per op of its `weights` rounds.

    python3 scripts/cert_census.py [--seed 42] [--rounds 2] \\
        [--workload solve corpus weights] > census.txt

The rounds are built by bench/workloads.py from the seed, as bench/run.py
builds them, and run in order: rounds 0..R-1 of each named workload in
turn (solve and corpus by default), each op in its round's order (the ops
are not shuffled and their checks are not run).  A solve or corpus line
reads

    <op kind> m=<m> it=<iterations> conv=<converged> upper=<repr> lower=<repr> sha=<12 hex>

where sha hashes the bytes of the witness f's coefficients, the witness
g's samples and the dual witness's samples.  A weights line reads

    <op kind> sha=<12 hex>

where sha hashes the op's output: the exit code and stdout of a CLI op,
the bytes of an array and the repr of a float.  Two trees that give the
same file gave the same numbers bit for bit, so a refactor proves byte
identity, or shows which ops moved, with `diff` of one run on each tree.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from carleson_lab import harness, sumnorm  # noqa: E402

import workloads  # noqa: E402


def cert_line(kind: str, m: int, cert) -> str:
    h = hashlib.sha256()
    for a in (cert.witness.f.coeffs, cert.witness.g.samples, cert.dual_witness.samples):
        h.update(a.tobytes())
    return (f"{kind} m={m} it={cert.iterations} conv={cert.converged} "
            f"upper={cert.upper!r} lower={cert.lower!r} sha={h.hexdigest()[:12]}")


def output_line(kind: str, out) -> str:
    if isinstance(out, np.ndarray):
        data = out.tobytes()
    elif isinstance(out, tuple):  # a CLI op: (exit code, stdout)
        data = f"{out[0]}\n{out[1]}".encode()
    else:
        data = repr(out).encode()
    return f"{kind} sha={hashlib.sha256(data).hexdigest()[:12]}"


@contextlib.contextmanager
def recording(calls: list):
    """Rebind the two names sum_norm is called through (sumnorm's own for the
    solve ops, harness's for the corpus scans) so that every call appends
    (m, cert) to calls."""
    saved = sumnorm.sum_norm, harness.sum_norm

    def wrap(inner):
        def recorded(u, mu, m, **kwargs):
            cert = inner(u, mu, m=m, **kwargs)
            calls.append((m, cert))
            return cert
        return recorded

    sumnorm.sum_norm, harness.sum_norm = wrap(saved[0]), wrap(saved[1])
    try:
        yield
    finally:
        sumnorm.sum_norm, harness.sum_norm = saved


def census(seed: int, rounds: int, names=("solve", "corpus")):
    """Yield one line per sum_norm call of solve and corpus, and per op of
    weights, in call order."""
    ctx = workloads.Context(ROOT)
    for workload in names:
        for r in range(rounds):
            for op in workloads.ROUNDS[workload](ctx, seed, r):
                if workload == "weights":
                    yield output_line(op.kind, op.call())
                    continue
                calls = []
                with recording(calls):
                    op.call()
                for m, cert in calls:
                    yield cert_line(op.kind, m, cert)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--workload", nargs="+", choices=("solve", "corpus", "weights"),
                    default=["solve", "corpus"])
    args = ap.parse_args(argv)
    for line in census(args.seed, args.rounds, args.workload):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
