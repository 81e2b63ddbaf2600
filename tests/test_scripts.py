"""Smoke tests for the experiment scripts: each `main` runs on tiny
arguments and prints the numbers of the library call it wraps."""

import hashlib
import importlib.util
import json
import math
import os

import pytest

from carleson_lab import harness, sumnorm
from carleson_lab.harness import corpus_scan, fejer_experiment
from carleson_lab.measures import RadialMeasure, RadialPiece, power_disk

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def printed_columns(capsys) -> list[tuple[float, float]]:
    return [tuple(float(x) for x in line.split()) for line in capsys.readouterr().out.splitlines()]


def test_run_fejer_prints_projection_norms(capsys):
    assert load_script("run_fejer").main(["--measure", "power:p=1", "--n-list", "2", "8"]) == 0
    rows = fejer_experiment(power_disk(1.0), [2, 8])
    assert printed_columns(capsys) == [
        (r["n"], pytest.approx(math.sqrt(r["projection_sq_norm"]), rel=1e-12)) for r in rows]


def test_run_blowup_prints_corpus_max_ratio(capsys):
    argv = ["--eps", "1e-1", "--count", "2", "--n-max", "8"]
    assert load_script("run_blowup").main(argv) == 0
    mu = RadialMeasure(pieces=(RadialPiece(0.0, 1.0 - 1e-1, 1.0, -0.5, 0.0),))
    want = corpus_scan(mu, 2, seed=42, n_max=8, which="adapted").max_ratio
    assert printed_columns(capsys) == [(0.1, pytest.approx(want, rel=1e-12))]


def test_bench_pairs_verdict_on_synthetic_runs():
    verdict = load_script("bench_pairs").verdict
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    # every pair won, by far more than the parent's interquartile range
    gain = verdict(base, [b + 20.0 for b in base], "higher", 0.25)
    assert gain["verdict"] == "gain" and gain["wins"] == 10 and gain["base"][1] == 100.0
    # the same numbers where lower is better: worse by 20%, inside the bound
    assert verdict(base, [b + 20.0 for b in base], "lower", 0.25)["verdict"] == "same"
    assert verdict(base, [b + 30.0 for b in base], "lower", 0.25)["verdict"] == "regression"
    # 8 of 10 pairs won, and ties count for neither side
    eight = [b + 20.0 for b in base[:8]] + base[8:]
    v = verdict(base, eight, "higher", 0.25)
    assert (v["wins"], v["losses"], v["verdict"]) == (8, 0, "same")
    # 9 wins but a median shift below the parent's IQR of 2.5 is no gain
    small = [b + 1.0 for b in base[:9]] + [base[9] - 1.0]
    assert verdict(base, small, "higher", 0.25)["verdict"] == "same"
    # a spread beyond the bound leaves the metric unresolved unless every
    # run of the change beats every run of the parent
    wide = [50.0, 150.0, 60.0, 140.0, 100.0, 100.0, 55.0, 145.0, 100.0, 100.0]
    assert verdict(wide, wide, "higher", 0.25)["verdict"] == "unresolved"
    assert verdict(wide, [w + 200.0 for w in wide], "higher", 0.25)["verdict"] == "gain"
    with pytest.raises(ValueError):
        verdict(base, base[:5], "higher", 0.25)


def test_bench_pairs_reads_seconds_by_op_from_synthetic_stdout():
    bp = load_script("bench_pairs")

    def stdout(by_op: dict) -> str:
        final = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
        lines = ['# env {"python": "3"}', "# op_tail_ms is the mean of the 10 ops beyond p50 of 20 ops"]
        if by_op is not None:
            lines.append("# seconds_by_op " + json.dumps(by_op))
        return "\n".join(lines + [json.dumps(final)]) + "\n"

    run = bp.parse_run(stdout({"sum_norm.tiny": 0.5, "sum_norm.n32.lebesgue": 2.0}))
    assert run["correct"] and run["attempted"] == 3
    assert run["seconds_by_op"] == {"sum_norm.n32.lebesgue": 2.0, "sum_norm.tiny": 0.5}
    assert bp.parse_run(stdout(None))["seconds_by_op"] == {}
    base = [bp.parse_run(stdout({"a": t, "b": 1.0})) for t in (1.0, 3.0, 2.0)]
    head = [bp.parse_run(stdout({"a": t})) for t in (0.5, 1.5, 1.0)]
    moved = bp.op_seconds(base, head)
    assert moved["a"] == {"base": 2.0, "head": 1.0, "ratio": 0.5}
    # a kind the change no longer runs counts 0 there, and one new to it
    # has an infinite ratio
    assert moved["b"] == {"base": 1.0, "head": 0.0, "ratio": 0.0}
    assert bp.op_seconds(head, base)["b"]["ratio"] == math.inf


def test_cert_census_prints_one_line_per_sum_norm_call(capsys, monkeypatch):
    # count the calls beneath the census's own recording, then solve one of
    # them again directly and find its line
    census = load_script("cert_census")
    calls, solve = [], sumnorm.sum_norm

    def counted(u, mu, m, **kwargs):
        calls.append((u, mu, m, kwargs))
        return solve(u, mu, m=m, **kwargs)

    monkeypatch.setattr(sumnorm, "sum_norm", counted)
    monkeypatch.setattr(harness, "sum_norm", counted)
    assert census.main(["--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(calls) > 100
    assert {line.split()[0].split(".")[0] for line in lines} == {"sum_norm", "corpus_scan"}
    for k in (0, len(calls) - 1):
        u, mu, m, kwargs = calls[k]
        cert = solve(u, mu, m=m, **kwargs)
        sha = hashlib.sha256(cert.witness.f.coeffs.tobytes() + cert.witness.g.samples.tobytes()
                             + cert.dual_witness.samples.tobytes()).hexdigest()[:12]
        assert lines[k].split()[1:] == [f"m={m}", f"it={cert.iterations}", f"conv={cert.converged}",
                                        f"upper={cert.upper!r}", f"lower={cert.lower!r}", f"sha={sha}"]


def test_cert_census_prints_one_line_per_weights_op(capsys):
    # one "<op kind> sha=<12 hex>" line per op of the round, in its order,
    # and the same file on a second run
    census = load_script("cert_census")
    ops = census.workloads.ROUNDS["weights"](census.workloads.Context(census.ROOT), 42, 0)
    runs = []
    for _ in range(2):
        assert census.main(["--rounds", "1", "--workload", "weights"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0]] == [op.kind for op in ops]
    assert all(len(line.split()) == 2 and len(line.split("sha=")[1]) == 12 for line in runs[0])


def test_cold_start_reports_one_fresh_cli_process(capsys, tmp_path):
    cold = load_script("cold_start")
    assert cold.main(["-k", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 1 and report["command"].endswith("moments --n-max 8")
    assert 0.0 < report["wall_s"] < 60.0 and report["peak_rss_mb"] > 1.0
    # a tree without the package: the CLI process fails and so does the script
    assert cold.main(["-k", "1", "--src", str(tmp_path)]) == 1
