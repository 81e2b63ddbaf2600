"""Smoke tests for the experiment scripts: each `main` runs on tiny
arguments and prints the numbers of the library call it wraps."""

import importlib.util
import json
import math
import os

import pytest

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


def test_cold_start_reports_one_fresh_cli_process(capsys, tmp_path):
    cold = load_script("cold_start")
    assert cold.main(["-k", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 1 and report["command"].endswith("moments --n-max 8")
    assert 0.0 < report["wall_s"] < 60.0 and report["peak_rss_mb"] > 1.0
    # a tree without the package: the CLI process fails and so does the script
    assert cold.main(["-k", "1", "--src", str(tmp_path)]) == 1
