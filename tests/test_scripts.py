"""Smoke tests for the experiment scripts: each `main` runs on tiny
arguments and prints the numbers of the library call it wraps."""

import importlib.util
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
