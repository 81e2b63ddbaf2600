"""Unit tests for the inequality harness: ratios, Fejer experiment,
deterministic corpora."""

import math

import numpy as np
import pytest

from carleson_lab import measures
from carleson_lab.fourier import CoeffVector, adapted_pair
from carleson_lab.harness import (
    InequalityReport,
    adapted_ineq_ratio,
    corpus_scan,
    embedding_ratio,
    fejer_experiment,
    fejer_kernel,
    random_poly,
)
from carleson_lab.norms import hmu_norm

from conftest import basis_vector, zero_vector

FAST = dict(m=64, tol=1e-3, max_iters=20_000)


def test_ratio_rejects_zero(lebesgue):
    with pytest.raises(ValueError):
        adapted_ineq_ratio(zero_vector(4), lebesgue, adapted_pair(lebesgue, 4))
    with pytest.raises(ValueError):
        embedding_ratio(zero_vector(4), lebesgue)


def test_embedding_rejects_non_analytic(lebesgue):
    with pytest.raises(ValueError):
        embedding_ratio(basis_vector(-1), lebesgue)


def test_adapted_pair_degree_guard(lebesgue):
    pair = adapted_pair(lebesgue, 2)
    with pytest.raises(ValueError):
        adapted_ineq_ratio(basis_vector(4), lebesgue, pair)


def test_scale_invariance_exact(lebesgue):
    u = random_poly(42, 7, 8)
    pair = adapted_pair(lebesgue, 8)
    base = adapted_ineq_ratio(u, lebesgue, pair, **FAST)
    for lam in (4.0, 0.125, -1.0):
        assert adapted_ineq_ratio(CoeffVector(8, lam * u.coeffs), lebesgue, pair, **FAST) == base


def test_default_pair_matches_bbb(lebesgue):
    # the bbb ratio (corpus_scan's "adapted" kind) is the adapted ratio with
    # the default pair, whose b = sgn makes T_b the Hilbert transform H
    pair = adapted_pair(lebesgue, 8)
    assert np.array_equal(pair.b, np.sign(np.arange(-8, 9)))
    rep = corpus_scan(lebesgue, 4, seed=42, n_max=8, **FAST)
    assert adapted_ineq_ratio(random_poly(42, 3, 8), lebesgue, pair, **FAST) == rep.ratios[3]


def test_embedding_ratio_at_least_one(lebesgue):
    f = random_poly(42, 4, 8, analytic=True)
    assert embedding_ratio(f, lebesgue, **FAST) >= 1.0 - 1e-2


def test_fejer_kernel_coeffs():
    fk = fejer_kernel(4)
    assert fk.coeffs.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25, 0.0]
    with pytest.raises(ValueError):
        fejer_kernel(0)


def test_fejer_experiment_lebesgue(lebesgue):
    rows = fejer_experiment(lebesgue, [2, 8])
    r = rows[0]
    # 2*pi*(1*sigma_0 + (1/4)*sigma_1) = 2*pi*(1/2 + 1/16)
    assert r["projection_sq_norm"] == pytest.approx(2.0 * math.pi * 0.5625, rel=1e-12)
    assert r["projection_sq_norm"] == pytest.approx(r["projection_sq_closed_form"], rel=1e-12)
    assert r["h1_norm"] == pytest.approx(1.0, abs=1e-12)
    assert rows[1]["moment_partial_sum"] > r["moment_partial_sum"]
    with pytest.raises(ValueError):
        fejer_experiment(lebesgue, [])


def test_fejer_experiment_computes_each_degree_s_moments_once(monkeypatch):
    # sigma at the top degree comes from the moment plan that a2_norm reads
    # there too, so each degree's moments are computed once
    calls = []
    log_moments = measures.log_moment_array
    monkeypatch.setattr(measures, "log_moment_array", lambda mu, n: calls.append(n) or log_moments(mu, n))
    measures._plan.cache_clear()
    mu = measures.power_disk(0.5)
    fejer_experiment(mu, [2, 8, 32])
    assert sorted(calls) == [2, 8, 32]
    hmu_norm(random_poly(1, 0, 40), mu)
    sig = measures.moment_array(mu, 40)
    assert calls[3:] == [40] and sig.flags.writeable


def test_random_poly_deterministic():
    a = random_poly(42, 5, 16)
    b = random_poly(42, 5, 16)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_poly(42, 6, 16)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert random_poly(42, 0, 8, analytic=True).is_analytic()


def test_random_poly_variance_profile():
    # coefficient magnitudes decay like (1+|n|)^{-1/2} on average
    samples = np.array([np.abs(random_poly(42, i, 64).coeffs) for i in range(200)])
    mean_sq = np.mean(samples**2, axis=0)
    ns = np.arange(-64, 65)
    ref = (1.0 + np.abs(ns)) ** -1.0
    assert np.max(np.abs(mean_sq / ref - 1.0)) < 0.5


def test_corpus_scan_deterministic(lebesgue):
    a = corpus_scan(lebesgue, 4, n_max=8, **FAST)
    b = corpus_scan(lebesgue, 4, n_max=8, **FAST)
    assert a == b
    assert a.corpus_size == 4 and len(a.ratios) == 4
    assert a.max_ratio == max(a.ratios)


def test_corpus_scan_doubling_is_monotone(lebesgue):
    small = corpus_scan(lebesgue, 3, n_max=8, **FAST)
    big = corpus_scan(lebesgue, 6, n_max=8, **FAST)
    assert big.ratios[:3] == small.ratios
    assert big.max_ratio >= small.max_ratio


def test_corpus_scan_validation(lebesgue):
    with pytest.raises(ValueError):
        corpus_scan(lebesgue, 0)
    with pytest.raises(ValueError):
        corpus_scan(lebesgue, 1, which="nope")


def test_inequality_report_serialization():
    rep = InequalityReport(ratios=(0.5, 0.75), max_ratio=0.75, seed=42, corpus_size=2)
    doc = rep.to_dict()
    assert doc["max_ratio"] == 0.75 and doc["ratios"] == [0.5, 0.75]
