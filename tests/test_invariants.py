"""Property suites: every module's structural invariants over randomized
corpora (seed 42, >= 200 cases per property)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleson_lab.fourier import (
    CoeffVector,
    adapted_pair,
    multiplier,
    synthesize,
)
from carleson_lab.halfplane import (
    BandSignal,
    b2h_norm,
    garnett_check,
    stability_constant,
    stability_ratio,
    w_pi,
)
from carleson_lab.harness import adapted_ineq_ratio, corpus_scan, embedding_ratio, fejer_experiment, \
    random_poly
from carleson_lab.measures import (
    RadialMeasure,
    RadialPiece,
    atom_disk,
    laplace_transform,
    lebesgue_disk,
    lebesgue_halfplane,
    log_moment_array,
    moment_array,
    power_disk,
    radial_carleson,
    singular_integral,
)
from carleson_lab.norms import hmu_norm, l2_norm, poisson_sup
from carleson_lab.sumnorm import dual_bound, sum_norm

from conftest import (
    random_coeff_vector,
    random_line_measure,
    random_radial_measure,
    random_vertical_measure,
    rng_for,
)
from test_halfplane import _admissible_instance

N_CASES = 200
HYP = settings(max_examples=N_CASES, derandomize=True, deadline=None)

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=17).filter(lambda c: len(c) % 2 == 1)


# ---------------------------------------------------------------------------
# measures


def test_moments_positive_decreasing_logconvex():
    for i in range(N_CASES):
        mu = random_radial_measure(rng_for(i))
        sig = moment_array(mu, 64)
        assert np.all(sig > 0.0)
        assert np.all(sig[1:] <= sig[:-1] * (1.0 + 1e-12))
        assert np.all(sig[1:-1] ** 2 <= sig[:-2] * sig[2:] * (1.0 + 1e-10))


def test_moments_logconvex_deep_canonical():
    for mu in (lebesgue_disk(), power_disk(1.0), atom_disk(0.5), RadialMeasure(pieces=(RadialPiece(0.0, 0.99, 1.0, -0.5),))):
        ls = log_moment_array(mu, 256)
        assert np.all(np.isfinite(ls))
        assert np.all(np.diff(ls) <= 1e-12)  # nonincreasing
        assert np.all(np.diff(ls, 2) >= -1e-10)  # log-convex


def test_moment_lower_bound_by_tail():
    # sigma_n >= rho^{2n} sigma([rho, 1)) for every rho in (0, 1)
    for i in range(N_CASES):
        mu = random_radial_measure(rng_for(3000 + i))
        sig = moment_array(mu, 32)
        for rho in (0.3, 0.6, 0.9):
            tail = mu.tail_mass(1.0 - rho)
            n = np.arange(33)
            assert np.all(sig >= rho ** (2 * n) * tail * (1.0 - 1e-11))


def test_laplace_decreasing_and_additive():
    xis = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    for i in range(N_CASES):
        rng = rng_for(6000 + i)
        a = random_vertical_measure(rng)
        b = random_vertical_measure(rng)
        la = laplace_transform(a, xis)
        # strictly decreasing in |xi| until the values underflow to zero
        d = np.diff(la)
        assert np.all(np.where(la[1:] > 1e-300, d < 0.0, d <= 0.0))
        both = type(a)(a.atoms + b.atoms, a.pieces + b.pieces)
        lb = laplace_transform(b, xis)
        assert np.max(np.abs(laplace_transform(both, xis) - (la + lb))) < 1e-9 * (1 + la[0] + lb[0])


def test_carleson_verdict_ignores_interior_mass():
    for i in range(N_CASES):
        rng = rng_for(9000 + i)
        mu = random_radial_measure(rng)
        _, verdict = radial_carleson(mu)
        inner = RadialMeasure(
            atoms=mu.atoms + ((float(rng.uniform(0.0, 0.49)), float(rng.uniform(0.1, 5.0))),),
            pieces=mu.pieces + (RadialPiece(0.0, 0.5, float(rng.uniform(0.1, 5.0)), 0.0, 0.0),))
        assert radial_carleson(inner)[1] == verdict


def test_vertical_and_line_masses_nonnegative_nondecreasing():
    grid = np.logspace(-3, 2, 51)
    for i in range(N_CASES):
        rng = rng_for(51000 + i)
        for mass in (random_vertical_measure(rng).cumulative(grid),
                     random_line_measure(rng).box_mass(grid)):
            assert np.all(mass >= 0.0)
            assert np.all(np.diff(mass) >= 0.0)


# ---------------------------------------------------------------------------
# fourier


@HYP
@given(coeff_lists, st.integers(min_value=0, max_value=3))
def test_plancherel(coeffs, pad):
    n_max = (len(coeffs) - 1) // 2
    u = CoeffVector(n_max, np.array(coeffs))
    m = 2 * n_max + 1 + pad
    g = synthesize(u, m)
    lhs = float(np.mean(np.abs(g.samples) ** 2))
    rhs = l2_norm(u) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_rotation_equivariance():
    for i in range(N_CASES):
        rng = rng_for(12000 + i)
        u = random_coeff_vector(rng, int(rng.integers(1, 9)))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        ns = np.arange(-u.n_max, u.n_max + 1)
        rot = np.exp(1j * ns * theta)
        symbol = rng.standard_normal(ns.size)  # indexed by n + N
        left = multiplier(CoeffVector(u.n_max, u.coeffs * rot), symbol)
        right = CoeffVector(u.n_max, multiplier(u, symbol).coeffs * rot)
        assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-13 * (1 + np.max(np.abs(u.coeffs)))


# ---------------------------------------------------------------------------
# norms


def test_hmu_norm_axioms():
    mu_pool = [lebesgue_disk(), power_disk(1.0), atom_disk(0.5)]
    for i in range(N_CASES):
        rng = rng_for(18000 + i)
        mu = mu_pool[i % len(mu_pool)]
        u = random_coeff_vector(rng, 8)
        v = random_coeff_vector(rng, 8)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        assert hmu_norm(CoeffVector(8, lam * u.coeffs), mu) == pytest.approx(
            abs(lam) * hmu_norm(u, mu), rel=1e-10)
        assert hmu_norm(CoeffVector(8, u.coeffs + v.coeffs), mu) <= hmu_norm(u, mu) + hmu_norm(v, mu) + 1e-10


def test_w_sigma_identity_all_carleson_test_measures(carleson_measures):
    from carleson_lab.norms import analyze_w_sigma_errors

    for name, mu in carleson_measures.items():
        assert analyze_w_sigma_errors(mu, m=4096, n_max=64) < 1e-6, name


def test_poisson_sup_carleson_cofinite_power_family():
    for p in (-0.5, -0.25, 0.0, 0.5, 1.0, 2.0):
        mu = power_disk(p)
        _, carleson = radial_carleson(mu)
        assert math.isinf(poisson_sup(mu)) == (not carleson)


# ---------------------------------------------------------------------------
# sum norm


def test_weak_duality():
    from carleson_lab.fourier import GridFunction

    mu = lebesgue_disk()
    for i in range(N_CASES):
        rng = rng_for(24000 + i)
        u = random_coeff_vector(rng, int(rng.integers(1, 7)))
        cert = sum_norm(u, mu, m=32, tol=1e-3, max_iters=20_000)
        phi = GridFunction(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        assert dual_bound(u, phi, mu) <= cert.upper * (1.0 + 1e-3) + 1e-12


def test_sum_norm_axioms_within_tol():
    mu = lebesgue_disk()
    tol = 1e-3
    for i in range(N_CASES):
        rng = rng_for(27000 + i)
        u = random_coeff_vector(rng, 4)
        v = random_coeff_vector(rng, 4)
        lam = float(rng.uniform(0.2, 5.0))
        nu = sum_norm(u, mu, m=16, tol=tol).upper
        nlam = sum_norm(CoeffVector(4, lam * u.coeffs), mu, m=16, tol=tol).upper
        assert nlam == pytest.approx(lam * nu, rel=3.0 * tol)
        nv = sum_norm(v, mu, m=16, tol=tol).upper
        nsum = sum_norm(CoeffVector(4, u.coeffs + v.coeffs), mu, m=16, tol=tol)
        assert nsum.lower <= nu + nv + 2.0 * tol * (nu + nv)


def test_sum_norm_monotone_in_weight():
    base = lebesgue_disk()
    for i in range(N_CASES):
        rng = rng_for(30000 + i)
        u = random_coeff_vector(rng, 4)
        extra = RadialMeasure(
            atoms=((float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 2.0))),),
            pieces=base.pieces)
        small = sum_norm(u, base, m=16, tol=1e-3)
        big = sum_norm(u, extra, m=16, tol=1e-3)
        assert big.upper >= small.lower * (1.0 - 1e-3) - 1e-12


def test_oracle_equivalence_small_instances():
    from test_sumnorm import reference_oracle

    mu = lebesgue_disk()
    for i in range(N_CASES):
        rng = rng_for(33000 + i)
        n_max = int(rng.integers(1, 3))
        m = int(rng.integers(2 * n_max + 1, 17))
        u = random_coeff_vector(rng, n_max)
        cert = sum_norm(u, mu, m=m, tol=5e-5)
        ref = reference_oracle(u, mu, m)
        slack = 1e-6 * max(1.0, ref)
        assert cert.lower - slack <= ref <= cert.upper + slack


# ---------------------------------------------------------------------------
# harness


def test_ratio_scale_invariance():
    mu = lebesgue_disk()
    fast = dict(pair=adapted_pair(mu, 4), m=32, tol=1e-3, max_iters=20_000)
    for i in range(N_CASES):
        u = random_poly(42, i, 4)
        base = adapted_ineq_ratio(u, mu, **fast)
        lam = float(2.0 ** int(rng_for(36000 + i).integers(-3, 4)))
        assert adapted_ineq_ratio(CoeffVector(4, lam * u.coeffs), mu, **fast) == base
        assert adapted_ineq_ratio(CoeffVector(4, -u.coeffs), mu, **fast) == base


def test_embedding_sandwich_lower_side():
    mu = lebesgue_disk()
    tol = 1e-3
    for i in range(N_CASES):
        f = random_poly(42, i, 6, analytic=True)
        assert embedding_ratio(f, mu, m=32, tol=tol, max_iters=20_000) >= 1.0 - 10.0 * tol


def test_fejer_dichotomy_monotone_vs_bounded():
    n_list = [2, 8, 32, 128]
    div = fejer_experiment(lebesgue_disk(), n_list)  # sum of moments diverges
    vals = [r["projection_sq_norm"] for r in div]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert math.isinf(singular_integral(lebesgue_disk()))
    conv = fejer_experiment(power_disk(1.0), n_list)  # sum of moments = ln 2
    bound = 2.0 * math.pi * math.log(2.0)
    assert all(r["projection_sq_norm"] <= bound + 1e-10 for r in conv)


def test_corpus_max_is_monotone_statistic():
    mu = lebesgue_disk()
    a = corpus_scan(mu, 3, n_max=6, m=32, tol=1e-3)
    b = corpus_scan(mu, 6, n_max=6, m=32, tol=1e-3)
    assert b.max_ratio >= a.max_ratio
    assert b.ratios[:3] == a.ratios


# ---------------------------------------------------------------------------
# half-plane


def test_w_pi_odd_and_nonnegative():
    for i in range(N_CASES):
        rng = rng_for(39000 + i)
        pi = random_vertical_measure(rng)
        x = float(rng.uniform(0.01, 50.0))
        wp = w_pi(pi, x)
        assert wp.real == 0.0
        assert wp.imag >= 0.0
        assert w_pi(pi, -x) == -wp


def test_garnett_cofinite():
    for i in range(N_CASES):
        nu = random_line_measure(rng_for(42000 + i))
        psup, bsup = garnett_check(nu)
        assert math.isinf(psup) == math.isinf(bsup)


def test_b2h_disjoint_support_additivity():
    pi = lebesgue_halfplane()
    for i in range(N_CASES):
        rng = rng_for(45000 + i)
        vals = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        cut = int(rng.integers(1, 16))
        lo = np.where(np.arange(17) < cut, vals, 0.0)
        hi = np.where(np.arange(17) >= cut, vals, 0.0)
        g1 = BandSignal(4.0, 0.5, lo)
        g2 = BandSignal(4.0, 0.5, hi)
        assert b2h_norm(BandSignal(4.0, 0.5, lo + hi), pi) ** 2 == pytest.approx(
            b2h_norm(g1, pi) ** 2 + b2h_norm(g2, pi) ** 2, rel=1e-10, abs=1e-12)


def test_b2h_matches_truncation_sup():
    # the norm is the supremum over height-truncated weights
    pi = lebesgue_halfplane()
    rng = rng_for(48000)
    vals = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    g = BandSignal(4.0, 0.5, vals)
    full = b2h_norm(g, pi) ** 2
    sliced = [b2h_norm(g, pi.truncate(L)) ** 2 for L in np.logspace(-2, 6, 17)]
    assert max(sliced) <= full * (1.0 + 1e-12)
    assert max(sliced) == pytest.approx(full, rel=1e-3)


def test_stability_ratio_within_constant_sample():
    pi = lebesgue_halfplane()
    for big_r in (1.0, 10.0):
        bound = stability_constant(pi.truncate(big_r))
        for i in range(10):
            f, g, h = _admissible_instance(200 + i)
            assert stability_ratio(f, g, h, pi, big_r) <= bound + 1e-6
