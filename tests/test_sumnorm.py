"""Unit tests for the certified sum-space norm solver, including two
independent oracles on small instances: a cvxpy second-order-cone program
(skipped where cvxpy is missing) and an SLSQP solve of the smooth dual;
`reference_oracle` picks the first where it can run, else the second."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from carleson_lab import fourier, measures, sumnorm
from carleson_lab.fourier import CoeffVector, GridFunction, adapted_pair, analyze, multiplier, synthesize
from carleson_lab.harness import random_poly
from carleson_lab.measures import RadialMeasure, atom_disk, lebesgue_disk, log_moment_array, moment_array, power_disk
from carleson_lab.norms import hmu_norm, l1_norm, l2_norm
from carleson_lab.sumnorm import dual_bound, sum_norm

from conftest import basis_vector, random_coeff_vector, rng_for, zero_vector


def socp_oracle(u: CoeffVector, mu: RadialMeasure, m: int) -> float:
    """Independent small-instance solve of the discretized sum-space norm;
    skips the calling test where cvxpy is not installed."""
    cp = pytest.importorskip("cvxpy")
    n_max = u.n_max
    ns = np.arange(-n_max, n_max + 1)
    sig = moment_array(mu, n_max)
    d = np.sqrt(2.0 * math.pi * sig[np.abs(ns)])
    theta = 2.0 * math.pi * np.arange(m) / m
    S = np.exp(1j * np.outer(theta, ns))
    ug = synthesize(u, m).samples
    f = cp.Variable(2 * n_max + 1, complex=True)
    obj = cp.norm(cp.multiply(d, f), 2) + cp.norm1(ug - S @ f) / m
    prob = cp.Problem(cp.Minimize(obj))
    prob.solve(solver=cp.CLARABEL)
    return float(prob.value)


def slsqp_dual_oracle(u: CoeffVector, mu: RadialMeasure, m: int) -> float:
    """Independent small-instance solve of the smooth dual of the
    discretized sum-space norm,

        max Re<u, psi>/m  subject to  |psi_k| <= 1  and  ||D^-1 S* psi / m|| <= 1,

    by SLSQP over the real and imaginary parts of psi, with dense synthesis
    matrices instead of FFTs."""
    n_max = u.n_max
    ns = np.arange(-n_max, n_max + 1)
    d = np.sqrt(2.0 * math.pi * moment_array(mu, n_max)[np.abs(ns)])
    theta = 2.0 * math.pi * np.arange(m) / m
    S = np.exp(1j * np.outer(theta, ns))
    ug = S @ u.coeffs
    A = S.conj().T / (m * d[:, None])  # psi -> D^-1 psi_hat
    grad = -np.concatenate([ug.real, ug.imag]) / m

    def psi(x):
        return x[:m] + 1j * x[m:]

    def weighted(x):
        w = A @ psi(x)
        g = A.conj().T @ w
        return 1.0 - float(np.vdot(w, w).real), -2.0 * np.concatenate([g.real, g.imag])

    cons = [
        {"type": "ineq", "fun": lambda x: 1.0 - x[:m] ** 2 - x[m:] ** 2,
         "jac": lambda x: -2.0 * np.hstack([np.diag(x[:m]), np.diag(x[m:])])},
        {"type": "ineq", "fun": lambda x: weighted(x)[0], "jac": lambda x: weighted(x)[1]},
    ]
    res = minimize(lambda x: float(grad @ x), np.zeros(2 * m), jac=lambda x: grad,
                   constraints=cons, method="SLSQP", options={"ftol": 1e-14, "maxiter": 1000})
    # SLSQP ends in exit mode 8 ("positive directional derivative for
    # linesearch") where it stalls at ftol 1e-14, up to ~1e-8 outside
    # |psi_k| <= 1; scaling psi back into both constraints makes the returned
    # value a weak-duality lower bound either way
    assert res.success or res.status == 8, res.message
    p = psi(res.x)
    p = p / np.maximum(1.0, np.abs(p))
    p = p / max(1.0, float(np.linalg.norm(A @ p)))
    return float(np.vdot(ug, p).real) / m


def reference_oracle(u: CoeffVector, mu: RadialMeasure, m: int) -> float:
    """socp_oracle where cvxpy is installed, else slsqp_dual_oracle."""
    try:
        import cvxpy  # noqa: F401
    except ImportError:
        return slsqp_dual_oracle(u, mu, m)
    return socp_oracle(u, mu, m)


def test_zero_input(lebesgue):
    cert = sum_norm(zero_vector(3), lebesgue, m=8)
    assert cert.upper == 0.0 and cert.lower == 0.0 and cert.converged


def test_constant_has_norm_one(lebesgue):
    # for e_0 the L^1 route gives 1 and the matching dual witness is psi = 1
    cert = sum_norm(basis_vector(0), lebesgue, m=16, tol=1e-6)
    assert cert.converged
    assert cert.lower <= 1.0 + 1e-9 <= cert.upper + 1e-6
    assert cert.upper == pytest.approx(1.0, abs=1e-5)


def test_interval_is_ordered_and_witnessed(lebesgue):
    rng = rng_for(20)
    u = random_coeff_vector(rng, 8)
    cert = sum_norm(u, lebesgue, m=64, tol=1e-4)
    assert cert.lower <= cert.upper
    assert cert.gap == pytest.approx(cert.upper - cert.lower)
    # witness decomposition reproduces the certified upper bound
    f, g = cert.witness.f, cert.witness.g
    val = hmu_norm(f, lebesgue) + float(np.mean(np.abs(g.samples)))
    assert val == pytest.approx(cert.upper, rel=1e-9)
    assert np.max(np.abs(synthesize(f, 64).samples + g.samples - synthesize(u, 64).samples)) < 1e-10
    # dual witness is feasible for both constraints
    psi = cert.dual_witness
    assert np.max(np.abs(psi.samples)) <= 1.0 + 1e-9
    d = np.sqrt(2.0 * math.pi * moment_array(lebesgue, 8)[np.abs(np.arange(-8, 9))])
    assert np.linalg.norm(analyze(psi, 8).coeffs / d) <= 1.0 + 1e-9


def test_oracle_brackets_certificate(lebesgue):
    for i in range(6):
        rng = rng_for(100 + i)
        n_max = int(rng.integers(1, 3))
        m = int(rng.integers(2 * n_max + 1, 17))
        u = random_coeff_vector(rng, n_max)
        cert = sum_norm(u, lebesgue, m=m, tol=5e-5)
        ref = socp_oracle(u, lebesgue, m)
        # slack covers the interior-point oracle's own convergence tolerance
        slack = 1e-6 * max(1.0, ref)
        assert cert.lower - slack <= ref <= cert.upper + slack


def test_scipy_oracle_brackets_certificate(lebesgue):
    # the instances of test_oracle_brackets_certificate, against the dual oracle
    for i in range(6):
        rng = rng_for(100 + i)
        n_max = int(rng.integers(1, 3))
        m = int(rng.integers(2 * n_max + 1, 17))
        u = random_coeff_vector(rng, n_max)
        cert = sum_norm(u, lebesgue, m=m, tol=5e-5)
        ref = slsqp_dual_oracle(u, lebesgue, m)
        assert cert.lower - 1e-6 <= ref <= cert.upper + 1e-6


def recheck(u, mu, tol, cert):
    """The certificate recomputed from outside the solver: the witness's
    hmu_norm(f) + l1_norm(g) is the upper bound, dual_bound of the dual
    witness the lower one, and the gap is within tol."""
    assert cert.converged
    assert cert.gap <= tol * cert.upper
    upper = hmu_norm(cert.witness.f, mu) + l1_norm(cert.witness.g)
    lower = dual_bound(u, cert.dual_witness, mu)
    assert cert.upper == pytest.approx(upper, rel=1e-9)
    assert cert.lower == pytest.approx(lower, rel=1e-9)
    assert lower <= upper * (1.0 + 1e-12)
    m = cert.witness.g.m
    resid = synthesize(cert.witness.f, m).samples + cert.witness.g.samples - synthesize(u, m).samples
    assert np.max(np.abs(resid)) < 1e-10


def test_atom_09_cli_shape_converges(monkeypatch):
    # atom r = 0.9 at the CLI defaults: the balanced row alone stops short of
    # tol at 40 000 iterations here; with the small-penalty rows a few
    # thousand certify it.  The lag signal fires on these inputs too, and its
    # window must cost no iterations against the same solve without it
    mu = atom_disk(0.9)
    for seed in (1, 2, 3):
        u = random_poly(seed, 3000, 128)
        cert = sum_norm(u, mu, m=512, tol=1e-5, max_iters=40_000)
        assert sumnorm._JOIN_AFTER < cert.iterations <= 40_000
        recheck(u, mu, 1e-5, cert)
        with monkeypatch.context() as mp:
            mp.setattr(sumnorm, "_EARLY_CHECKS", 0)  # lag-triggered rows leave as they join
            assert cert.iterations <= sum_norm(u, mu, m=512, tol=1e-5, max_iters=40_000).iterations


def test_scipy_oracle_brackets_multi_row_certificate():
    # (1 dr on [0, 1/2)): sigma_n falls like 4^-n, so at tol 1e-8 the solve
    # runs past the point where the small-penalty rows join
    mu = RadialMeasure(pieces=((0.0, 0.5, 1.0, 0.0, 0.0),))
    u = random_poly(0, 7, 8)
    cert = sum_norm(u, mu, m=32, tol=1e-8)
    assert cert.iterations > sumnorm._JOIN_AFTER
    recheck(u, mu, 1e-8, cert)
    ref = slsqp_dual_oracle(u, mu, 32)
    assert cert.lower - 1e-6 <= ref <= cert.upper + 1e-9


def test_certificate_ordered_at_exact_optimum(lebesgue):
    """Inputs whose optimum the solver reaches exactly: the weak-duality value
    of the dual witness can land an ulp above the upper bound.  The
    certificate stays ordered and its witness still recomputes to lower."""
    cases = [(random_poly(1452041910, i, n), lebesgue, m, 5e-5)
             for i, n, m in ((5, 1, 3), (8, 1, 12), (26, 1, 10), (29, 1, 13))]
    mu = power_disk(1.0)
    pair = adapted_pair(mu, 64)
    for i in (4, 5):
        u = random_poly(7, i, 64)
        v = multiplier(CoeffVector(64, u.coeffs / l2_norm(u)), pair.a)
        cases += [(v, mu, 512, 1e-3), (multiplier(v, pair.b), mu, 512, 1e-3)]
    for u, mu, m, tol in cases:
        cert = sum_norm(u, mu, m=m, tol=tol)
        assert cert.converged
        assert cert.lower <= cert.upper
        assert dual_bound(u, cert.dual_witness, mu) == pytest.approx(cert.lower, rel=1e-9)


def assert_exact_split(u, mu, m, tol, cert, weighted):
    """An iteration-0 result hands back the split itself: f = u, g = 0
    (weighted) or f = 0, g = u on the grid, upper that split's norm bit
    for bit and lower what dual_bound reads for the dual witness."""
    assert cert.iterations == 0
    u_grid = synthesize(u, m)
    if weighted:
        assert np.array_equal(cert.witness.f.coeffs, u.coeffs)
        assert not np.any(cert.witness.g.samples)
        assert cert.upper == hmu_norm(u, mu)
    else:
        assert not np.any(cert.witness.f.coeffs)
        assert np.array_equal(cert.witness.g.samples, u_grid.samples)
        assert cert.upper == l1_norm(u_grid)
    assert dual_bound(u, cert.dual_witness, mu) == pytest.approx(cert.lower, rel=1e-12)
    recheck(u, mu, tol, cert)


def test_l1_seed_certifies_at_iteration_0(lebesgue):
    # sign(u) certifies f = 0: both adapted-pair vectors of (1-r)^{-1/2} dr on
    # [0, 0.999) at the corpus settings, and tiny Lebesgue shapes
    mu = RadialMeasure(pieces=((0.0, 0.999, 1.0, -0.5, 0.0),))
    pair = adapted_pair(mu, 64)
    cases = []
    for s in (0, 1, 2):
        u = random_poly(s, 0, 64)
        v = multiplier(CoeffVector(64, u.coeffs / l2_norm(u)), pair.a)
        cases += [(v, mu, 512, 1e-3), (multiplier(v, pair.b), mu, 512, 1e-3)]
    for i in range(6):
        rng = rng_for(100 + i)
        n_max = int(rng.integers(1, 3))
        m = int(rng.integers(2 * n_max + 1, 17))
        cases.append((random_coeff_vector(rng, n_max), lebesgue, m, 5e-5))
    for u, mu, m, tol in cases:
        assert_exact_split(u, mu, m, tol, sum_norm(u, mu, m=m, tol=tol), weighted=False)


def test_weighted_seed_certifies_at_iteration_0():
    # D^2 u/||D u|| certifies f = u on the power_disk(1.0) vectors of
    # test_certificate_ordered_at_exact_optimum
    mu = power_disk(1.0)
    pair = adapted_pair(mu, 64)
    for i in (4, 5):
        u = random_poly(7, i, 64)
        v = multiplier(CoeffVector(64, u.coeffs / l2_norm(u)), pair.a)
        for x in (v, multiplier(v, pair.b)):
            assert_exact_split(x, mu, 512, 1e-3, sum_norm(x, mu, m=512, tol=1e-3), weighted=True)


def test_iteration_0_makes_at_most_two_ffts(monkeypatch):
    # a certified split scores one dual candidate and synthesizes no witness:
    # besides the synthesis of u, at most one transform to the grid and one
    # back, counted among the numpy transforms that sumnorm and fourier call
    # through their own namespaces
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    fft = SimpleNamespace(fft=counted(np.fft.fft), ifft=counted(np.fft.ifft))
    for module in (sumnorm, fourier):
        monkeypatch.setattr(module, "np", SimpleNamespace(**{**vars(np), "fft": fft}))
    for mu, (s, i), want in ((RadialMeasure(pieces=((0.0, 0.999, 1.0, -0.5, 0.0),)), (0, 0), ["ifft", "fft"]),
                             (power_disk(1.0), (7, 4), ["ifft", "ifft", "fft"])):
        u = random_poly(s, i, 64)
        v = multiplier(CoeffVector(64, u.coeffs / l2_norm(u)), adapted_pair(mu, 64).a)
        calls.clear()
        assert sum_norm(v, mu, m=512, tol=1e-3).iterations == 0
        assert calls == want


def plan_cases() -> list:
    """(u, mu, m, tol): iteration-0 solves of both splits and looping ones,
    over measures with underflowing and zero moments and m from 2N+1 up."""
    mu_half = RadialMeasure(pieces=((0.0, 0.5, 1.0, 0.0, 0.0),))
    cases = [(random_coeff_vector(rng_for(100 + i), n), mu, m, 5e-5)
             for i, (n, m) in enumerate(((1, 3), (2, 5), (2, 16), (6, 32)))
             for mu in (lebesgue_disk(), mu_half, RadialMeasure(atoms=((0.0, 0.05),)))]
    for mu in (power_disk(1.0), atom_disk(0.5), RadialMeasure(pieces=((0.0, 0.999, 1.0, -0.5, 0.0),))):
        v = multiplier(CoeffVector(64, random_poly(7, 4, 64).coeffs), adapted_pair(mu, 64).a)
        cases += [(x, mu, m, 1e-3) for x in (v, multiplier(v, adapted_pair(mu, 64).b)) for m in (129, 512)]
    return cases


def cert_bytes(cert) -> tuple:
    return (cert.upper, cert.lower, cert.gap, cert.iterations, cert.converged,
            cert.witness.f.coeffs.tobytes(), cert.witness.g.samples.tobytes(),
            cert.dual_witness.samples.tobytes())


def test_plan_cold_and_warm_give_identical_certificates():
    cases = plan_cases()
    measures._plan.cache_clear()
    cold = [cert_bytes(sum_norm(u, mu, m=m, tol=tol, max_iters=100)) for u, mu, m, tol in cases]
    assert measures._plan.cache_info().hits > 0  # the cases share some (mu, N)
    warm = [cert_bytes(sum_norm(u, mu, m=m, tol=tol, max_iters=100)) for u, mu, m, tol in cases]
    assert warm == cold
    assert {c[3] == 0 for c in cold} == {True, False}


def test_plan_is_read_only_and_keyed_by_mu_and_n(lebesgue):
    # one plan per (mu, N) serves every grid; the slots n mod m live in fourier
    plan = measures._plan(lebesgue, 2)
    assert measures._plan(lebesgue, 2) is plan and len(plan) == 6
    for a in plan:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        plan[1][0] = 0.0
    u = random_coeff_vector(rng_for(7), 2)
    measures._plan.cache_clear()
    for m in (5, 8, 64):
        sum_norm(u, lebesgue, m=m, tol=5e-5, max_iters=50)
    assert measures._plan.cache_info().currsize == 1
    sig = moment_array(lebesgue, 2)[[2, 1, 0, 1, 2]]
    plan = measures._plan(lebesgue, 2)
    assert plan[0].tobytes() == sig.tobytes()
    assert plan[1].tobytes() == np.sqrt(2.0 * math.pi * sig).tobytes()
    assert plan[5].tobytes() == adapted_pair(lebesgue, 2).a.tobytes()
    s5, s8 = fourier._slots((5,), 5), fourier._slots((5,), 8)
    assert fourier._slots((5,), 5) is s5
    assert s5.tolist() == [3, 4, 0, 1, 2] and s8.tolist() == [6, 7, 0, 1, 2]
    assert fourier._slots((2, 5), 5).tolist() == [[3, 4, 0, 1, 2], [8, 9, 5, 6, 7]]
    for s in (s5, s8):
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 0


def test_one_plan_serves_adapted_pair_sum_norm_and_hmu_norm(monkeypatch):
    # the moments of one (mu, N) are computed once, by the plan's first miss
    calls = []
    monkeypatch.setattr(measures, "log_moment_array", lambda mu, n: calls.append(n) or log_moment_array(mu, n))
    mu, u = atom_disk(0.7), random_poly(3, 0, 8)
    measures._plan.cache_clear()
    adapted_pair(mu, 8)
    sum_norm(u, mu, m=32, max_iters=50)
    hmu_norm(u, mu)
    info = measures._plan.cache_info()
    assert (info.misses, info.hits, calls) == (1, 2, [8])


def test_subnormal_weights_free_their_modes():
    # sigma_n = 4^-n: 2*pi*sigma_n is subnormal for n in about 512..537 and
    # underflows above; those modes are free, and the solve does not warn
    mu = atom_disk(0.5)
    sig, d, d2, inv_d2, _, _ = measures._plan(mu, 600)
    free = d2 == 0.0
    assert (sig[free] > 0.0).any() and not d[free].any() and not inv_d2[free].any()
    assert np.all(np.isfinite(inv_d2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = sum_norm(random_poly(42, 0, 600), mu, m=2404, max_iters=100)
    assert 0.0 <= cert.lower <= cert.upper


def test_seed_matches_synthesize_and_hmu_norm(monkeypatch):
    # the seed's grid values of u are synthesize's (both call fourier._to_grid)
    # and its weighted upper is hmu_norm's arithmetic on the plan, bit for
    # bit, for every case
    grids = []

    def first_grid(psi, psi_hat, u_grid, d):
        grids.append(u_grid)
        return weak(psi, psi_hat, u_grid, d)

    weak = sumnorm._weak_duality
    monkeypatch.setattr(sumnorm, "_weak_duality", first_grid)
    splits = set()
    for u, mu, m, tol in plan_cases():
        grids.clear()
        cert = sum_norm(u, mu, m=m, tol=tol, max_iters=25)
        u_grid = synthesize(u, m).samples
        assert grids[0].tobytes() == u_grid.tobytes()
        if cert.iterations == 0:
            weighted = not np.any(cert.witness.g.samples)
            splits.add(weighted)
            if weighted:
                assert cert.upper == hmu_norm(u, mu)
            else:
                assert cert.witness.g.samples.tobytes() == u_grid.tobytes()
                assert cert.upper == l1_norm(GridFunction(u_grid))
    assert splits == {True, False}


def test_uncertified_seed_still_iterates(lebesgue):
    # neither seed is optimal here, so the loop runs and certifies the gap
    u = random_coeff_vector(rng_for(21), 6)
    cert = sum_norm(u, lebesgue, m=32, tol=1e-4)
    assert cert.iterations > 0
    recheck(u, lebesgue, 1e-4, cert)


def adapted_vectors(mu: RadialMeasure) -> list[CoeffVector]:
    """Both adapted-pair vectors of corpus samples 0-3 at seed 42 and n_max
    64, as corpus_scan builds them."""
    pair = adapted_pair(mu, 64)
    out = []
    for i in range(4):
        u = random_poly(42, i, 64)
        v = multiplier(CoeffVector(64, u.coeffs / l2_norm(u)), pair.a)
        out += [v, multiplier(v, pair.b)]
    return out


def test_truncated_singular_weight_converges_fast():
    # the criterion-5 settings on (1-r)^{-1/2} dr on [0, 0.9) and atom r = 0.9,
    # where row 0's dual iterate lags: alone it takes 225-375 and 100-175
    # iterations, and the rows that join on the lag signal certify within 75
    for mu in (RadialMeasure(pieces=((0.0, 0.9, 1.0, -0.5, 0.0),)), atom_disk(0.9)):
        for x in adapted_vectors(mu):
            cert = sum_norm(x, mu, m=512, tol=1e-3)
            assert cert.iterations <= 75
            recheck(x, mu, 1e-3, cert)


def test_lag_window_leaves_other_solves_bit_identical(monkeypatch):
    # on Lebesgue and (1-r) dr vectors of the same shape the lag signal never
    # fires, so switching the window off changes no certificate bit
    cases = [(x, mu) for mu in (lebesgue_disk(), power_disk(1.0)) for x in adapted_vectors(mu)]

    def certs():
        return [(c.upper, c.lower, c.iterations)
                for c in (sum_norm(x, mu, m=512, tol=1e-3) for x, mu in cases)]

    with_window = certs()
    monkeypatch.setattr(sumnorm, "_EARLY_CHECKS", 0)  # lag-triggered rows leave as they join
    assert certs() == with_window


def test_zero_moments_free_modes():
    # an atom of mass w at the origin has sigma_n = 0 for n != 0: those modes
    # cost nothing and the norm is min(sqrt(2*pi*w), 1) |u_0|
    u = random_poly(1, 0, 4)
    for w in (0.05, 1.0):
        cert = sum_norm(u, RadialMeasure(atoms=((0.0, w),)), m=16, tol=1e-4, max_iters=2000)
        exact = min(math.sqrt(2.0 * math.pi * w), 1.0) * abs(u.coeffs[4])
        assert cert.lower <= exact * (1.0 + 1e-12)
        assert cert.upper == pytest.approx(exact, rel=1e-4)


def test_dual_bound_keeps_constraint_at_zero_moments():
    # sigma_n = 0 for n != 0 (atom at the origin), so e_1 has sum-space norm 0;
    # the 0/0 terms of the dual weighted norm must not drop its constraint
    e1 = basis_vector(1)
    mu = RadialMeasure(atoms=((0.0, 1.0),))
    assert dual_bound(e1, synthesize(e1, 8), mu) == 0.0
    # a constant candidate has coefficients exactly 0 at n = +-1, where
    # sigma_n = 0: those 0/0 terms read as +inf, not as a dropped constraint
    u = CoeffVector(1, np.array([0.0, 1.0, 1.0]))
    assert dual_bound(u, GridFunction(np.ones(8)), mu) == 0.0
    assert sum_norm(e1, mu, m=8, tol=1e-4).upper == 0.0


def test_upper_bounded_by_single_routes(lebesgue):
    rng = rng_for(21)
    u = random_coeff_vector(rng, 6)
    cert = sum_norm(u, lebesgue, m=32, tol=1e-3)
    assert cert.upper <= hmu_norm(u, lebesgue) + 1e-12
    l1 = float(np.mean(np.abs(synthesize(u, 32).samples)))
    assert cert.upper <= l1 + 1e-12


def test_weak_duality_standalone(lebesgue):
    rng = rng_for(22)
    u = random_coeff_vector(rng, 4)
    cert = sum_norm(u, lebesgue, m=32, tol=1e-4)
    phi = GridFunction(rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert dual_bound(u, phi, lebesgue) <= cert.upper + 1e-4 * cert.upper
    assert dual_bound(u, GridFunction(np.zeros(32, dtype=complex)), lebesgue) == 0.0


def test_non_convergence_reported(lebesgue):
    rng = rng_for(23)
    u = random_coeff_vector(rng, 8)
    cert = sum_norm(u, lebesgue, m=64, tol=1e-12, max_iters=10)
    assert not cert.converged
    assert cert.lower <= cert.upper


def test_unconverged_lower_bound_reproduced_by_its_witness():
    # d_64 = 1.4e-19 is below rounding: the loop's own score of the witness
    # read 0.0172, while the witness, transformed again, certifies 0.0072
    u, mu = random_poly(0, 77, 64), atom_disk(0.5)
    cert = sum_norm(u, mu, m=512, tol=1e-3, max_iters=3000)
    assert not cert.converged
    assert cert.lower == pytest.approx(dual_bound(u, cert.dual_witness, mu), rel=1e-9)
    assert cert.lower <= cert.upper
    assert cert.gap == cert.upper - cert.lower


def test_monotone_in_weight(lebesgue):
    rng = rng_for(24)
    u = random_coeff_vector(rng, 4)
    big = RadialMeasure(atoms=((0.5, 1.0),), pieces=lebesgue.pieces)
    small_cert = sum_norm(u, lebesgue, m=32, tol=1e-4)
    big_cert = sum_norm(u, big, m=32, tol=1e-4)
    assert big_cert.upper >= small_cert.lower - 1e-6


def test_input_validation(lebesgue):
    u = basis_vector(4)
    for tol in (0.0, -1e-3, math.nan):  # NaN fails a positive condition
        with pytest.raises(ValueError, match="tol must be positive"):
            sum_norm(u, lebesgue, m=16, tol=tol)
    with pytest.raises(ValueError):
        sum_norm(u, lebesgue, m=4)
    with pytest.raises(ValueError):
        sum_norm(u, lebesgue, m=16, max_iters=0)


def test_to_dict(lebesgue):
    cert = sum_norm(basis_vector(0), lebesgue, m=8, tol=1e-4)
    doc = cert.to_dict()
    assert set(doc) == {"upper", "lower", "gap", "iterations", "converged"}
