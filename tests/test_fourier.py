"""Unit tests for the spectral layer: transforms, multipliers, adapted pairs."""

import math
import warnings

import numpy as np
import pytest

from carleson_lab.fourier import (
    CoeffVector,
    GridFunction,
    _to_coeffs,
    _to_grid,
    adapted_pair,
    analytic_projection,
    analyze,
    multiplier,
    synthesize,
)
from carleson_lab.measures import (RadialMeasure, RadialPiece, _plan, atom_disk, lebesgue_disk, log_moment_array,
                                   moment_array)

from conftest import basis_vector, random_coeff_vector, rng_for


def _synthesize_direct(u: CoeffVector, m: int) -> GridFunction:
    """Direct-summation oracle for the fast transform."""
    theta = 2.0 * math.pi * np.arange(m) / m
    vals = np.zeros(m, dtype=complex)
    for n, c in zip(np.arange(-u.n_max, u.n_max + 1), u.coeffs):
        vals += c * np.exp(1j * n * theta)
    return GridFunction(vals)


def test_coeff_vector_basics():
    u = CoeffVector(2, np.array([1j, 0.0, 2.0, -1.0, 0.0]))
    assert np.arange(-u.n_max, u.n_max + 1).tolist() == [-2, -1, 0, 1, 2]
    assert u.coeffs.dtype == complex and u.coeffs[-2 + u.n_max] == 1j  # index n + N
    with pytest.raises(ValueError):
        CoeffVector(2, np.zeros(4))


def test_grid_function_validation():
    for samples in (np.zeros((2, 4)), np.zeros(0)):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            GridFunction(samples)


def test_is_analytic():
    assert basis_vector(3).is_analytic()
    assert not basis_vector(-1).is_analytic()
    assert basis_vector(0).is_analytic()


def test_round_trip():
    rng = rng_for(0)
    u = random_coeff_vector(rng, 16)
    for m in (33, 64, 100):
        v = analyze(synthesize(u, m), 16)
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-12


def test_synthesize_matches_direct_oracle():
    rng = rng_for(1)
    for m in (17, 32, 50, 128):
        u = random_coeff_vector(rng, 8)
        fast = synthesize(u, m).samples
        slow = _synthesize_direct(u, m).samples
        assert np.max(np.abs(fast - slow)) < 1e-12
        spread = np.zeros(m, dtype=complex)  # per-mode scatter: the same bits
        for n, c in zip(np.arange(-8, 9), u.coeffs):
            spread[n % m] += c
        assert np.array_equal(fast, np.fft.ifft(spread, norm="forward"))
        if m & (m - 1) == 0:  # scaling by a power of two is exact: why the goldens hold
            assert np.array_equal(fast, np.fft.ifft(spread) * m)


def test_batched_rows_match_the_public_transforms():
    # the solver's (rows, .) transforms give each row what synthesize and
    # analyze give it alone, bit for bit, and the dense sum to rounding
    n_max = 8
    rng = rng_for(2)
    rows = [random_coeff_vector(rng, n_max) for _ in range(3)]
    c = np.stack([u.coeffs for u in rows])
    for m in (2 * n_max + 1, 50, 128):
        grid = _to_grid(c, m)
        coeffs = _to_coeffs(grid, n_max)
        assert grid.shape == (3, m) and coeffs.shape == c.shape
        for k, u in enumerate(rows):
            g = synthesize(u, m)
            assert grid[k].tobytes() == g.samples.tobytes()
            assert coeffs[k].tobytes() == analyze(g, n_max).coeffs.tobytes()
            assert np.max(np.abs(grid[k] - _synthesize_direct(u, m).samples)) < 1e-12


def test_size_guards():
    u = basis_vector(8)
    with pytest.raises(ValueError):
        synthesize(u, 16)  # need m >= 17
    g = synthesize(u, 17)
    with pytest.raises(ValueError):
        analyze(g, 9)


def test_hilbert_and_projection():
    u = CoeffVector(1, np.array([2.0, 3.0, 4.0]))
    p = analytic_projection(u)
    assert p.coeffs.tolist() == [0.0, 3.0, 4.0]


def test_multiplier_symbol_forms():
    # the symbol is an array indexed like the coefficients, by n + N
    u = CoeffVector(1, np.array([1.0, 0.0, 1.0]))
    v = multiplier(u, np.array([2.0, 0.0, 3.0]))
    assert v.coeffs.tolist() == [2.0, 0.0, 3.0]
    v2 = multiplier(u, np.array([1j, 5.0, -1.0]))
    assert v2.coeffs.tolist() == [1j, 0.0, -1.0]
    with pytest.raises(ValueError):
        multiplier(u, np.array([1.0]))  # not aligned with u.coeffs


def test_amu_symbol_lebesgue():
    # A_mu, the moment-normalizing symbol (2*pi*sigma_|n|)^{-1/2}, is the
    # default pair's a; index n + n_max
    a = adapted_pair(lebesgue_disk(), 2).a
    # sigma_1 = 1/4, so a(1) = sqrt(2/pi)
    assert a[1 + 2] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert a[-1 + 2] == a[1 + 2]
    assert a[0 + 2] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)


def test_amu_symbol_strong_decay_stays_finite():
    # sigma_700 = 4^-700 underflows to 0; a comes from the log moments
    a = adapted_pair(atom_disk(0.5), 700).a
    assert np.all(np.isfinite(a)) and np.all(a > 0.0)
    assert a[700 + 700] == pytest.approx(2.0**700 / math.sqrt(2.0 * math.pi), rel=1e-12)


def test_moment_plan_cached_read_only():
    # one cached plan per (measure, n_max), shared by equal measures and
    # protected against writes by its callers; moment_array is a fresh exp
    pieces = ((0.2, 0.9, 1.5, 0.5, 1.0),)
    mu = RadialMeasure(atoms=((0.3, 2.0),), pieces=pieces)
    plan = _plan(mu, 40)
    assert _plan(mu, 40) is plan
    assert _plan(RadialMeasure(atoms=((0.3, 2.0),), pieces=pieces), 40) is plan
    for a in plan:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        plan[0][0] = 0.0
    sig = moment_array(mu, 40)
    assert sig.flags.writeable and moment_array(mu, 40) is not sig
    assert np.array_equal(sig, np.exp(log_moment_array(mu, 40)))
    assert plan[0].tobytes() == sig[np.abs(np.arange(-40, 41))].tobytes()


def test_adapted_pair_default():
    pair = adapted_pair(lebesgue_disk(), 4)
    # sigma_2 = 1/6, so a(2) = sqrt(3/pi); index n + 4
    assert pair.a[2 + 4] == pytest.approx(math.sqrt(3.0 / math.pi), rel=1e-12)
    assert pair.b[2 + 4] == 1.0 and pair.b[-2 + 4] == -1.0 and pair.b[0 + 4] == 0.0


def test_adapted_pair_interior_measure():
    # measures supported away from the boundary still have positive moments
    pair = adapted_pair(RadialMeasure(pieces=(RadialPiece(0.0, 0.9, 1.0, -0.5),)), 16)
    assert pair.a.shape == (33,) and np.all(np.isfinite(pair.a))


def test_adapted_pair_rejects_degenerate_measure():
    with pytest.raises(ValueError):
        adapted_pair(RadialMeasure(atoms=((0.0, 1.0),)), 2)


def test_adapted_pair_past_the_double_range_raises_value_error():
    # a(n) = exp(-log(2*pi*sigma_n)/2) of (1-r)^{-1/2} dr on [0, 0.9) passes
    # 1e308 near n = 6700: the exp reads +inf there without a warning
    mu = RadialMeasure(pieces=((0.0, 0.9, 1.0, -0.5, 0.0),))
    assert np.all(np.isfinite(adapted_pair(mu, 3072).a))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"n_max=7000: .* at n=6\d{3}$"):
            adapted_pair(mu, 7000)
