"""Unit tests for the half-plane side: band signals, the W weight,
Garnett's criterion, the stability inequality."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from carleson_lab import halfplane
from carleson_lab.halfplane import (
    BandSignal,
    SpatialFunction,
    b2h_norm,
    const_bpi,
    garnett_check,
    stability_constant,
    stability_ratio,
    w_pi,
    w_pi_sup,
    w_pi_truncated_fourier_check,
)
from carleson_lab.measures import (
    INF,
    TWO,
    LineMeasure,
    LinePiece,
    VerticalMeasure,
    VerticalPiece,
    atom_halfplane,
    laplace_transform,
    lebesgue_halfplane,
    lebesgue_line,
)

from conftest import rng_for


def band(vals, xi_max=4.0, d_xi=0.5):
    return BandSignal(xi_max, d_xi, np.asarray(vals, dtype=complex))


def test_band_signal_validation():
    with pytest.raises(ValueError):
        BandSignal(4.0, 0.5, np.zeros(4))
    with pytest.raises(ValueError):
        BandSignal(1.0, 0.3, np.zeros(7))  # xi_max not a multiple of d_xi
    z = band(np.zeros(9), 2.0, 0.5)
    assert z.xis[0] == -2.0 and z.xis[-1] == 2.0


def test_spatial_function_validation():
    for x, values in ((np.linspace(0.0, 1.0, 4), np.zeros(5)), (np.zeros((2, 2)), np.zeros((2, 2))),
                      (np.zeros(1), np.zeros(1))):
        with pytest.raises(ValueError, match="matching 1-d"):
            SpatialFunction(x, values)


def test_band_signal_arithmetic_grid_guard():
    # stability_ratio compares f and g on one frequency grid
    f = band(np.ones(9), 2.0, 0.5)
    h = SpatialFunction(np.linspace(-4.0, 4.0, 64), np.zeros(64))
    with pytest.raises(ValueError, match="frequency grids do not match"):
        stability_ratio(f, band(np.zeros(17), 2.0, 0.25), h, lebesgue_halfplane(), 1.0)


def test_spatial_function_l1_and_fourier():
    xs = np.linspace(-10.0, 10.0, 4001)
    f = SpatialFunction(xs, np.exp(-math.pi * xs**2))
    assert f.l1() == pytest.approx(1.0, abs=1e-8)
    xis = np.array([0.0, 0.5, 1.0])
    got = f.fourier(xis)
    ref = np.exp(-math.pi * xis**2)  # Gaussian is its own transform
    assert np.max(np.abs(got - ref)) < 1e-8


def test_spatial_function_fourier_is_trapezoidal_at_the_ends():
    # h/2 at both end nodes: the transform at xi = 0 of a nonnegative
    # function is its trapezoidal l1 norm, 1 here (h at the ends read 1.1)
    f = SpatialFunction(np.linspace(0.0, 1.0, 11), np.ones(11))
    assert f.fourier([0.0])[0] == pytest.approx(1.0, rel=1e-15)
    assert f.fourier([0.0])[0].real == pytest.approx(f.l1(), rel=1e-15)


def test_w_pi_lebesgue_constant():
    pi = lebesgue_halfplane()
    assert w_pi(pi, 2.0) == pytest.approx(1j * math.pi / 2.0)
    assert w_pi(pi, -2.0) == pytest.approx(-1j * math.pi / 2.0)
    assert w_pi(pi, 0.0) == 0.0


def test_w_pi_atom_profile():
    pi = atom_halfplane(1.0)
    x = 1.0 / math.pi  # maximizer of pi*x/(1 + pi^2 x^2)
    assert w_pi(pi, x) == pytest.approx(0.5j, rel=1e-12)
    assert w_pi(pi, -x) == -w_pi(pi, x)


def kernel_ref(p, lo, hi):
    """int_lo^hi t^p/(1+t^2) dt by mpmath quadrature: the part above t = 1 is
    mapped to [1/hi, 1/lo] by t = 1/u, and each part over [l, h] in [0, 1]
    is taken in w = t^(p+1) (w = log t at p = -1), where the integrand
    1/(1 + w^(2/(p+1))) has no endpoint singularity."""
    def part(q, l, h):
        if l >= h:
            return mpmath.mpf(0)
        e = mpmath.mpf(q) + 1
        if e == 0:
            return mpmath.quad(lambda w: 1 / (1 + mpmath.exp(2 * w)), [mpmath.log(l), mpmath.log(h)])
        ends = sorted([mpmath.mpf(l) ** e, mpmath.mpf(h) ** e])
        return mpmath.quad(lambda w: 1 / (1 + w ** (2 / e)), ends) / abs(e)

    with mpmath.workdps(30):
        lo = mpmath.mpf(lo)
        hi = mpmath.inf if math.isinf(hi) else mpmath.mpf(hi)
        return part(p, lo, min(hi, 1)) + part(-p, 1 / max(hi, 1), 1 / max(lo, 1))


def w_ref(x, atoms, pieces):
    """V(x) = Im W(x): atoms exactly, each c*y^p dy piece on [a, b) as
    c*s^p*kernel_ref(p, a/s, b/s) with s = pi*|x| (substitute y = s*t)."""
    s = math.pi * abs(x)
    total = sum(w * s / (y * y + s * s) for y, w in atoms)
    for a, b, c, p in pieces:
        total += c * s**p * float(kernel_ref(p, a / s, b / s))
    return math.copysign(total, x)


W_PIECES = [(0.0, 3.0, 1.3, p) for p in (-0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)] \
    + [(0.4, 5.0, 0.7, p) for p in (-0.9, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)] \
    + [(0.0, INF, 1.0, p) for p in (-0.5, 0.0, 0.5)] + [(2.0, INF, 0.8, 0.9)] \
    + [(0.5, 4.0, 1.1, -1.0), (0.5, 4.0, 1.1, -2.5), (1.5, INF, 0.6, -1.5)]


@pytest.mark.parametrize("piece", W_PIECES, ids=[f"[{a},{b})p={p}" for a, b, _, p in W_PIECES])
def test_w_pi_matches_mpmath(piece):
    xs = np.logspace(-8, 8, 17)
    pi = VerticalMeasure(pieces=(piece,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = w_pi(pi, np.concatenate([xs, -xs, [0.0]]))
    assert np.all(w.real == 0.0)
    v = w.imag
    assert np.array_equal(v[17:34], -v[:17])  # odd
    assert v[34] == 0.0
    for x, got in zip(xs, v[:17]):
        ref = w_ref(x, (), (piece,))
        assert abs(got - ref) <= 1e-12 * abs(ref), (x, got, ref)


def test_w_pi_atoms_and_pieces_match_mpmath():
    atoms = ((0.3, 1.5), (7.0, 0.4))
    pieces = ((0.0, 2.0, 1.0, 0.5), (2.0, INF, 0.5, -0.5))
    pi = VerticalMeasure(atoms=atoms, pieces=pieces)
    for x in np.logspace(-8, 8, 17):
        ref = w_ref(x, atoms, pieces)
        assert abs(w_pi(pi, x).imag - ref) <= 1e-12 * ref
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert w_pi(pi, 0.0) == 0.0


def test_w_pi_power_touching_zero_tiny_x():
    # y^{1/2} dy on (0, 5): the sup of V is O(1) but at x -> 0 V ~ (pi x)^{1/2} pi/sqrt(2)
    pi = VerticalMeasure(pieces=(VerticalPiece(0.0, 5.0, 1.0, 0.5),))
    for x in (1e-8, 1e-7, 1e-6):
        ref = w_ref(x, (), ((0.0, 5.0, 1.0, 0.5),))
        assert abs(w_pi(pi, x).imag - ref) <= 1e-12 * ref


def test_w_pi_sup_values():
    assert w_pi_sup(lebesgue_halfplane()) == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert w_pi_sup(atom_halfplane(0.5)) == pytest.approx(1.0, rel=1e-12)
    bad = VerticalMeasure(pieces=(VerticalPiece(0.0, INF, 1.0, 1.0),))
    assert math.isinf(w_pi_sup(bad))


def test_kernel_calls_hyp2f1_only_inside_unit_interval(monkeypatch):
    # the kernel's primitive is 0 at t = 0, so its series (the 2F1 of
    # argument -t^2) sees no t = 0; one call per kernel takes the end points
    # of both parts strictly inside (0, 1) and, as its first and last
    # points, t = 1 once for each part; for dy on (0, 4) every grid point is
    # one end point, and p = 0 is the arctangent alone
    calls = []

    def counted(e, t):
        calls.append(np.asarray(t))
        return series(e, t)

    series = halfplane._primitive_sum
    monkeypatch.setattr(halfplane, "_primitive_sum", counted)
    xs = halfplane.default_x_grid()
    for pi, inner, primitives in ((lebesgue_halfplane(), 0, 0),
                                  (VerticalMeasure(pieces=(VerticalPiece(0.0, 4.0, 1.0, 0.5),)), xs.size, 1)):
        calls.clear()
        w_pi(pi, xs)
        assert len(calls) == primitives
        assert not any(np.any(t == 0.0) for t in calls)
        assert all(t[0] == 1.0 and t[-1] == 1.0 and not np.any(t[1:-1] == 1.0) for t in calls)
        assert sum(t.size - 2 for t in calls) == inner


@pytest.mark.parametrize("b", [0.05, 1.5])
def test_primitive_series_near_one_matches_mpmath(b):
    # 2F1(1, b; b+1; -t^2) = 2b t^-2b int_0^t u^(2b-1)/(1+u^2) du as t -> 1,
    # where the alternating series converges slowest
    t = np.concatenate([1.0 - np.logspace(-1, -15, 15), [1.0, 0.5, 1e-3]])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyp2f1(1, b, b + 1, -mpmath.mpf(v) ** 2)) for v in t])
    assert np.all(np.abs(2.0 * b * halfplane._primitive_sum(2.0 * b, t) - ref) <= 1e-15 * ref)


def test_sine_integral_matches_mpmath():
    # the power series below x = 2, the continued fraction from there on
    x = np.array([1e-6, 0.5, 1.0, 1.999, 2.0, 2.001, 3.5, 10.0, 39.99, 40.0, 201.0, 1608.0, 1e6])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.si(v)) for v in x])
    assert np.all(np.abs(halfplane._sine_integral(x) - ref) <= 3e-15 * ref)


def test_b2h_norm_atom_reference():
    pi = atom_halfplane(1.0)
    k = 8
    vals = np.ones(2 * k + 1, dtype=complex)
    g = BandSignal(2.0, 0.25, vals)
    lam = laplace_transform(pi, g.xis)
    ref = math.sqrt(np.trapezoid(lam, dx=0.25))
    assert b2h_norm(g, pi) == pytest.approx(ref, rel=1e-12)


def test_b2h_additive_disjoint_supports():
    pi = lebesgue_halfplane()
    rng = rng_for(31)
    vals = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    lo = np.where(np.arange(17) < 8, vals, 0.0)
    hi = np.where(np.arange(17) >= 9, vals, 0.0)
    g1, g2 = band(lo), band(hi)
    total = b2h_norm(band(lo + hi), pi) ** 2
    assert total == pytest.approx(b2h_norm(g1, pi) ** 2 + b2h_norm(g2, pi) ** 2, rel=1e-12)


def test_truncated_fourier_check_validation():
    with pytest.raises(ValueError):
        w_pi_truncated_fourier_check(lebesgue_halfplane(), 1.0, 0.5)


def test_truncated_fourier_check_small_error():
    err = w_pi_truncated_fourier_check(atom_halfplane(1.0), 0.1, 10.0, n_x=2048)
    assert err < 5e-3


def test_garnett_lebesgue():
    psup, bsup = garnett_check(lebesgue_line())
    assert psup == pytest.approx(math.pi, rel=1e-10)
    assert bsup == pytest.approx(1.0, rel=1e-12)


def test_garnett_atom_at_origin_infinite():
    assert garnett_check(LineMeasure(atoms=((0.0, 1.0),))) == (INF, INF)


def test_garnett_unbounded_growth_infinite():
    nu = LineMeasure(pieces=(LinePiece(-INF, INF, 1.0, 1.0),))
    assert garnett_check(nu) == (INF, INF)


GARNETT_PIECES = [(-2.0, 3.0, 1.0, 0.5), (-1.0, 1.0, 0.7, 0.0), (-4.0, 0.5, 1.2, 2.0), (0.5, 2.0, 1.0, -0.5),
                  (-3.0, -0.2, 0.9, 1.0), (1.0, 2.0, 1.0, -2.0), (-INF, -1.0, 1.0, -0.5), (2.0, INF, 0.6, 0.0),
                  (-INF, 0.0, 1.0, 0.0), (0.3, INF, 1.0, -1.5)]


@pytest.mark.parametrize("piece", GARNETT_PIECES, ids=[f"[{a},{b})p={p}" for a, b, _, p in GARNETT_PIECES])
def test_garnett_matches_mpmath(piece):
    from carleson_lab.halfplane import GARNETT_GRID

    a, b, c, p = piece
    psup, _ = garnett_check(LineMeasure(atoms=((1.5, 0.3),), pieces=(piece,)))
    refs = []
    for y in GARNETT_GRID:
        val = 0.3 * y / (1.5**2 + y * y)
        for lo, hi in ((max(a, 0.0), max(b, 0.0)), (max(-b, 0.0), max(-a, 0.0))):
            if lo < hi:
                val += c * y**p * float(kernel_ref(p, lo / y, hi / y))
        refs.append(val)
    assert psup == pytest.approx(max(refs), rel=1e-12)


def test_garnett_offaxis_atom_finite():
    psup, bsup = garnett_check(LineMeasure(atoms=((1.0, 1.0),)))
    assert psup == pytest.approx(0.5, rel=1e-6)
    assert bsup == pytest.approx(0.5, rel=1e-12)


def _admissible_instance(index, xi_max=8.0, d_xi=0.25, x_half=16.0, n_x=1024):
    rng = rng_for(1000 + index)
    k = int(round(xi_max / d_xi))
    ks = np.arange(-k, k + 1)
    vals = np.zeros(2 * k + 1, dtype=complex)
    pos = ks >= 0
    decay = (1.0 + np.abs(ks[pos] * d_xi)) ** -2.0
    vals[pos] = decay * (rng.standard_normal(pos.sum()) + 1j * rng.standard_normal(pos.sum()))
    f = BandSignal(xi_max, d_xi, vals)
    xs = np.linspace(-x_half, x_half, n_x)
    env = np.exp(-0.5 * (xs / rng.uniform(0.5, 3.0)) ** 2)
    h = SpatialFunction(xs, env * rng.standard_normal() * np.exp(2j * math.pi * rng.uniform(-1, 1) * xs))
    g = BandSignal(xi_max, d_xi, f.values - h.fourier(f.xis))
    return f, g, h


def test_stability_ratio_below_explicit_constant():
    pi = lebesgue_halfplane()
    big_r = 5.0
    bound = stability_constant(pi.truncate(big_r))
    for i in range(3):
        f, g, h = _admissible_instance(i)
        assert stability_ratio(f, g, h, pi, big_r) <= bound + 1e-6


def test_stability_ratio_rejects_negative_frequencies():
    pi = lebesgue_halfplane()
    f, g, h = _admissible_instance(0)
    bad_vals = f.values.copy()
    bad_vals[0] = 1.0  # inject content at xi = -xi_max
    bad = BandSignal(f.xi_max, f.d_xi, bad_vals)
    with pytest.raises(ValueError, match="negative-frequency"):
        stability_ratio(bad, g, h, pi, 5.0)


def test_stability_ratio_rejects_sinc_counterexample():
    # a band signal supported in [-1/2, 1/2] is not admissible even though
    # its spatial profile is real-analytic
    pi = lebesgue_halfplane()
    k = 32
    d_xi = 1.0 / 32.0
    ks = np.arange(-k, k + 1)
    vals = np.where(np.abs(ks * d_xi) <= 0.5, 1.0, 0.0).astype(complex)
    f = BandSignal(1.0, d_xi, vals)
    g = BandSignal(1.0, d_xi, np.zeros_like(vals))
    xs = np.linspace(-8.0, 8.0, 512)
    h = SpatialFunction(xs, np.sinc(xs))
    with pytest.raises(ValueError):
        stability_ratio(f, g, h, pi, 1.0)


def test_stability_ratio_rejects_broken_additivity():
    pi = lebesgue_halfplane()
    f, g, h = _admissible_instance(1)
    g_bad = BandSignal(g.xi_max, g.d_xi, g.values + 0.1)
    with pytest.raises(ValueError, match="f != g"):
        stability_ratio(f, g_bad, h, pi, 5.0)


def test_stability_ratio_rejects_zero_f():
    pi = lebesgue_halfplane()
    f = band(np.zeros(9), 2.0, 0.5)
    xs = np.linspace(-4.0, 4.0, 64)
    h = SpatialFunction(xs, np.zeros(64))
    with pytest.raises(ValueError, match="nonzero"):
        stability_ratio(f, f, h, pi, 1.0)


def test_stability_constant_value():
    assert stability_constant(lebesgue_halfplane()) == pytest.approx(
        2.0 * math.sqrt(2.0 + math.pi / 2.0), abs=1e-10)


def test_const_bpi():
    pi = lebesgue_halfplane()
    # C_b + sup|W| + 1 = 1 + pi/2 + 1
    assert const_bpi(pi) == pytest.approx(math.sqrt(2.0 + math.pi / 2.0), abs=1e-10)
    bad = VerticalMeasure(pieces=(VerticalPiece(0.0, INF, 1.0, 1.0),))
    assert math.isinf(const_bpi(bad))


def test_laplace_two_convention_used_by_truncation_check():
    pi = atom_halfplane(1.0)
    assert laplace_transform(pi, 1.0, TWO) == pytest.approx(math.exp(-2.0), rel=1e-12)
