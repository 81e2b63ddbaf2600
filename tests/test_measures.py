"""Unit tests for measures: moments, Carleson criteria, singular integrals,
Laplace transforms, serialization."""

import itertools
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from carleson_lab.measures import (
    DELTA_GRID,
    FOUR_PI,
    INF,
    TWO,
    LineMeasure,
    LinePiece,
    RadialMeasure,
    RadialPiece,
    VerticalMeasure,
    VerticalPiece,
    atom_disk,
    atom_halfplane,
    laplace_transform,
    lebesgue_disk,
    lebesgue_halfplane,
    lebesgue_line,
    log_moment_array,
    moment_array,
    power_disk,
    radial_carleson,
    singular_integral,
    vertical_carleson,
)
from carleson_lab.measures import _jacobi_rule, _log_beta_segment, _power_exp_integral


# ---------------------------------------------------------------------------
# construction validation


def test_radial_piece_validation():
    with pytest.raises(ValueError):
        RadialPiece(0.5, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        RadialPiece(0.0, 1.1, 1.0, 0.0)
    with pytest.raises(ValueError):
        RadialPiece(0.0, 1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        RadialPiece(0.0, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        RadialPiece(0.0, 1.0, 1.0, 0.0, -1.0)


def test_radial_measure_validation():
    with pytest.raises(ValueError):
        RadialMeasure()
    with pytest.raises(ValueError):
        RadialMeasure(atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        RadialMeasure(atoms=((0.5, 0.0),))


def test_vertical_piece_validation():
    with pytest.raises(ValueError):
        VerticalPiece(1.0, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        VerticalPiece(0.0, 1.0, 1.0, -1.5)
    # off-origin pieces may be as singular as they like
    VerticalPiece(0.5, 1.0, 1.0, -3.0)


def test_line_piece_validation():
    with pytest.raises(ValueError):
        LinePiece(-1.0, 1.0, 1.0, -1.5)
    LinePiece(0.5, 1.0, 1.0, -1.5)  # off-origin is fine


@pytest.mark.parametrize("piece, fields", [(RadialPiece, (0.2, 0.8, 1.0, 0.5, 1.0)),
                                           (VerticalPiece, (0.5, 2.0, 1.0, -3.0)),
                                           (LinePiece, (0.5, 2.0, 1.0, -3.0))])
def test_piece_rejects_nan_in_every_field(piece, fields):
    # every check is a positive condition, which NaN fails
    piece(*fields)
    for k in range(len(fields)):
        with pytest.raises(ValueError):
            piece(*fields[:k], math.nan, *fields[k + 1:])


@pytest.mark.parametrize("measure, x", [(RadialMeasure, 0.5), (VerticalMeasure, 1.0), (LineMeasure, 1.0)])
def test_measure_rejects_nan_atom(measure, x):
    with pytest.raises(ValueError, match=f"atom position {measure.POSITION}"):
        measure(atoms=((math.nan, 1.0),))
    with pytest.raises(ValueError, match="atom weight"):
        measure(atoms=((x, math.nan),))


@pytest.mark.parametrize("piece, fields, names", [(RadialPiece, (0.2, 0.8, 1.0, 0.5, 1.0), "cpq"),
                                                  (VerticalPiece, (0.5, 2.0, 1.0, -3.0), "cp"),
                                                  (LinePiece, (0.5, 2.0, 1.0, -3.0), "cp")])
def test_piece_rejects_infinite_c_p_q(piece, fields, names):
    # p = inf made halfplane._kernel loop for ever (q += 2 from q = -inf)
    for name in names:
        k = "abcpq".index(name)
        for value in (INF, -INF):
            with pytest.raises(ValueError, match=f" {name} must"):
                piece(*fields[:k], value, *fields[k + 1:])
    # piece ends keep +-inf where the docstrings allow it
    VerticalPiece(0.5, INF, 1.0, -3.0)
    LinePiece(-INF, INF, 1.0, 0.0)


@pytest.mark.parametrize("measure, x", [(RadialMeasure, 0.5), (VerticalMeasure, 1.0), (LineMeasure, 1.0)])
def test_measure_rejects_infinite_atom(measure, x):
    for value in (INF, -INF):
        with pytest.raises(ValueError, match=f"atom position {measure.POSITION} must be finite"):
            measure(atoms=((value, 1.0),))
        with pytest.raises(ValueError, match="atom weight w must be positive and finite"):
            measure(atoms=((x, value),))


# ---------------------------------------------------------------------------
# moments


def test_moments_lebesgue_closed_form():
    mu = lebesgue_disk()
    sig = moment_array(mu, 64)
    n = np.arange(65)
    assert np.max(np.abs(sig - 1.0 / (2.0 * n + 2.0))) < 1e-14


def test_moments_one_minus_r_closed_form():
    mu = power_disk(1.0)
    sig = moment_array(mu, 64)
    n = np.arange(65)
    ref = 1.0 / ((2.0 * n + 1.0) * (2.0 * n + 2.0))
    assert np.max(np.abs(sig / ref - 1.0)) < 1e-12


def test_moments_atom():
    sig = moment_array(RadialMeasure(atoms=((0.5, 2.0),)), 3)
    assert sig[0] == pytest.approx(2.0, abs=1e-15)
    assert sig[3] == pytest.approx(2.0 * 0.5**6, rel=1e-15)


def test_moment_array_cached_read_only():
    # one cached array per (measure, n_max), shared by equal measures and
    # protected against writes by its callers
    pieces = ((0.2, 0.9, 1.5, 0.5, 1.0),)
    mu = RadialMeasure(atoms=((0.3, 2.0),), pieces=pieces)
    sig = moment_array(mu, 40)
    assert moment_array(mu, 40) is sig
    assert moment_array(RadialMeasure(atoms=((0.3, 2.0),), pieces=pieces), 40) is sig
    assert not sig.flags.writeable
    with pytest.raises(ValueError):
        sig[0] = 0.0
    assert np.array_equal(sig, np.exp(log_moment_array(mu, 40)))


def test_log_moments_beyond_float_floor():
    # atom at 0.5: sigma_n = 0.5^{2n} underflows near n = 537
    mu = atom_disk(0.5)
    ls = log_moment_array(mu, 800)
    assert np.all(np.isfinite(ls))
    assert ls[600] == pytest.approx(1200.0 * math.log(0.5), rel=1e-12)


@pytest.mark.parametrize("mu", [
    RadialMeasure(atoms=((0.0, 1.0),)),  # its column is -inf past n = 0
    atom_disk(0.5),
    atom_disk(0.9),
    RadialMeasure(atoms=((0.999, 2.0),)),
    lebesgue_disk(),
    power_disk(1.0),
    RadialMeasure(pieces=(RadialPiece(0.0, 0.999, 1.0, -0.5, 0.0),)),
    RadialMeasure(pieces=(RadialPiece(0.0, 0.5, 1.0, 0.0, 0.0),)),
    RadialMeasure(pieces=(RadialPiece(0.2, 0.6, 3.0, 0.5, 2.0),)),
])
def test_single_term_log_moments_skip_logsumexp(mu):
    # one atom or piece: its column is returned as logsumexp over it would
    for n_max in (0, 1, 8, 64, 600, 4000):
        ls = log_moment_array(mu, n_max)
        assert np.array_equal(ls, logsumexp(ls[None], axis=0))


def test_log_moments_truncated_piece_fallback():
    # the regularized incomplete beta underflows; the continued fraction engages
    mu = RadialMeasure(pieces=(RadialPiece(0.0, 0.5, 1.0, 0.0, 0.0),))
    ls = log_moment_array(mu, 600)
    # sigma_n = int_0^0.5 r^{2n} dr = 0.5^{2n+1}/(2n+1)
    n = 500
    ref = (2 * n + 1) * math.log(0.5) - math.log(2 * n + 1)
    assert ls[n] == pytest.approx(ref, rel=1e-8)


def lower_beta_ref(a, b, x):
    """B_x(a, b) at the working precision: where x*max(a+b, a+1)/(a+1) <= 0.95,
    by the series of DLMF 8.17.8, x^a (1-x)^b / a * sum_n (a+b)_n/(a+1)_n x^n,
    whose terms then fall geometrically (mpmath.betainc can take seconds there
    at a = 20 001); elsewhere by mpmath.betainc."""
    a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
    if x * max(a + b, a + 1) / (a + 1) > 0.95:
        return mpmath.betainc(a, b, 0, x)
    term, total, n = mpmath.mpf(1), mpmath.mpf(0), 0
    while term > total * mpmath.eps:
        total += term
        term *= (a + b + n) / (a + 1 + n) * x
        n += 1
    return x**a * (1 - x) ** b / a * total


def beta_segment_ref(m, p, a, b):
    """log int_a^b r^m (1-r)^p dr as a difference of lower incomplete betas
    at 40 digits."""
    with mpmath.workdps(40):
        lower = [lower_beta_ref(m + 1, p + 1, x) for x in (a, b)]
        return float(mpmath.log(lower[1] - lower[0]))


@pytest.mark.parametrize("m", [0, 3, 40, 400, 4096, 20_000])
def test_log_beta_segment_matches_mpmath(m):
    # relative error of the integral, read as the error of its logarithm
    tol = 1e-12 if m <= 400 else 5e-11
    for p in (-0.95, -0.5, 0.0, 0.5, 1.9, 3.0):
        s = (m + 2.0) / (m + p + 4.0)  # where _log_beta_segment splits
        segs = [(0.0, 0.8 * s), (0.3 * s, 0.9 * s),  # below
                (s + 0.1 * (1.0 - s), s + 0.6 * (1.0 - s)), (s + 0.5 * (1.0 - s), 1.0),  # above
                (0.5 * s, s + 0.5 * (1.0 - s)), (0.0, 1.0)]  # across
        lo, hi = np.array(segs).T
        got = _log_beta_segment(m, p, lo, hi)
        for a, b, g in zip(lo, hi, got):
            ref = beta_segment_ref(m, p, a, b)
            assert abs(g - ref) <= tol, (m, p, a, b, g, ref)


@pytest.mark.parametrize("m, tol", [(400, 1e-13), (4096, 5e-13), (20_000, 2e-12)])
def test_moment_recurrence_matches_mpmath(m, tol):
    # the segments above, as pieces with r^2 from the origin: moment n = m/2 - 1
    # lies 57, 1 and 113 orders below the top of its downward run.
    # _log_beta_segment reads 1.4e-14, 2.2e-13 and 1.8e-12 here
    n = m // 2 - 1
    for p in (-0.95, -0.5, 0.0, 0.5, 1.9, 3.0):
        s = (m + 2.0) / (m + p + 4.0)
        for a, b in [(0.0, 0.8 * s), (0.3 * s, 0.9 * s), (s + 0.1 * (1.0 - s), s + 0.6 * (1.0 - s)),
                     (s + 0.5 * (1.0 - s), 1.0), (0.5 * s, s + 0.5 * (1.0 - s)), (0.0, 1.0)]:
            got = log_moment_array(RadialMeasure(pieces=(RadialPiece(a, b, 1.0, p, 2.0),)), n)[n]
            assert abs(got - beta_segment_ref(m, p, a, b)) <= tol, (p, a, b)


def test_moments_fall_back_where_the_downward_run_overflows():
    # (1-r)^3000 on [0, b): J(0)/J(256) passes the float range, so the moments
    # come from _log_beta_segment instead
    for b in (0.5, 0.9):
        ls = log_moment_array(RadialMeasure(pieces=(RadialPiece(0.0, b, 1.0, 3000.0, 0.0),)), 128)
        assert np.all(np.isfinite(ls))
        assert np.array_equal(ls, _log_beta_segment(2.0 * np.arange(129), 3000.0, 0.0, b))
    assert abs(ls[64] - beta_segment_ref(128, 3000.0, 0.0, 0.9)) <= 1e-12 * abs(ls[64])


def test_moments_where_betainc_underflows():
    # I_0.6(2n+1, 1.5) underflows from n ~ 630 on; those rows come from the
    # continued fraction in one call, not from a quadrature per row
    mu = RadialMeasure(pieces=(RadialPiece(0.0, 0.6, 1.0, 0.5),))
    t0 = time.perf_counter()
    ls = log_moment_array(mu, 2048)
    elapsed = time.perf_counter() - t0
    for n in (0, 300, 600, 700, 1500, 2048):
        assert abs(ls[n] - beta_segment_ref(2 * n, 0.5, 0.0, 0.6)) <= 1e-12 * max(1.0, n / 100)
    assert np.all(np.diff(ls) < 0.0)
    assert elapsed < 1.0  # 10 s with a quadrature per underflowing row


@pytest.mark.parametrize("p", [0.0, 1.0, 1.9, 3.0, 50.0])
def test_tail_mass_power_closed_form(p):
    # sigma([1-d, 1)) = d^{p+1}/(p+1); 1 - I_{1-d} cancels once d^{p+1} nears
    # the float epsilon, so the tail is taken as B_d(p+1, 1) from d itself
    ref = DELTA_GRID ** (p + 1.0) / (p + 1.0)
    with np.errstate(under="ignore"):
        tails = power_disk(p).tail_mass(DELTA_GRID)
    ok = ref > 1e-300
    assert np.max(np.abs(tails[ok] / ref[ok] - 1.0)) < 1e-13
    ratio, is_carleson = radial_carleson(power_disk(p))
    assert is_carleson and ratio == pytest.approx(float(np.max(ref / DELTA_GRID)), rel=1e-13)


def test_tail_mass_pieces_match_mpmath():
    mu = RadialMeasure(atoms=((0.95, 0.5),),
                       pieces=((0.3, 1.0, 2.0, 1.5, 2.0), (0.1, 0.8, 1.0, -0.5, 3.0)))
    deltas = np.array([1e-6, 0.01, 0.1, 0.5, 0.8, 0.95])
    got = mu.tail_mass(deltas)
    for d, g in zip(deltas, got):
        ref = 0.5 * (0.95 >= 1.0 - d)
        for pc in mu.pieces:
            lo = max(pc.a, 1.0 - d)
            if lo < pc.b:
                ref += pc.c * math.exp(beta_segment_ref(pc.q, pc.p, lo, pc.b))
        assert g == pytest.approx(ref, rel=1e-13)
        assert mu.tail_mass(float(d)) == g


def test_atom_at_origin_moments():
    mu = RadialMeasure(atoms=((0.0, 1.0), (0.5, 1.0)))
    sig = moment_array(mu, 4)
    assert sig[0] == pytest.approx(2.0)
    assert sig[1] == pytest.approx(0.25)


def test_tail_mass():
    mu = lebesgue_disk()
    # sigma([1-d, 1)) = int_{1-d}^1 r dr = d - d^2/2
    for d in (0.5, 0.1, 1e-3):
        assert mu.tail_mass(d) == pytest.approx(d - d * d / 2.0, rel=1e-10)
    assert atom_disk(0.9).tail_mass(0.05) == 0.0
    assert atom_disk(0.9).tail_mass(0.2) == 1.0


# ---------------------------------------------------------------------------
# Carleson criteria and singular integral


def test_radial_carleson_lebesgue():
    ratio, ok = radial_carleson(lebesgue_disk())
    assert ok
    # tail ratio 1 - d/2 is maximized at the smallest grid delta
    assert ratio == pytest.approx(1.0, abs=1e-5)


def test_radial_carleson_atom():
    ratio, ok = radial_carleson(atom_disk(0.75))
    assert ok
    # candidate delta = 0.25 gives mass/delta = 4, the true sup
    assert ratio == pytest.approx(4.0, rel=1e-12)


def test_radial_carleson_atom_at_origin():
    # an atom at r = 0 enters sigma([1 - delta, 1)) only at delta = 1, which
    # the probe grid's open top leaves out; its candidate puts it back
    assert radial_carleson(RadialMeasure(atoms=((0.0, 2.5),))) == (2.5, True)
    ratio, ok = radial_carleson(RadialMeasure(atoms=((0.0, 1.0),), pieces=(RadialPiece(0.0, 1.0, 1.0, 1.0),)))
    assert ok and ratio == pytest.approx(1.5, rel=1e-15)  # 1 + int (1-r) dr over [0, 1)


def test_radial_carleson_power_family():
    assert radial_carleson(power_disk(0.5))[1]
    ratio, ok = radial_carleson(power_disk(-0.5))
    assert not ok and math.isinf(ratio)
    # truncated away from the boundary the same density is Carleson again
    assert radial_carleson(RadialMeasure(pieces=(RadialPiece(0.0, 0.9, 1.0, -0.5),)))[1]


def test_singular_integral_closed_forms():
    # 2*pi int (1-r)/(1-r^2) dr = 2*pi int 1/(1+r) dr = 2*pi ln 2
    assert singular_integral(power_disk(1.0)) == pytest.approx(2.0 * math.pi * math.log(2.0), rel=1e-12)
    assert singular_integral(atom_disk(0.6)) == pytest.approx(2.0 * math.pi / 0.64, rel=1e-12)
    assert math.isinf(singular_integral(lebesgue_disk()))
    assert math.isinf(singular_integral(power_disk(-0.5)))


def test_singular_integral_truncated_piece_finite():
    val = singular_integral(RadialMeasure(pieces=(RadialPiece(0.0, 0.5, 1.0, 0.0),)))
    # 2*pi * atanh(0.5) = pi * ln 3
    assert val == pytest.approx(math.pi * math.log(3.0), rel=1e-12)


def singular_piece_ref(a, b, c, p, q):
    """2*pi * int_a^b c (1-r)^(p-1) r^q/(1+r) dr in mpmath, in r = e^s below
    r = 1/2 and in 1 - r = e^t above, which leaves no endpoint singularity
    (at r = 0 or 1, reached or just beyond the piece) for the quadrature."""
    a, b, p, q = (mpmath.mpf(v) for v in (a, b, p, q))
    half = mpmath.mpf(1) / 2
    total = mpmath.mpf(0)
    if a < half:
        total += mpmath.quad(
            lambda s: (1 - mpmath.exp(s)) ** (p - 1) * mpmath.exp(s * (q + 1)) / (1 + mpmath.exp(s)),
            [-mpmath.inf if a == 0 else mpmath.log(a), mpmath.log(min(b, half))])
    if b > half:
        total += mpmath.quad(
            lambda t: mpmath.exp(t * p) * (1 - mpmath.exp(t)) ** q / (2 - mpmath.exp(t)),
            [-mpmath.inf if b == 1 else mpmath.log(1 - b), mpmath.log(1 - max(a, half))])
    return 2 * mpmath.pi * c * total


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.3, 1.0, 1.9])
def test_singular_integral_matches_mpmath(p):
    for a, b, q in itertools.product([0.0, 1e-3, 0.3], [0.5, 0.999999, 1.0], [0.0, 0.5, 2.0]):
        if p <= 0.0 and b >= 1.0:
            continue  # +inf, covered by the closed-form test
        got = singular_integral(RadialMeasure(pieces=(RadialPiece(a, b, 1.3, p, q),)))
        with mpmath.workdps(30):
            want = float(singular_piece_ref(a, b, 1.3, p, q))
        assert got == pytest.approx(want, rel=1e-12), (a, b, q)


def test_singular_integral_mixed_measure_matches_mpmath():
    mu = RadialMeasure(atoms=((0.0, 0.5), (0.9, 2.0)),
                       pieces=(RadialPiece(0.0, 0.4, 1.0, -0.5, 0.5),
                               RadialPiece(0.4, 1.0, 0.7, 0.3, 2.0)))
    with mpmath.workdps(30):
        want = (2 * mpmath.pi * (0.5 + 2.0 / (1 - mpmath.mpf(0.9) ** 2))
                + singular_piece_ref(0.0, 0.4, 1.0, -0.5, 0.5)
                + singular_piece_ref(0.4, 1.0, 0.7, 0.3, 2.0))
    assert singular_integral(mu) == pytest.approx(float(want), rel=1e-12)


def test_vertical_carleson():
    ratio, ok = vertical_carleson(lebesgue_halfplane())
    assert ok and ratio == pytest.approx(1.0, rel=1e-12)
    ratio, ok = vertical_carleson(atom_halfplane(2.0, 3.0))
    assert ok and ratio == pytest.approx(1.5, rel=1e-12)
    # growing density at infinity is not Carleson
    bad = VerticalMeasure(pieces=(VerticalPiece(0.0, INF, 1.0, 1.0),))
    ratio, ok = vertical_carleson(bad)
    assert not ok and math.isinf(ratio)


# exponents at and around p = -1, below it, and large enough that a factor
# lo^(p+1) * expm1(...) would overflow on [1e-3, 10)
EDGE_POWERS = [-1.0 - 1e-9, -1.0, -1.0 + 1e-13, -1.5, 99.0, 150.0]


def power_mass_ref(c, p, lo, hi) -> float:
    """int_lo^hi c*t^p dt for 0 < lo <= hi, a 50-digit mpmath closed form."""
    if hi <= lo:
        return 0.0
    with mpmath.workdps(50):
        lo, hi, e = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(p) + 1
        return float(c * (mpmath.log(hi / lo) if e == 0 else (hi**e - lo**e) / e))


def test_vertical_cumulative_and_truncate():
    pi = lebesgue_halfplane()
    assert pi.cumulative(3.0) == pytest.approx(3.0)
    tr = pi.truncate(2.0)
    assert tr.cumulative(10.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        atom_halfplane(5.0).truncate(1.0)
    for eps, big_r in ((0.0, math.nan), (math.nan, 2.0), (2.0, 2.0), (-1.0, 2.0), (0.0, 0.0)):
        with pytest.raises(ValueError, match="0 <= eps < R"):
            pi.truncate(big_r, eps)
    ys = np.array([1e-3, 0.3, 0.7, 1.0, 2.5, 10.0, 20.0])
    # pieces off the origin with both ends below 1, across 1 and above 1
    for p, (a, b) in itertools.product(EDGE_POWERS, [(1e-3, 10.0), (0.2, 0.8), (0.5, 3.0), (1.5, 4.0)]):
        pi = VerticalMeasure(atoms=((0.7, 0.25),), pieces=(VerticalPiece(a, b, 1.3, p),))
        got = pi.cumulative(ys)
        want = np.array([0.25 * (y >= 0.7) + power_mass_ref(1.3, p, a, min(max(y, a), b)) for y in ys])
        assert np.all(np.abs(got - want) <= 1e-12 * want), (p, a, b)
        assert np.array_equal(got, [pi.cumulative(float(y)) for y in ys])
    assert isinstance(pi.cumulative(2.0), float)
    # a piece end at a signed zero, as "power:a=-0" gives
    assert VerticalMeasure(pieces=(VerticalPiece(-0.0, 2.0, 1.0, 0.0),)).cumulative(1.5) == 1.5
    # y^p dy on [1e-3, 10) stays finite at large p
    for p in (99.0, 150.0):
        mass = VerticalMeasure(pieces=(VerticalPiece(1e-3, 10.0, 1.0, p),)).cumulative(10.0)
        assert mass == pytest.approx(power_mass_ref(1.0, p, 1e-3, 10.0), rel=1e-12)


# ---------------------------------------------------------------------------
# Laplace transform


def test_laplace_lebesgue_values():
    pi = lebesgue_halfplane()
    assert laplace_transform(pi, 1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    assert laplace_transform(pi, 1.0, TWO) == pytest.approx(0.5, rel=1e-12)
    assert laplace_transform(pi, 0.0) == 0.0
    assert laplace_transform(pi, -1.0) == laplace_transform(pi, 1.0)


def test_laplace_atom():
    pi = atom_halfplane(2.0, 3.0)
    assert laplace_transform(pi, 0.5, TWO) == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)


def test_laplace_vector_input():
    pi = lebesgue_halfplane()
    xs = np.array([0.0, 1.0, 2.0])
    out = laplace_transform(pi, xs, TWO)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert out[2] == pytest.approx(0.25, rel=1e-12)


def test_laplace_singular_piece_quadrature():
    # p <= -1 off the origin takes the same series and panels as p > -1
    pi = VerticalMeasure(pieces=(VerticalPiece(1.0, 2.0, 1.0, -2.0),))
    val = laplace_transform(pi, 0.5, TWO)
    ref = mpmath.quad(lambda y: y**-2 * mpmath.exp(-y), [1, 2])
    assert val == pytest.approx(float(ref), rel=1e-12)


def laplace_ref(p: float, a: float, b: float, xi, convention: str, c: float = 1.0) -> np.ndarray:
    """c*int_a^b y^p exp(-k*xi*y) dy at 40 digits, as s^-(p+1) times a
    difference of upper incomplete gammas, each at 80 digits where mpmath's
    own difference declines."""
    out = []
    for x in xi:
        with mpmath.workdps(40):
            e = mpmath.mpf(p) + 1
            s = (2 if convention == TWO else 4 * mpmath.pi) * mpmath.mpf(x)
            hi = mpmath.inf if b == INF else s * b
            try:
                val = mpmath.gammainc(e, s * a, hi)
            except NotImplementedError:
                with mpmath.workdps(80):
                    val = mpmath.gammainc(e, s * a) - mpmath.gammainc(e, hi)
            out.append(float(c * val / s**e))
    return np.array(out)


@pytest.mark.parametrize("p", [-1.0, -1.5, -2.0, -3.7])
def test_laplace_upper_gamma_matches_mpmath(p):
    xi = np.logspace(-3, 2, 41)
    for a, b, convention in itertools.product([0.1, 1.0], [2.0, 50.0, INF], [TWO, FOUR_PI]):
        got = laplace_transform(VerticalMeasure(pieces=(VerticalPiece(a, b, 1.3, p),)), xi, convention)
        ref = laplace_ref(p, a, b, xi, convention, 1.3)
        # relative at every xi, also where exp(-s*a) leaves the value
        # subnormal (p = -3.7, a = 1, four_pi, xi = 56) or underflows to 0
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), (a, b, convention)


def test_laplace_near_minus_one_matches_mpmath():
    # p = -1 + 1e-13, where Gamma(p+1) = 1e13: on (0, 1) across every
    # frequency, and off the origin where s*a >= 1, up to s*a = 31
    p = -1.0 + 1e-13
    for (a, b), xi, convention in (((0.0, 1.0), np.logspace(-3, 2, 21), FOUR_PI),
                                   ((1.0, 3.0), np.logspace(-0.25, 1.2, 9), TWO)):
        got = laplace_transform(VerticalMeasure(pieces=(VerticalPiece(a, b, 1.0, p),)), xi, convention)
        ref = laplace_ref(p, a, b, xi, convention)
        assert np.all(np.abs(got - ref) <= 1e-14 * ref), (a, b)


BENCH_XI = np.logspace(-3, 2, 24)  # the frequencies of the benchmark's Laplace ops


@pytest.mark.parametrize("p, a, b", [
    (-1.0 + 1e-13, 0.01, INF),  # read 0.45508 against 0.43351 at xi = 4.96 (four_pi)
    (-1.0 - 1e-9, 0.5, 3.0), (-1.0 + 1e-9, 0.5, 3.0),  # about 1e-6 off
    (-2.0 - 1e-9, 0.5, 3.0), (-2.0 + 1e-9, 0.5, 3.0),
    (-0.5, 0.5, 3.0), (0.0, 1.0, 50.0), (0.3, 0.01, INF), (2.0, 0.1, 2.0),  # 0.0 at large xi
])
def test_laplace_pieces_off_the_origin_are_relative(p, a, b):
    # each of these pieces once lost its relative accuracy on the benchmark's
    # frequencies: at orders near -1 and -2, and at large xi for p > -1,
    # where the value (1e-22 to 1e-35 and below) was dropped to 0.0
    for convention in (FOUR_PI, TWO):
        got = laplace_transform(VerticalMeasure(pieces=(VerticalPiece(a, b, 1.0, p),)), BENCH_XI, convention)
        ref = laplace_ref(p, a, b, BENCH_XI, convention)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref), convention


X_ACROSS = np.array([1e-3, 0.3, 0.999, 1.0, 1.001, 5.0, 20.0, 30.0, 45.0, 59.0, 60.0, 61.0, 100.0, 300.0])


@pytest.mark.parametrize("e", [0.05, 0.5, 1.0, 1.7, 3.0, 12.5])
def test_incomplete_gamma_matches_mpmath(e):
    # s^e times int_0^1 and int_1^inf of y^(e-1) e^(-s y) dy are gamma(e, s) and
    # Gamma(e, s), for s across 1 and 60, and s = 1 on [a, b] is Gamma(e, a) -
    # Gamma(e, b); each relative at every s and on every segment
    with mpmath.workdps(40):
        lower = np.array([float(mpmath.gammainc(e, 0, x)) for x in X_ACROSS])
        upper = np.array([float(mpmath.gammainc(e, x, mpmath.inf)) for x in X_ACROSS])
        segs = [(0.5, 2.0), (30.0, 45.0), (50.0, 70.0), (59.0, 61.0), (0.999, 1.001)]
        seg_ref = [float(mpmath.gammainc(e, a, b)) for a, b in segs]
    got = _power_exp_integral(e, X_ACROSS, 0.0, 1.0) * X_ACROSS**e
    assert np.all(np.abs(got - lower) <= 1e-14 * lower)
    err = np.abs(_power_exp_integral(e, X_ACROSS, 1.0, INF) * X_ACROSS**e - upper)
    assert np.all(err <= 1e-13 * upper)
    for (a, b), ref in zip(segs, seg_ref):
        got = float(_power_exp_integral(e, np.array([1.0]), a, b)[0])
        assert abs(got - ref) <= 1e-11 * ref, (a, b)


@pytest.mark.parametrize("e", [0.0, -0.5, -1.0, -2.5, -3.7])
def test_upper_gamma_negative_order_matches_mpmath(e):
    # x^-e Gamma(e, x) is int_1^inf y^(e-1) e^(-x y) dy: the series below
    # x*y = 1, the panels from there on; at e = 0 this is E_1
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.gammainc(e, x, mpmath.inf) / mpmath.mpf(x) ** e) for x in X_ACROSS])
    assert np.all(np.abs(_power_exp_integral(e, X_ACROSS, 1.0, INF) - ref) <= 1e-14 * ref)


def test_exponential_integral_matches_mpmath():
    x = np.array([1e-8, 1e-3, 0.1, 0.5, 0.9, 0.999, 1.0, 2.0, 30.0])
    ref = np.array([float(mpmath.e1(v)) for v in x])
    assert np.all(np.abs(_power_exp_integral(0.0, x, 1.0, INF) - ref) <= 5e-15 * ref)


def log_peak(p: float, a: float, b: float, s: float) -> float:
    """log of the largest value of y^p exp(-s*y) on [a, b]"""
    y = min(max(p / s, a), b)
    return p * math.log(y) - s * y


@pytest.mark.parametrize("p", [100.0, 1e3, 1e6, 1e17])
def test_laplace_large_orders_are_bounded(p):
    # the panels' widths follow the integrand's scale, so the work does not
    # grow with p.  A value past the double range is +inf and one below it
    # 0; every normal one is within 1e-10 of mpmath.  Where the integrand's
    # peak alone is 300 e-folds beyond either end of the range, the value is
    # classified by it (the integral lies within 100 e-folds of the peak)
    big, tiny = np.finfo(float).max, np.finfo(float).tiny
    for (a, b), convention in itertools.product([(0.5, 3.0), (0.0, INF), (1.0, INF), (0.0, 2.0)], (FOUR_PI, TWO)):
        start = time.perf_counter()
        got = laplace_transform(VerticalMeasure(pieces=(VerticalPiece(a, b, 1.0, p),)), BENCH_XI, convention)
        assert time.perf_counter() - start < 1.0
        k = 2.0 if convention == TWO else 4.0 * math.pi
        for x, val in zip(BENCH_XI, got):
            peak = log_peak(p, a, b, k * x)
            if peak > 1000.0:
                assert val == INF, (a, b, convention, x)
            elif peak < -1100.0:
                assert 0.0 <= val < tiny, (a, b, convention, x)
            else:
                ref = laplace_ref(p, a, b, [x], convention)[0]
                if ref > big:
                    assert val == INF, (a, b, convention, x)
                elif ref < tiny:
                    assert 0.0 <= val < tiny, (a, b, convention, x)
                else:
                    assert abs(val - ref) <= 1e-10 * ref, (a, b, convention, x)


@pytest.mark.parametrize("beta", [-0.7, -0.99])
def test_jacobi_rule_matches_mpmath(beta):
    # nodes: roots of P_16^(0,beta) at 40 digits; weights 2^(beta+1)/((1-x^2)
    # P_16'(x)^2), read back from the weights divided by (1+x)^beta.  scipy's
    # roots_jacobi is 3.8e-13 (beta = -0.7) and 9.5e-12 (-0.99) off here
    x, w = _jacobi_rule(beta)
    n = x.size
    with mpmath.workdps(40):
        for xi, wi in zip(x, w * (1.0 + x) ** beta):
            r = mpmath.findroot(lambda t: mpmath.jacobi(n, 0, beta, t), mpmath.mpf(xi))
            dp = 2 * n * (n + beta) * mpmath.jacobi(n - 1, 0, beta, r) / ((2 * n + beta) * (1 - r * r))
            ref = 2 ** (mpmath.mpf(beta) + 1) / ((1 - r * r) * dp * dp)
            assert abs(xi - r) <= 1e-15 and abs(wi / ref - 1) <= 1e-13, xi


# ---------------------------------------------------------------------------
# line measures


def test_line_measure_box_mass():
    nu = lebesgue_line()
    assert nu.box_mass(3.0) == pytest.approx(6.0)
    nu2 = LineMeasure(pieces=(LinePiece(-1.0, 1.0, 1.0, -0.5),))
    assert nu2.box_mass(1.0) == pytest.approx(4.0, rel=1e-12)
    nu3 = LineMeasure(pieces=(LinePiece(1.0, 2.0, 1.0, -1.0),))
    assert nu3.box_mass(5.0) == pytest.approx(math.log(2.0), rel=1e-12)
    Ls = np.array([0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 7.5, 20.0])
    # pieces off the origin on either side of t = 0, finite and infinite ends
    ranges = [(0.5, 5.0), (-5.0, -0.5), (-0.8, -0.2), (1.5, INF), (-INF, -2.0)]
    for p, (a, b) in itertools.product(EDGE_POWERS, ranges):
        nu = LineMeasure(atoms=((-1.0, 0.25),), pieces=(LinePiece(a, b, 1.3, p),))
        got = nu.box_mass(Ls)
        want = np.array([0.25 * (L >= 1.0) + power_mass_ref(1.3, p, max(a, 0.0), min(b, L))
                         + power_mass_ref(1.3, p, max(-b, 0.0), min(-a, L)) for L in Ls])
        assert np.all(np.abs(got - want) <= 1e-12 * want), (p, a, b)
        assert np.array_equal(got, [nu.box_mass(float(L)) for L in Ls])
    assert isinstance(nu.box_mass(2.0), float)
    # piece ends at 0 give |t| ranges that start at -0.0
    halves = LineMeasure(pieces=(LinePiece(-INF, 0.0, 1.0, 0.0), LinePiece(0.0, INF, 1.0, 0.0)))
    assert halves.box_mass(1.5) == 3.0


# ---------------------------------------------------------------------------
# serialization


def test_radial_json_round_trip():
    doc = {"atoms": [{"r": 0.3, "w": 0.5}], "pieces": [{"a": 0.1, "b": 1.0, "c": 2.0, "p": 1.5, "q": 1.0}]}
    assert RadialMeasure.from_dict(doc) == RadialMeasure(atoms=((0.3, 0.5),),
                                                         pieces=(RadialPiece(0.1, 1.0, 2.0, 1.5, 1.0),))
    doc = {"pieces": [{"a": 0.0, "b": 1.0, "c": 1.0, "p": 0.0, "q": 1.0}]}
    assert RadialMeasure.from_dict(doc) == lebesgue_disk()
    # one key rule for atoms, pieces and the document: a key the class lacks is rejected
    for doc, key in (({"atoms": [{"r": 0.5, "w": 1.0, "y": 3.0}]}, "y"),
                     ({"pieces": [{"a": 0.0, "b": 1.0, "c": 1.0, "p": 0.0, "t": 1.0}]}, "t"),
                     ({"atoms": [{"r": 0.5, "w": 1.0}], "peices": []}, "peices")):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            RadialMeasure.from_dict(doc)


def test_vertical_json_round_trip_with_inf():
    doc = {"pieces": [{"a": 0.0, "b": "inf", "c": 1.0, "p": 0.0}]}
    assert VerticalMeasure.from_dict(doc) == lebesgue_halfplane()
    with pytest.raises(ValueError, match="unknown key 'q'"):
        VerticalMeasure.from_dict({"pieces": [{"a": 0.0, "b": "inf", "c": 1.0, "p": 0.0, "q": 1.0}]})


def test_line_from_dict_signed_inf():
    nu = LineMeasure.from_dict({"pieces": [{"a": "-inf", "b": "inf", "c": 1.0, "p": 0.0}]})
    assert nu.pieces[0].a == -INF and nu.pieces[0].b == INF
    assert nu == lebesgue_line()
    doc = {"atoms": [{"t": -2.0, "w": 0.5}], "pieces": [{"a": -1.0, "b": "inf", "c": 3.0, "p": -0.5}]}
    assert LineMeasure.from_dict(doc) == LineMeasure(atoms=((-2.0, 0.5),), pieces=(LinePiece(-1.0, INF, 3.0, -0.5),))
    with pytest.raises(ValueError, match="unknown key 'r'"):
        LineMeasure.from_dict({"atoms": [{"t": 0.0, "w": 1.0, "r": 0.5}]})
