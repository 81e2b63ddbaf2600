"""Unit tests for disk-side norms and the boundary weight w_sigma."""

import math

import mpmath
import numpy as np
import pytest

from carleson_lab.fourier import CoeffVector, analyze, synthesize
from carleson_lab.measures import RadialMeasure, RadialPiece, atom_disk, lebesgue_disk, moment_array, power_disk
from carleson_lab.norms import (
    a2_norm,
    analyze_w_sigma_errors,
    cauchy_kernel_bound,
    default_theta_grid,
    hmu_norm,
    l1_norm,
    l2_norm,
    poisson_sup,
    w_sigma,
)

from conftest import random_coeff_vector, rng_for


def test_l2_norm():
    u = CoeffVector.from_map({-1: 3.0, 1: 4.0}, 1)
    assert l2_norm(u) == pytest.approx(5.0)


def test_l1_norm_constant():
    g = synthesize(CoeffVector.basis(0), 8)
    assert l1_norm(g) == pytest.approx(1.0)


def test_hmu_norm_closed_form(lebesgue):
    # ||e_1||^2 = 2*pi*sigma_1 = pi/2
    assert hmu_norm(CoeffVector.basis(1), lebesgue) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)


def test_a2_rejects_non_analytic(lebesgue):
    with pytest.raises(ValueError):
        a2_norm(CoeffVector.basis(-1), lebesgue)
    assert a2_norm(CoeffVector.basis(1), lebesgue) == hmu_norm(CoeffVector.basis(1), lebesgue)


def test_hmu_pythagoras(lebesgue):
    rng = rng_for(10)
    u = random_coeff_vector(rng, 8)
    pos = CoeffVector(8, np.where(u.ns >= 0, u.coeffs, 0.0))
    neg = u - pos
    total = hmu_norm(u, lebesgue) ** 2
    assert total == pytest.approx(a2_norm(pos, lebesgue) ** 2 + hmu_norm(neg, lebesgue) ** 2, rel=1e-12)


def test_w_sigma_atom_fourier_identity():
    mu = atom_disk(0.5)
    err = analyze_w_sigma_errors(mu, m=4096, n_max=64)
    assert err < 1e-10


def test_w_sigma_piece_fourier_identity():
    err = analyze_w_sigma_errors(power_disk(1.0), m=4096, n_max=64)
    assert err < 1e-6


@pytest.mark.parametrize("mu", [
    RadialMeasure(atoms=((0.3, 0.5),), pieces=(RadialPiece(0.0, 1.0, 1.0, 0.0, 0.0),)),
    RadialMeasure(pieces=(RadialPiece(0.4, 1.0, 2.5, 0.0, 2.0),)),
    RadialMeasure(pieces=(RadialPiece(0.0, 0.5, 1.0, 0.0, 0.0), RadialPiece(0.5, 1.0, 0.7, 0.0, 0.0))),
], ids=["atom_plus_dr", "r_sq_dr_from_0.4", "two_pieces_meeting_at_0.5"])
def test_w_sigma_jump_subtraction(mu):
    # a density c > 0 at r = 1 makes w_sigma jump at theta = 0; unsubtracted,
    # each of these reads 4e-6 to 1.6e-5
    assert analyze_w_sigma_errors(mu, m=4096, n_max=64) < 1e-6


def test_w_sigma_imaginary_odd():
    g = w_sigma(atom_disk(0.5), 256)
    assert np.max(np.abs(g.samples.real)) == 0.0
    v = g.samples.imag
    assert abs(v[0]) < 1e-14
    assert np.max(np.abs(v[1:] + v[:0:-1])) < 1e-12  # odd in theta


@pytest.mark.parametrize("p", [0.01, 0.1, 0.2, 0.5])
def test_w_sigma_cusp_subtraction(p):
    # (1-r)^p dr with 0 < p < 1 gives w_sigma a cusp at theta = 0; without its
    # subtraction these read 5.7e-6, 2.5e-6, 1.0e-6 and 7.5e-8, with it
    # 1.0e-9, 5.7e-10, 2.8e-10 and 3.4e-11
    assert analyze_w_sigma_errors(power_disk(p), m=4096, n_max=64) < 1e-8


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 256, 1001])
def test_w_sigma_grid_edges_and_oddness(m):
    mu = RadialMeasure(atoms=((0.5, 1.0),), pieces=(RadialPiece(0.0, 1.0, 1.0, 0.5, 0.5),))
    g = w_sigma(mu, m)
    assert g.m == m
    assert np.all(g.samples.real == 0.0)
    v = g.samples.imag
    assert v[0] == 0.0  # theta = 0
    if m % 2 == 0:
        assert v[m // 2] == 0.0  # theta = pi
    assert np.array_equal(v[1:], -v[:0:-1])  # exactly odd in theta
    if m > 2:
        assert np.all(v[1:(m + 1) // 2] > 0.0)


def w_sigma_ref(mu, k: int, m: int) -> float:
    """w_sigma/(2i) at theta = 2*pi*k/m by 30-digit mpmath quadrature in r,
    split around the kernel's peak at r^2 = cos theta."""
    with mpmath.workdps(30):
        t = 2 * mpmath.pi * k / m
        s, co = mpmath.sin(t), mpmath.cos(t)

        def kernel(r):
            return r * r * s / ((r * r - co) ** 2 + s * s)

        total = sum(w * kernel(mpmath.mpf(r)) for r, w in mu.atoms)
        peak = mpmath.sqrt(co) if co > 0 else mpmath.mpf(0)
        for pc in mu.pieces:
            pts = {mpmath.mpf(pc.a), mpmath.mpf(pc.b)}
            pts.update(peak + j * s for j in (-100, -10, -3, -1, 0, 1, 3, 10, 100) if pc.a < peak + j * s < pc.b)
            total += mpmath.quad(lambda r: pc.c * (1 - r) ** pc.p * r**pc.q * kernel(r), sorted(pts))
        return float(total)


W_SIGMA_MEASURES = {
    "lebesgue": lebesgue_disk(),
    "p=0.5": power_disk(0.5),
    "p=1.3": power_disk(1.3),
    "from_0_p=0.2_q=2.5": RadialMeasure(pieces=(RadialPiece(0.0, 1.0, 1.0, 0.2, 2.5),)),
    "from_0_p=0.7_q=0.3": RadialMeasure(pieces=(RadialPiece(0.0, 1.0, 1.0, 0.7, 0.3),)),
    "from_1e-3_p=0.7_q=0.3": RadialMeasure(pieces=(RadialPiece(1e-3, 1.0, 1.0, 0.7, 0.3),)),
    "from_0_p=-0.5_q=1.5_b=0.9": RadialMeasure(pieces=(RadialPiece(0.0, 0.9, 1.0, -0.5, 1.5),)),
    "inside_0.3_0.8": RadialMeasure(pieces=(RadialPiece(0.3, 0.8, 1.3, 1.5, 0.5),)),
    "inside_0.2_0.7_r_dr": RadialMeasure(pieces=(RadialPiece(0.2, 0.7, 1.3, 0.0, 1.0),)),
    "atoms_plus_pieces": RadialMeasure(
        atoms=((0.6, 0.5),),
        pieces=(RadialPiece(0.0, 0.5, 1.0, 0.3, 1.0), RadialPiece(0.5, 1.0, 2.0, 1.5, 0.0))),
}


@pytest.mark.parametrize("mu", W_SIGMA_MEASURES.values(), ids=W_SIGMA_MEASURES.keys())
def test_w_sigma_matches_mpmath(mu):
    # the Poisson rule in s = r^2 (and in r below r = 1/2) against quadrature
    # in r, at small theta, around theta = pi and in between
    m = 4096
    v = 0.5 * w_sigma(mu, m).samples.imag
    for k in (1, 3, 700, m // 2 - 1, m // 2 + 1, m - 1):
        ref = w_sigma_ref(mu, k, m)
        assert v[k] == pytest.approx(ref, rel=1e-11), k


def test_w_sigma_warns_non_carleson():
    with pytest.warns(UserWarning):
        w_sigma(power_disk(-0.5), 64)


def test_cauchy_kernel_bound():
    mu = atom_disk(0.6)
    assert cauchy_kernel_bound(mu) == pytest.approx(math.sqrt(2.0 * math.pi / 0.64), rel=1e-12)
    assert math.isinf(cauchy_kernel_bound(lebesgue_disk()))


def test_poisson_sup_atom_origin():
    # for the atom at r=0 the Poisson-type integrand is sin(theta), sup = 1
    assert poisson_sup(atom_disk(0.0 + 1e-12)) == pytest.approx(1.0, abs=1e-4)


def test_poisson_sup_infinite_for_noncarleson_tail():
    assert math.isinf(poisson_sup(power_disk(-0.5)))


def test_poisson_sup_custom_grid():
    val = poisson_sup(atom_disk(0.5), theta_grid=[math.pi / 2.0])
    assert val == pytest.approx(1.0 / (0.25 + 1.0), rel=1e-12)


def poisson_ref(pc, theta):
    """int_a^b c*(1-r)^p*r^q * sin t/((r - cos t)^2 + sin^2 t) dr by mpmath
    quadrature in r, split around the kernel's peak at r = cos t."""
    with mpmath.workdps(30):
        t = mpmath.mpf(theta)
        s, co = mpmath.sin(t), mpmath.cos(t)
        pts = {mpmath.mpf(pc.a), mpmath.mpf(pc.b)}
        pts.update(co + k * s for k in (-100, -10, -3, -1, 0, 1, 3, 10, 100) if pc.a < co + k * s < pc.b)
        return float(mpmath.quad(lambda r: pc.c * (1 - r) ** pc.p * r**pc.q * s / ((r - co) ** 2 + s * s),
                                 sorted(pts)))


POISSON_PIECES = [RadialPiece(0.0, 1.0, 1.0, p, q) for p in (0.01, 0.5, 1.0, 1.5, 2.0) for q in (0.0, 0.5)] + [
    RadialPiece(0.0, 1.0, 1.0, 0.0, 1.0),  # r dr: p = 0, q = 1
    RadialPiece(0.3, 1.0, 0.7, 1.7, 1.5),
    RadialPiece(0.2, 0.9, 1.5, -0.5, 2.0),
    RadialPiece(0.0, 0.999, 1.0, -0.5, 0.0),  # density singular just beyond b
    RadialPiece(0.001, 0.5, 1.0, 1.5, 0.25),  # r^q singular just below a
    RadialPiece(0.2, 0.7, 2.0, 0.0, 0.0),  # constant density: arctangent difference
    RadialPiece(0.2, 0.7, 2.0, 0.0, 1.0),  # density c*r: arctangent and logarithm
]


@pytest.mark.parametrize("pc", POISSON_PIECES, ids=[f"[{pc.a},{pc.b})p={pc.p},q={pc.q}" for pc in POISSON_PIECES])
def test_poisson_sup_matches_mpmath(pc):
    grid = default_theta_grid()
    thetas = grid[[0, 5, 100, 700, 1500, 2047]]
    mu = RadialMeasure(atoms=((0.6, 0.4),), pieces=(pc,))
    for theta in thetas:
        s, co = math.sin(theta), math.cos(theta)
        ref = poisson_ref(pc, theta) + 0.4 * s / ((0.6 - co) ** 2 + s * s)
        assert poisson_sup(mu, theta_grid=[theta]) == pytest.approx(ref, rel=1e-12), theta
    assert poisson_sup(mu) >= max(poisson_sup(mu, theta_grid=[t]) for t in thetas)


def test_default_theta_grid_range():
    g = default_theta_grid(128)
    assert g.min() > 0.0 and g.max() < math.pi
    assert np.all(np.diff(g) > 0)


def test_w_sigma_mixed_measure(carleson_measures):
    mu = carleson_measures["mixed"]
    hat = analyze(w_sigma(mu, 2048), 32)
    sig = moment_array(mu, 32)
    ref = np.sign(hat.ns) * sig[np.abs(hat.ns)]
    assert np.max(np.abs(hat.coeffs - ref)) < 1e-6
