"""Unit tests for disk-side norms and the boundary weight w_sigma."""

import math

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
