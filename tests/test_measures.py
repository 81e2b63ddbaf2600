"""Unit tests for measures: moments, Carleson criteria, singular integrals,
Laplace transforms, serialization."""

import math

import numpy as np
import pytest

from carleson_lab.measures import (
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
    boundary_accessible,
    laplace_transform,
    lebesgue_disk,
    lebesgue_halfplane,
    lebesgue_line,
    log_moment_array,
    moment,
    moment_array,
    power_disk,
    radial_carleson,
    singular_integral,
    vertical_carleson,
)


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
    mu = atom_disk(0.5, 2.0)
    assert moment(mu, 0) == pytest.approx(2.0, abs=1e-15)
    assert moment(mu, 3) == pytest.approx(2.0 * 0.5**6, rel=1e-15)


def test_moment_symmetric_in_n():
    mu = lebesgue_disk()
    assert moment(mu, -5) == moment(mu, 5)


def test_log_moments_beyond_float_floor():
    # atom at 0.5: sigma_n = 0.5^{2n} underflows near n = 537
    mu = atom_disk(0.5)
    ls = log_moment_array(mu, 800)
    assert np.all(np.isfinite(ls))
    assert ls[600] == pytest.approx(1200.0 * math.log(0.5), rel=1e-12)


def test_log_moments_truncated_piece_fallback():
    # the regularized incomplete beta underflows; quadrature fallback engages
    mu = RadialMeasure(pieces=(RadialPiece(0.0, 0.5, 1.0, 0.0, 0.0),))
    ls = log_moment_array(mu, 600)
    # sigma_n = int_0^0.5 r^{2n} dr = 0.5^{2n+1}/(2n+1)
    n = 500
    ref = (2 * n + 1) * math.log(0.5) - math.log(2 * n + 1)
    assert ls[n] == pytest.approx(ref, rel=1e-8)


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


def test_radial_carleson_power_family():
    assert radial_carleson(power_disk(0.5))[1]
    ratio, ok = radial_carleson(power_disk(-0.5))
    assert not ok and math.isinf(ratio)
    # truncated away from the boundary the same density is Carleson again
    assert radial_carleson(power_disk(-0.5, b=0.9))[1]


def test_radial_carleson_custom_grid():
    with pytest.raises(ValueError):
        radial_carleson(lebesgue_disk(), delta_grid=[])
    ratio, _ = radial_carleson(atom_disk(0.75), delta_grid=[0.5])
    assert ratio == pytest.approx(2.0)


def test_boundary_accessible():
    assert boundary_accessible(lebesgue_disk())
    assert not boundary_accessible(atom_disk(0.99))
    assert not boundary_accessible(power_disk(0.0, b=0.5))


def test_singular_integral_closed_forms():
    # 2*pi int (1-r)/(1-r^2) dr = 2*pi int 1/(1+r) dr = 2*pi ln 2
    assert singular_integral(power_disk(1.0)) == pytest.approx(2.0 * math.pi * math.log(2.0), rel=1e-10)
    assert singular_integral(atom_disk(0.6)) == pytest.approx(2.0 * math.pi / 0.64, rel=1e-12)
    assert math.isinf(singular_integral(lebesgue_disk()))
    assert math.isinf(singular_integral(power_disk(-0.5)))


def test_singular_integral_truncated_piece_finite():
    val = singular_integral(power_disk(0.0, b=0.5))
    # 2*pi * atanh(0.5) = pi * ln 3
    assert val == pytest.approx(math.pi * math.log(3.0), rel=1e-10)


def test_vertical_carleson():
    ratio, ok = vertical_carleson(lebesgue_halfplane())
    assert ok and ratio == pytest.approx(1.0, rel=1e-12)
    ratio, ok = vertical_carleson(atom_halfplane(2.0, 3.0))
    assert ok and ratio == pytest.approx(1.5, rel=1e-12)
    # growing density at infinity is not Carleson
    bad = VerticalMeasure(pieces=(VerticalPiece(0.0, INF, 1.0, 1.0),))
    ratio, ok = vertical_carleson(bad)
    assert not ok and math.isinf(ratio)


def test_vertical_cumulative_and_truncate():
    pi = lebesgue_halfplane()
    assert pi.cumulative(3.0) == pytest.approx(3.0)
    tr = pi.truncate(2.0)
    assert tr.cumulative(10.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        atom_halfplane(5.0).truncate(1.0)


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
    # p <= -1 off the origin exercises the quadrature branch
    pi = VerticalMeasure(pieces=(VerticalPiece(1.0, 2.0, 1.0, -2.0),))
    val = laplace_transform(pi, 0.5, TWO)
    from scipy.integrate import quad
    ref, _ = quad(lambda y: y**-2.0 * math.exp(-y), 1.0, 2.0)
    assert val == pytest.approx(ref, rel=1e-9)


# ---------------------------------------------------------------------------
# line measures


def test_line_measure_box_mass():
    nu = lebesgue_line()
    assert nu.box_mass(3.0) == pytest.approx(6.0)
    nu2 = LineMeasure(pieces=(LinePiece(-1.0, 1.0, 1.0, -0.5),))
    assert nu2.box_mass(1.0) == pytest.approx(4.0, rel=1e-12)
    nu3 = LineMeasure(pieces=(LinePiece(1.0, 2.0, 1.0, -1.0),))
    assert nu3.box_mass(5.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_line_poisson_integrable():
    assert lebesgue_line().poisson_integrable()
    assert not LineMeasure(pieces=(LinePiece(-INF, INF, 1.0, 1.0),)).poisson_integrable()


# ---------------------------------------------------------------------------
# serialization


def test_radial_json_round_trip():
    mu = RadialMeasure(atoms=((0.3, 0.5),), pieces=(RadialPiece(0.1, 1.0, 2.0, 1.5, 1.0),))
    again = RadialMeasure.from_dict(mu.to_dict())
    assert again == mu


def test_vertical_json_round_trip_with_inf():
    pi = lebesgue_halfplane()
    doc = pi.to_dict()
    assert doc["pieces"][0]["b"] == "inf"
    assert VerticalMeasure.from_dict(doc) == pi


def test_line_from_dict_signed_inf():
    nu = LineMeasure.from_dict({"pieces": [{"a": "-inf", "b": "inf", "c": 1.0, "p": 0.0}]})
    assert nu.pieces[0].a == -INF and nu.pieces[0].b == INF
