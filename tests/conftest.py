"""Shared fixtures and generators for the test suite."""

import math

import numpy as np
import pytest

from carleson_lab.fourier import CoeffVector
from carleson_lab.measures import (
    LineMeasure,
    LinePiece,
    RadialMeasure,
    RadialPiece,
    VerticalMeasure,
    VerticalPiece,
    atom_disk,
    lebesgue_disk,
    power_disk,
)

SEED = 42


def rng_for(index: int) -> np.random.Generator:
    return np.random.default_rng([SEED, index])


def random_coeff_vector(rng: np.random.Generator, n_max: int, analytic: bool = False) -> CoeffVector:
    c = rng.standard_normal(2 * n_max + 1) + 1j * rng.standard_normal(2 * n_max + 1)
    if analytic:
        c[:n_max] = 0.0
    return CoeffVector(n_max, c)


def random_radial_measure(rng: np.random.Generator) -> RadialMeasure:
    """Atoms in [0,1) plus power-law pieces; always at least one component."""
    atoms = []
    pieces = []
    n_atoms = int(rng.integers(0, 3))
    n_pieces = int(rng.integers(0, 3))
    if n_atoms + n_pieces == 0:
        n_atoms = 1
    for _ in range(n_atoms):
        atoms.append((float(rng.uniform(0.0, 0.999)), float(rng.uniform(0.1, 3.0))))
    for _ in range(n_pieces):
        a = float(rng.uniform(0.0, 0.8))
        b = float(rng.uniform(a + 0.05, 1.0))
        if rng.random() < 0.5:
            b = 1.0
        pieces.append(RadialPiece(a, b, float(rng.uniform(0.1, 2.0)),
                                  float(rng.uniform(-0.9, 3.0)), float(rng.integers(0, 3))))
    return RadialMeasure(tuple(atoms), tuple(pieces))


def random_vertical_measure(rng: np.random.Generator) -> VerticalMeasure:
    atoms = []
    pieces = []
    n_atoms = int(rng.integers(0, 3))
    n_pieces = int(rng.integers(0, 3))
    if n_atoms + n_pieces == 0:
        n_atoms = 1
    for _ in range(n_atoms):
        atoms.append((float(rng.uniform(0.05, 10.0)), float(rng.uniform(0.1, 3.0))))
    for _ in range(n_pieces):
        a = float(rng.uniform(0.0, 2.0))
        b = float(rng.uniform(a + 0.1, 8.0))
        if rng.random() < 0.2:
            a = 0.0
        # p <= -1 only off the origin, where the mass stays locally finite
        p = float(rng.uniform(-3.0, 2.0) if a > 0.0 else rng.uniform(-0.9, 2.0))
        pieces.append(VerticalPiece(a, b, float(rng.uniform(0.1, 2.0)), p))
    return VerticalMeasure(tuple(atoms), tuple(pieces))


def random_line_measure(rng: np.random.Generator) -> LineMeasure:
    """May or may not satisfy Garnett's criterion; co-finiteness is the point."""
    atoms = []
    pieces = []
    n_atoms = int(rng.integers(0, 3))
    n_pieces = int(rng.integers(0, 3))
    if n_atoms + n_pieces == 0:
        n_atoms = 1
    for _ in range(n_atoms):
        t = float(rng.uniform(-5.0, 5.0))
        if rng.random() < 0.1:
            t = 0.0
        atoms.append((t, float(rng.uniform(0.1, 3.0))))
    for _ in range(n_pieces):
        a = float(rng.uniform(-5.0, 4.0))
        b = float(rng.uniform(a + 0.2, 6.0))
        p = float(rng.choice([-0.5, 0.0, 0.5, 1.0, 2.0]))
        if rng.random() < 0.2:
            b = math.inf
        if rng.random() < 0.2:
            a = -math.inf
        if not a <= 0.0 <= b and rng.random() < 0.5:
            p = float(rng.uniform(-3.0, -1.0))  # p <= -1 only off the origin
        pieces.append(LinePiece(a, b, float(rng.uniform(0.1, 2.0)), p))
    return LineMeasure(tuple(atoms), tuple(pieces))


@pytest.fixture(scope="session")
def carleson_measures():
    """Carleson radial measures whose w_sigma Fourier check meets 1e-6.

    (1-r)^0.1 dr reaches r = 1 with a cusp of w_sigma at theta = 0, which the
    check subtracts before the analysis (5.7e-10; 2.5e-6 without)."""
    return {
        "atom_half": atom_disk(0.5),
        "atom_09": atom_disk(0.9),
        "one_minus_r_pow_0.1": power_disk(0.1),
        "one_minus_r": power_disk(1.0),
        "one_minus_r_sq": power_disk(2.0),
        "mixed": RadialMeasure(atoms=((0.3, 0.5),), pieces=(RadialPiece(0.0, 1.0, 1.0, 1.0, 0.0),)),
    }


@pytest.fixture(scope="session")
def lebesgue():
    return lebesgue_disk()
