"""Numerical laboratory for weighted Bergman/Hardy sum-space norms,
Carleson criteria, and their stability inequalities on the disk and the
upper half-plane."""

__version__ = "0.1.0"

from .fourier import AdaptedPair, CoeffVector, GridFunction, adapted_pair, analytic_projection, \
    analyze, multiplier, synthesize
from .halfplane import BandSignal, SpatialFunction, b2h_norm, const_bpi, garnett_check, \
    stability_constant, stability_ratio, w_pi, w_pi_sup, w_pi_truncated_fourier_check
from .harness import InequalityReport, adapted_ineq_ratio, corpus_scan, embedding_ratio, \
    fejer_experiment, fejer_kernel, random_poly
from .measures import LineMeasure, RadialMeasure, VerticalMeasure, atom_disk, atom_halfplane, \
    laplace_transform, lebesgue_disk, lebesgue_halfplane, lebesgue_line, moment_array, power_disk, \
    radial_carleson, singular_integral, vertical_carleson
from .norms import a2_norm, hmu_norm, l1_norm, l2_norm, poisson_sup, w_sigma
from .sumnorm import CertifiedNorm, Decomposition, dual_bound, sum_norm
