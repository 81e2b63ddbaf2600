"""Truncated harmonic Fourier series on the circle.

A CoeffVector holds coefficients c_n for |n| <= N in the harmonic basis
e_n(z) = z^n (n >= 0), conj(z)^|n| (n < 0).  A GridFunction holds complex
samples at M equispaced boundary nodes theta_k = 2*pi*k/M with uniform
quadrature weight 2*pi/M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import RadialMeasure, log_moment_array


@dataclass(frozen=True)
class CoeffVector:
    n_max: int
    coeffs: np.ndarray  # length 2*n_max+1, index n+n_max

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if self.n_max < 0 or c.shape != (2 * self.n_max + 1,):
            raise ValueError("coeffs must have length 2*n_max+1")
        object.__setattr__(self, "coeffs", c)

    @property
    def ns(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def is_analytic(self) -> bool:
        return not np.any(self.coeffs[: self.n_max])


@dataclass(frozen=True)
class GridFunction:
    samples: np.ndarray  # complex values at theta_k = 2*pi*k/M

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("samples must be a nonempty 1-d array")
        object.__setattr__(self, "samples", s)

    @property
    def m(self) -> int:
        return self.samples.size

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.m) / self.m


def synthesize(u: CoeffVector, m: int) -> GridFunction:
    """Samples of sum_n c_n e^{i n theta_k} at the M equispaced nodes."""
    if m < 2 * u.n_max + 1:
        raise ValueError(f"m={m} too small for degree {u.n_max}; need m >= {2 * u.n_max + 1}")
    spread = np.zeros(m, dtype=complex)
    spread[u.ns % m] = u.coeffs  # distinct slots, as m >= 2N+1
    return GridFunction(np.fft.ifft(spread) * m)


def analyze(g: GridFunction, n_max: int) -> CoeffVector:
    """Trapezoidal-rule Fourier coefficients; exact for degree <= (m-1)/2."""
    if n_max > (g.m - 1) // 2:
        raise ValueError(f"n_max={n_max} too large for m={g.m} samples")
    hat = np.fft.fft(g.samples) / g.m
    ns = np.arange(-n_max, n_max + 1)
    return CoeffVector(n_max, hat[ns % g.m])


def analytic_projection(u: CoeffVector) -> CoeffVector:
    """Zero out all negative-frequency coefficients."""
    c = u.coeffs.copy()
    c[: u.n_max] = 0.0
    return CoeffVector(u.n_max, c)


def multiplier(u: CoeffVector, symbol: np.ndarray) -> CoeffVector:
    """Fourier multiplier c_n -> a(n) c_n; the symbol is an array indexed
    like u.coeffs, by n + N."""
    a = np.asarray(symbol)
    if a.shape != u.coeffs.shape:
        raise ValueError(f"symbol must have length {u.coeffs.size}, got shape {a.shape}")
    return CoeffVector(u.n_max, u.coeffs * a)


@dataclass(frozen=True)
class AdaptedPair:
    """Multiplier symbols (a, b) tied to the measure's moments, as float
    arrays indexed by n + n_max; b = sgn has boundedness constant C_b = 1."""

    a: np.ndarray
    b: np.ndarray
    n_max: int


def adapted_pair(mu: RadialMeasure, n_max: int) -> AdaptedPair:
    """Build the measure-adapted pair with b = sgn, so that T_b is the
    Hilbert transform: a(n)^2 = (2*pi*sigma_|n|)^{-1} on every mode, b(0) = 0.

    a is evaluated through log moments, so measures whose moments underflow
    double precision stay finite.
    """
    ls = log_moment_array(mu, n_max)
    if not np.all(np.isfinite(ls)):
        raise ValueError("adapted pair requires strictly positive moments up to n_max")
    ns = np.arange(-n_max, n_max + 1)
    log_w = math.log(2.0 * math.pi) + ls  # log(2*pi*sigma_n), n = 0..n_max
    a = np.exp(-0.5 * log_w)[np.abs(ns)]
    # sanity: the defining identity, in logs, on every mode
    if not np.allclose(2.0 * np.log(a), -log_w[np.abs(ns)], rtol=0.0, atol=1e-9):
        raise AssertionError("adapted pair identity violated")
    return AdaptedPair(a=a, b=np.sign(ns).astype(float), n_max=n_max)
