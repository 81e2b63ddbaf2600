"""Truncated harmonic Fourier series on the circle.

A CoeffVector holds coefficients c_n for |n| <= N in the harmonic basis
e_n(z) = z^n (n >= 0), conj(z)^|n| (n < 0).  A GridFunction holds complex
samples at M equispaced boundary nodes theta_k = 2*pi*k/M with uniform
quadrature weight 2*pi/M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=256)
def _slots(shape: tuple, m: int) -> np.ndarray:
    """Flat slots n mod m + k*m (row k) of coefficients of this shape, n = -N..N on the last axis; read-only."""
    rows = np.arange(math.prod(shape[:-1])).reshape(shape[:-1] + (1,))
    s = np.arange(-(shape[-1] // 2), shape[-1] // 2 + 1) % m + m * rows
    s.flags.writeable = False
    return s


def _to_grid(c: np.ndarray, m: int) -> np.ndarray:
    """Rows of 2N+1 coefficients (index n + N) to rows of m >= 2N+1 samples, forward-normalised."""
    if m < c.shape[-1]:  # two modes would share a slot
        raise ValueError(f"m={m} too small for degree {c.shape[-1] // 2}; need m >= {c.shape[-1]}")
    spread = np.zeros(c.shape[:-1] + (m,), dtype=complex)
    spread.reshape(-1)[_slots(c.shape, m)] = c
    return np.fft.ifft(spread, norm="forward", out=spread)


def _to_coeffs(y: np.ndarray, n_max: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of samples to coefficients |n| <= n_max, forward-normalised; the FFT fills out (may be y)."""
    return np.fft.fft(y, norm="forward", out=out).take(_slots((2 * n_max + 1,), y.shape[-1]), axis=-1)


def synthesize(u: CoeffVector, m: int) -> GridFunction:
    """Samples of sum_n c_n e^{i n theta_k} at the M equispaced nodes."""
    return GridFunction(_to_grid(u.coeffs, m))


def analyze(g: GridFunction, n_max: int) -> CoeffVector:
    """Trapezoidal-rule Fourier coefficients; exact for degree <= (m-1)/2."""
    if n_max > (g.m - 1) // 2:
        raise ValueError(f"n_max={n_max} too large for m={g.m} samples")
    return CoeffVector(n_max, _to_coeffs(g.samples, n_max))


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
    fits = -0.5 * log_w < math.log(np.finfo(float).max)  # checked before exp; a cannot underflow
    if not fits.all():
        raise ValueError(f"adapted pair at n_max={n_max}: a(n) overflows at n={int(np.argmin(fits))}")
    a = np.exp(-0.5 * log_w)[np.abs(ns)]
    # sanity: the defining identity, in logs, on every mode
    if not np.allclose(2.0 * np.log(a), -log_w[np.abs(ns)], rtol=0.0, atol=1e-9):
        raise AssertionError("adapted pair identity violated")
    return AdaptedPair(a=a, b=np.sign(ns).astype(float))
