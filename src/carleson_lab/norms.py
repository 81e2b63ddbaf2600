"""Norms on the disk side: L^2 and L^1 of boundary traces, the weighted
Sobolev-type norm diagonal in the moments, the analytic Bergman norm, the
bounded weight w_sigma, the Cauchy-kernel bound, and the Poisson-sup
functional.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .fourier import CoeffVector, GridFunction
from .measures import INF, RadialMeasure, moment_array, radial_carleson, singular_integral


@dataclass(frozen=True)
class NormReport:
    value: float
    method: str  # closed_form | quadrature | grid_sup
    est_error: float = 0.0

    def to_dict(self) -> dict:
        return {
            "value": "inf" if math.isinf(self.value) else self.value,
            "method": self.method,
            "est_error": self.est_error,
        }


def l2_norm(u: CoeffVector) -> float:
    """Boundary L^2 norm with the (1/2pi) d theta normalization: sqrt(sum |c_n|^2)."""
    return float(np.linalg.norm(u.coeffs))


def l1_norm(g: GridFunction) -> float:
    """Boundary-trace L^1 norm, (1/M) sum |samples|."""
    return float(np.mean(np.abs(g.samples)))


def hmu_norm(u: CoeffVector, mu: RadialMeasure) -> float:
    """sqrt(2*pi*sum |c_n|^2 sigma_|n|); also the weighted harmonic Bergman
    norm of the harmonic extension under a radial weight."""
    sig = moment_array(mu, u.n_max)
    with np.errstate(under="ignore"):
        return float(math.sqrt(2.0 * math.pi * np.sum(np.abs(u.coeffs) ** 2 * sig[np.abs(u.ns)])))


def a2_norm(u: CoeffVector, mu: RadialMeasure) -> float:
    """Weighted analytic Bergman norm; rejects non-analytic input."""
    if not u.is_analytic():
        raise ValueError("a2_norm requires an analytic input (c_n = 0 for n < 0)")
    return hmu_norm(u, mu)


def _radial_panels(a: float, b: float, min_width: float = 1e-10) -> np.ndarray:
    """Panel breakpoints on [a, b), geometrically refined toward r = b when
    the piece reaches the boundary."""
    if b < 1.0:
        return np.linspace(a, b, 17)
    pts = [a]
    width = b - a
    while width > min_width:
        width *= 0.5
        pts.append(b - width)
    pts.append(b)
    return np.asarray(pts)


def _piece_quad_nodes(a: float, b: float, order: int = 24):
    """Composite Gauss-Legendre nodes/weights on graded panels of [a, b)."""
    x, w = np.polynomial.legendre.leggauss(order)
    brk = _radial_panels(a, b)
    mids = 0.5 * (brk[1:] + brk[:-1])
    halfs = 0.5 * (brk[1:] - brk[:-1])
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    wts = (halfs[:, None] * w[None, :]).ravel()
    return nodes, wts


def w_sigma(mu: RadialMeasure, m: int) -> GridFunction:
    """Samples of w_sigma(e^{i theta}) = 2i int r^2 sin(theta)/|r^2 - e^{-i theta}|^2 sigma(dr).

    For Carleson measures this weight is bounded with Fourier coefficients
    sgn(n)*sigma_n; a warning is issued (not an error) otherwise.
    """
    _, ok = radial_carleson(mu)
    if not ok:
        warnings.warn("measure fails the radial Carleson criterion; w_sigma is expected unbounded")
    theta = 2.0 * math.pi * np.arange(m) / m
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    vals = np.zeros(m)
    for r, wgt in mu.atoms:
        r2 = r * r
        # |r^2 - e^{-i theta}|^2 written cancellation-free
        vals += wgt * r2 * sin_t / ((r2 - cos_t) ** 2 + sin_t**2)
    for pc in mu.pieces:
        nodes, wts = _piece_quad_nodes(pc.a, pc.b)
        r2 = nodes**2
        dens = pc.c * (1.0 - nodes) ** pc.p * nodes**pc.q * wts
        denom = (r2[:, None] - cos_t[None, :]) ** 2 + sin_t[None, :] ** 2
        vals += sin_t * np.sum((dens * r2)[:, None] / denom, axis=0)
    return GridFunction(2j * vals)


def analyze_w_sigma_errors(mu: RadialMeasure, m: int = 4096, n_max: int = 64) -> float:
    """Max over |n| <= n_max of |analyze(w_sigma)(n) - sgn(n) sigma_n|.

    A p = 0 piece reaching r = 1 gives sigma density c there, so sigma_n ~
    c/(2n) and w_sigma jumps at theta = 0 like c*i*(pi - theta)/2 on
    (0, 2*pi).  Trapezoidal analysis of that jump aliases at ~ n/m^2, so the
    jump is subtracted from the samples (value 0 at theta = 0, the jump's
    midpoint) before `analyze` and its exact coefficients c*sgn(n)/(2|n|)
    are added back (singularity subtraction).  c is read off the measure's
    density at r = 1, never from sigma_n, so the check stays independent of
    the moments it verifies.

    Open case: pieces (1-r)^p dr with small p > 0 reaching r = 1 give w_sigma
    a cusp at theta = 0, not a jump, so nothing is subtracted and the error
    stays above 1e-6 (5.7e-6 at p = 0.01, m = 4096, n_max = 64).
    """
    from .fourier import analyze

    g = w_sigma(mu, m)
    c = sum(pc.c for pc in mu.pieces if pc.b >= 1.0 and pc.p == 0.0)
    jump = 0.5j * c * (math.pi - g.thetas)
    jump[0] = 0.0
    hat = analyze(GridFunction(g.samples - jump), n_max)
    ns = hat.ns
    jump_hat = c * np.sign(ns) / (2.0 * np.maximum(np.abs(ns), 1))
    ref = np.sign(ns) * moment_array(mu, n_max)[np.abs(ns)]
    return float(np.max(np.abs(hat.coeffs + jump_hat - ref)))


def cauchy_kernel_bound(mu: RadialMeasure) -> float:
    """sqrt of the singular integral 2*pi int sigma(dr)/(1-r^2); +inf propagates."""
    s = singular_integral(mu)
    return INF if math.isinf(s) else math.sqrt(s)


def default_theta_grid(k: int = 2048) -> np.ndarray:
    """Chebyshev-style grid on (0, pi) clustered near theta = 0."""
    u = (np.arange(1, k + 1) - 0.5) / k
    return math.pi * np.sin(0.5 * math.pi * u) ** 2


def poisson_sup(alpha: RadialMeasure, theta_grid=None) -> float:
    """Grid sup over theta in (0, pi) of int sin(theta)/((r-cos t)^2 + sin^2 t) alpha(dr).

    Power-law tails failing the Carleson criterion classify analytically
    to +inf.
    """
    for pc in alpha.pieces:
        if pc.b >= 1.0 and pc.p < 0.0:
            return INF
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    best = 0.0
    for theta in grid:
        s, co = math.sin(theta), math.cos(theta)
        val = sum(w * s / ((r - co) ** 2 + s * s) for r, w in alpha.atoms)
        for pc in alpha.pieces:

            def f(r):
                return pc.c * (1.0 - r) ** pc.p * r**pc.q * s / ((r - co) ** 2 + s * s)

            pts = [co] if pc.a < co < pc.b else None
            contrib, _ = integrate.quad(f, pc.a, pc.b, points=pts,
                                        epsabs=1e-11, epsrel=1e-10, limit=200)
            val += contrib
        best = max(best, val)
    return float(best)
