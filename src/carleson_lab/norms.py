"""Norms on the disk side: L^2 and L^1 of boundary traces, the weighted
Sobolev-type norm diagonal in the moments, the analytic Bergman norm, the
bounded weight w_sigma, the Cauchy-kernel bound, and the Poisson-sup
functional.

w_sigma integrates each piece by composite Gauss-Legendre on panels graded
toward r = 1; poisson_sup evaluates its whole theta grid by closed forms
(atoms, constant-density pieces) and a fixed composite Gauss rule in a
variable that flattens the Poisson kernel (other pieces).  No adaptive
quadrature runs here.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .fourier import CoeffVector, GridFunction, analyze
from .measures import INF, RadialMeasure, moment_array, radial_carleson, singular_integral


def l2_norm(u: CoeffVector) -> float:
    """Boundary L^2 norm with the (1/2pi) d theta normalization: sqrt(sum |c_n|^2)."""
    return float(np.linalg.norm(u.coeffs))


def l1_norm(g: GridFunction) -> float:
    """Boundary-trace L^1 norm, (1/M) sum |samples|."""
    return float(np.mean(np.abs(g.samples)))


def hmu_norm(u: CoeffVector, mu: RadialMeasure) -> float:
    """sqrt(2*pi*sum |c_n|^2 sigma_|n|); also the weighted harmonic Bergman
    norm of the harmonic extension under a radial weight."""
    return hmu_norm_of_moments(u, moment_array(mu, u.n_max))


def hmu_norm_of_moments(u: CoeffVector, sig: np.ndarray) -> float:
    """hmu_norm(u, mu) from sig = moment_array(mu, u.n_max)."""
    with np.errstate(under="ignore"):
        return float(math.sqrt(2.0 * math.pi * np.sum(np.abs(u.coeffs) ** 2 * sig[np.abs(u.ns)])))


def a2_norm(u: CoeffVector, mu: RadialMeasure) -> float:
    """Weighted analytic Bergman norm; rejects non-analytic input."""
    if not u.is_analytic():
        raise ValueError("a2_norm requires an analytic input (c_n = 0 for n < 0)")
    return hmu_norm(u, mu)


def _radial_panels(a: float, b: float) -> np.ndarray:
    """Panel breakpoints on [a, b), geometrically refined down to width
    1e-10 toward r = b when the piece reaches the boundary."""
    if b < 1.0:
        return np.linspace(a, b, 17)
    pts = [a]
    width = b - a
    while width > 1e-10:
        width *= 0.5
        pts.append(b - width)
    pts.append(b)
    return np.asarray(pts)


_THETA_BLOCK = 256  # theta values per block in w_sigma and poisson_sup, to bound their node arrays


@lru_cache(maxsize=1)
def _gauss_legendre_24():
    """w_sigma's 24-point Gauss-Legendre panel rule on [-1, 1], computed on
    first use (importing numpy.polynomial costs memory that callers without
    w_sigma need not pay)."""
    return np.polynomial.legendre.leggauss(24)


def _piece_quad_nodes(a: float, b: float):
    """Composite 24-point Gauss-Legendre nodes/weights on graded panels of [a, b)."""
    x, w = _gauss_legendre_24()
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
        weighted = (pc.c * (1.0 - nodes) ** pc.p * nodes**pc.q * wts * r2)[:, None]
        for lo in range(0, m, _THETA_BLOCK):
            blk = slice(lo, lo + _THETA_BLOCK)
            denom = (r2[:, None] - cos_t[None, blk]) ** 2 + sin_t[None, blk] ** 2
            vals[blk] += sin_t[blk] * np.sum(weighted / denom, axis=0)
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
    return math.sqrt(singular_integral(mu))


def default_theta_grid(k: int = 2048) -> np.ndarray:
    """Chebyshev-style grid on (0, pi) clustered near theta = 0."""
    u = (np.arange(1, k + 1) - 0.5) / k
    return math.pi * np.sin(0.5 * math.pi * u) ** 2


_PANEL_WIDTH = 2.0  # largest panel width in v of poisson_sup's composite rule
_PANEL_ORDER = 16  # Gauss nodes per panel
_MAX_GRADING = 40  # most geometric panels toward an end of a poisson_sup piece


def _grading_depth(dist: np.ndarray, width: np.ndarray) -> int:
    """Panels of ratio 1/4 that a panel end needs before a singularity at
    distance dist beyond it lies a third of the last panel's width away."""
    with np.errstate(divide="ignore"):
        need = np.log(width / (3.0 * np.maximum(dist, 0.0))) / math.log(4.0)
    return int(np.clip(np.ceil(np.max(need)), 0, _MAX_GRADING))


@lru_cache(maxsize=64)
def _jacobi_rule(beta: float):
    """_PANEL_ORDER-point Gauss-Jacobi nodes on [-1, 1] for the weight
    (1+x)^beta, with the weights divided by it, so that sum(w*f(x))
    integrates f itself and is exact where f/(1+x)^beta is a polynomial."""
    x, w = roots_jacobi(_PANEL_ORDER, 0.0, beta)
    return x, w / (1.0 + x) ** beta


def _poisson_piece(pc, s: np.ndarray, half_cos: np.ndarray) -> np.ndarray:
    """int_a^b c*(1-r)^p*r^q * sin(t)/((r - cos t)^2 + sin^2 t) dr for one piece,
    vectorised over theta; s = sin(theta), half_cos = 1 - cos(theta).

    r = cos(t) + sin(t)*tan(phi) turns the kernel times dr into d phi, and
    tan(phi) = sinh(v) turns d phi into sech(v) dv: the Lorentzian tails,
    which the phi-interval squeezes into a width of order theta near
    +-pi/2, spread over a v-interval of length about 2*log(2/theta), on
    which sech(v) is analytic in the strip |Im v| < pi/2.  Composite
    Gauss-Legendre rules on panels at most _PANEL_WIDTH wide integrate it.
    The density's branch points r = 1 and r = 0 lie at real v1, v0: at an
    end of the piece (b = 1, a = 0) the end panel is Gauss-Jacobi with
    weight (v_b - v)^p or (v - v_a)^q; just beyond an end the end panel is
    graded geometrically toward it.  r - a and b - r come from sinh
    differences of offsets, exact at either end."""
    da = pc.a - 1.0 + half_cos  # a - cos(theta) without cancellation near 1
    db = pc.b - 1.0 + half_cos
    va, vb = np.arcsinh(da / s), np.arcsinh(db / s)
    length = vb - va
    panels = max(2, math.ceil(float(np.max(length)) / _PANEL_WIDTH))
    h = length / panels
    smooth_p = pc.p == int(pc.p) and pc.p >= 0.0
    smooth_q = pc.q == int(pc.q)
    depth_b = 0 if pc.b >= 1.0 or smooth_p else \
        _grading_depth(np.arcsinh(half_cos / s) - vb, h)
    depth_a = 0 if pc.a <= 0.0 or smooth_q else \
        _grading_depth(va - np.arcsinh((half_cos - 1.0) / s), h)
    gauss = _jacobi_rule(0.0)
    # (from_a, t0, t1, rule): the segment [t0*h, t1*h] of offsets from v_a
    # (from_a) or from v_b, so that v - v_a and v_b - v never cancel
    segs = [(True, k, k + 1, gauss) for k in range(1, panels - 1)]
    for from_a, depth, exponent in ((True, depth_a, pc.q if pc.a <= 0.0 else 0.0),
                                    (False, depth_b, pc.p if pc.b >= 1.0 else 0.0)):
        segs += [(from_a, 4.0 ** -(j + 1), 4.0 ** -j, gauss) for j in range(depth)]
        segs.append((from_a, 0.0, 4.0 ** -depth, _jacobi_rule(exponent)))
    total = np.zeros(s.shape)
    for from_a, t0, t1, (x, w) in segs:
        off = (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x) * h[:, None]
        dva, dvb = (off, length[:, None] - off) if from_a else (length[:, None] - off, off)
        v = va[:, None] + dva
        above_a = 2.0 * s[:, None] * np.cosh(va[:, None] + 0.5 * dva) * np.sinh(0.5 * dva)
        below_b = 2.0 * s[:, None] * np.cosh(vb[:, None] - 0.5 * dvb) * np.sinh(0.5 * dvb)
        dens = (1.0 - pc.b + below_b) ** pc.p * (pc.a + above_a) ** pc.q / np.cosh(v)
        total += 0.5 * (t1 - t0) * h * (dens @ w)
    return pc.c * total


def poisson_sup(alpha: RadialMeasure, theta_grid=None) -> float:
    """Grid sup over theta in (0, pi) of int sin(theta)/((r-cos t)^2 + sin^2 t) alpha(dr).

    The whole grid is evaluated at once: atoms in closed form;
    constant-density pieces (p = q = 0) as the exact arctangent difference,
    written as one arctan2 so that it keeps its relative accuracy at small
    theta; other pieces by the composite Gauss(-Jacobi) rule of
    _poisson_piece, in blocks of _THETA_BLOCK angles.  Power-law tails
    failing the Carleson criterion classify analytically to +inf.
    """
    for pc in alpha.pieces:
        if pc.b >= 1.0 and pc.p < 0.0:
            return INF
    theta = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    s, co = np.sin(theta), np.cos(theta)
    half_cos = 2.0 * np.sin(0.5 * theta) ** 2  # 1 - cos(theta) without cancellation
    val = np.zeros(theta.shape)
    for r, w in alpha.atoms:
        val += w * s / ((r - co) ** 2 + s * s)
    for pc in alpha.pieces:
        if pc.p == 0.0 and pc.q == 0.0:
            da, db = pc.a - 1.0 + half_cos, pc.b - 1.0 + half_cos
            val += pc.c * np.arctan2(s * (pc.b - pc.a), s * s + da * db)
            continue
        for lo in range(0, theta.size, _THETA_BLOCK):
            blk = slice(lo, lo + _THETA_BLOCK)
            val[blk] += _poisson_piece(pc, s[blk], half_cos[blk])
    return float(np.max(val))
