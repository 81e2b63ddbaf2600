"""Norms on the disk side: L^2 and L^1 of boundary traces, the weighted
Sobolev-type norm diagonal in the moments, the analytic Bergman norm, the
bounded weight w_sigma, the Cauchy-kernel bound, and the Poisson-sup
functional.

poisson_sup and w_sigma share one evaluation of the Poisson integral over
a theta grid (_poisson_values): closed forms for atoms and for pieces of
density c or c*r, and for other pieces a fixed composite Gauss(-Jacobi)
rule in a variable that flattens the Poisson kernel, on the panel layout
it shares with measures.singular_integral (whose square root is the
Cauchy-kernel bound).  w_sigma is that integral in s = r^2, except below
r = 1/2 where it takes a fixed rule in r; analyze_w_sigma_errors subtracts
the cusp of w_sigma at theta = 0 before its Fourier analysis.  No adaptive
quadrature runs here.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.special import gammaln

from .fourier import CoeffVector, GridFunction, analyze
from .measures import (INF, RadialMeasure, RadialPiece, _grading_depth, _panel_segments, moment_array,
                       radial_carleson, singular_integral)


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


_THETA_BLOCK = 256  # theta values per block in _poisson_values, to bound its node arrays
_ROOT_SPLIT = 0.5  # w_sigma takes [a, 1/2) of a piece with p != 0 in r, the rest in s = r^2


def _near_origin_rule(pc, b: float):
    """Nodes r and weights of int_a^b f(r) c*(1-r)^p*r^q dr: one Gauss(-Jacobi)
    panel, weight r^q at a = 0, graded toward r = 0 when a > 0 is near it and
    q is not an integer.  For b <= 1/2 the poles r = +-e^{+-i theta/2} of
    w_sigma's kernel stay at least 1/2 away from [a, b]."""
    h = b - pc.a
    depth = 0 if pc.a <= 0.0 or pc.q == int(pc.q) else _grading_depth(pc.a, h)
    segs = _panel_segments(1, ((True, depth, pc.q if pc.a <= 0.0 else 0.0),))
    r = np.concatenate([pc.a + (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x) * h for _, t0, t1, (x, _) in segs])
    wts = np.concatenate([0.5 * (t1 - t0) * h * w for _, t0, t1, (_, w) in segs])
    return r, pc.c * wts * (1.0 - r) ** pc.p * r**pc.q


def w_sigma(mu: RadialMeasure, m: int) -> GridFunction:
    """Samples of w_sigma(e^{i theta}) = 2i int r^2 sin(theta)/|r^2 - e^{-i theta}|^2 sigma(dr).

    For Carleson measures this weight is bounded with Fourier coefficients
    sgn(n)*sigma_n; a warning is issued (not an error) otherwise.

    With s = r^2, |r^2 - e^{-i theta}|^2 = (s - cos theta)^2 + sin^2 theta,
    so w_sigma/(2i) is poisson_sup's integral of the image of r^2 sigma(dr):
    an atom w at r becomes w*r^2 at r^2, and c*(1-r)^p*r^q dr on [a, b)
    becomes (c/2)*(1-s)^p*s^((q+1)/2)*(1+sqrt s)^(-p) ds on [a^2, b^2).  A
    piece with p != 0 takes its part below r = 1/2, where sqrt(s) is not
    smooth, by _near_origin_rule in r instead.  w_sigma is odd about
    theta = pi, so only theta in (0, pi) is evaluated.
    """
    _, ok = radial_carleson(mu)
    if not ok:
        warnings.warn("measure fails the radial Carleson criterion; w_sigma is expected unbounded")
    theta = 2.0 * math.pi * np.arange(1, (m + 1) // 2) / m
    atoms = [(r * r, w * r * r) for r, w in mu.atoms]
    pieces = []
    for pc in mu.pieces:
        a = pc.a
        if pc.p != 0.0 and a < _ROOT_SPLIT:
            r, wts = _near_origin_rule(pc, min(pc.b, _ROOT_SPLIT))
            atoms += zip(r * r, wts * r * r)
            a = _ROOT_SPLIT
        if pc.b > a:
            pieces.append((RadialPiece(a * a, pc.b * pc.b, 0.5 * pc.c, pc.p, 0.5 * (pc.q + 1.0)), pc.p))
    half = _poisson_values(atoms, pieces, theta)
    mid = np.zeros(1 - m % 2)  # theta = pi for even m
    return GridFunction(2j * np.concatenate(([0.0], half, mid, -half[::-1])))


def analyze_w_sigma_errors(mu: RadialMeasure, m: int = 4096, n_max: int = 64) -> float:
    """Max over |n| <= n_max of |analyze(w_sigma)(n) - sgn(n) sigma_n|.

    A piece c*(1-r)^p*r^q reaching r = 1 with 0 <= p < 1 gives sgn(n)*sigma_n
    ~ sgn(n)*A*Gamma(|n|-p)/Gamma(|n|+1), A = c*Gamma(p+1)*2^(-p-1), the
    coefficients of the cusp A*Gamma(-p)*[(1-e^{i theta})^p - (1-e^{-i theta})^p]
    of w_sigma at theta = 0 (at p = 0 its limit, the jump c*i*(pi - theta)/2).
    Trapezoidal analysis aliases it at ~ n/m^(p+2), so it is subtracted from
    the samples (0 at theta = 0, the jump's midpoint) before `analyze` and its
    exact coefficients are added back (singularity subtraction).  c and p are
    read off the pieces, never from sigma_n, so the check stays independent
    of the moments it verifies.
    """
    g = w_sigma(mu, m)
    ns = np.arange(-n_max, n_max + 1)
    k = np.maximum(np.abs(ns), 1)
    half = 0.5 * (math.pi - g.thetas)
    sing, sing_hat = np.zeros(m, dtype=complex), np.zeros(ns.size)
    for pc in mu.pieces:
        if pc.b >= 1.0 and 0.0 <= pc.p < 1.0:
            amp = pc.c * math.gamma(pc.p + 1.0) * 2.0 ** (-pc.p - 1.0)
            # A*Gamma(-p)*[...] = 2i*A*Gamma(1-p)*(2 sin(theta/2))^p*sin(p*half)/p
            sing += 2j * amp * math.gamma(1.0 - pc.p) * (2.0 * np.sin(0.5 * g.thetas)) ** pc.p \
                * half * np.sinc(pc.p * half / math.pi)
            sing_hat += amp * np.sign(ns) * np.exp(gammaln(k - pc.p) - gammaln(k + 1.0))
    sing[0] = 0.0
    hat = analyze(GridFunction(g.samples - sing), n_max)
    ref = np.sign(ns) * moment_array(mu, n_max)[np.abs(ns)]
    return float(np.max(np.abs(hat.coeffs + sing_hat - ref)))


def cauchy_kernel_bound(mu: RadialMeasure) -> float:
    """sqrt of the singular integral 2*pi int sigma(dr)/(1-r^2); +inf propagates."""
    return math.sqrt(singular_integral(mu))


def default_theta_grid(k: int = 2048) -> np.ndarray:
    """Chebyshev-style grid on (0, pi) clustered near theta = 0."""
    u = (np.arange(1, k + 1) - 0.5) / k
    return math.pi * np.sin(0.5 * math.pi * u) ** 2


_PANEL_WIDTH = 2.0  # largest panel width in v of poisson_sup's composite rule


def _poisson_piece(pc, s: np.ndarray, half_cos: np.ndarray, root_p: float = 0.0) -> np.ndarray:
    """int_a^b c*(1-r)^p*r^q*(1+sqrt r)^(-root_p) * sin(t)/((r - cos t)^2 + sin^2 t) dr
    for one piece, vectorised over theta; s = sin(theta), half_cos =
    1 - cos(theta).  A nonzero root_p needs a > 0 (w_sigma's pieces in r^2).

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
    smooth_q = pc.q == int(pc.q) and root_p == 0.0  # (1+sqrt r)^(-root_p) branches at r = 0
    depth_b = 0 if pc.b >= 1.0 or smooth_p else \
        _grading_depth(np.arcsinh(half_cos / s) - vb, h)
    depth_a = 0 if pc.a <= 0.0 or smooth_q else \
        _grading_depth(va - np.arcsinh((half_cos - 1.0) / s), h)
    total = np.zeros(s.shape)
    for from_a, t0, t1, (x, w) in _panel_segments(
            panels, ((True, depth_a, pc.q if pc.a <= 0.0 else 0.0),
                     (False, depth_b, pc.p if pc.b >= 1.0 else 0.0))):
        off = (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x) * h[:, None]
        dva, dvb = (off, length[:, None] - off) if from_a else (length[:, None] - off, off)
        v = va[:, None] + dva
        above_a = 2.0 * s[:, None] * np.cosh(va[:, None] + 0.5 * dva) * np.sinh(0.5 * dva)
        below_b = 2.0 * s[:, None] * np.cosh(vb[:, None] - 0.5 * dvb) * np.sinh(0.5 * dvb)
        r = pc.a + above_a
        dens = (1.0 - pc.b + below_b) ** pc.p * r**pc.q / np.cosh(v)
        if root_p:
            dens *= (1.0 + np.sqrt(r)) ** -root_p
        total += 0.5 * (t1 - t0) * h * (dens @ w)
    return pc.c * total


def _poisson_values(atoms, pieces, theta: np.ndarray) -> np.ndarray:
    """int sin(theta)/((r-cos t)^2 + sin^2 t) alpha(dr) at each theta in (0, pi),
    alpha given by atoms (r, w) and pieces (pc, root_p) (see _poisson_piece):
    atoms in closed form; constant-density pieces as the exact arctangent
    difference, written as one arctan2 so that it keeps its relative accuracy
    at small theta, and density c*r as cos(theta) times that difference plus
    (sin(theta)/2)*log((db^2 + sin^2)/(da^2 + sin^2)), da = a - cos(theta)
    and db = b - cos(theta); other pieces by _poisson_piece, in blocks of
    _THETA_BLOCK."""
    s, co = np.sin(theta), np.cos(theta)
    half_cos = 2.0 * np.sin(0.5 * theta) ** 2  # 1 - cos(theta) without cancellation
    val = np.zeros(theta.shape)
    for r, w in atoms:
        val += w * s / ((r - co) ** 2 + s * s)
    for pc, root_p in pieces:
        if pc.p == 0.0 and pc.q in (0.0, 1.0):
            da, db = pc.a - 1.0 + half_cos, pc.b - 1.0 + half_cos
            integral = np.arctan2(s * (pc.b - pc.a), s * s + da * db)
            if pc.q == 1.0:  # r = (r - cos t) + cos t splits off a logarithm
                integral = co * integral + 0.5 * s * np.log((db * db + s * s) / (da * da + s * s))
            val += pc.c * integral
            continue
        for lo in range(0, theta.size, _THETA_BLOCK):
            blk = slice(lo, lo + _THETA_BLOCK)
            val[blk] += _poisson_piece(pc, s[blk], half_cos[blk], root_p)
    return val


def poisson_sup(alpha: RadialMeasure, theta_grid=None) -> float:
    """Grid sup over theta in (0, pi) of int sin(theta)/((r-cos t)^2 + sin^2 t) alpha(dr),
    the whole grid evaluated at once by _poisson_values.  Power-law tails
    failing the Carleson criterion classify analytically to +inf.
    """
    if any(pc.b >= 1.0 and pc.p < 0.0 for pc in alpha.pieces):
        return INF
    theta = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    return float(np.max(_poisson_values(alpha.atoms, [(pc, 0.0) for pc in alpha.pieces], theta)))
