"""Norms on the disk side: L^2 and L^1 of boundary traces, the weighted
Sobolev-type norm diagonal in the moments, the analytic Bergman norm, the
bounded weight w_sigma, and the Poisson-sup functional.

poisson_sup and w_sigma share one evaluation of the Poisson integral over
a theta grid (_poisson_values): closed forms for atoms and for pieces of
density c or c*r, and for other pieces a fixed composite Gauss(-Jacobi)
rule in a variable that flattens the Poisson kernel, its nodes from
measures._panel_nodes.  w_sigma is that integral in s = r^2, except below
r = 1/2 where it takes measures._radial_rule, the singular integral's rule
in r; analyze_w_sigma_errors subtracts the cusp of w_sigma at theta = 0 before
its Fourier analysis.  No adaptive quadrature runs here.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .fourier import CoeffVector, GridFunction, analyze
from .measures import (INF, RadialMeasure, RadialPiece, _grading_depth, _panel_nodes, _plan, _radial_rule,
                       moment_array, radial_carleson)


def l2_norm(u: CoeffVector) -> float:
    """Boundary L^2 norm with the (1/2pi) d theta normalization: sqrt(sum |c_n|^2)."""
    return float(np.linalg.norm(u.coeffs))


def l1_norm(g: GridFunction) -> float:
    """Boundary-trace L^1 norm, (1/M) sum |samples|."""
    return float(np.mean(np.abs(g.samples)))


def hmu_norm(u: CoeffVector, mu: RadialMeasure) -> float:
    """sqrt(2*pi*sum |c_n|^2 sigma_|n|); also the weighted harmonic Bergman
    norm of the harmonic extension under a radial weight."""
    with np.errstate(under="ignore"):  # sigma_|n| by n + N, from the moment plan
        return float(math.sqrt(2.0 * math.pi * np.sum(np.abs(u.coeffs) ** 2 * _plan(mu, u.n_max)[0])))


def a2_norm(u: CoeffVector, mu: RadialMeasure) -> float:
    """Weighted analytic Bergman norm; rejects non-analytic input."""
    if not u.is_analytic():
        raise ValueError("a2_norm requires an analytic input (c_n = 0 for n < 0)")
    return hmu_norm(u, mu)


_THETA_BLOCK = 128  # thetas per _poisson_values block: typical node arrays stay under 128 kB (256 ran ~20% slower)
_ROOT_SPLIT = 0.5  # w_sigma takes [a, 1/2) of a piece with p != 0 in r, the rest in s = r^2


def w_sigma(mu: RadialMeasure, m: int) -> GridFunction:
    """Samples of w_sigma(e^{i theta}) = 2i int r^2 sin(theta)/|r^2 - e^{-i theta}|^2 sigma(dr).

    For Carleson measures this weight is bounded with Fourier coefficients
    sgn(n)*sigma_n; a warning is issued (not an error) otherwise.

    With s = r^2, |r^2 - e^{-i theta}|^2 = (s - cos theta)^2 + sin^2 theta,
    so w_sigma/(2i) is poisson_sup's integral of the image of r^2 sigma(dr):
    an atom w at r becomes w*r^2 at r^2, and c*(1-r)^p*r^q dr on [a, b)
    becomes (c/2)*(1-s)^p*s^((q+1)/2)*(1+sqrt s)^(-p) ds on [a^2, b^2).  A
    piece with p != 0 takes its part below r = 1/2, where sqrt(s) is not
    smooth, in r instead, by a one-panel _radial_rule: there the poles
    r = +-e^{+-i theta/2} of the kernel stay at least 1/2 away.  w_sigma is odd about
    theta = pi, so only theta in (0, pi) is evaluated.
    """
    _, ok = radial_carleson(mu)
    if not ok:
        warnings.warn("measure fails the radial Carleson criterion; w_sigma is expected unbounded")
    k = np.arange(1, (m + 1) // 2)
    # theta = 2*pi*k/m, past pi/2 reflected to pi - theta = pi*(m - 2k)/m, exact
    # in its integer, so that near pi, where w_sigma vanishes, it stays accurate
    near_pi = 4 * k > m
    s, co, half_cos = _trig(math.pi * np.where(near_pi, m - 2 * k, 2 * k) / m)
    co = np.where(near_pi, -co, co)
    half_cos = np.where(near_pi, 2.0 - half_cos, half_cos)
    atoms = [(r * r, w * r * r) for r, w in mu.atoms]
    pieces = []
    for pc in mu.pieces:
        a = pc.a
        if pc.p != 0.0 and a < _ROOT_SPLIT:
            r, wts = _radial_rule(pc.a, min(pc.b, _ROOT_SPLIT), pc.c, pc.p, pc.q, 1)
            atoms += zip(r * r, wts * r * r)
            a = _ROOT_SPLIT
        if pc.b > a:
            pieces.append((RadialPiece(a * a, pc.b * pc.b, 0.5 * pc.c, pc.p, 0.5 * (pc.q + 1.0)), pc.p))
    half = _poisson_values(atoms, pieces, s, co, half_cos)
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
            sing_hat += amp * np.sign(ns) * np.exp([math.lgamma(j - pc.p) - math.lgamma(j + 1.0) for j in k.tolist()])
    sing[0] = 0.0
    hat = analyze(GridFunction(g.samples - sing), n_max)
    ref = np.sign(ns) * moment_array(mu, n_max)[np.abs(ns)]
    return float(np.max(np.abs(hat.coeffs + sing_hat - ref)))


def default_theta_grid() -> np.ndarray:
    """Chebyshev-style grid of 2048 points on (0, pi) clustered near theta = 0."""
    u = (np.arange(1, 2049) - 0.5) / 2048
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
    s, half_cos = s[:, None], half_cos[:, None]  # a row of nodes per theta
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
    dva, dvb, w = _panel_nodes(panels, ((depth_a, pc.q if pc.a <= 0.0 else 0.0),
                                        (depth_b, pc.p if pc.b >= 1.0 else 0.0)), length)
    r = pc.a + 2.0 * s * np.cosh(va + 0.5 * dva) * np.sinh(0.5 * dva)
    below_b = 2.0 * s * np.cosh(vb - 0.5 * dvb) * np.sinh(0.5 * dvb)
    dens = (1.0 - pc.b + below_b) ** pc.p * r**pc.q / np.cosh(va + dva)
    if root_p:
        dens *= (1.0 + np.sqrt(r)) ** -root_p
    return pc.c * np.vecdot(dens, w)


def _trig(theta: np.ndarray):
    """sin(theta), cos(theta) and 1 - cos(theta), the last without cancellation."""
    return np.sin(theta), np.cos(theta), 2.0 * np.sin(0.5 * theta) ** 2


def _poisson_values(atoms, pieces, s: np.ndarray, co: np.ndarray, half_cos: np.ndarray) -> np.ndarray:
    """int sin(theta)/((r-cos t)^2 + sin^2 t) alpha(dr) at each theta in (0, pi),
    given s = sin(theta), co = cos(theta) and half_cos = 1 - cos(theta) (_trig),
    alpha given by atoms (r, w) and pieces (pc, root_p) (see _poisson_piece):
    atoms in closed form; constant-density pieces as the exact arctangent
    difference, written as one arctan2 so that it keeps its relative accuracy
    at small theta, and density c*r as cos(theta) times that difference plus
    (sin(theta)/2)*log((db^2 + sin^2)/(da^2 + sin^2)), da = a - cos(theta)
    and db = b - cos(theta); other pieces by _poisson_piece, in blocks of
    _THETA_BLOCK."""
    val = np.zeros(s.shape)
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
        for lo in range(0, s.size, _THETA_BLOCK):
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
    return float(np.max(_poisson_values(alpha.atoms, [(pc, 0.0) for pc in alpha.pieces], *_trig(theta))))
