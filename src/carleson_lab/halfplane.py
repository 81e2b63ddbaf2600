"""Half-plane side: frequency-domain signals, the Laplace-weighted norm,
the bounded weight built from the conjugate Poisson kernel, its truncated
Fourier identity, Garnett's criterion, and the stability inequality with
its explicit constant.

The conjugate Poisson integral behind W and the Poisson integral of
Garnett's criterion are one Lorentzian integral, int s/(t^2+s^2) nu(dt)
(`_lorentz`), in closed form: a power-law piece reduces, after
scaling, to G_p(A, B) = int_A^B t^p/(1+t^2) dt (hypergeometric, `_kernel`),
evaluated over the whole x or y grid in one array call.  No adaptive
quadrature runs here; the truncated Fourier identity integrates the
closed-form V by composite Simpson, a fixed weight vector on its uniform
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .measures import (
    INF,
    TWO,
    LineMeasure,
    VerticalMeasure,
    _lentz,
    laplace_transform,
    power_integral,
    vertical_carleson,
)

_FOURIER_BLOCK = 256  # frequencies per phase-matrix block in SpatialFunction.fourier
GARNETT_GRID = np.logspace(-6, 6, 49)  # heights y and half-widths L probed by garnett_check
_X_MAX = 64.0  # w_pi_truncated_fourier_check integrates V on [0, _X_MAX], then a 1/x tail
_GRID_TOL = 1e-9  # relative support and additivity tolerance of stability_ratio


@dataclass(frozen=True)
class BandSignal:
    """Complex samples of the boundary spectrum on a symmetric uniform
    frequency grid xi_k = k*d_xi, |k| <= K with K = xi_max/d_xi."""

    xi_max: float
    d_xi: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        k = int(round(self.xi_max / self.d_xi))
        if abs(k * self.d_xi - self.xi_max) > 1e-12 * max(1.0, self.xi_max):
            raise ValueError("xi_max must be an integer multiple of d_xi")
        if v.shape != (2 * k + 1,):
            raise ValueError(f"values must have length {2 * k + 1}")
        object.__setattr__(self, "values", v)

    @property
    def xis(self) -> np.ndarray:
        k = (self.values.size - 1) // 2
        return np.arange(-k, k + 1) * self.d_xi

    def _check_grid(self, other: "BandSignal"):
        if self.xi_max != other.xi_max or self.d_xi != other.d_xi:
            raise ValueError("frequency grids do not match")


@dataclass(frozen=True)
class SpatialFunction:
    """Complex samples on a uniform real-line grid with trapezoidal weights."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if x.shape != v.shape or x.ndim != 1 or x.size < 2:
            raise ValueError("x and values must be matching 1-d arrays")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    def l1(self) -> float:
        return float(np.trapezoid(np.abs(self.values), self.x))

    def fourier(self, xis: np.ndarray) -> np.ndarray:
        """Trapezoidal continuous Fourier transform int f(x) e^{-2 pi i x xi} dx,
        in blocks of _FOURIER_BLOCK frequencies to bound the phase matrix."""
        xis = np.asarray(xis, dtype=float)
        w = np.gradient(self.x)
        fw = self.values * w
        out = np.empty(xis.size, dtype=complex)
        for lo in range(0, xis.size, _FOURIER_BLOCK):
            hi = min(lo + _FOURIER_BLOCK, xis.size)
            phase = np.exp(-2j * math.pi * np.outer(xis[lo:hi], self.x))
            out[lo:hi] = phase @ fw
        return out


# ---------------------------------------------------------------------------
# the bounded weight W built from the conjugate Poisson kernel


def _cvz_weights(n: int) -> np.ndarray:
    """Weights w_k with sum_k (-1)^k a_k ~ sum_{k<n} w_k a_k to a relative
    2/(3+sqrt 8)^n whenever a_k is the k-th moment of a positive measure on
    [0, 1]: Algorithm 1 of Cohen, Rodriguez Villegas & Zagier (Experiment.
    Math. 9, 2000)."""
    d = 0.5 * ((3.0 + math.sqrt(8.0)) ** n + (3.0 + math.sqrt(8.0)) ** -n)
    b, c, out = -1.0, -d, []
    for k in range(n):
        c = b - c
        out.append(c / d)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return np.array(out)


_PRIMITIVE_TERMS = 22  # 2/(3+sqrt 8)^22 < 3e-17
_PRIMITIVE_WEIGHTS = _cvz_weights(_PRIMITIVE_TERMS)
_PRIMITIVE_K2 = 2.0 * np.arange(_PRIMITIVE_TERMS)
_MAX_LIFTS = 1000  # most lifts t^q -> t^(q+2) of one part of G_p


def _primitive_sum(e, t: np.ndarray) -> np.ndarray:
    """t^-e int_0^t u^(e-1)/(1+u^2) du = sum_k (-1)^k t^(2k)/(e+2k) over a 1-d
    array of 0 <= t <= 1, for a float e > 0 or a column of them (rows of the
    result): the terms are moments of a positive measure on [0, t^2], so
    _cvz_weights sum it in _PRIMITIVE_TERMS terms, their powers by doubling."""
    powers = np.empty((_PRIMITIVE_TERMS,) + t.shape)  # t^0 .. t^(2*_PRIMITIVE_TERMS-2)
    powers[0], powers[1] = 1.0, t * t
    for j in (1, 2, 4, 8, 16):  # rows j+1 .. 2j are rows 1 .. j times t^(2j)
        np.multiply(powers[1:min(j, _PRIMITIVE_TERMS - 1 - j) + 1], powers[j], powers[j + 1:2 * j + 1])
    return _PRIMITIVE_WEIGHTS / (e + _PRIMITIVE_K2) @ powers


def _kernel(p: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """G_p(lo, hi) = int_lo^hi t^p/(1+t^2) dt over 1-d arrays 0 <= lo <= hi <= inf.

    The part above t = 1 maps to int u^(-p)/(1+u^2) du over [1/hi, 1/lo]
    (t = 1/u), so both parts lie in [0, 1] and keep full relative accuracy
    when lo and hi are both tiny or both huge.  At p = 0 each part is one
    arctangent.  A part of order q < 0 is lifted by t^q/(1+t^2) = t^q -
    t^(q+2)/(1+t^2), the power by power_integral (+inf where it diverges at
    0): the two terms differ by at most a factor 2 on [0, 1], so nothing
    cancels as q -> -1.  At order q >= 0 the primitive t^e _primitive_sum(e,
    t), e = q+1, vanishes at 0; one call takes both parts' ends inside (0, 1)
    and t = 1 for each part, first and last.  G_p(0, inf) = pi/(2 cos(pi
    p/2)) for -1 < p < 1, +inf otherwise."""
    # rows: the hi and lo ends of the part below t = 1, then of the part above
    t = np.array((hi, lo, lo, hi))
    np.minimum(t[:2], 1.0, out=t[:2])
    np.divide(1.0, np.maximum(t[2:], 1.0, out=t[2:]), t[2:])
    if p == 0.0:
        return np.arctan2(t[0] - t[1], 1.0 + t[0] * t[1]) + np.arctan2(t[2] - t[3], 1.0 + t[2] * t[3])
    heads, es = ([], []), []
    for q, th, tl, hs in ((p, t[0], t[1], heads[0]), (-p, t[2], t[3], heads[1])):
        while q < 0.0:
            if len(hs) == _MAX_LIFTS:
                raise ValueError(f"G_p needs more than {_MAX_LIFTS} lifts at p={p:g}")
            hs.append(power_integral(q + 1.0, tl, th))
            # a lift that is +inf or 0 everywhere makes the part so too: stop lifting
            q = q + 2.0 if np.any((hs[-1] > 0.0) & (hs[-1] < INF)) else 0.0
        es.append(q + 1.0)
    inner = (t > 0.0) & (t < 1.0)
    ti = np.concatenate(((1.0,), t[inner], (1.0,)))
    cut = 1 + np.count_nonzero(inner[:2])
    f = _primitive_sum(np.array([[es[0]], [es[1]]]), ti)
    vals = np.concatenate((ti[:cut] ** es[0] * f[0, :cut], ti[cut:] ** es[1] * f[1, cut:]))
    prim = (t == 1.0) * vals[[0, 0, -1, -1], None]
    prim[inner] = vals[1:-1]
    out = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf where two lifts diverge at 0; the where keeps inf
        for q, hs, g in zip((p, -p), heads, (prim[0] - prim[1], prim[2] - prim[3])):
            g = reduce(lambda acc, h: h - acc, reversed(hs), g)
            out = out + (np.where(np.isinf(hs[0]), hs[0], g) if q <= -1.0 else g)
    return out


def _lorentz(atoms, ranges, s: np.ndarray) -> np.ndarray:
    """int s/(t^2 + s^2) nu(dt) over a 1-d array of s > 0, for nu made of
    atoms (t, w) and densities c*t^p dt on ranges 0 <= lo < hi <= inf, given
    as (c, p, lo, hi): an atom gives w*s/(t^2 + s^2), a range
    c*s^p*G_p(lo/s, hi/s) (substitute t = s*u)."""
    out = np.zeros(s.shape)
    for t, w in atoms:
        out += w * s / (t * t + s * s)
    for c, p, lo, hi in ranges:
        out += c * s**p * _kernel(p, lo / s, hi / s)
        if np.isnan(out).any():  # s^p and G_p under- and overflow against each other
            raise ValueError(f"y^p on ({lo:g}, {hi:g}) leaves the double range at p={p:g}")
    return out


def _conj_poisson(pi: VerticalMeasure, x) -> np.ndarray:
    """V(x) = int pi*x/(y^2 + pi^2 x^2) Pi(dy) over an array of x, W = i*V:
    sgn(x) times the Lorentzian integral of Pi at s = pi*|x|."""
    x = np.asarray(x, dtype=float)
    s = math.pi * np.abs(x)
    out = np.zeros(x.shape)
    nz = s > 0.0
    ranges = [(pc.c, pc.p, pc.a, pc.b) for pc in pi.pieces]
    out[nz] = np.sign(x[nz]) * _lorentz(pi.atoms, ranges, s[nz])
    return out


def w_pi(pi: VerticalMeasure, x):
    """W(x) = i * int pi*x/(y^2 + pi^2 x^2) Pi(dy); i times a real odd function.

    Closed form over the whole array x at once (see _conj_poisson and
    _kernel): atoms exactly, each y^p piece through the hypergeometric
    kernel G_p.  Returns a complex scalar for scalar x, else an array of the
    shape of x."""
    v = _conj_poisson(pi, x)
    w = np.zeros(v.shape, dtype=complex)
    w.imag = v
    return complex(w) if np.ndim(x) == 0 else w


def default_x_grid() -> np.ndarray:
    return np.logspace(-8, 8, 4096)


@lru_cache(maxsize=256)
def w_pi_sup(pi: VerticalMeasure) -> float:
    """Sup of |W| over default_x_grid() plus the atoms' maximisers y/pi, all
    evaluated in closed form in one array call (V is odd, so x > 0 suffices);
    +inf when the vertical Carleson criterion fails (the weight is then
    unbounded).  Memoised per measure, so stability_constant and const_bpi
    of one measure share one evaluation."""
    _, ok = vertical_carleson(pi)
    if not ok:
        return INF
    xs = np.concatenate([default_x_grid(), [y / math.pi for y, _ in pi.atoms]])
    return float(np.max(_conj_poisson(pi, xs)))


def w_pi_truncated_fourier_check(
    pi: VerticalMeasure,
    eps: float,
    big_r: float,
    n_x: int = 4096,
    xi_test=None,
) -> float:
    """Max relative error between the numerically transformed truncated
    weight and its closed spectral form sgn(xi) * int_eps^R e^{-2 y |xi|} Pi(dy).

    The real odd part V (W = i V) is evaluated in closed form on n_x + 1
    points of [0, _X_MAX] (n_x raised to even) and integrated against
    sin(2 pi x xi) for all xi_test at once by composite Simpson, one
    matrix-vector product with the weights h/3*[1, 4, 2, ..., 4, 1], with
    the analytic 1/x tail appended via the sine integral.
    """
    if not 0.0 < eps < big_r:
        raise ValueError("need 0 < eps < R")
    if xi_test is None:
        xi_test = np.linspace(0.5, 4.0, 15)
    xi_test = np.asarray(xi_test, dtype=float)
    if n_x % 2 == 1:
        n_x += 1
    xs = np.linspace(0.0, _X_MAX, n_x + 1)
    simpson = np.full(n_x + 1, 2.0)  # composite Simpson weights h/3*[1, 4, 2, ..., 4, 1]
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    simpson *= _X_MAX / (3.0 * n_x)
    trunc = pi.truncate(big_r, eps)
    v = _conj_poisson(trunc, xs)
    abs_xi = np.abs(xi_test)
    main = 2.0 * (np.sin(2.0 * math.pi * xs * abs_xi[:, None]) @ (v * simpson))
    si = _sine_integral(2.0 * math.pi * abs_xi * _X_MAX)
    tail = (2.0 * trunc.cumulative(big_r) / math.pi) * (math.pi / 2.0 - si)
    # numeric and exact share the factor sgn(xi), which the relative error drops
    exact = laplace_transform(trunc, abs_xi, TWO)
    return float(np.max(np.abs(main + tail - exact) / np.abs(exact)))


def _sine_integral(x: np.ndarray) -> np.ndarray:
    """Si(x) = int_0^x sin(t)/t dt, elementwise for x >= 0.  Below x = 2 its
    power series (DLMF 6.6.5); from there on pi/2 - f cos(x) - g sin(x) with
    the auxiliary functions of DLMF 6.2.17-18, f + i g = i e^(ix) E_1(ix),
    E_1(ix) = e^(-ix)/(1+ix - 1/(3+ix - 4/(5+ix - ...))) (DLMF 6.9) by _lentz."""
    out = np.empty(x.shape)
    small = x < 2.0
    if small.any():
        xs = x[small]
        k = np.arange(1.0, 15.0)
        powers = np.cumprod(-(xs * xs)[:, None] / ((2.0 * k) * (2.0 * k + 1.0)), axis=1)  # (-x^2)^k/(2k+1)!
        out[small] = xs * (1.0 + (powers / (2.0 * k + 1.0)).sum(axis=1))
    if not small.all():
        xm = x[~small]
        fg = 1j / _lentz(1.0 + 1j * xm, lambda i: (-float(i * i), 1.0 + 2.0 * i + 1j * xm))
        out[~small] = 0.5 * math.pi - fg.real * np.cos(xm) - fg.imag * np.sin(xm)
    return out


# ---------------------------------------------------------------------------
# norms and the stability inequality


def b2h_norm(g: BandSignal, pi: VerticalMeasure) -> float:
    """Laplace-weighted spectral norm sqrt(int |g(xi)|^2 L(xi) d xi), L in the
    four_pi convention, by the trapezoidal rule on the frequency grid."""
    lam = laplace_transform(pi, g.xis)
    return float(math.sqrt(np.trapezoid(np.abs(g.values) ** 2 * lam, dx=g.d_xi)))


def garnett_check(nu: LineMeasure):
    """(poisson_sup, box_sup): sup_y int y/(t^2+y^2) nu(dt) and
    sup_L nu([-L,L])/(2L) over GARNETT_GRID, both with analytic infinity
    classification.

    The Poisson integral is the Lorentzian integral of nu on all heights at
    once, a piece contributing each range [lo, hi] of |t| on either side of
    t = 0 (LinePiece.halves), infinite ends included.  The box masses are
    one box_mass call on the same grid."""
    for t, _ in nu.atoms:
        if t == 0.0:
            return INF, INF
    for pc in nu.pieces:
        if pc.a <= 0.0 <= pc.b and pc.p < 0.0:
            return INF, INF
        if (pc.a == -INF or pc.b == INF) and pc.p > 0.0:
            return INF, INF
    y = GARNETT_GRID
    ranges = [(pc.c, pc.p, lo, hi) for pc in nu.pieces for lo, hi in pc.halves() if lo < hi]
    return float(np.max(_lorentz(nu.atoms, ranges, y))), float(np.max(nu.box_mass(y) / (2.0 * y)))


def stability_ratio(
    f_hat0: BandSignal,
    g_hat0: BandSignal,
    h: SpatialFunction,
    pi: VerticalMeasure,
    big_r: float,
) -> float:
    """||f|| / (||g|| + ||h||_1) in the truncated Laplace-weighted norm.

    Rejects inputs whose spectrum leaks below xi = 0 (the analyticity
    requirement) or that fail the additivity f = g + transform(h) on the
    grid.  The explicit-constant harness asserts the result stays below
    2*sqrt(2 + sup|W|) for the truncated measure.
    """
    f_hat0._check_grid(g_hat0)
    scale = float(np.max(np.abs(f_hat0.values)))
    if scale == 0.0:
        raise ValueError("f must be nonzero")
    neg = f_hat0.values[f_hat0.xis < 0.0]
    if neg.size and float(np.max(np.abs(neg))) > _GRID_TOL * scale:
        raise ValueError("f has negative-frequency content; analyticity precondition violated")
    h_hat = h.fourier(f_hat0.xis)
    residual = float(np.max(np.abs(f_hat0.values - g_hat0.values - h_hat)))
    if residual > _GRID_TOL * max(1.0, scale):
        raise ValueError(f"f != g + h on the grid (residual {residual:.3e})")
    pi_r = pi.truncate(big_r)
    num = b2h_norm(f_hat0, pi_r)
    den = b2h_norm(g_hat0, pi_r) + h.l1()
    return num / den


def stability_constant(pi: VerticalMeasure) -> float:
    """The explicit stability constant 2*sqrt(2 + sup|W|) for Pi."""
    return 2.0 * math.sqrt(2.0 + w_pi_sup(pi))


def const_bpi(pi: VerticalMeasure) -> float:
    """sqrt(C_b + sup|W| + 1) for the Hilbert transform's C_b = 1; +inf
    propagates."""
    return math.sqrt(1.0 + w_pi_sup(pi) + 1.0)
