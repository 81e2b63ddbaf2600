"""Half-plane side: frequency-domain signals, the Laplace-weighted norm,
the bounded weight built from the conjugate Poisson kernel, its truncated
Fourier identity, Garnett's criterion, and the stability inequality with
its explicit constant.

The conjugate Poisson integral behind W and the Poisson integral of
Garnett's criterion are closed form: a power-law piece reduces, after
scaling, to G_p(A, B) = int_A^B t^p/(1+t^2) dt (hypergeometric, `_kernel`),
evaluated over the whole x or y grid in one array call.  No adaptive
quadrature runs here; the truncated Fourier identity integrates the
closed-form V by composite Simpson, a fixed weight vector on its uniform
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import hyp2f1, sici

from .measures import (
    INF,
    TWO,
    LineMeasure,
    VerticalMeasure,
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

    @classmethod
    def zero(cls, xi_max: float, d_xi: float) -> "BandSignal":
        k = int(round(xi_max / d_xi))
        return cls(xi_max, d_xi, np.zeros(2 * k + 1, dtype=complex))

    def __add__(self, other: "BandSignal") -> "BandSignal":
        self._check_grid(other)
        return BandSignal(self.xi_max, self.d_xi, self.values + other.values)

    def __sub__(self, other: "BandSignal") -> "BandSignal":
        self._check_grid(other)
        return BandSignal(self.xi_max, self.d_xi, self.values - other.values)

    def _check_grid(self, other: "BandSignal"):
        if self.xi_max != other.xi_max or self.d_xi != other.d_xi:
            raise ValueError("frequency grids do not match")

    def to_dict(self) -> dict:
        return {"xi_max": self.xi_max, "d_xi": self.d_xi,
                "re": self.values.real.tolist(), "im": self.values.imag.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "BandSignal":
        return cls(float(doc["xi_max"]), float(doc["d_xi"]),
                   np.array(doc["re"]) + 1j * np.array(doc["im"]))


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


def _unit_kernel(p: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int_lo^hi t^p/(1+t^2) dt for 0 <= lo <= hi <= 1.

    For p >= 0 the primitive t^(p+1)/(p+1) * 2F1(1, (p+1)/2; (p+3)/2; -t^2),
    arctan(t) at p = 0 and log1p(t^2)/2 at p = 1; for p < 0 the identity
    t^p/(1+t^2) = t^p - t^(p+2)/(1+t^2), the first part by power_integral;
    the two parts differ by at most a factor 2 on [0, 1], so nothing cancels
    as p -> -1 and p <= -1 works when lo > 0.
    hyp2f1 runs only strictly inside (0, 1): the primitive is 0 at t = 0, and
    its value at t = 1 is one scalar call shared by every end point there."""
    if p < 0.0:
        head = power_integral(p + 1.0, lo, hi)
        return np.where(np.isinf(head), head, head - _unit_kernel(p + 2.0, lo, hi))
    e = p + 1.0
    t = np.stack((hi, lo))
    at_one = t == 1.0
    inner = ~at_one & (t != 0.0)
    ti = t[inner]
    prim = np.zeros(t.shape)
    prim[at_one] = 1.0 / e * hyp2f1(1.0, 0.5 * e, 0.5 * e + 1.0, -1.0)
    prim[inner] = ti**e / e * hyp2f1(1.0, 0.5 * e, 0.5 * e + 1.0, -ti * ti)
    return prim[0] - prim[1]


def _kernel(p: float, lo, hi) -> np.ndarray:
    """G_p(lo, hi) = int_lo^hi t^p/(1+t^2) dt, vectorised over 0 <= lo <= hi <= inf.

    The part above t = 1 maps to int u^(-p)/(1+u^2) du over [1/hi, 1/lo] by
    t = 1/u, so both parts are integrals over [0, 1] (_unit_kernel) and the
    result keeps full relative accuracy when lo and hi are both tiny or both
    huge; G_p(0, inf) = pi/(2 cos(pi p/2)) for -1 < p < 1, +inf otherwise."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        below = _unit_kernel(p, np.minimum(lo, 1.0), np.minimum(hi, 1.0))
        above = _unit_kernel(-p, 1.0 / np.maximum(hi, 1.0), 1.0 / np.maximum(lo, 1.0))
    return below + above


def _conj_poisson(pi: VerticalMeasure, x) -> np.ndarray:
    """V(x) = int pi*x/(y^2 + pi^2 x^2) Pi(dy) over an array of x, W = i*V.

    With s = pi*|x| a piece c*y^p dy on [a, b) gives sgn(x)*c*s^p*G_p(a/s, b/s)
    (substitute y = s*t); an atom w at y gives w*pi*x/(y^2 + pi^2 x^2)."""
    x = np.asarray(x, dtype=float)
    s = math.pi * np.abs(x)
    out = np.zeros(x.shape)
    nz = s > 0.0
    sv = s[nz]
    acc = np.zeros(sv.shape)
    for y, w in pi.atoms:
        acc += w * sv / (y * y + sv * sv)
    for pc in pi.pieces:
        acc += pc.c * sv**pc.p * _kernel(pc.p, pc.a / sv, pc.b / sv)
    out[nz] = np.sign(x[nz]) * acc
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
    si, _ = sici(2.0 * math.pi * abs_xi * _X_MAX)
    tail = (2.0 * trunc.cumulative(big_r) / math.pi) * (math.pi / 2.0 - si)
    # numeric and exact share the factor sgn(xi), which the relative error drops
    exact = laplace_transform(trunc, abs_xi, TWO)
    return float(np.max(np.abs(main + tail - exact) / np.abs(exact)))


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

    The Poisson integral is closed form on all heights at once: a piece
    c*|t|^p dt on [a, b) gives c*y^p*G_p(lo/y, hi/y) (substitute t = y*u) for
    each range [lo, hi] of |t| on either side of t = 0 (LinePiece.halves),
    infinite ends included.  The box masses are one box_mass call on the
    same grid."""
    finite = nu.poisson_integrable()
    for t, _ in nu.atoms:
        if t == 0.0:
            finite = False
    for pc in nu.pieces:
        if pc.a <= 0.0 <= pc.b and pc.p < 0.0:
            finite = False
        if (pc.a == -INF or pc.b == INF) and pc.p > 0.0:
            finite = False
    if not finite:
        return INF, INF
    y = GARNETT_GRID
    val = np.zeros(y.shape)
    for t, w in nu.atoms:
        val += w * y / (t * t + y * y)
    for pc in nu.pieces:
        for lo, hi in pc.halves():
            if lo < hi:
                val += pc.c * y**pc.p * _kernel(pc.p, lo / y, hi / y)
    return float(np.max(val)), float(np.max(nu.box_mass(y) / (2.0 * y)))


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


def stability_constant(pi: VerticalMeasure, big_r: float | None = None) -> float:
    """The explicit stability constant 2*sqrt(2 + sup|W|) for Pi (or its
    truncation at R)."""
    p = pi if big_r is None else pi.truncate(big_r)
    return 2.0 * math.sqrt(2.0 + w_pi_sup(p))


def const_bpi(c_b: float, pi: VerticalMeasure) -> float:
    """sqrt(C_b + sup|W| + 1); +inf propagates."""
    if c_b < 1.0:
        raise ValueError("C_b is >= 1 by definition")
    return math.sqrt(c_b + w_pi_sup(pi) + 1.0)
