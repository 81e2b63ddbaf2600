"""Half-plane side: frequency-domain signals, the Laplace-weighted norm,
the bounded weight built from the conjugate Poisson kernel, its truncated
Fourier identity, Garnett's criterion, and the stability inequality with
its explicit constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import sici

from .measures import (
    INF,
    TWO,
    LineMeasure,
    VerticalMeasure,
    laplace_transform,
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


def _conj_poisson_moment(pi: VerticalMeasure, x: float) -> float:
    """int pi*x/(y^2 + pi^2 x^2) Pi(dy)."""
    if x == 0.0:
        return 0.0
    px = math.pi * x
    total = 0.0
    for y, w in pi.atoms:
        total += w * px / (y * y + px * px)
    for pc in pi.pieces:
        a, b = pc.a, pc.b
        if pc.p == 0.0:
            hi = math.pi / 2.0 * math.copysign(1.0, x) if math.isinf(b) else math.atan(b / px)
            total += pc.c * (hi - math.atan(a / px))
        else:
            top = b if not math.isinf(b) else max(abs(px), a) * 1e9

            def f(y):
                return pc.c * y**pc.p * px / (y * y + px * px)

            val, _ = integrate.quad(f, a, top, points=[abs(px)] if a < abs(px) < top else None,
                                    epsabs=1e-12, epsrel=1e-11, limit=400)
            total += val
    return total


def w_pi(pi: VerticalMeasure, x) -> complex:
    """W(x) = i * int pi*x/(y^2 + pi^2 x^2) Pi(dy); i times a real odd function."""
    if np.ndim(x) > 0:
        return np.array([w_pi(pi, float(xx)) for xx in np.asarray(x).ravel()])
    return 1j * _conj_poisson_moment(pi, float(x))


def default_x_grid() -> np.ndarray:
    return np.logspace(-8, 8, 4096)


def w_pi_sup(pi: VerticalMeasure) -> float:
    """Sup of |W| over default_x_grid() plus analytic candidates; +inf when
    the vertical Carleson criterion fails (the weight is then unbounded)."""
    _, ok = vertical_carleson(pi)
    if not ok:
        return INF
    grid = default_x_grid()
    cands = [y / math.pi for y, _ in pi.atoms]
    xs = np.concatenate([grid, np.array(cands)]) if cands else grid
    return float(max(_conj_poisson_moment(pi, x) for x in xs))


def w_pi_truncated_fourier_check(
    pi: VerticalMeasure,
    eps: float,
    big_r: float,
    n_x: int = 4096,
    xi_test=None,
) -> float:
    """Max relative error between the numerically transformed truncated
    weight and its closed spectral form sgn(xi) * int_eps^R e^{-2 y |xi|} Pi(dy).

    The imaginary-free odd part V (W = i V) is integrated on [0, _X_MAX]
    by composite Simpson against sin(2 pi x xi), with the analytic 1/x
    tail appended via the sine integral.
    """
    if not 0.0 < eps < big_r:
        raise ValueError("need 0 < eps < R")
    if xi_test is None:
        xi_test = np.linspace(0.5, 4.0, 15)
    xi_test = np.asarray(xi_test, dtype=float)
    if n_x % 2 == 1:
        n_x += 1
    xs = np.linspace(0.0, _X_MAX, n_x + 1)
    trunc = pi.truncate(big_r, eps)
    v = np.array([_conj_poisson_moment(trunc, x) for x in xs])
    tail_mass = trunc.cumulative(big_r)
    worst = 0.0
    for xi in xi_test:
        integrand = v * np.sin(2.0 * math.pi * xs * abs(xi))
        main = 2.0 * integrate.simpson(integrand, x=xs)
        si, _ = sici(2.0 * math.pi * abs(xi) * _X_MAX)
        tail = (2.0 * tail_mass / math.pi) * (math.pi / 2.0 - si)
        numeric = math.copysign(1.0, xi) * (main + tail)
        exact = math.copysign(1.0, xi) * laplace_transform(trunc, xi, TWO)
        worst = max(worst, abs(numeric - exact) / abs(exact))
    return worst


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
    classification."""
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
    psup = 0.0
    for y in GARNETT_GRID:
        val = sum(w * y / (t * t + y * y) for t, w in nu.atoms)
        for pc in nu.pieces:
            a = pc.a if not math.isinf(pc.a) else -1e12 * y
            b = pc.b if not math.isinf(pc.b) else 1e12 * y
            if pc.p == 0.0:
                val += pc.c * (math.atan(b / y) - math.atan(a / y))
            else:
                val += integrate.quad(
                    lambda t: pc.c * abs(t) ** pc.p * y / (t * t + y * y), a, b,
                    points=[0.0] if a < 0.0 < b else None, epsabs=1e-11, limit=400)[0]
        psup = max(psup, val)
    bsup = max(nu.box_mass(L) / (2.0 * L) for L in GARNETT_GRID)
    return float(psup), float(bsup)


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
