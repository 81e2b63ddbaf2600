"""Radial measures on the disk, vertical measures on the half-plane,
and line measures on the real axis.

Every measure is a finite list of atoms plus piecewise power-law
densities, so moments, tail masses and Laplace transforms have closed
forms (incomplete beta / gamma) with a log-domain quadrature fallback
for values below the double-precision floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaln, gammainc, gammaln, logsumexp

INF = float("inf")

# default probe grids (sup over grid + analytic tail classification)
DELTA_GRID = np.logspace(-6, math.log10(1 - 1e-6), 40)
Y_GRID = np.logspace(-6, 6, 40)


@dataclass(frozen=True)
class RadialPiece:
    """Density c*(1-r)^p * r^q dr on [a, b) with [a, b) inside [0, 1)."""

    a: float
    b: float
    c: float
    p: float
    q: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= 1.0):
            raise ValueError(f"radial piece needs 0 <= a < b <= 1, got [{self.a}, {self.b})")
        if self.c <= 0:
            raise ValueError("piece coefficient must be positive")
        if self.p <= -1:
            raise ValueError("boundary exponent p must exceed -1 for finite mass")
        if self.q < 0:
            raise ValueError("origin exponent q must be nonnegative")


@dataclass(frozen=True)
class VerticalPiece:
    """Density c*y^p dy on [a, b) with [a, b) inside (0, inf); b may be inf."""

    a: float
    b: float
    c: float
    p: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise ValueError(f"vertical piece needs 0 <= a < b, got [{self.a}, {self.b})")
        if self.c <= 0:
            raise ValueError("piece coefficient must be positive")
        if self.a == 0.0 and self.p <= -1:
            raise ValueError("piece touching 0 needs p > -1 for local finiteness")


@dataclass(frozen=True)
class LinePiece:
    """Density c*|t|^p dt on [a, b) subset of R; endpoints may be +-inf."""

    a: float
    b: float
    c: float
    p: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"line piece needs a < b, got [{self.a}, {self.b})")
        if self.c <= 0:
            raise ValueError("piece coefficient must be positive")
        if self.p <= -1 and self.a <= 0.0 <= self.b:
            raise ValueError("piece covering 0 needs p > -1 for local finiteness")


def _set_atoms_and_pieces(measure, piece_cls) -> None:
    """Store a frozen measure's atoms as float (position, weight) pairs and
    its pieces as piece_cls; reject nonpositive weights and empty measures."""
    atoms = tuple((float(x), float(w)) for x, w in measure.atoms)
    pieces = tuple(p if isinstance(p, piece_cls) else piece_cls(*p) for p in measure.pieces)
    object.__setattr__(measure, "atoms", atoms)
    object.__setattr__(measure, "pieces", pieces)
    if any(w <= 0 for _, w in atoms):
        raise ValueError("atom weight must be positive")
    if not atoms and not pieces:
        raise ValueError("measure must have at least one atom or piece")


def _log_beta_segment(m: float, p: float, a: float, b: float) -> float:
    """log of int_a^b r^m (1-r)^p dr for 0 <= a < b <= 1, m >= 0, p > -1."""
    full = betaln(m + 1.0, p + 1.0)
    if a <= 0.0 and b >= 1.0:
        return float(full)
    d = betainc(m + 1.0, p + 1.0, b) - betainc(m + 1.0, p + 1.0, a)
    if d > 1e-280:
        return float(full + math.log(d))
    # regularized incomplete beta underflows; integrate exp(g) around its max
    return _log_quad_segment(m, p, a, b)


def _log_quad_segment(m: float, p: float, a: float, b: float) -> float:
    """Log-domain Gauss-Legendre for int_a^b exp(m*log r + p*log(1-r)) dr."""
    lo, hi = max(a, 1e-300), min(b, 1.0 - 1e-16)

    def g(r):
        return m * np.log(r) + p * np.log1p(-r)

    scan = np.linspace(lo, hi, 4001)
    gs = g(scan)
    k = int(np.argmax(gs))
    gmax = gs[k]
    keep = np.where(gs >= gmax - 80.0)[0]
    lo2, hi2 = scan[keep[0]], scan[keep[-1]]
    if keep[0] > 0:
        lo2 = scan[keep[0] - 1]
    if keep[-1] < len(scan) - 1:
        hi2 = scan[keep[-1] + 1]
    x, w = np.polynomial.legendre.leggauss(200)
    mid, half = 0.5 * (hi2 + lo2), 0.5 * (hi2 - lo2)
    nodes = mid + half * x
    return float(logsumexp(g(nodes) + np.log(w * half)))


@dataclass(frozen=True)
class RadialMeasure:
    """sigma(dr) on [0,1); generates the radial measure mu(dz) = sigma(dr) dtheta."""

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        _set_atoms_and_pieces(self, RadialPiece)
        for r, _ in self.atoms:
            if not 0.0 <= r < 1.0:
                raise ValueError(f"atom radius {r} outside [0, 1)")

    def tail_mass(self, delta: float) -> float:
        """sigma([1-delta, 1))."""
        lo = 1.0 - delta
        total = sum(w for r, w in self.atoms if r >= lo)
        for pc in self.pieces:
            a = max(pc.a, lo)
            if a >= pc.b:
                continue
            total += pc.c * math.exp(_log_beta_segment(pc.q, pc.p, a, pc.b))
        return total

    @classmethod
    def from_dict(cls, doc: dict) -> "RadialMeasure":
        atoms = tuple((float(a["r"]), float(a["w"])) for a in doc.get("atoms", []))
        pieces = tuple(
            RadialPiece(float(p["a"]), float(p["b"]), float(p["c"]), float(p["p"]),
                        float(p.get("q", 0.0)))
            for p in doc.get("pieces", [])
        )
        return cls(atoms, pieces)

    def to_dict(self) -> dict:
        return {
            "atoms": [{"r": r, "w": w} for r, w in self.atoms],
            "pieces": [{"a": p.a, "b": p.b, "c": p.c, "p": p.p, "q": p.q} for p in self.pieces],
        }


@dataclass(frozen=True)
class VerticalMeasure:
    """Pi(dy) on (0, inf); generates mu(dz) = dx Pi(dy) on the half-plane."""

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        _set_atoms_and_pieces(self, VerticalPiece)
        if any(y <= 0 for y, _ in self.atoms):
            raise ValueError("atom height must be positive")

    def cumulative(self, y: float) -> float:
        """F_Pi(y) = Pi((0, y])."""
        total = sum(w for yk, w in self.atoms if yk <= y)
        for pc in self.pieces:
            b = min(pc.b, y)
            if b <= pc.a:
                continue
            if pc.p == -1.0:
                total += pc.c * (math.log(b) - math.log(pc.a))
            else:
                e = pc.p + 1.0
                total += pc.c * (b**e - pc.a**e) / e
        return total

    def truncate(self, R: float, eps: float = 0.0) -> "VerticalMeasure":
        """Keep only the mass at heights in (eps, R): Pi_R(dy) = 1(eps<y<R) Pi(dy).

        The default eps = 0 cuts only above; a piece keeps its density on
        [max(a, eps), min(b, R))."""
        atoms = tuple((y, w) for y, w in self.atoms if eps < y < R)
        pieces = tuple(
            VerticalPiece(max(pc.a, eps), min(pc.b, R), pc.c, pc.p)
            for pc in self.pieces if max(pc.a, eps) < min(pc.b, R)
        )
        if not atoms and not pieces:
            raise ValueError(f"truncation to ({eps}, {R}) leaves an empty measure")
        return VerticalMeasure(atoms, pieces)

    @classmethod
    def from_dict(cls, doc: dict) -> "VerticalMeasure":
        atoms = tuple((float(a["y"]), float(a["w"])) for a in doc.get("atoms", []))
        pieces = tuple(
            VerticalPiece(float(p["a"]), float(p["b"]), float(p["c"]), float(p["p"]))
            for p in doc.get("pieces", [])
        )
        return cls(atoms, pieces)

    def to_dict(self) -> dict:
        return {
            "atoms": [{"y": y, "w": w} for y, w in self.atoms],
            "pieces": [{"a": p.a, "b": _dump_inf(p.b), "c": p.c, "p": p.p} for p in self.pieces],
        }


@dataclass(frozen=True)
class LineMeasure:
    """nu(dt) on R: atoms anywhere, two-sided power-law pieces. Used for
    Garnett's criterion; integrability against (1+t^2)^{-1} is checked
    analytically, not enforced at construction."""

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        _set_atoms_and_pieces(self, LinePiece)

    def poisson_integrable(self) -> bool:
        """True iff int (1+t^2)^{-1} nu(dt) < infinity."""
        for pc in self.pieces:
            if (pc.a == -INF or pc.b == INF) and pc.p >= 1.0:
                return False
        return True

    def box_mass(self, L: float) -> float:
        """nu([-L, L])."""
        total = sum(w for t, w in self.atoms if abs(t) <= L)
        for pc in self.pieces:
            total += _line_piece_mass(pc, -L, L)
        return total

    @classmethod
    def from_dict(cls, doc: dict) -> "LineMeasure":
        atoms = tuple((float(a["t"]), float(a["w"])) for a in doc.get("atoms", []))
        pieces = tuple(
            LinePiece(float(p["a"]), float(p["b"]), float(p["c"]), float(p["p"]))
            for p in doc.get("pieces", [])
        )
        return cls(atoms, pieces)


def _line_piece_mass(pc: LinePiece, lo: float, hi: float) -> float:
    """int of c|t|^p over [a,b) intersected with [lo, hi]."""
    a, b = max(pc.a, lo), min(pc.b, hi)
    if a >= b:
        return 0.0

    def prim(t):
        # antiderivative of |t|^p, anchored at 0 (valid per sign half-line)
        if t == 0.0:
            return 0.0
        if pc.p == -1.0:
            return math.copysign(math.log(abs(t)), t)
        return math.copysign(abs(t) ** (pc.p + 1.0) / (pc.p + 1.0), t)

    return pc.c * (prim(b) - prim(a))


def _dump_inf(x: float):
    return "inf" if math.isinf(x) else x


# ---------------------------------------------------------------------------
# moments


@lru_cache(maxsize=4096)
def moment(mu: RadialMeasure, n: int) -> float:
    """sigma_n = int_0^1 r^{2|n|} sigma(dr)."""
    return float(moment_array(mu, abs(int(n)))[-1])


def moment_array(mu: RadialMeasure, n_max: int) -> np.ndarray:
    """[sigma_0, ..., sigma_{n_max}]; underflows to 0 below the float floor."""
    with np.errstate(under="ignore"):
        return np.exp(log_moment_array(mu, n_max))


def log_moment_array(mu: RadialMeasure, n_max: int) -> np.ndarray:
    """[log sigma_0, ..., log sigma_{n_max}], exact in the log domain even
    when sigma_n underflows double precision."""
    n = np.arange(n_max + 1)
    logs = []
    for r, w in mu.atoms:
        if r == 0.0:
            col = np.full(n_max + 1, -INF)
            col[0] = math.log(w)
        else:
            col = math.log(w) + 2.0 * n * math.log(r)
        logs.append(col)
    for pc in mu.pieces:
        m = 2.0 * n + pc.q
        if pc.a <= 0.0 and pc.b >= 1.0:
            col = math.log(pc.c) + betaln(m + 1.0, pc.p + 1.0)
        else:
            full = betaln(m + 1.0, pc.p + 1.0)
            d = betainc(m + 1.0, pc.p + 1.0, pc.b) - betainc(m + 1.0, pc.p + 1.0, pc.a)
            col = np.where(d > 1e-280, full + np.log(np.maximum(d, 1e-300)), -INF)
            bad = np.where(d <= 1e-280)[0]
            for j in bad:
                col[j] = _log_quad_segment(m[j], pc.p, pc.a, pc.b)
            col = math.log(pc.c) + col
        logs.append(col)
    stacked = np.vstack(logs)
    return logsumexp(stacked, axis=0)


# ---------------------------------------------------------------------------
# Carleson criteria


def radial_carleson(mu: RadialMeasure, delta_grid: Sequence[float] | None = None):
    """(sup_ratio, is_carleson) for sup_delta sigma([1-delta,1))/delta.

    The finiteness verdict is analytic on the power-law family: a piece
    reaching r=1 is compatible iff its boundary exponent p >= 0.  The
    sup_ratio is the grid maximum (default grid is augmented with atom
    and piece-boundary candidates).
    """
    ok = all(pc.p >= 0 for pc in mu.pieces if pc.b >= 1.0)
    if delta_grid is None:
        cands = [1.0 - r for r, _ in mu.atoms if r > 0.0]
        cands += [1.0 - pc.a for pc in mu.pieces if pc.a > 0.0]
        cands += [1.0 - pc.b for pc in mu.pieces if pc.b < 1.0]
        grid = np.unique(np.concatenate([DELTA_GRID, np.array(cands)])) if cands else DELTA_GRID
        grid = grid[(grid > 0.0) & (grid < 1.0)]
    else:
        grid = np.asarray(delta_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("delta grid must be nonempty")
    if not ok:
        return INF, False
    ratio = max(mu.tail_mass(d) / d for d in grid)
    return float(ratio), True


def boundary_accessible(mu: RadialMeasure) -> bool:
    """True iff the support reaches the boundary (sup of support = 1)."""
    return max([r for r, _ in mu.atoms] + [pc.b for pc in mu.pieces]) >= 1.0


def singular_integral(mu: RadialMeasure) -> float:
    """2*pi * int sigma(dr)/(1-r^2); +inf when a boundary piece has p <= 0."""
    for pc in mu.pieces:
        if pc.b >= 1.0 and pc.p <= 0.0:
            return INF
    total = sum(w / (1.0 - r * r) for r, w in mu.atoms)
    for pc in mu.pieces:
        # substitute u = 1-r: c * u^{p-1} (1-u)^q / (2-u) on [1-b, 1-a]
        lo, hi = 1.0 - pc.b, 1.0 - pc.a

        def f(u, _q=pc.q, _c=pc.c):
            return _c * (1.0 - u) ** _q / (2.0 - u)

        if lo == 0.0 and pc.p < 1.0:
            val, _ = integrate.quad(f, lo, hi, weight="alg", wvar=(pc.p - 1.0, 0.0),
                                    epsabs=1e-12, epsrel=1e-12, limit=200)
        else:
            val, _ = integrate.quad(lambda u: f(u) * u ** (pc.p - 1.0), max(lo, 1e-300), hi,
                                    epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val
    return 2.0 * math.pi * total


def vertical_carleson(pi: VerticalMeasure):
    """(sup_ratio, is_carleson) for sup_y Pi((0,y])/y over Y_GRID augmented
    with the atoms and the finite piece endpoints."""
    ok = all(pc.p >= 0 for pc in pi.pieces if pc.a == 0.0)
    ok = ok and all(pc.p <= 0 for pc in pi.pieces if math.isinf(pc.b))
    cands = [y for y, _ in pi.atoms]
    cands += [pc.a for pc in pi.pieces if pc.a > 0.0]
    cands += [pc.b for pc in pi.pieces if not math.isinf(pc.b)]
    grid = np.unique(np.concatenate([Y_GRID, np.array(cands)])) if cands else Y_GRID
    grid = grid[grid > 0.0]
    if not ok:
        return INF, False
    ratio = max(pi.cumulative(y) / y for y in grid)
    return float(ratio), True


# ---------------------------------------------------------------------------
# Laplace transform of a vertical measure

FOUR_PI = "four_pi"
TWO = "two"
_KERNEL_RATE = {FOUR_PI: 4.0 * math.pi, TWO: 2.0}


def laplace_transform(pi: VerticalMeasure, xi, convention: str = FOUR_PI):
    """int exp(-k*y*|xi|) Pi(dy) with k = 4*pi (four_pi) or 2 (two); 0 at xi=0.

    Accepts a scalar or an array of frequencies.
    """
    rate = _KERNEL_RATE[convention]
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    s = rate * np.abs(xi_arr)
    out = np.zeros_like(s)
    nz = s > 0.0
    sv = s[nz]
    acc = np.zeros_like(sv)
    with np.errstate(under="ignore"):
        for y, w in pi.atoms:
            acc += w * np.exp(-sv * y)
        for pc in pi.pieces:
            if pc.p > -1.0:
                e = pc.p + 1.0
                hi = gammainc(e, sv * pc.b) if not math.isinf(pc.b) else 1.0
                lo = gammainc(e, sv * pc.a)
                acc += pc.c * np.exp(gammaln(e) - e * np.log(sv)) * (hi - lo)
            else:
                for i, sval in enumerate(sv):
                    top = pc.b if not math.isinf(pc.b) else pc.a + 80.0 / sval
                    val, _ = integrate.quad(
                        lambda y: pc.c * y**pc.p * math.exp(-sval * y), pc.a, top,
                        epsabs=1e-13, epsrel=1e-12, limit=200)
                    acc[i] += val
    out[nz] = acc
    if np.isscalar(xi) or np.asarray(xi).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# builtin measures


def lebesgue_disk() -> RadialMeasure:
    """sigma(dr) = r dr, i.e. normalized area measure dz = r dr dtheta."""
    return RadialMeasure(pieces=(RadialPiece(0.0, 1.0, 1.0, 0.0, 1.0),))


def power_disk(p: float, b: float = 1.0, c: float = 1.0) -> RadialMeasure:
    """sigma(dr) = c*(1-r)^p dr on [0, b)."""
    return RadialMeasure(pieces=(RadialPiece(0.0, b, c, p, 0.0),))


def atom_disk(r: float, w: float = 1.0) -> RadialMeasure:
    return RadialMeasure(atoms=((r, w),))


def lebesgue_halfplane() -> VerticalMeasure:
    """Pi(dy) = dy on (0, inf)."""
    return VerticalMeasure(pieces=(VerticalPiece(0.0, INF, 1.0, 0.0),))


def atom_halfplane(y: float, w: float = 1.0) -> VerticalMeasure:
    return VerticalMeasure(atoms=((y, w),))


def lebesgue_line() -> LineMeasure:
    return LineMeasure(pieces=(LinePiece(-INF, INF, 1.0, 0.0),))
