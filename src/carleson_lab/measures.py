"""Radial measures on the disk, vertical measures on the half-plane,
and line measures on the real axis.

Every measure is a finite list of atoms plus piecewise power-law
densities, so moments, tail masses and Laplace transforms have closed
forms (incomplete beta / gamma).  Where scipy's regularized incomplete
beta underflows, a log-domain continued fraction (DLMF 8.17.22) takes
over, so moments and tail masses far below the double-precision floor keep
their relative accuracy.  A tail of a piece reaching r = 1 is taken as
B_delta(p+1, q+1) in delta itself.  A Laplace transform of a piece with
p <= -1 is a difference of upper incomplete gammas of negative order,
lifted to positive order by the recurrence of DLMF 8.8.2.  The singular
integral is closed form for atoms and a fixed composite Gauss(-Jacobi)
rule for pieces; that rule's panel layout is shared with
norms.poisson_sup.  No adaptive quadrature runs anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import (betainc, betaln, exp1, gamma, gammainc, gammaincc, gammaln,
                           logsumexp, roots_jacobi)

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

    def halves(self) -> tuple:
        """The ranges [lo, hi] of |t| over the parts of [a, b) on either side
        of t = 0, each (0, 0) where the piece misses that side."""
        return ((max(self.a, 0.0), max(self.b, 0.0)), (max(-self.b, 0.0), max(-self.a, 0.0)))


_CF_EPS = np.finfo(float).eps  # convergence of a continued-fraction step to 1
_CF_TINY = 1e-300  # modified Lentz replaces zero denominators by this
# cap on terms: _log_inc_beta needed under 100 up to a = 1e8, _upper_gamma under 100 at x = 1
_CF_MAX_TERMS = 1000


def _log_inc_beta(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log B_x(a, b) = log int_0^x t^(a-1) (1-t)^(b-1) dt, elementwise, for
    0 <= x <= (a+1)/(a+b+2), where the continued fraction of DLMF 8.17.22,

        B_x(a, b) = x^a (1-x)^b / a * 1/(1+ d_1/(1+ d_2/(1+ ...))),

    converges fast.  Evaluated by modified Lentz in the log domain, so values
    far below the double-precision floor keep their relative accuracy;
    converged entries leave the working arrays."""
    with np.errstate(divide="ignore"):
        log_pref = a * np.log(x) + b * np.log1p(-x) - np.log(a)
    cf = np.empty(x.shape)
    idx = np.arange(x.size)
    x, a, b = x.ravel(), a.ravel(), b.ravel()

    def nonzero(v):
        return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)

    c = np.ones(x.size)
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    k = 0
    while idx.size:
        k += 1
        # d_{2k}, then d_{2k+1}
        for num in (k * (b - k) * x / ((a + 2 * k - 1.0) * (a + 2 * k)),
                    -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1.0))):
            d = 1.0 / nonzero(1.0 + num * d)
            c = nonzero(1.0 + num / c)
            step = d * c
            h = h * step
        done = (np.abs(step - 1.0) <= _CF_EPS) | (k >= _CF_MAX_TERMS)
        if done.any():
            cf.flat[idx[done]] = h[done]
            keep = ~done
            idx, x, a, b, c, d, h = (v[keep] for v in (idx, x, a, b, c, d, h))
    return log_pref + np.log(cf)


def _log_sub(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log(e^u - e^v) for u >= v; -inf where u = -inf or u = v (a segment
    too narrow for its two tails to differ in double precision)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u == -INF, -INF, u + np.log1p(-np.exp(v - u)))


def _log_beta_segment(m, p, a, b) -> np.ndarray:
    """log of int_a^b r^m (1-r)^p dr, elementwise, for 0 <= a <= b <= 1 and
    m, p > -1, with no betainc and no quadrature.

    The segment is split at s = (m+2)/(m+p+4), the point below which the
    continued fraction of _log_inc_beta converges fast for B(m+1, p+1) and
    above which it converges fast for the mirrored B(p+1, m+1): the part
    below s is B_min(b,s) - B_a, the part above is the difference of the
    mirrored lower tails at 1 - max(a, s) and 1 - b.  Each part is a
    difference of two tails of which the larger is nearer s, so no full
    beta function (whose betaln loses up to 1e-13 at large m) enters."""
    m, p, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (m, p, a, b)))
    al, be = m + 1.0, p + 1.0
    s = (al + 1.0) / (al + be + 2.0)
    below_hi = np.where(a < s, np.minimum(b, s), 0.0)
    below_lo = np.minimum(a, below_hi)
    above_lo = np.where(b > s, 1.0 - np.maximum(a, s), 0.0)
    above_hi = np.minimum(1.0 - b, above_lo)
    logs = _log_inc_beta(np.stack([below_hi, below_lo, above_lo, above_hi]),
                         np.stack([al, al, be, be]), np.stack([be, be, al, al]))
    return np.logaddexp(_log_sub(logs[0], logs[1]), _log_sub(logs[2], logs[3]))


def _log_segment(m, p, a, b) -> np.ndarray:
    """log of int_a^b r^m (1-r)^p dr, elementwise: scipy's betainc difference
    where it is representable (above 1e-280), else _log_beta_segment."""
    full = betaln(m + 1.0, p + 1.0)
    d = betainc(m + 1.0, p + 1.0, b) - betainc(m + 1.0, p + 1.0, a)
    out = np.where(d > 1e-280, full + np.log(np.maximum(d, 1e-300)), -INF)
    bad = d <= 1e-280
    if bad.any():
        out[bad] = _log_beta_segment(*(np.broadcast_to(v, d.shape)[bad] for v in (m, p, a, b)))
    return out


def encode_inf(x):
    """+-inf as "inf" / "-inf", which JSON can carry and float reads back."""
    return str(x) if isinstance(x, float) and math.isinf(x) else x


@dataclass(frozen=True)
class _Measure:
    """Atoms (position, weight) plus power-law pieces.  A subclass names its
    atoms' position key (POSITION) and its piece class (PIECE); its measure
    file is {"atoms": [{POSITION: x, "w": w}, ...], "pieces": [{<PIECE
    fields>}, ...]}, and from_dict rejects any other key."""

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        pieces = tuple(p if isinstance(p, self.PIECE) else self.PIECE(*p) for p in self.pieces)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)
        if any(w <= 0 for _, w in atoms):
            raise ValueError("atom weight must be positive")
        if not atoms and not pieces:
            raise ValueError("measure must have at least one atom or piece")

    @classmethod
    def from_dict(cls, doc: dict):
        atoms, pieces = doc.get("atoms", []), doc.get("pieces", [])
        piece_fields = fields(cls.PIECE)
        piece_keys = tuple(f.name for f in piece_fields)
        needed = tuple(f.name for f in piece_fields if f.default is MISSING)
        atom_keys = (cls.POSITION, "w")
        for part, keys, required in [(doc, ("atoms", "pieces"), ()),
                                     *((a, atom_keys, atom_keys) for a in atoms),
                                     *((p, piece_keys, needed) for p in pieces)]:
            unknown = sorted(set(part) - set(keys))
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r}; allowed: {', '.join(keys)}")
            missing = [k for k in required if k not in part]
            if missing:
                raise ValueError(f"missing key {missing[0]!r}; required: {', '.join(required)}")
        return cls(tuple((float(a[cls.POSITION]), float(a["w"])) for a in atoms),
                   tuple(cls.PIECE(**{k: float(v) for k, v in p.items()}) for p in pieces))

    def to_dict(self) -> dict:
        return {
            "atoms": [{self.POSITION: x, "w": w} for x, w in self.atoms],
            "pieces": [{k: encode_inf(v) for k, v in asdict(p).items()} for p in self.pieces],
        }


@dataclass(frozen=True)
class RadialMeasure(_Measure):
    """sigma(dr) on [0,1); generates the radial measure mu(dz) = sigma(dr) dtheta."""

    POSITION, PIECE = "r", RadialPiece

    def __post_init__(self):
        super().__post_init__()
        for r, _ in self.atoms:
            if not 0.0 <= r < 1.0:
                raise ValueError(f"atom radius {r} outside [0, 1)")

    def tail_mass(self, delta):
        """sigma([1-delta, 1)), elementwise over an array of delta.

        A piece reaching r = 1 contributes c*B_delta(p+1, q+1), taken from
        delta itself: 1 - I_{1-delta} would cancel once delta^(p+1) nears
        the float epsilon."""
        d = np.asarray(delta, dtype=float)
        lo = 1.0 - d
        total = np.zeros(d.shape)
        for r, w in self.atoms:
            total += np.where(r >= lo, w, 0.0)
        with np.errstate(under="ignore"):
            for pc in self.pieces:
                if pc.b >= 1.0:
                    width = np.clip(d, 0.0, 1.0 - pc.a)
                    total += pc.c * np.exp(_log_segment(pc.p, pc.q, 0.0, width))
                    continue
                a = np.maximum(pc.a, lo)
                inside = a < pc.b
                total[inside] += pc.c * np.exp(_log_segment(pc.q, pc.p, a[inside], pc.b))
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class VerticalMeasure(_Measure):
    """Pi(dy) on (0, inf); generates mu(dz) = dx Pi(dy) on the half-plane."""

    POSITION, PIECE = "y", VerticalPiece

    def __post_init__(self):
        super().__post_init__()
        if any(y <= 0 for y, _ in self.atoms):
            raise ValueError("atom height must be positive")

    def cumulative(self, y):
        """F_Pi(y) = Pi((0, y]), elementwise over an array of y."""
        y = np.asarray(y, dtype=float)
        total = np.zeros(y.shape)
        for yk, w in self.atoms:
            total += np.where(yk <= y, w, 0.0)
        for pc in self.pieces:
            total += pc.c * power_integral(pc.p + 1.0, pc.a, np.clip(y, pc.a, pc.b))
        return float(total) if total.ndim == 0 else total

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


@dataclass(frozen=True)
class LineMeasure(_Measure):
    """nu(dt) on R: atoms anywhere, two-sided power-law pieces. Used for
    Garnett's criterion; integrability against (1+t^2)^{-1} is checked
    analytically, not enforced at construction."""

    POSITION, PIECE = "t", LinePiece

    def poisson_integrable(self) -> bool:
        """True iff int (1+t^2)^{-1} nu(dt) < infinity."""
        for pc in self.pieces:
            if (pc.a == -INF or pc.b == INF) and pc.p >= 1.0:
                return False
        return True

    def box_mass(self, L):
        """nu([-L, L]), elementwise over an array of L."""
        L = np.asarray(L, dtype=float)
        total = np.zeros(L.shape)
        for t, w in self.atoms:
            total += np.where(abs(t) <= L, w, 0.0)
        for pc in self.pieces:
            for lo, hi in pc.halves():
                total += pc.c * power_integral(pc.p + 1.0, np.minimum(lo, L), np.minimum(hi, L))
        return float(total) if total.ndim == 0 else total


def power_integral(e: float, lo, hi) -> np.ndarray:
    """int_lo^hi t^(e-1) dt, elementwise, for 0 <= lo, hi <= inf: 0 where
    hi <= lo, +inf where the integral diverges at 0 or at inf.

    The larger of lo^e and hi^e is factored out, hi^e*(1 - (lo/hi)^e)/e for
    e > 0 and lo^e*(1 - (hi/lo)^e)/(-e) for e < 0, the bracket taken as
    -expm1(-|e|*log(hi/lo)); log(hi/lo) at e = 0.  So nothing cancels near
    e = 0 (p = -1 for a density t^p), and nothing overflows unless the
    integral does.  The package's one antiderivative of a power law:
    cumulative, box_mass and halfplane's kernel G_p all use it."""
    lo = np.abs(np.asarray(lo, dtype=float))  # lo = -0.0 would make log(hi/lo) nan
    hi = np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(hi / lo)
        if e == 0.0:
            out = log_ratio
        else:
            out = (hi if e > 0.0 else lo) ** e * -np.expm1(-abs(e) * log_ratio) / abs(e)
    return np.where(hi > lo, out, 0.0)


# ---------------------------------------------------------------------------
# fixed composite rules (singular_integral here, poisson_sup in norms)

_PANEL_ORDER = 16  # Gauss nodes per panel
_MAX_GRADING = 40  # most geometric panels toward an end of a piece
_PANEL_RATE = 8.0  # most growth (log-derivative times width) of a singular_integral panel


@lru_cache(maxsize=64)
def _jacobi_rule(beta: float):
    """_PANEL_ORDER-point Gauss-Jacobi nodes on [-1, 1] for the weight
    (1+x)^beta, with the weights divided by it, so that sum(w*f(x))
    integrates f itself and is exact where f/(1+x)^beta is a polynomial."""
    x, w = roots_jacobi(_PANEL_ORDER, 0.0, beta)
    return x, w / (1.0 + x) ** beta


def _grading_depth(dist, width) -> int:
    """Panels of ratio 1/4 that a panel end needs before a singularity at
    distance dist beyond it lies a third of the last panel's width away."""
    with np.errstate(divide="ignore"):
        need = np.log(width / (3.0 * np.maximum(dist, 0.0))) / math.log(4.0)
    return int(np.clip(np.ceil(np.max(need)), 0, _MAX_GRADING))


def _panel_segments(panels: int, ends) -> list:
    """The segments (from_a, t0, t1, rule) of a composite rule on a piece
    [a, b] cut into `panels` panels of width h: the segment covers offsets
    [t0*h, t1*h] from a (from_a) or from b, so that distances to either end
    never cancel.  Inner panels get plain Gauss; for each (from_a, depth,
    exponent) in ends, the end panel is cut geometrically by ratio 1/4
    depth times and its last piece gets Gauss-Jacobi with weight
    offset^exponent (_jacobi_rule)."""
    gauss = _jacobi_rule(0.0)
    segs = [(True, k, k + 1, gauss) for k in range(1, panels - 1)]
    for from_a, depth, exponent in ends:
        segs += [(from_a, 4.0 ** -(j + 1), 4.0 ** -j, gauss) for j in range(depth)]
        segs.append((from_a, 0.0, 4.0 ** -depth, _jacobi_rule(exponent)))
    return segs


# ---------------------------------------------------------------------------
# moments


def moment(mu: RadialMeasure, n: int) -> float:
    """sigma_n = int_0^1 r^{2|n|} sigma(dr)."""
    return float(moment_array(mu, abs(int(n)))[-1])


@lru_cache(maxsize=256)
def moment_array(mu: RadialMeasure, n_max: int) -> np.ndarray:
    """[sigma_0, ..., sigma_{n_max}]; underflows to 0 below the float floor.
    Cached per (measure, n_max), so the array is shared and read-only."""
    with np.errstate(under="ignore"):
        sig = np.exp(log_moment_array(mu, n_max))
    sig.flags.writeable = False
    return sig


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
            col = math.log(pc.c) + _log_segment(m, pc.p, pc.a, pc.b)
        logs.append(col)
    if len(logs) == 1:  # logsumexp of one term returns it; skip its cost
        return logs[0]
    return logsumexp(np.vstack(logs), axis=0)


# ---------------------------------------------------------------------------
# Carleson criteria


def _probe_grid(base: np.ndarray, cands: list, top: float) -> np.ndarray:
    """The sorted union of a default probe grid and the candidate points
    (atoms and piece ends) of a measure, cut to (0, top)."""
    grid = np.unique(np.concatenate([base, cands]))
    return grid[(grid > 0.0) & (grid < top)]


def radial_carleson(mu: RadialMeasure, delta_grid: Sequence[float] | None = None):
    """(sup_ratio, is_carleson) for sup_delta sigma([1-delta,1))/delta.

    The finiteness verdict is analytic on the power-law family: a piece
    reaching r=1 is compatible iff its boundary exponent p >= 0.  The
    sup_ratio is the grid maximum (default grid is augmented with atom
    and piece-boundary candidates).
    """
    ok = all(pc.p >= 0 for pc in mu.pieces if pc.b >= 1.0)
    if delta_grid is None:
        grid = _probe_grid(DELTA_GRID, [1.0 - r for r, _ in mu.atoms]
                           + [1.0 - x for pc in mu.pieces for x in (pc.a, pc.b)], 1.0)
    else:
        grid = np.asarray(delta_grid, dtype=float)
        if grid.size == 0:
            raise ValueError("delta grid must be nonempty")
    if not ok:
        return INF, False
    return float(np.max(mu.tail_mass(grid) / grid)), True


def boundary_accessible(mu: RadialMeasure) -> bool:
    """True iff the support reaches the boundary (sup of support = 1)."""
    return max([r for r, _ in mu.atoms] + [pc.b for pc in mu.pieces]) >= 1.0


def singular_integral(mu: RadialMeasure) -> float:
    """2*pi * int sigma(dr)/(1-r^2); +inf when a boundary piece has p <= 0.

    Atoms in closed form, each piece by a fixed composite 16-point
    Gauss(-Jacobi) rule in r (_singular_piece); no adaptive quadrature."""
    for pc in mu.pieces:
        if pc.b >= 1.0 and pc.p <= 0.0:
            return INF
    total = sum(w / (1.0 - r * r) for r, w in mu.atoms)
    total += sum(_singular_piece(pc) for pc in mu.pieces)
    return 2.0 * math.pi * total


def _singular_piece(pc: RadialPiece) -> float:
    """int_a^b c*(1-r)^(p-1)*r^q/(1+r) dr, the piece's share of the singular
    integral, by a fixed composite Gauss(-Jacobi) rule.

    The branch points r = 1 and r = 0 of the density are handled as in
    norms.poisson_sup: where the piece reaches one (b = 1, a = 0) its end
    panel is Gauss-Jacobi with weight (1-r)^(p-1) or r^q; where one lies
    just beyond an end, the end panel is graded geometrically toward it.
    The panels are narrow enough that (|p-1| + q) times their width stays
    within _PANEL_RATE.  r - a and 1 - r come from offsets from the two
    ends, exact at either."""
    length = pc.b - pc.a
    panels = max(2, math.ceil(length * (abs(pc.p - 1.0) + pc.q) / _PANEL_RATE))
    h = length / panels
    smooth_p = pc.p == int(pc.p) and pc.p >= 1.0
    smooth_q = pc.q == int(pc.q)
    depth_a = 0 if pc.a <= 0.0 or smooth_q else _grading_depth(pc.a, h)
    depth_b = 0 if pc.b >= 1.0 or smooth_p else _grading_depth(1.0 - pc.b, h)
    total = 0.0
    for from_a, t0, t1, (x, w) in _panel_segments(
            panels, ((True, depth_a, pc.q if pc.a <= 0.0 else 0.0),
                     (False, depth_b, pc.p - 1.0 if pc.b >= 1.0 else 0.0))):
        off = (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x) * h
        above_a, below_b = (off, length - off) if from_a else (length - off, off)
        r = pc.a + above_a
        dens = (1.0 - pc.b + below_b) ** (pc.p - 1.0) * r**pc.q / (1.0 + r)
        total += 0.5 * (t1 - t0) * h * float(dens @ w)
    return pc.c * total


def vertical_carleson(pi: VerticalMeasure):
    """(sup_ratio, is_carleson) for sup_y Pi((0,y])/y over Y_GRID augmented
    with the atoms and the finite piece endpoints."""
    ok = all(pc.p >= 0 for pc in pi.pieces if pc.a == 0.0)
    ok = ok and all(pc.p <= 0 for pc in pi.pieces if math.isinf(pc.b))
    if not ok:
        return INF, False
    ends = [x for pc in pi.pieces for x in (pc.a, pc.b)]
    grid = _probe_grid(Y_GRID, [y for y, _ in pi.atoms] + ends, INF)
    return float(np.max(pi.cumulative(grid) / grid)), True


# ---------------------------------------------------------------------------
# Laplace transform of a vertical measure

FOUR_PI = "four_pi"
TWO = "two"
_KERNEL_RATE = {FOUR_PI: 4.0 * math.pi, TWO: 2.0}


def laplace_transform(pi: VerticalMeasure, xi, convention: str = FOUR_PI):
    """int exp(-k*y*|xi|) Pi(dy) with k = 4*pi (four_pi) or 2 (two); 0 at xi=0.

    Accepts a scalar or an array of frequencies, all evaluated in one array
    call per piece.  With s = k*|xi| an atom w at y gives w*exp(-s*y), and a
    piece c*y^p dy on [a, b) gives c*s^-(p+1) times the incomplete gamma
    difference over [s*a, s*b]: the lower one (gammainc) for p > -1, the
    upper one for p <= -1, where a > 0, as a^(p+1)*_upper_gamma(p+1, s*a)
    minus the same at b, so that s^-(p+1) never multiplies a subnormal.
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
            e = pc.p + 1.0
            if e > 0.0:
                hi = gammainc(e, sv * pc.b) if not math.isinf(pc.b) else 1.0
                lo = gammainc(e, sv * pc.a)
                acc += pc.c * np.exp(gammaln(e) - e * np.log(sv)) * (hi - lo)
            else:
                acc += pc.c * (pc.a**e * _upper_gamma(e, sv * pc.a)
                               - pc.b**e * _upper_gamma(e, sv * pc.b))
    out[nz] = acc
    if np.isscalar(xi) or np.asarray(xi).ndim == 0:
        return float(out[0])
    return out


def _upper_gamma(e: float, x: np.ndarray) -> np.ndarray:
    """x^-e * Gamma(e, x), Gamma(e, x) = int_x^inf t^(e-1) exp(-t) dt, for
    e <= 0 and x > 0 (x = inf gives 0), elementwise; laplace_transform's
    p <= -1 pieces.  The factor x^-e keeps the value normal where Gamma(e, x)
    itself is subnormal.

    Below x = 1 it starts at the order e + n, n = ceil(-e): Gamma(0, x) =
    E_1(x) (exp1) for integer e, else gammaincc * gamma at an order in
    (0, 1); then lowers the order n times by DLMF 8.8.2, Gamma(a, x) =
    (Gamma(a+1, x) - x^a exp(-x)) / a, scaled by x^-a.  From x = 1 on, where
    that recurrence cancels, it takes the continued fraction of DLMF 8.9.2,
    exp(-x) / (x+1-e - 1*(1-e)/(x+3-e - 2*(2-e)/(x+5-e - ...))), by the
    modified Lentz method over the whole array until every factor is 1 to
    machine precision."""
    out = np.zeros(x.shape)
    low = x < 1.0
    xl = x[low]
    n = math.ceil(-e)
    top = e + n
    g = exp1(xl) if top == 0.0 else gammaincc(top, xl) * gamma(top) * xl**-top
    for a in e + np.arange(n - 1, -1, -1):
        g = (xl * g - np.exp(-xl)) / a
    out[low] = g
    far = ~low & np.isfinite(x)
    xf = x[far]
    b = xf + 1.0 - e
    c = np.full(xf.shape, INF)  # Lentz's C_0 = inf makes C_1 = b_1
    d = 1.0 / b
    frac = d
    for i in range(1, _CF_MAX_TERMS):
        an = -i * (i - e)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        step = c * d
        frac = frac * step
        if np.all(np.abs(step - 1.0) <= _CF_EPS):
            break
    out[far] = np.exp(-xf) * frac
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
