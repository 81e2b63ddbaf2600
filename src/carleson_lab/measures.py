"""Radial measures on the disk, vertical measures on the half-plane,
and line measures on the real axis.

Every measure is a finite list of atoms plus piecewise power-law
densities, so moments and tail masses have closed forms (incomplete beta),
all in numpy and math.  Moments run a stable downward recurrence from one
log-domain continued fraction (DLMF 8.17.22), so moments far below the
double-precision floor keep their relative accuracy.  A tail of a piece
reaching r = 1 is taken in delta itself.  The Laplace transform of a piece
of any order is one routine: a power series below s*y = 1 and fixed Gauss
panels above.  The singular integral is closed form for atoms and, for
pieces, a fixed composite Gauss(-Jacobi) rule in r (_radial_rule), which
norms.w_sigma shares below r = 1/2.  _panel_nodes, the one map from a panel
layout to nodes and weights, serves that rule and norms.poisson_sup.  No
adaptive quadrature runs anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache

import numpy as np

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
        if not 0 < self.c < INF:
            raise ValueError(f"piece coefficient c must be positive and finite, got {self.c}")
        if not -1 < self.p < INF:
            raise ValueError(f"boundary exponent p must be finite and exceed -1 for finite mass, got {self.p}")
        if not 0 <= self.q < INF:
            raise ValueError(f"origin exponent q must be nonnegative and finite, got {self.q}")


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
        if not 0 < self.c < INF:
            raise ValueError(f"piece coefficient c must be positive and finite, got {self.c}")
        if not (-1 if self.a == 0.0 else -INF) < self.p < INF:
            raise ValueError(f"exponent p must be finite, above -1 on a piece touching 0, got {self.p}")


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
        if not 0 < self.c < INF:
            raise ValueError(f"piece coefficient c must be positive and finite, got {self.c}")
        if not (-1 if self.a <= 0.0 <= self.b else -INF) < self.p < INF:
            raise ValueError(f"exponent p must be finite, above -1 on a piece covering 0, got {self.p}")

    def halves(self) -> tuple:
        """The ranges [lo, hi] of |t| over the parts of [a, b) on either side
        of t = 0, each (0, 0) where the piece misses that side."""
        return ((max(self.a, 0.0), max(self.b, 0.0)), (max(-self.b, 0.0), max(-self.a, 0.0)))


_CF_EPS = np.finfo(float).eps  # convergence of a continued-fraction step to 1
# cap on terms: the beta fraction needed under 100 up to a = 1e8
_CF_MAX_TERMS = 1000


def _lentz(b0, terms):
    """b0 + a_1/(b_1 + a_2/(b_2 + ...)) by the modified Lentz method, (a_k, b_k)
    = terms(k), on floats or arrays until every step is 1 to machine
    precision: the package's one continued-fraction routine.  No denominator
    of its fractions vanishes in the ranges they serve, so none is guarded."""
    f = c = b0
    d = 0.0
    for k in range(1, _CF_MAX_TERMS):
        a, b = terms(k)
        d = 1.0 / (b + a * d)
        c = b + a / c
        step = c * d
        f = f * step
        err = abs(step - 1.0)
        if (err.max(initial=0.0) if isinstance(err, np.ndarray) else err) <= _CF_EPS:
            break
    return f


def _log_inc_beta(x, a, b):
    """log B_x(a, b) = log int_0^x t^(a-1) (1-t)^(b-1) dt, on floats or
    elementwise, for 0 <= x <= (a+1)/(a+b+2), where the continued fraction
    of DLMF 8.17.22, B_x(a, b) = x^a (1-x)^b / a * 1/(1+ d_1/(1+ d_2/(1+ ...))),
    converges fast; in the log domain, so values below the double-precision
    floor keep their relative accuracy."""
    def terms(j):  # d_j: d_{2k+1} for odd j, d_{2k} for even j
        k = j // 2
        if j % 2:
            return -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1.0)), 1.0
        return k * (b - k) * x / ((a + 2 * k - 1.0) * (a + 2 * k)), 1.0

    with np.errstate(divide="ignore"):
        return a * np.log(x) + b * np.log1p(-x) - np.log(a) - np.log(_lentz(1.0, terms))


def _log_sub(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log(e^u - e^v) for u >= v; -inf where u = -inf or u = v (a segment
    too narrow for its two tails to differ in double precision)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u == -INF, -INF, u + np.log1p(-np.exp(v - u)))


def _log_beta_segment(m, p, a, b) -> np.ndarray:
    """log of int_a^b r^m (1-r)^p dr, elementwise, for 0 <= a <= b <= 1 and
    m, p > -1, with no quadrature.

    The segment is split at s = (m+2)/(m+p+4), the point below which the
    continued fraction of _log_inc_beta converges fast for B(m+1, p+1) and
    above which it converges fast for the mirrored B(p+1, m+1): the part
    below s is B_min(b,s) - B_a, the part above is the difference of the
    mirrored lower tails at 1 - max(a, s) and 1 - b.  Each part is a
    difference of two tails of which the larger is nearer s, so no full
    beta function (whose log Gamma terms lose up to 1e-13 at large m) enters."""
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


def _log_full_moments(q: float, p: float, n_max: int) -> np.ndarray:
    """[log B(q+2n+1, p+1) for n = 0..n_max]: math.gamma at n = 0 (exact at small
    integers, where math.lgamma is a few ulps off), then the ratios (1 -
    (p+1)/(m+p+2))(1 - (p+1)/(m+p+3)) summed in logs: no large log Gamma cancels."""
    e = p + 1.0
    m = q + 2.0 * np.arange(n_max)
    steps = np.log1p(-e / (m + e + 1.0)) + np.log1p(-e / (m + e + 2.0))
    base = (math.log(math.gamma(q + 1.0) * math.gamma(e) / math.gamma(q + e + 1.0)) if q + e < 170.0
            else math.lgamma(q + 1.0) + math.lgamma(e) - math.lgamma(q + e + 1.0))
    return base + np.concatenate(([0.0], np.cumsum(steps)))


_MOMENT_BLOCK = 128  # moments per downward run of _log_moments_below


def _log_moments_below(q: float, p: float, b: float, n_max: int) -> np.ndarray:
    """[log int_0^b r^m (1-r)^p dr for m = q, q+2, ..., q+2*n_max], 0 < b <= 1:
    b^(m+1) J(m), J(m) = int_0^1 t^m (1-bt)^p dt, where by parts J(m-1) =
    ((m+p+1) b J(m) + (1-b)^(p+1))/m adds positive terms only, run downward
    in blocks of _MOMENT_BLOCK below fixed tops M (no moment depends on
    n_max), each from one scalar fraction: B_b(M+1, p+1) where b <= s =
    (M+2)/(M+p+4), else the full beta less the mirrored B_(1-b)(p+1, M+1)."""
    if b >= 1.0:
        return _log_full_moments(q, p, n_max)
    e = p + 1.0
    log_b = math.log(b)
    runs = []
    for j in range(max(1, -(-n_max // _MOMENT_BLOCK))):
        top_n = (j + 1) * _MOMENT_BLOCK
        top = q + 2.0 * top_n
        if b <= (top + 2.0) / (top + e + 3.0):
            log_top = float(_log_inc_beta(b, top + 1.0, e))
        else:
            full = float(_log_full_moments(q, p, top_n)[-1])
            log_top = full + math.log1p(-math.exp(float(_log_inc_beta(1.0 - b, e, top + 1.0)) - full))
        log_j = log_top - (top + 1.0) * log_b  # the run is on J(m)/J(top)
        inhom = math.exp(e * math.log1p(-b) - log_j)
        m = top - 2.0 * np.arange(_MOMENT_BLOCK)  # J(m-2) = scale*J(m) + shift
        scale = (b * b) * (m + e) * (m + p) / (m * (m - 1.0))
        shift = inhom * ((m + p) * b / m + 1.0) / (m - 1.0)
        r, ratio = 1.0, [1.0]
        for sc, sh in zip(scale.tolist(), shift.tolist()):
            r = sc * r + sh
            ratio.append(r)
        if math.isinf(r):  # J(m)/J(top) overflows only for huge p with b near 1
            return _log_beta_segment(q + 2.0 * np.arange(n_max + 1), p, 0.0, b)
        # n = j*B + i at ratio[::-1][i]; block j > 0 leaves its bottom to block j-1
        runs.append(np.log(ratio[::-1][int(j > 0):min(_MOMENT_BLOCK, n_max - j * _MOMENT_BLOCK) + 1]) + log_j)
    return np.concatenate(runs) + (q + 2.0 * np.arange(n_max + 1) + 1.0) * log_b


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
        if not all(-INF < x < INF for x, _ in atoms):
            raise ValueError(f"atom position {self.POSITION} must be finite")
        if not all(0 < w < INF for _, w in atoms):
            raise ValueError("atom weight w must be positive and finite")
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

        In t = 1 - r a piece covers [1-b, min(delta, 1-a)], taken from delta
        itself (1 - I_(1-delta) would cancel), with mass int c*t^p (1-t)^q dt:
        power_integral at q = 0, from which, for an integer q and b = 1,
        F_k = int_0^w t^p (1-t)^k dt = (w^(p+1) (1-w)^k + k F_(k-1))/(p+k+1)
        climbs by positive terms; other pieces take _log_beta_segment."""
        d = np.asarray(delta, dtype=float)
        lo = 1.0 - d
        total = np.zeros(d.shape)
        for r, w in self.atoms:
            total += np.where(r >= lo, w, 0.0)
        with np.errstate(under="ignore"):
            for pc in self.pieces:
                t0, t1 = 1.0 - pc.b, np.minimum(d, 1.0 - pc.a)
                e = pc.p + 1.0
                if pc.q == 0.0 or (t0 == 0.0 and pc.q == int(pc.q)):
                    mass = power_integral(e, t0, t1)
                    for k in range(1, int(pc.q) + 1):
                        edge = np.maximum(t1, 0.0) ** e * (1.0 - t1) ** k
                        mass = (edge + k * mass) / (e + k)
                    total += pc.c * mass
                    continue
                inside = t1 > t0
                total[inside] += pc.c * np.exp(_log_beta_segment(pc.p, pc.q, t0, t1[inside]))
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class VerticalMeasure(_Measure):
    """Pi(dy) on (0, inf); generates mu(dz) = dx Pi(dy) on the half-plane."""

    POSITION, PIECE = "y", VerticalPiece

    def __post_init__(self):
        super().__post_init__()
        if not all(y > 0 for y, _ in self.atoms):
            raise ValueError("atom height y must be positive")

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
        [max(a, eps), min(b, R)).  Needs 0 <= eps < R (NaN fails)."""
        if not 0.0 <= eps < R:
            raise ValueError(f"truncation needs 0 <= eps < R, got eps={eps}, R={R}")
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
# fixed composite rules (singular_integral here, poisson_sup and w_sigma in norms)

_PANEL_ORDER = 16  # Gauss nodes per panel
_MAX_GRADING = 40  # most geometric panels toward an end of a piece
_PANEL_RATE = 8.0  # most growth (log-derivative times width) of a singular_integral panel


@lru_cache(maxsize=64)
def _jacobi_rule(beta: float):
    """_PANEL_ORDER-point Gauss-Jacobi nodes on [-1, 1] for the weight
    (1+x)^beta, with the weights divided by it, so that sum(w*f(x))
    integrates f itself and is exact where f/(1+x)^beta is a polynomial.
    Golub & Welsch (Math. Comp. 23, 1969): eigenvalues and first eigenvector
    components of the Jacobi matrix of P_n^(0,beta) (DLMF 18.9.2)."""
    n = _PANEL_ORDER
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    jm = np.zeros((n, n))  # eigh reads the diagonal and the lower triangle
    jm.flat[::n + 1] = np.concatenate(([beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))))
    jm.flat[n::n + 1] = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(jm)
    w = 2.0 ** (beta + 1.0) / (beta + 1.0) * vec[0] ** 2
    return x, w / (1.0 + x) ** beta


def _grading_depth(dist, width) -> int:
    """Panels of ratio 1/4 that a panel end needs before a singularity at
    distance dist beyond it lies a third of the last panel's width away."""
    with np.errstate(divide="ignore"):
        need = np.log(width / (3.0 * np.maximum(dist, 0.0))) / math.log(4.0)
    return int(np.clip(np.ceil(np.max(need)), 0, _MAX_GRADING))


@lru_cache(maxsize=64)
def _unit_nodes(panels: int, ends) -> tuple:
    """(offsets, weights, n_a) of _panel_nodes in units of the panel width,
    the first n_a offsets from a, the rest from b.  Inner panels get plain
    Gauss; ends holds (depth, exponent) for the end at a and, unless panels
    = 1, for the end at b, whose end panel is cut by ratio 1/4 depth times
    and its last piece gets Gauss-Jacobi with weight offset^exponent."""
    gauss = _jacobi_rule(0.0)
    t0, t1 = [np.arange(1.0, panels - 1.0)], [np.arange(2.0, panels)]  # panel k covers [t0*h, t1*h]
    rules = [gauss] * (panels - 2)
    for depth, exponent in ends:
        t = 4.0 ** -np.arange(depth + 1.0)
        t0 += [t[1:], [0.0]]
        t1.append(t)
        rules += [gauss] * depth + [_jacobi_rule(exponent)]
    t0, t1 = np.concatenate(t0)[:, None], np.concatenate(t1)[:, None]
    x, w = np.array([x for x, _ in rules]), np.array([w for _, w in rules])
    n_a = _PANEL_ORDER * (max(panels - 2, 0) + ends[0][0] + 1)
    return (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x).ravel(), (0.5 * (t1 - t0) * w).ravel(), n_a


def _panel_nodes(panels: int, ends, length):
    """(above_a, below_b, weights) of the composite rule of _unit_nodes on a
    piece [a, b] of the given length (a float, or a column of lengths, one
    row of nodes each): the package's one map from a panel layout to each
    node's offsets from a and from b and its weight.  Each offset is taken
    from the node's own end, so that neither cancels near that end."""
    unit, unit_w, n_a = _unit_nodes(panels, ends)
    h = length / panels
    off = unit * h
    far = length - off
    return (np.concatenate((off[..., :n_a], far[..., n_a:]), axis=-1),
            np.concatenate((far[..., :n_a], off[..., n_a:]), axis=-1), unit_w * h)


def _radial_rule(a: float, b: float, c: float, p: float, q: float, panels: int):
    """Nodes r and weights of int_a^b f(r) c*(1-r)^p*r^q dr on `panels`
    panels (_panel_nodes).  Where [a, b] reaches r = 0 or r = 1 its end
    panel is Gauss-Jacobi with weight r^q or (1-r)^p; where one of them
    lies just beyond an end and its power is not a polynomial there, the
    end panel is graded geometrically toward it.  A one-panel rule treats
    the a end alone.  r - a and 1 - r come from offsets from the two ends,
    exact at either."""
    length = b - a
    h = length / panels
    depth_a = 0 if a <= 0.0 or q == int(q) else _grading_depth(a, h)
    depth_b = 0 if b >= 1.0 or (p == int(p) and p >= 0.0) else _grading_depth(1.0 - b, h)
    ends = ((depth_a, q if a <= 0.0 else 0.0), (depth_b, p if b >= 1.0 else 0.0))
    above_a, below_b, w = _panel_nodes(panels, ends[:panels], length)
    r = a + above_a
    return r, c * w * (1.0 - b + below_b) ** p * r**q


# ---------------------------------------------------------------------------
# moments


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
        col = _log_moments_below(pc.q, pc.p, pc.b, n_max)
        if pc.a > 0.0:  # [a, b) as [0, b) minus [0, a), unless that cancels
            below_a = _log_moments_below(pc.q, pc.p, pc.a, n_max)
            near = below_a - col > -math.log(2.0)
            col = _log_sub(col, below_a)
            if near.any():
                col[near] = _log_beta_segment(2.0 * n[near] + pc.q, pc.p, pc.a, pc.b)
        logs.append(math.log(pc.c) + col)
    if len(logs) == 1:
        return logs[0]
    top = np.max(logs, axis=0)
    top[top == -INF] = 0.0  # a column of -inf (atoms at 0 alone) stays -inf
    with np.errstate(divide="ignore"):
        return top + np.log(np.sum(np.exp(np.vstack(logs) - top), axis=0))


# ---------------------------------------------------------------------------
# Carleson criteria


def _probe_grid(base: np.ndarray, cands: list, top: float) -> np.ndarray:
    """The sorted union of a default probe grid and the candidate points
    (atoms and piece ends) of a measure, cut to (0, top)."""
    grid = np.unique(np.concatenate([base, cands]))
    return grid[(grid > 0.0) & (grid < top)]


def radial_carleson(mu: RadialMeasure):
    """(sup_ratio, is_carleson) for sup_delta sigma([1-delta,1))/delta.

    The finiteness verdict is analytic on the power-law family: a piece
    reaching r=1 is compatible iff its boundary exponent p >= 0.  The
    sup_ratio is the maximum over DELTA_GRID augmented with the piece ends
    inside (0, 1) and delta = 1 - r for every atom, delta = 1 (r = 0) included.
    """
    if not all(pc.p >= 0 for pc in mu.pieces if pc.b >= 1.0):
        return INF, False
    grid = np.union1d(_probe_grid(DELTA_GRID, [1.0 - x for pc in mu.pieces for x in (pc.a, pc.b)], 1.0),
                      [1.0 - r for r, _ in mu.atoms])
    return float(np.max(mu.tail_mass(grid) / grid)), True


def singular_integral(mu: RadialMeasure) -> float:
    """2*pi * int sigma(dr)/(1-r^2); +inf when a boundary piece has p <= 0.

    Atoms in closed form; a piece as int f(r) c*(1-r)^(p-1)*r^q dr with
    f = 1/(1+r), by _radial_rule on panels narrow enough that (|p-1| + q)
    times their width stays within _PANEL_RATE; no adaptive quadrature."""
    if any(pc.b >= 1.0 and pc.p <= 0.0 for pc in mu.pieces):
        return INF
    total = sum(w / (1.0 - r * r) for r, w in mu.atoms)
    for pc in mu.pieces:
        panels = max(2, math.ceil((pc.b - pc.a) * (abs(pc.p - 1.0) + pc.q) / _PANEL_RATE))
        r, w = _radial_rule(pc.a, pc.b, pc.c, pc.p - 1.0, pc.q, panels)
        total += float(np.sum(w / (1.0 + r)))
    return 2.0 * math.pi * total


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
    piece c*y^p dy on [a, b) gives c*_power_exp_integral(p+1, s, a, b).
    """
    s = _KERNEL_RATE[convention] * np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
    out = np.zeros_like(s)
    sv = s[s > 0.0]
    acc = np.zeros_like(sv)
    with np.errstate(over="ignore", under="ignore"):
        for y, w in pi.atoms:
            acc += w * np.exp(-sv * y)
        for pc in pi.pieces:
            acc += pc.c * _power_exp_integral(pc.p + 1.0, sv, pc.a, pc.b)
    out[s > 0.0] = acc
    return float(out[0]) if np.ndim(xi) == 0 else out


_SERIES_K = np.arange(22.0)[:, None]  # at s*y <= 1 the series' tail is below e/22! < 3e-21 of its sum
_SERIES_SIGNS = (-1.0) ** _SERIES_K
_LOG_FACTORIALS = np.cumsum(np.log(np.maximum(_SERIES_K, 1.0)), axis=0)
_LADDER = np.array([0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])  # panel ends, in steps
_PEAK_STEPS = 4.0  # steps per standard deviation sqrt(e-1) of the integrand's peak
_LADDER_X = (_LADDER[:-1, None] + np.diff(_LADDER)[:, None] * 0.5 * (_jacobi_rule(0.0)[0] + 1.0)).ravel()
_LADDER_W = (np.diff(_LADDER)[:, None] * 0.5 * _jacobi_rule(0.0)[1]).ravel()


def _power_exp_integral(e: float, s: np.ndarray, a: float, b: float) -> np.ndarray:
    """int_a^b y^(e-1) exp(-s*y) dy, elementwise over s > 0, for any real e
    (e > 0 where a = 0) and 0 <= a < b <= inf: the one routine for every
    Laplace piece, relative wherever the value is a normal double, +inf
    above the double range and 0 below it.  Gamma(e) s^-e on (0, inf);
    otherwise a power series below y = 1/s and Gauss panels above."""
    if a == 0.0 and b == INF:
        return np.exp(math.lgamma(e) - e * np.log(s))
    out = np.zeros(s.shape)
    inv = 1.0 / s
    below, above = inv > a, inv < b
    if below.any():
        out[below] = _series_part(e, s[below], a, np.minimum(b, inv[below]))
    if above.any():
        out[above] += _panel_part(e, s[above], np.maximum(a, inv[above]), b)
    return out


def _series_part(e: float, s: np.ndarray, a: float, c: np.ndarray) -> np.ndarray:
    """int_a^c y^(e-1) exp(-s*y) dy for s*c <= 1, as sum_k (-s)^k/k! I_k with
    I_k = int_a^c y^(g-1) dy, g = e+k, each by expm1 (|g| floored at 1e-200)
    so that none cancels near g = 0, and relative to x^e, x = c for e > 0
    and a otherwise: no term exceeds I_0/(x^e k!), so the sum loses at most
    a factor e^2 to cancellation."""
    g = e + _SERIES_K
    width = np.log(c / a) if a > 0.0 else INF
    abs_g = np.maximum(np.abs(g), 1e-200)
    q = -np.expm1(-abs_g * width) / abs_g  # I_k over c^g for g > 0, over a^g otherwise
    x = c if e > 0.0 else a
    log_terms = _SERIES_K * np.log(s * x) - _LOG_FACTORIALS
    if e <= 0.0:  # where g > 0, I_k = c^g q_k = (c/a)^g a^g q_k
        log_terms = log_terms + np.where(g > 0.0, g * width, 0.0)
    return np.exp(e * np.log(x) + np.log(np.vecdot(_SERIES_SIGNS * q, np.exp(log_terms), axis=0)))


def _panel_part(e: float, s: np.ndarray, y0: np.ndarray, b: float) -> np.ndarray:
    """int_y0^b y^(e-1) exp(-s*y) dy for s*y0 >= 1.  In u = s*y the
    log-integrand (e-1) log u - u is concave or decreasing, so it is largest
    at T = s*Y, the point of the range nearest u = e-1.  Panels of 2, 2, 4,
    ..., 64 steps h run from T up and down the range, doubling as the slope
    of the log-integrand grows (for e < 1, falls toward 1); 1/h is the
    larger of |slope| and min(1, _PEAK_STEPS*sqrt(|e-1|)/T) at T, or h is
    less, so that the ladder ends where the range does, if that is sooner
    than 36 e-folds down.  Offsets t from T keep (1 + t/T)^(e-1) e^-t on one
    scale; Y^(e-1) e^-T / s is one exp of summed logs, with the rounding
    error of adding -T carried."""
    m = e - 1.0
    y = np.minimum(np.maximum(m / s, y0), b) if m > 1.0 else y0  # else e-1 <= 1 <= s*y0
    top = s * y
    step = top / np.maximum(np.abs(top - m), np.minimum(top, _PEAK_STEPS * math.sqrt(abs(m))))
    total = 0.0
    for sign, reach in ((1.0, s * (b - y)), (-1.0, s * (y - y0)))[:2 if m > 1.0 else 1]:
        if reach.any():  # up from T, then down where T > s*y0
            h = np.minimum(step, reach / _LADDER[-1])
            t = np.multiply.outer(sign * h, _LADDER_X)
            total = total + h * (np.exp(m * np.log1p(t / top[:, None]) - t) @ _LADDER_W)
    rest = m * np.log(y) + np.log(total / s)
    exponent = rest - top
    return np.exp(exponent) * np.exp((-top - exponent) + rest)  # Fast2Sum: exact where top >= |rest|


# ---------------------------------------------------------------------------
# builtin measures


def lebesgue_disk() -> RadialMeasure:
    """sigma(dr) = r dr, i.e. normalized area measure dz = r dr dtheta."""
    return RadialMeasure(pieces=(RadialPiece(0.0, 1.0, 1.0, 0.0, 1.0),))


def power_disk(p: float) -> RadialMeasure:
    """sigma(dr) = (1-r)^p dr on [0, 1)."""
    return RadialMeasure(pieces=(RadialPiece(0.0, 1.0, 1.0, p, 0.0),))


def atom_disk(r: float) -> RadialMeasure:
    return RadialMeasure(atoms=((r, 1.0),))


def lebesgue_halfplane() -> VerticalMeasure:
    """Pi(dy) = dy on (0, inf)."""
    return VerticalMeasure(pieces=(VerticalPiece(0.0, INF, 1.0, 0.0),))


def atom_halfplane(y: float, w: float = 1.0) -> VerticalMeasure:
    return VerticalMeasure(atoms=((y, w),))


def lebesgue_line() -> LineMeasure:
    return LineMeasure(pieces=(LinePiece(-INF, INF, 1.0, 0.0),))
