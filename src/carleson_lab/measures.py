"""Radial measures on the disk, vertical measures on the half-plane,
and line measures on the real axis.

Every measure is a finite list of atoms plus piecewise power-law
densities, so moments, tail masses and Laplace transforms have closed
forms (incomplete beta / gamma), all in numpy and math.  Moments run a
stable downward recurrence from one log-domain continued fraction
(DLMF 8.17.22), so moments far below the double-precision floor keep their
relative accuracy.  A tail of a piece reaching r = 1 is taken in delta
itself.  A Laplace transform of a piece with p <= -1 is a difference of
upper incomplete gammas of negative order, lifted to positive order by the
recurrence of DLMF 8.8.2.  The singular integral is closed form for atoms
and a fixed composite Gauss(-Jacobi) rule for pieces; that rule's panel
layout is shared with norms.poisson_sup.  No adaptive quadrature runs
anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
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
# cap on terms: the beta fraction needed under 100 up to a = 1e8, the gamma one under 100 at x = 1
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
# fixed composite rules (singular_integral here, poisson_sup in norms)

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
    sup_ratio is the maximum over DELTA_GRID augmented with atom and
    piece-boundary candidates.
    """
    if not all(pc.p >= 0 for pc in mu.pieces if pc.b >= 1.0):
        return INF, False
    grid = _probe_grid(DELTA_GRID, [1.0 - r for r, _ in mu.atoms]
                       + [1.0 - x for pc in mu.pieces for x in (pc.a, pc.b)], 1.0)
    return float(np.max(mu.tail_mass(grid) / grid)), True


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
    difference over [s*a, s*b]: for p > -1 by _power_exp_integral, both ends
    in one call, and for p <= -1, where a > 0, the upper one as
    a^(p+1)*_upper_gamma(p+1, s*a) minus the same at b, so that s^-(p+1)
    never multiplies a subnormal.
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
                acc += pc.c * _power_exp_integral(e, sv, pc.a, pc.b)
            else:
                acc += pc.c * (pc.a**e * _upper_gamma(e, sv * pc.a)
                               - pc.b**e * _upper_gamma(e, sv * pc.b))
    out[nz] = acc
    if np.isscalar(xi) or np.asarray(xi).ndim == 0:
        return float(out[0])
    return out


_LOG_UPPER = math.log(1e-10)  # _power_exp_integral's ends take the upper part below this log Q
_LOG_GONE = -55.0 * math.log(2.0)  # and mostly drop it below this one


def _gamma_series(e: float, x: np.ndarray) -> np.ndarray:
    """sum_k x^k/(e (e+1) ... (e+k)) = x^-e e^x gamma(e, x) (DLMF 8.7.1), for
    e > 0 and x >= 0 (a 1-d array): one cumprod over terms enough that the
    rest is below 5e-18 of the sum."""
    top = float(x.max(initial=0.0))
    d = e + np.arange(1.0, int(top + 9.0 * math.sqrt(top)) + 10)
    return (1.0 + np.cumprod(np.divide.outer(x, d), axis=-1).sum(axis=-1)) / e


def _gamma_fraction(e: float, x):
    """x^-e Gamma(e, x) = e^-x/(x+1-e - 1*(1-e)/(x+3-e - 2*(2-e)/(x+5-e - ...)))
    (DLMF 8.9.2), for x >= 1 and x > e-1, by _lentz."""
    return np.exp(-x) / _lentz(x + 1.0 - e, lambda i: (-i * (i - e), x + 2.0 * i + 1.0 - e))


def _gamma_tail_below(e: float, log_q: float) -> float:
    """About the x beyond which Q = Gamma(e, x)/Gamma(e) < exp(log_q), by up to five (to 1e-3)
    contracting fixed-point steps on the bound Q <= x^(e-1) e^-x max(1, x/(x-e+1))/Gamma(e)."""
    shift = -math.lgamma(e) - log_q
    x = max(e, 1.0) - log_q
    for _ in range(5):  # no end below x = 1, where _gamma_fraction is slow and the step leaves x > 0
        last, x = x, max(1.0, (e - 1.0) * math.log(x) + math.log(max(1.0, x / (x - e + 1.0))) + shift)
        if abs(x - last) < 1e-3:
            break
    return x


def _power_exp_integral(e: float, s: np.ndarray, a: float, b: float) -> np.ndarray:
    """int_a^b y^(e-1) exp(-s*y) dy, elementwise over s > 0, for e > 0, 0 <= a
    < b <= inf.  An end y at x = s*y gives the lower part s^-e gamma(e, x) =
    y^e e^-x _gamma_series(e, x), or where Q = Gamma(e, x)/Gamma(e) < 1e-10
    the upper part s^-e Gamma(e, x) = y^e _gamma_fraction(e, x), so nothing
    close to s^-e Gamma(e) is subtracted.  An upper part is dropped where it is
    below 2^-55 min(Gamma(e), Gamma(e+1)) (the size of a piece off y = 0 as e ->
    0), unless it is the b end of two upper parts whose a end is kept."""
    if a == 0.0 and b == INF:
        return np.exp(math.lgamma(e)) * s**-e
    x = s * np.array([[a], [b]])
    up = x >= _gamma_tail_below(e, _LOG_UPPER)
    low = (x > 0.0) & ~up
    frac = up & (x < _gamma_tail_below(e, _LOG_GONE + math.log(min(e, 1.0))))
    frac[1] |= frac[0] & up[1] & (b < INF)
    part = np.zeros(x.shape)
    part[low] = np.exp(-x[low]) * _gamma_series(e, x[low])
    part[frac] = [_gamma_fraction(e, v) for v in x[frac].tolist()]
    lo, hi = part[0] * a**e, part[1] * (b**e if b < INF else 0.0)
    return np.where(up[0], lo - hi, np.where(up[1], np.exp(math.lgamma(e)) * s**-e - hi - lo, hi - lo))


def _upper_gamma(e: float, x: np.ndarray) -> np.ndarray:
    """x^-e * Gamma(e, x), Gamma(e, x) = int_x^inf t^(e-1) exp(-t) dt, for
    e <= 0 and x > 0 (x = inf gives 0), elementwise; laplace_transform's
    p <= -1 pieces.  The factor x^-e keeps the value normal where Gamma(e, x)
    is subnormal.  Below x = 1 it starts at the order e + n, n = ceil(-e),
    from E_1(x) by its series (DLMF 6.6.2) or Gamma(e+n) less _gamma_series,
    and lowers the order n times by DLMF 8.8.2, Gamma(a, x) = (Gamma(a+1, x)
    - x^a e^-x)/a, scaled by x^-a; from x = 1 on, _gamma_fraction."""
    out = np.zeros(x.shape)
    low = x < 1.0
    xl = x[low]
    n = math.ceil(-e)
    top = e + n
    if top == 0.0:
        k = np.arange(1.0, 21.0)  # (-x)^k/(k k!) for x < 1 is below 1e-20 from k = 20 on
        g = -np.euler_gamma - np.log(xl) - (np.cumprod(-xl[:, None] / k, axis=1) / k).sum(axis=1)
    else:
        g = math.gamma(top) * xl**-top - np.exp(-xl) * _gamma_series(top, xl)
    for a in e + np.arange(n - 1, -1, -1):
        g = (xl * g - np.exp(-xl)) / a
    out[low] = g
    far = ~low & np.isfinite(x)
    out[far] = _gamma_fraction(e, x[far])
    return out


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
