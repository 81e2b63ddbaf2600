"""Certified sum-space norm ||u||_{H_mu + L^1} as a convex infimal
convolution, discretized to degree-N coefficients and an M-point grid:

    minimize over f:  sqrt(2*pi*sum sigma_|n| |f_n|^2) + (1/M) sum |u(theta_k) - f(theta_k)|

The solver is over-relaxed ADMM (Boyd et al., Found. Trends ML 2011) on
the splitting S f + z = u, with S the synthesis operator and z the L^1
part.  S has orthogonal columns (S*S = M I for M >= 2N+1), so the f-step
is the closed-form prox of ||D.||_2, D = diag(sqrt(2*pi*sigma_|n|)): a
shrink v*lam/(lam + d^2) whose lam is the root of a scalar secular
equation.  The z-step is a complex soft-threshold.  The penalty rho is
balanced against the primal and dual residuals by doubling or halving.

The scaled dual iterate yields the dual candidate psi = M*rho*y, which
meets |psi_k| <= 1 exactly.  A second candidate replaces psi's
coefficients by the subgradient -d^2 f/||D f|| of the weighted norm at f,
which meets the dual weighted-norm constraint exactly; without it the
lower bound lags far behind the upper when d is ill-conditioned.  The
better of the two certifies the lower bound, so every result is a
certified interval.  One routine, _weak_duality, scores every dual
candidate: the seed's, each check's, and dual_bound's, which reads the
candidate's coefficients through analyze.

The upper bound starts at the better single-term split, f = u or f = 0,
whose closed-form dual candidate is the subgradient D^2 u/||D u|| of the
weighted term or sign(u) of the L^1 one.  Only that candidate is scored
before the first iteration; if it closes the gap the split is optimal,
and the result returns at once with iterations = 0 and the exact
witness.  Otherwise that bound is dropped and the loop runs as it would
without it.

Ill-conditioned weights d still leave the lower bound lagging: residual
balancing settles on a rho that serves the primal iterate, while a rho
8-64 times smaller moves the dual one several times faster (and, used
alone, slows the primal 7-25 times on other problems).  So the iterates
are the rows of (rows, M) arrays run in lockstep, sharing every FFT and
the z-step, with one secular-equation solve per row.  Row 0 is the
balanced iteration above.  A join adds one row per entry s of
_JOIN_SCALES: a fresh copy of row 0 at rho/s, with y times s and lam over
s as balancing rescales them, whose rho then stays fixed.  Rows join at
the first check where row 0's swapped candidate scores a higher lower
bound than psi itself, the sign that its dual iterate lags its primal
one; both scores are taken at every check anyway.  If the solve is still
open _EARLY_CHECKS checks later, those rows leave and row 0 runs on
alone.  A solve still open after _JOIN_AFTER iterations gains fresh rows
again, copied from row 0, which then stay; from there on it runs as it
would without the early rows.  Each check takes the best bound of any
row.  Row 0 runs exactly the arithmetic it would run alone, so the
interval after N iterations is never wider than row 0 alone would give:
no solve takes more iterations than row 0 alone would, and a solve
without the lag signal that ends within _JOIN_AFTER iterations has one
row throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fourier import CoeffVector, GridFunction, _to_coeffs, _to_grid, analyze, synthesize
from .measures import RadialMeasure, moment_array

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITERS = 200_000
_RELAX = 1.6  # ADMM over-relaxation factor
_CHECK_EVERY = 25  # iterations between certificate checks
_JOIN_AFTER = 1000  # iterations before the small-penalty rows join
_JOIN_SCALES = (8.0, 64.0)  # they run at rho/8 and rho/64 of row 0 then (powers of 2)
_EARLY_CHECKS = 2  # checks that rows joining on the lag signal stay


@dataclass(frozen=True)
class Decomposition:
    f: CoeffVector  # weighted-norm part
    g: GridFunction  # L^1 part on the grid


@dataclass(frozen=True)
class CertifiedNorm:
    upper: float
    lower: float
    gap: float
    iterations: int
    witness: Decomposition
    dual_witness: GridFunction
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "gap": self.gap,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@lru_cache(maxsize=256)
def _plan(mu: RadialMeasure, n_max: int):
    """sigma_|n|, d_n = sqrt(2*pi*sigma_|n|), d^2 and 1/d^2 (0 where d = 0) by
    n + n_max; read-only, and the same for every grid."""
    sig = moment_array(mu, n_max)[np.abs(np.arange(-n_max, n_max + 1))]
    d = np.sqrt(2.0 * math.pi * sig)
    d2 = d * d
    plan = (sig, d, d2, np.divide(1.0, d2, out=np.zeros_like(d2), where=d2 > 0.0))
    for a in plan:
        a.flags.writeable = False
    return plan


def _weak_duality(psi: np.ndarray, psi_hat: np.ndarray, u_grid: np.ndarray, d: np.ndarray):
    """Weak-duality (lower, scale) of the dual candidate psi, given by its M
    grid values and its coefficients psi_hat over |n| <= N: psi/scale meets
    both dual constraints, sup |psi_k| <= 1 and ||psi_hat/d||_2 <= 1, and
    lower = |(1/M) sum u(theta_k) conj(psi_k)|/scale.  A 0/0 term of
    psi_hat/d (psi_hat_n = 0 where d_n = 0) makes that norm +inf, so the
    weighted constraint is never dropped."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = psi_hat / d
    dh = math.sqrt(q.real.dot(q.real) + q.imag.dot(q.imag))  # np.linalg.norm's arithmetic
    if math.isnan(dh):  # a 0/0 term; max() below would drop the nan
        dh = math.inf
    scale = max(float(np.abs(psi).max()), dh, 1e-300)
    return float(abs(np.vdot(psi, u_grid)) / (psi.size * scale)), scale


def dual_bound(u: CoeffVector, phi: GridFunction, mu: RadialMeasure) -> float:
    """_weak_duality's lower bound for the dual candidate phi, its
    coefficients read by analyze."""
    return _weak_duality(phi.samples, analyze(phi, u.n_max).coeffs, synthesize(u, phi.m).samples,
                         _plan(mu, u.n_max)[1])[0]


def _prox_weighted_l2(v: np.ndarray, d2: np.ndarray, inv_d2: np.ndarray, t: float,
                      lam: float):
    """argmin_f t*||D f||_2 + ||f - v||^2 / 2 with D^2 = diag(d2).

    inv_d2 is 1/d2 where d2 > 0 and 0 where d2 = 0.  Returns (f, lam):
    f = v*lam/(lam + d2), where lam > 0 solves the secular equation
    sum d2 |v|^2 / (lam + d2)^2 = t^2, unless ||D^-1 v|| <= t over d2 > 0;
    then f = 0 there and f = v where d2 = 0.  Newton's method on the
    reciprocal norm, which is concave in lam, starts from the given lam; it
    stops after a step below 1e-4 relative, which leaves an error of about
    that step squared.
    """
    v2 = np.abs(v) ** 2
    if float(np.dot(v2, inv_d2)) <= t * t:
        return v * (d2 == 0.0), lam
    a = d2 * v2
    for _ in range(100):
        r = 1.0 / (lam + d2)
        ar = a * r
        phi = float(np.dot(ar, r))
        lam_new = lam + (phi ** 1.5 / t - phi) / float(np.dot(ar * r, r))
        if lam_new <= 0.0:  # overshoot from the right of the root
            lam_new = 0.5 * lam
        done = abs(lam_new - lam) <= 1e-4 * lam_new
        lam = lam_new
        if done:
            break
    return v * (lam / (lam + d2)), lam


def sum_norm(
    u: CoeffVector,
    mu: RadialMeasure,
    m: int,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> CertifiedNorm:
    """Certified value of the discretized sum-space norm.

    Terminates when the relative duality gap drops below tol; otherwise
    returns the best certified interval found with converged=False, whose
    lower bound is at most what dual_bound reads for its dual witness.
    Every lower bound, the seed's and each check's, is _weak_duality's.
    """
    if not tol > 0:  # NaN fails it too
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    n_max = u.n_max
    sig, d, d2, inv_d2 = _plan(mu, n_max)
    u_grid = _to_grid(u.coeffs, m)

    # the better single-term split seeds the upper bound, and its dual
    # candidate (see the module docstring) may certify it exactly; at
    # ||D u|| = 0 the split f = u reads 0 and its candidate is 0
    best_upper = math.sqrt(2.0 * math.pi * (np.abs(u.coeffs) ** 2 * sig).sum())  # hmu_norm's arithmetic
    abs_u = np.abs(u_grid)
    single_l1 = float(abs_u.sum()) / m  # np.mean's arithmetic
    if single_l1 < best_upper:  # f = 0, g = u
        best_upper = single_l1
        best_f, best_g = np.zeros_like(u.coeffs), u_grid
        cand = np.divide(u_grid, abs_u, out=np.zeros(m, dtype=complex), where=abs_u > 0.0)
    else:  # f = u, g = 0
        best_f, best_g = u.coeffs.copy(), np.zeros(m, dtype=complex)
        cand = _to_grid(d2 * u.coeffs / (float(np.linalg.norm(d * u.coeffs)) or 1.0), m)
    lower, scale = _weak_duality(cand, _to_coeffs(cand, n_max), u_grid, d)
    if best_upper - lower <= tol * max(best_upper, 1e-300):
        lower = min(lower, best_upper)
        return CertifiedNorm(best_upper, lower, best_upper - lower, 0,
                             Decomposition(CoeffVector(n_max, best_f), GridFunction(best_g)),
                             GridFunction(cand / scale))
    # otherwise the bound is dropped, so the loop runs as it would without it
    best_lower = 0.0
    best_psi = np.zeros(m, dtype=complex)
    converged = False
    it = 0
    leave_at = 0  # when the lag-triggered rows leave: 0 before they join, -1 after _JOIN_AFTER

    # one ADMM iteration per row, all rows in lockstep; row 0 balances its
    # penalty, the rows that join later keep theirs.  ug and mrho hold u and
    # m*rho once per row, which keeps numpy off its slower broadcasting path.
    rho = [1.0 / m]
    lam = [1.0]  # root of each row's f-step secular equation, warm-started
    ug = u_grid[None, :]
    mrho = np.full((1, m), m * rho[0])
    e = ug.copy()  # u minus the L^1 part z
    y = np.zeros((1, m), dtype=complex)  # scaled dual of S f + z = u
    f = np.empty((1, 2 * n_max + 1), dtype=complex)
    for it in range(1, max_iters + 1):
        ey = e - y
        v = _to_coeffs(ey, n_max, out=ey)
        for k, vk in enumerate(v):
            f[k], lam[k] = _prox_weighted_l2(vk, d2, inv_d2, 1.0 / (m * rho[k]), lam[k])
        sf = _to_grid(f, m)
        # over-relaxed z-step: y becomes the projection of
        # q = RELAX*(sf - e) + y + e - u onto |.| <= 1/(m*rho), and z = y - q.
        # In place, as numpy call overhead dominates at these sizes.
        q = sf - e
        q *= _RELAX
        q += y
        q += e
        q -= ug
        den = np.abs(q)
        den *= mrho
        y = q / np.maximum(den, 1.0, out=den)
        e_old, e = e, ug + q
        e -= y

        if it % _CHECK_EVERY == 0 or it == max_iters:
            nf = [float(np.linalg.norm(d * fk)) for fk in f]
            psi = mrho * y
            psi_hat = _to_coeffs(psi, n_max)
            # psi with its coefficients swapped for the subgradient of
            # ||D f|| at f: meets the dual weighted-norm constraint exactly
            # (a row with f = 0 divides 0 by 1 and offers no such candidate)
            sub = -d2 * f / np.array([x or 1.0 for x in nf])[:, None]
            swapped = psi + _to_grid(sub - psi_hat, m)
            swapped_hat = _to_coeffs(swapped, n_max)
            for k in range(len(rho)):
                upper = nf[k] + float(np.mean(np.abs(u_grid - sf[k])))
                if upper < best_upper:
                    best_upper = upper
                    best_f = f[k].copy()
                cands = [(psi[k], psi_hat[k])]
                if nf[k] > 0.0:
                    cands.append((swapped[k], swapped_hat[k]))
                lows = []
                for cand, hat in cands:
                    lower, scale = _weak_duality(cand, hat, u_grid, d)
                    lows.append(lower)
                    if lower > best_lower:
                        best_lower = lower
                        best_psi = cand / scale
                if k == 0:  # row 0's dual iterate lags when its swap scores higher
                    lag = lows[-1] > lows[0]
            if best_upper - best_lower <= tol * max(best_upper, 1e-300):
                converged = True
                break
            # balance row 0's primal residual S f + z - u against its dual one
            # rho S*(z - z_old), bounded via ||S* x|| <= sqrt(m) ||x|| (Boyd et
            # al., sec. 3.4.1); lam scales with rho, the scaled dual against it
            r_pri = float(np.linalg.norm(sf[0] - e[0]))
            r_dual = rho[0] * math.sqrt(m) * float(np.linalg.norm(e[0] - e_old[0]))
            step = 2.0 if r_pri > 10.0 * r_dual else 0.5 if r_dual > 10.0 * r_pri else 1.0
            if step != 1.0:
                rho[0], lam[0] = step * rho[0], step * lam[0]
                y[0] /= step
                mrho[0] = m * rho[0]
            if it == _JOIN_AFTER or (lag and not leave_at):
                # the small-penalty rows start from row 0's state, rescaled
                # as the balancing above rescales it (exactly, by powers of 2);
                # rows that join on the lag signal leave _EARLY_CHECKS checks
                # later, and those joining at _JOIN_AFTER replace them and stay
                leave_at = it + _EARLY_CHECKS * _CHECK_EVERY if it < _JOIN_AFTER else -1
                rho = rho[:1] + [rho[0] / s for s in _JOIN_SCALES]
                lam = lam[:1] + [lam[0] / s for s in _JOIN_SCALES]
                mrho = np.concatenate([mrho[:1]] + [mrho[:1] / s for s in _JOIN_SCALES])
                y = np.concatenate([y[:1]] + [s * y[:1] for s in _JOIN_SCALES])
                e = np.repeat(e[:1], len(rho), axis=0)
                ug = np.repeat(ug[:1], len(rho), axis=0)
                f = np.empty((len(rho), 2 * n_max + 1), dtype=complex)
            if it == leave_at:  # row 0 runs on alone
                rho, lam = rho[:1], lam[:1]
                mrho, y, e, ug, f = mrho[:1], y[:1], e[:1], ug[:1], f[:1]

    # at an exact optimum the two bounds can cross by rounding; a lower
    # bound below the certified one stays valid
    best_lower = min(best_lower, best_upper)
    dual_witness = GridFunction(best_psi)
    if not converged:
        # where d_n is below rounding, the witness's coefficients there are
        # rounding noise that each transform draws anew, so the bound the
        # witness reproduces through dual_bound can be lower than the score
        best_lower = min(best_lower, dual_bound(u, dual_witness, mu))
    witness = Decomposition(CoeffVector(n_max, best_f), GridFunction(u_grid - _to_grid(best_f, m)))
    return CertifiedNorm(best_upper, best_lower, best_upper - best_lower, it, witness, dual_witness,
                         converged)
