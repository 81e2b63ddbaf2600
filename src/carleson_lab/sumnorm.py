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
better of the two under the weak-duality formula certifies the lower
bound, so every result is a certified interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .fourier import CoeffVector, GridFunction, analyze, synthesize
from .measures import RadialMeasure, moment_array
from .norms import hmu_norm

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITERS = 200_000
_RELAX = 1.6  # ADMM over-relaxation factor
_CHECK_EVERY = 25  # iterations between certificate checks


@dataclass(frozen=True)
class Decomposition:
    f: CoeffVector  # weighted-norm part
    g: GridFunction  # L^1 part on the grid
    residual: float  # max |synth(f) + g - synth(u)| over the grid


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


def dual_hmu(phi: GridFunction, mu: RadialMeasure, n_max: int) -> float:
    """Dual weighted norm sqrt(sum_{|n|<=N} |phi_hat(n)|^2 / (2*pi*sigma_|n|)).

    A 0/0 term (phi_hat(n) = 0 where sigma_n = 0) makes the norm +inf, as
    in sum_norm, so dual_bound never drops the weighted constraint."""
    hat = analyze(phi, n_max)
    sig = moment_array(mu, n_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = math.sqrt(np.sum(np.abs(hat.coeffs) ** 2 / (2.0 * math.pi * sig[np.abs(hat.ns)])))
    return math.inf if math.isnan(val) else val


def dual_bound(u: CoeffVector, phi: GridFunction, mu: RadialMeasure) -> float:
    """Weak-duality lower bound |(1/M) sum u(theta_k) conj(phi_k)| after
    rescaling phi so that both dual constraints (sup norm <= 1 and dual
    weighted norm <= 1) hold."""
    if np.max(np.abs(phi.samples)) == 0.0:
        return 0.0
    scale = max(float(np.max(np.abs(phi.samples))), dual_hmu(phi, mu, u.n_max))
    u_grid = synthesize(u, phi.m).samples
    return float(abs(np.vdot(phi.samples, u_grid)) / (phi.m * scale))


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
    m: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> CertifiedNorm:
    """Certified value of the discretized sum-space norm.

    Terminates when the relative duality gap drops below tol; otherwise
    returns the best certified interval found with converged=False.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_max = u.n_max
    if m is None:
        m = 1 << max(3, int(math.ceil(math.log2(max(4 * n_max, 8)))))
    if m < 2 * n_max + 1:
        raise ValueError(f"m={m} too small for degree {n_max}")

    u_grid = synthesize(u, m).samples
    if np.max(np.abs(u.coeffs)) == 0.0:
        f0 = CoeffVector.zero(n_max)
        wit = Decomposition(f0, GridFunction(np.zeros(m, dtype=complex)), 0.0)
        return CertifiedNorm(0.0, 0.0, 0.0, 0, wit, GridFunction(np.zeros(m, dtype=complex)))

    sig = moment_array(mu, n_max)
    ns = np.arange(-n_max, n_max + 1)
    d = np.sqrt(2.0 * math.pi * sig[np.abs(ns)])
    d2 = d * d
    idx = ns % m  # coefficient slots inside the length-m spectrum

    spread = np.zeros(m, dtype=complex)  # slots outside idx stay zero

    def synth(fc):
        spread[idx] = fc
        return scipy.fft.ifft(spread, norm="forward")

    def coeffs(y):  # S*y / m, the inverse of synth on its range
        return scipy.fft.fft(y, norm="forward")[idx]

    # single-term decompositions seed the upper bound
    best_upper = hmu_norm(u, mu)
    best_f = u.coeffs.copy()
    single_l1 = float(np.mean(np.abs(u_grid)))
    if single_l1 < best_upper:
        best_upper = single_l1
        best_f = np.zeros_like(best_f)
    best_lower = 0.0
    best_psi = np.zeros(m, dtype=complex)
    converged = False
    it = 0

    inv_d2 = np.divide(1.0, d2, out=np.zeros_like(d2), where=d2 > 0.0)
    rho = 1.0 / m
    lam = 1.0  # root of the f-step's secular equation, warm-started
    e = u_grid.copy()  # u minus the L^1 part z
    y = np.zeros(m, dtype=complex)  # scaled dual of S f + z = u
    for it in range(1, max_iters + 1):
        f, lam = _prox_weighted_l2(coeffs(e - y), d2, inv_d2, 1.0 / (m * rho), lam)
        sf = synth(f)
        # over-relaxed z-step: y becomes the projection of
        # q = RELAX*(sf - e) + y + e - u onto |.| <= 1/(m*rho), and z = y - q.
        # In place, as numpy call overhead dominates at these sizes.
        q = sf - e
        q *= _RELAX
        q += y
        q += e
        q -= u_grid
        den = np.abs(q)
        den *= m * rho
        y = q / np.maximum(den, 1.0, out=den)
        e_old, e = e, u_grid + q
        e -= y

        if it % _CHECK_EVERY == 0 or it == max_iters:
            nf = float(np.linalg.norm(d * f))
            upper = nf + float(np.mean(np.abs(u_grid - sf)))
            if upper < best_upper:
                best_upper = upper
                best_f = f.copy()
            psi = (m * rho) * y
            psi_hat = coeffs(psi)
            cands = [(psi, psi_hat)]
            if nf > 0.0:
                # psi with its coefficients swapped for the subgradient of
                # ||D f|| at f: meets the dual weighted-norm constraint exactly
                cand = psi + synth(-d2 * f / nf - psi_hat)
                cands.append((cand, coeffs(cand)))
            for cand, hat in cands:
                with np.errstate(divide="ignore", invalid="ignore"):  # sigma_n = 0
                    dh = float(np.linalg.norm(hat / d))
                if math.isnan(dh):  # a 0/0 term; max() below would drop the nan
                    dh = math.inf
                scale = max(float(np.max(np.abs(cand))), dh, 1e-300)
                lower = float(abs(np.vdot(cand, u_grid)) / (m * scale))
                if lower > best_lower:
                    best_lower = lower
                    best_psi = cand / scale
            if best_upper - best_lower <= tol * max(best_upper, 1e-300):
                converged = True
                break
            # balance the primal residual S f + z - u against the dual one
            # rho S*(z - z_old), bounded via ||S* x|| <= sqrt(m) ||x|| (Boyd et
            # al., sec. 3.4.1); lam scales with rho, the scaled dual against it
            r_pri = float(np.linalg.norm(sf - e))
            r_dual = rho * math.sqrt(m) * float(np.linalg.norm(e - e_old))
            if r_pri > 10.0 * r_dual:
                rho, lam, y = 2.0 * rho, 2.0 * lam, 0.5 * y
            elif r_dual > 10.0 * r_pri:
                rho, lam, y = 0.5 * rho, 0.5 * lam, 2.0 * y

    # at an exact optimum the two bounds can cross by rounding; a lower
    # bound below the certified one stays valid
    best_lower = min(best_lower, best_upper)
    fv = CoeffVector(n_max, best_f)
    sf = synth(best_f)
    g = GridFunction(u_grid - sf)
    residual = float(np.max(np.abs(sf + g.samples - u_grid)))
    witness = Decomposition(fv, g, residual)
    return CertifiedNorm(
        upper=best_upper,
        lower=best_lower,
        gap=best_upper - best_lower,
        iterations=it,
        witness=witness,
        dual_witness=GridFunction(best_psi),
        converged=converged,
    )
