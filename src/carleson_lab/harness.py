"""Experiment drivers: Bourgain-Brezis-type ratio checks, the embedding
sandwich, the Fejer partial-moment dichotomy, and deterministic random
corpora.

Ratio denominators use certified sum-norm upper bounds, so a reported
violation of an inequality is sound and a reported constant is
conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import AdaptedPair, CoeffVector, adapted_pair, analytic_projection, multiplier, \
    synthesize
from .measures import RadialMeasure, moment_array
from .norms import a2_norm, l1_norm, l2_norm
from .sumnorm import sum_norm


@dataclass(frozen=True)
class InequalityReport:
    ratios: tuple
    max_ratio: float
    seed: int
    corpus_size: int

    def to_dict(self) -> dict:
        return {
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "seed": self.seed,
            "corpus_size": self.corpus_size,
        }


def _unit(u: CoeffVector) -> CoeffVector:
    """Rescale to unit l^2 norm so every ratio is exactly scale-invariant."""
    return CoeffVector(u.n_max, u.coeffs / l2_norm(u))


def adapted_ineq_ratio(u: CoeffVector, mu: RadialMeasure, pair: AdaptedPair | None = None,
                       m: int = 512, tol: float = 1e-3, max_iters: int = 40_000) -> float:
    """||u||_2 / (||T_a u||_{sum} + ||T_b T_a u||_{sum}) for an adapted pair
    (a, b); scale-invariant by homogeneity.  The default pair has b = sgn,
    so T_b = H and T_a is the moment-normalizing multiplier: the
    Bourgain-Brezis-type ratio."""
    if u.is_zero():
        raise ValueError("ratio undefined for u = 0")
    if pair is None:
        pair = adapted_pair(mu, u.n_max)
    if pair.n_max < u.n_max:
        raise ValueError("adapted pair degree too small for the input")
    modes = slice(pair.n_max - u.n_max, pair.n_max + u.n_max + 1)
    u = _unit(u)
    v = multiplier(u, pair.a[modes])
    w = multiplier(v, pair.b[modes])
    den = sum_norm(v, mu, m=m, tol=tol, max_iters=max_iters).upper \
        + sum_norm(w, mu, m=m, tol=tol, max_iters=max_iters).upper
    return l2_norm(u) / den


def embedding_ratio(f: CoeffVector, mu: RadialMeasure, m: int = 512, tol: float = 1e-3,
                    max_iters: int = 40_000) -> float:
    """||f||_{A^2(mu)} / ||f||_{sum} for analytic f; always >= 1 up to tol."""
    if f.is_zero():
        raise ValueError("ratio undefined for f = 0")
    if not f.is_analytic():
        raise ValueError("embedding ratio requires an analytic input")
    f = _unit(f)
    return a2_norm(f, mu) / sum_norm(f, mu, m=m, tol=tol, max_iters=max_iters).upper


def fejer_kernel(n: int) -> CoeffVector:
    """Harmonic extension of the Fejer kernel: coefficients 1 - |j|/N."""
    if n < 1:
        raise ValueError("Fejer index must be >= 1")
    j = np.arange(-n, n + 1)
    return CoeffVector(n, (1.0 - np.abs(j) / n).astype(complex))


def fejer_experiment(mu: RadialMeasure, n_list) -> list[dict]:
    """Per N: the boundary L^1 norm (always 1), the squared weighted Bergman
    norm of the analytic projection 2*pi*sum (1-j/N)^2 sigma_j (both via the
    operator pipeline and the closed form), and the running moment sum."""
    if not n_list:
        raise ValueError("n_list must be nonempty")
    rows = []
    n_top = max(n_list)
    sig = moment_array(mu, n_top)
    for n in n_list:
        fk = fejer_kernel(n)
        m = 1 << int(math.ceil(math.log2(2 * n + 2)))
        h1 = l1_norm(synthesize(fk, m))
        proj = analytic_projection(fk)
        pipeline_sq = a2_norm(proj, mu) ** 2
        j = np.arange(0, n + 1)
        closed_sq = 2.0 * math.pi * float(np.sum((1.0 - j / n) ** 2 * sig[: n + 1]))
        rows.append({
            "n": int(n),
            "h1_norm": h1,
            "projection_sq_norm": pipeline_sq,
            "projection_sq_closed_form": closed_sq,
            "moment_partial_sum": float(np.sum(sig[: n + 1])),
        })
    return rows


def random_poly(seed: int, index: int, n_max: int, analytic: bool = False) -> CoeffVector:
    """Deterministic random trigonometric polynomial: independent complex
    Gaussians with variance profile (1+|n|)^{-1}; per-sample stream derived
    from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    ns = np.arange(-n_max, n_max + 1)
    std = (1.0 + np.abs(ns)) ** -0.5 / math.sqrt(2.0)
    c = std * (rng.standard_normal(2 * n_max + 1) + 1j * rng.standard_normal(2 * n_max + 1))
    if analytic:
        c[:n_max] = 0.0
    return CoeffVector(n_max, c)


def corpus_scan(mu: RadialMeasure, count: int, seed: int = 42, n_max: int = 64,
                which: str = "adapted", m: int = 512, tol: float = 1e-3,
                max_iters: int = 40_000) -> InequalityReport:
    """Run the selected ratio over a deterministic pseudo-random corpus:
    "adapted" runs adapted_ineq_ratio with the default pair, "embedding"
    embedding_ratio on analytic inputs."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if which not in ("adapted", "embedding"):
        raise ValueError(f"unknown ratio kind {which!r}")
    analytic = which == "embedding"
    pair = None if analytic else adapted_pair(mu, n_max)

    def one(i: int) -> float:
        u = random_poly(seed, i, n_max, analytic=analytic)
        if analytic:
            return float(embedding_ratio(u, mu, m=m, tol=tol, max_iters=max_iters))
        return float(adapted_ineq_ratio(u, mu, pair, m=m, tol=tol, max_iters=max_iters))

    ratios = [one(i) for i in range(count)]
    return InequalityReport(
        ratios=tuple(ratios),
        max_ratio=max(ratios),
        seed=seed,
        corpus_size=count,
    )
