"""Output checks for the benchmark's operations.

Every check returns a list of failure reasons; an empty list means the
output is correct.  References come from closed forms or from mpmath and
are computed after the timed region, never inside it.  The checks call
the library only through module attributes, so they run untraced once
the tracer has been removed.
"""

from __future__ import annotations

import functools
import json
import math
import os

import mpmath
import numpy as np

from carleson_lab import fourier, measures, norms, sumnorm

mpmath.mp.dps = 30

# reasons a listed known red is allowed to fail with (see KNOWN_REDS)
NOT_CONVERGED = "not converged"
GAP_ABOVE_TOL = "gap above tol"


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def close(value, ref, rtol: float, what: str, atol: float = 0.0) -> list[str]:
    """One reason when value is not within rtol (or atol) of ref; 'inf' strings
    and floats compare exactly."""
    if isinstance(ref, str) or isinstance(value, str):
        return [] if value == ref else [f"{what}: {value!r} != {ref!r}"]
    if not math.isfinite(value) or abs(value - ref) > max(atol, rtol * abs(ref)):
        return [f"{what}: {value!r} vs reference {ref!r} (rel {rel_err(value, ref):.2e})"]
    return []


# ---------------------------------------------------------------------------
# certified sum-space norms


def certificate_failures(u, mu, m: int, tol: float, cert) -> list[str]:
    """Recheck a CertifiedNorm from outside the solver: convergence, the
    relative gap, the upper bound hmu_norm(f) + l1_norm(g) of the witness,
    the weak-duality lower bound dual_bound(u, psi, mu), and that the
    witness decomposes u on the grid."""
    out = []
    if not cert.converged:
        out.append(f"{NOT_CONVERGED} after {cert.iterations} iterations")
    if not cert.gap <= tol * cert.upper:
        out.append(f"{GAP_ABOVE_TOL}: gap/upper {cert.gap / max(cert.upper, 1e-300):.3g} > {tol:g}")
    if cert.lower > cert.upper:
        out.append(f"lower {cert.lower!r} above upper {cert.upper!r}")
    upper = norms.hmu_norm(cert.witness.f, mu) + norms.l1_norm(cert.witness.g)
    out += close(cert.upper, upper, 1e-9, "upper bound of the witness")
    lower = sumnorm.dual_bound(u, cert.dual_witness, mu)
    out += close(cert.lower, lower, 1e-9, "weak-duality lower bound", atol=1e-12 * upper)
    if lower > upper * (1.0 + 1e-9):
        out.append(f"recomputed lower {lower!r} above recomputed upper {upper!r}")
    u_grid = fourier.synthesize(u, m).samples
    f_grid = fourier.synthesize(cert.witness.f, m).samples
    resid = float(np.max(np.abs(f_grid + cert.witness.g.samples - u_grid)))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(u_grid)))):
        out.append(f"witness does not decompose u (residual {resid:.2e})")
    return out


def corpus_failures(report, calls, samples, tol: float) -> list[str]:
    """Check an adapted-pair corpus report against the certificates its
    solves returned.  samples[i] = (u_unit, v, w); calls holds the recorded
    (u, mu, m, tol, cert) of every sum_norm call, two per sample."""
    if len(report.ratios) != len(samples) or len(calls) != 2 * len(samples):
        return [f"{len(report.ratios)} ratios and {len(calls)} solves for {len(samples)} samples"]
    out = []
    for i, (u, v, w) in enumerate(samples):
        cv, cw = calls[2 * i], calls[2 * i + 1]
        for name, x, (xu, mu, m, _, cert) in (("v", v, cv), ("w", w, cw)):
            if not np.array_equal(xu.coeffs, x.coeffs):
                out.append(f"sample {i}: solve for {name} got another input")
                continue
            out += [f"sample {i} {name}: {r}" for r in certificate_failures(xu, mu, m, tol, cert)]
        l2 = norms.l2_norm(u)
        ratio = report.ratios[i]
        out += close(ratio, l2 / (cv[4].upper + cw[4].upper), 1e-12, f"sample {i} ratio")
        # the true ratio lies in [l2/(U_v+U_w), l2/(L_v+L_w)], within tol of the report
        hi = l2 / max(cv[4].lower + cw[4].lower, 1e-300)
        if hi > ratio / (1.0 - tol) * (1.0 + 1e-12):
            out.append(f"sample {i}: certified ratio bracket [{ratio!r}, {hi!r}] wider than tol")
    return out


# ---------------------------------------------------------------------------
# CLI reports


def load_schema(root: str) -> dict:
    with open(os.path.join(root, "schemas", "report.schema.json")) as fh:
        return json.load(fh)


def cli_failures(result, validator, command: str) -> tuple[list[str], dict | None]:
    """(reasons, results) for a captured (exit code, stdout) pair."""
    code, text = result
    if code != 0:
        return [f"exit code {code}"], None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"], None
    errors = [e.message for e in validator.iter_errors(doc)]
    if errors:
        return [f"schema: {errors[0]}"], None
    if doc["command"] != command:
        return [f"command {doc['command']!r} != {command!r}"], None
    return [], doc["results"]


# ---------------------------------------------------------------------------
# references for the quadrature layers; cached because a traced run checks
# every op twice


@functools.cache
def radial_moment_ref(c: float, p: float, b: float, n: int) -> float:
    """c * int_0^b r^{2n} (1-r)^p dr."""
    return float(c * mpmath.betainc(2 * n + 1, p + 1, 0, b))


@functools.cache
def singular_integral_ref(c: float, p: float) -> float:
    """2*pi * int_0^1 c (1-r)^p / (1-r^2) dr for p > 0; with t = 1-r the
    integral of t^(p-1)/(2-t) is 2F1(1, p; p+1; 1/2) / (2p)."""
    return float(2 * mpmath.pi * c * mpmath.hyp2f1(1, p, p + 1, 0.5) / (2 * p))


@functools.cache
def vertical_w_ref(x: float, atoms, pieces) -> float:
    """V(x) = int pi*x/(y^2 + pi^2 x^2) Pi(dy), so that W(x) = i V(x)."""
    c = math.pi * x
    total = mpmath.mpf(0)
    for y, w in atoms:
        total += w * c / (y * y + c * c)
    for a, b, k, p in pieces:
        if p == 0.0:
            top = mpmath.pi / 2 if math.isinf(b) else mpmath.atan(b / c)
            total += k * (top - mpmath.atan(a / c))
        else:
            total += k * (_power_primitive(b, p, c) - _power_primitive(a, p, c))
    return float(total)


def _power_primitive(t: float, p: float, c: float):
    """int_0^t y^p c/(y^2 + c^2) dy = t^(p+1)/((p+1) c) 2F1(1, (p+1)/2; (p+3)/2; -t^2/c^2)."""
    if t == 0.0:
        return mpmath.mpf(0)
    t = mpmath.mpf(t)
    return t ** (p + 1) / ((p + 1) * c) * mpmath.hyp2f1(1, (p + 1) / 2, (p + 3) / 2, -(t / c) ** 2)


@functools.cache
def vertical_sup_ref(atoms, pieces) -> float:
    """Continuous sup over x > 0 of V(x) by golden-section search in log x;
    V is unimodal for the single pieces the workloads draw."""
    def v(t):
        return vertical_w_ref(10.0**t, atoms, pieces)

    g = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -8.0, 8.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = v(x1), v(x2)
    for _ in range(40):
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = v(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = v(x2)
    return max(f1, f2)


@functools.cache
def laplace_ref(xi: float, atoms, pieces, rate: float) -> float:
    """int exp(-rate*y*|xi|) Pi(dy) through the lower incomplete gamma function."""
    s = rate * abs(xi)
    if s == 0.0:
        return 0.0
    total = mpmath.mpf(0)
    for y, w in atoms:
        total += w * mpmath.exp(-s * y)
    for a, b, k, p in pieces:
        e = p + 1
        top = mpmath.inf if math.isinf(b) else s * b
        total += k * mpmath.gammainc(e, s * a, top) / mpmath.mpf(s) ** e
    return float(total)


def poisson_ref(theta: np.ndarray, atoms, pieces) -> np.ndarray:
    """int sin(t)/((r - cos t)^2 + sin^2 t) alpha(dr) in closed form for atoms
    and constant-density pieces (the antiderivative is an arctangent)."""
    s, co = np.sin(theta), np.cos(theta)
    val = np.zeros_like(theta)
    for r, w in atoms:
        val += w * s / ((r - co) ** 2 + s * s)
    for a, b, c in pieces:
        val += c * (np.arctan((b - co) / s) - np.arctan((a - co) / s))
    return val


def garnett_atom_ref(t: float, w: float) -> tuple[float, float]:
    """(poisson_sup, box_sup) of w*delta_t on the library's default y and L grids
    logspace(-6, 6, 49), in closed form."""
    ys = np.logspace(-6, 6, 49)
    psup = float(np.max(w * ys / (t * t + ys * ys)))
    bsup = float(np.max(np.where(abs(t) <= ys, w / (2.0 * ys), 0.0)))
    return psup, bsup


def delta_grid_sup(c: float, p: float) -> float:
    """sup over the library's delta grid of sigma([1-delta, 1))/delta for
    c (1-r)^p dr on [0, 1): c delta^p / (p + 1)."""
    grid = measures.DELTA_GRID
    return float(np.max(c * grid**p / (p + 1.0)))
