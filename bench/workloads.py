"""The benchmark's three workloads, built round by round from the seed.

A round is a list of Ops.  Every op calls public functions of
carleson_lab through module attributes (never names imported from it), so
the tracer's rebinding sees every call, and carries the check that
decides whether its output is correct.

  corpus   adapted-pair corpus_scan over six radial measures; one op per
           scan, counting one op per sample.
  solve    single sum_norm calls on random_poly inputs, from tiny
           (criterion-3 shape) to the CLI sumnorm defaults.
  weights  in-process CLI commands and direct quadrature-layer calls on
           power-law measures drawn from the seed; no sum_norm call.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import jsonschema
import numpy as np

from carleson_lab import cli, fourier, halfplane, harness, measures, norms, sumnorm

import checks

# Listed known reds: each op carrying one of these keys may fail, but only with
# reasons that start with one of the listed prefixes; any other failure makes
# the run incorrect.  Readings are those of the parent commit at seed 42.
KNOWN_REDS = {
    "wsigma-lebesgue-disk": {
        "reading": "wsigma max_fourier_error 6.27e-6 on lebesgue-disk against the "
                   "criterion-2 bound 1e-6",
        "prefixes": ("max_fourier_error",),
    },
    "w_pi-power-touching-0": {
        "reading": "w_pi(x) for y^p dy on (0, b), p in [0.4, 0.6], is 75-83% low at "
                   "x = 1e-8 (and often up to 1e-6) against mpmath",
        "prefixes": ("W(",),
    },
    "solve-atom-0.9-unconverged": {
        "reading": "sum_norm on atom r=0.9 at n_max=128, m=512, tol=1e-5 stops "
                   "unconverged at max_iters=40000 (gap/upper 0.839)",
        "prefixes": (checks.NOT_CONVERGED, checks.GAP_ABOVE_TOL),
    },
}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    count: int = 1  # ops this call stands for (corpus: samples)
    red: str | None = None  # key of KNOWN_REDS


@dataclass
class Context:
    """State shared by the ops of one run: the recorded sum_norm calls of the
    corpus scans and the report-schema validator."""

    root: str
    tiny: bool = False
    solves: list = field(default_factory=list)

    def __post_init__(self):
        self.validator = jsonschema.Draft202012Validator(checks.load_schema(self.root))


@contextlib.contextmanager
def recording_solves(ctx: Context):
    """Rebind harness.sum_norm so the corpus scans' certificates can be
    rechecked; the wrapper adds one list append per solve.  Only the corpus
    workload calls sum_norm through harness."""
    inner = harness.sum_norm

    def recorded(u, mu, m=None, tol=sumnorm.DEFAULT_TOL, max_iters=sumnorm.DEFAULT_MAX_ITERS):
        cert = inner(u, mu, m=m, tol=tol, max_iters=max_iters)
        ctx.solves.append((u, mu, m, tol, cert))
        return cert

    harness.sum_norm = recorded
    try:
        yield
    finally:
        harness.sum_norm = inner


def seed_int(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def trunc(eps: float):
    """(1-r)^{-1/2} dr on [0, 1 - eps)."""
    return measures.RadialMeasure(pieces=((0.0, 1.0 - eps, 1.0, -0.5, 0.0),))


def fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# corpus

CORPUS_TOL = 1e-3
SCAN_SIZE = 2


def corpus_round(ctx: Context, seed: int, r: int) -> list[Op]:
    """Half of the adapted-pair corpus 2/8/8/16/16/16 over the six measures:
    iteration counts per solve span two orders of magnitude.  Scans hold at
    most SCAN_SIZE samples, so a run has enough scans for its latency
    percentiles to average over the machine's load swings."""
    rng = np.random.default_rng([seed, r, 1])
    groups = [("trunc-0.9", trunc(1e-1), 1), ("atom-0.9", measures.atom_disk(0.9), 4),
              ("one-minus-r", measures.power_disk(1.0), 4),
              ("lebesgue", measures.lebesgue_disk(), 8),
              ("trunc-0.99", trunc(1e-2), 8), ("trunc-0.999", trunc(1e-3), 8)]
    n_max, m = (8, 32) if ctx.tiny else (64, 512)
    if ctx.tiny:
        groups = [(name, mu, 1) for name, mu, _ in groups[1:4]]
    return [scan_op(ctx, name, mu, min(SCAN_SIZE, count - k), seed_int(rng), n_max, m)
            for name, mu, count in groups for k in range(0, count, SCAN_SIZE)]


def scan_op(ctx: Context, name: str, mu, count: int, seed: int, n_max: int, m: int) -> Op:
    def call():
        start = len(ctx.solves)
        rep = harness.corpus_scan(mu, count, seed=seed, n_max=n_max, which="adapted", m=m,
                                  tol=CORPUS_TOL, max_iters=40_000)
        return rep, ctx.solves[start:]

    def check(out):
        rep, calls = out
        pair = fourier.adapted_pair(mu, n_max)
        samples = []
        for i in range(count):
            u = harness.random_poly(seed, i, n_max)
            u = fourier.CoeffVector(n_max, u.coeffs / norms.l2_norm(u))
            v = fourier.multiplier(u, pair.a)
            samples.append((u, v, fourier.multiplier(v, pair.b)))
        return checks.corpus_failures(rep, calls, samples, CORPUS_TOL)

    return Op(f"corpus_scan.{name}", call, check, count=count)


# ---------------------------------------------------------------------------
# solve


def solve_op(kind: str, u, mu, m: int, tol: float, max_iters: int = sumnorm.DEFAULT_MAX_ITERS,
             red: str | None = None) -> Op:
    return Op(kind, lambda: sumnorm.sum_norm(u, mu, m=m, tol=tol, max_iters=max_iters),
              lambda cert: checks.certificate_failures(u, mu, m, tol, cert), red=red)


def solve_round(ctx: Context, seed: int, r: int) -> list[Op]:
    """60 tiny calls, 40 at n_max=32, 8 at the CLI sumnorm defaults and the
    unconverged atom-0.9 call: one call at a time at tight tolerance."""
    rng = np.random.default_rng([seed, r, 2])
    s = seed_int(rng)
    leb = measures.lebesgue_disk()
    ops = []
    for i in range(6 if ctx.tiny else 60):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(2 * n + 1, 17))
        ops.append(solve_op("sum_norm.tiny", harness.random_poly(s, i, n), leb, m, 5e-5))
    medium = [("atom-0.9", measures.atom_disk(0.9)), ("one-minus-r", measures.power_disk(1.0)),
              ("lebesgue", leb), ("trunc-0.99", trunc(1e-2)), ("trunc-0.999", trunc(1e-3))]
    n_mid, m_mid = (8, 32) if ctx.tiny else (32, 128)
    for k, (name, mu) in enumerate(medium):
        for j in range(1 if ctx.tiny else 8):
            u = harness.random_poly(s, 1000 + 8 * k + j, n_mid)
            ops.append(solve_op(f"sum_norm.n32.{name}", u, mu, m_mid, 1e-5))
    n_cli, m_cli = (16, 64) if ctx.tiny else (128, 512)
    for j, (name, mu) in enumerate([("lebesgue", leb), ("trunc-0.999", trunc(1e-3))] * (1 if ctx.tiny else 4)):
        u = harness.random_poly(s, 2000 + j, n_cli)
        ops.append(solve_op(f"sum_norm.cli_defaults.{name}", u, mu, m_cli, 1e-5))
    u = harness.random_poly(s, 3000, n_cli)
    ops.append(solve_op("sum_norm.cli_defaults.atom-0.9", u, measures.atom_disk(0.9), m_cli, 1e-5,
                        max_iters=50 if ctx.tiny else 40_000, red="solve-atom-0.9-unconverged"))
    return ops


# ---------------------------------------------------------------------------
# weights


def cli_op(ctx: Context, argv: list, check_results, red: str | None = None) -> Op:
    """One in-process CLI command with stdout captured."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        reasons, results = checks.cli_failures(out, ctx.validator, argv[0])
        return reasons if results is None else check_results(results)

    return Op(f"cli.{argv[0]}", call, check, red=red)


def halfplane_checks(sup_ref, ratio_ref, sup_rtol: float = 1e-12):
    """Checks of a halfplane report; sup_ref is a value or (low, high)."""
    def check(res):
        s = res["w_sup"]
        if isinstance(sup_ref, tuple):
            lo, hi = sup_ref
            out = [] if lo <= s <= hi else [f"w_sup {s!r} outside mpmath bracket [{lo!r}, {hi!r}]"]
        else:
            out = checks.close(s, sup_ref, sup_rtol, "w_sup")
        out += checks.close(res["carleson_sup_ratio"], ratio_ref, 1e-12, "carleson_sup_ratio")
        out += checks.close(res["stability_constant"], 2.0 * math.sqrt(2.0 + s), 1e-12,
                            "stability_constant")
        out += checks.close(res["const_b_pi"], math.sqrt(2.0 + s), 1e-12, "const_b_pi")
        if res["is_carleson"] is not True:
            out.append("is_carleson is not true")
        return out
    return check


def heavy_halfplane_op(ctx: Context, p: float, b: float) -> Op:
    """y^p dy on (0, b): ~500 IntegrationWarnings, and const_bpi recomputes
    w_pi_sup.  The sup is bracketed by the continuous mpmath sup: the grid sup
    lies below it by less than the log-grid spacing allows."""
    def check(res):
        top = checks.vertical_sup_ref((), ((0.0, b, 1.0, p),))
        return halfplane_checks((top * (1.0 - 1e-4), top * (1.0 + 1e-9)),
                                b**p / (p + 1.0))(res)

    return cli_op(ctx, ["halfplane", "--measure", f"power:p={fmt(p)},b={fmt(b)}"], check)


def moments_check(c: float, p: float, b: float, n_max: int):
    def check(res):
        sig = res["moments"]
        if len(sig) != n_max + 1:
            return [f"{len(sig)} moments for n_max={n_max}"]
        out = []
        for n in sorted({0, n_max // 2, n_max}):
            out += checks.close(sig[n], checks.radial_moment_ref(c, p, b, n), 1e-9, f"sigma_{n}")
        return out
    return check


def carleson_check(c: float, p: float):
    def check(res):
        if p < 0.0:
            return (checks.close(res["sup_ratio"], "inf", 0, "sup_ratio")
                    + checks.close(res["singular_integral"], "inf", 0, "singular_integral")
                    + ([] if res["is_carleson"] is False else ["is_carleson is not false"]))
        out = checks.close(res["sup_ratio"], checks.delta_grid_sup(c, p), 1e-9, "sup_ratio")
        out += checks.close(res["singular_integral"], checks.singular_integral_ref(c, p), 1e-8,
                            "singular_integral")
        return out + ([] if res["is_carleson"] is True else ["is_carleson is not true"])
    return check


def fejer_check(c: float, p: float, n_list: list):
    def check(rows):
        if [row["n"] for row in rows] != n_list:
            return ["rows do not follow --n-list"]
        out = []
        for row in rows:
            n = row["n"]
            out += checks.close(row["h1_norm"], 1.0, 0.0, f"h1_norm[{n}]", atol=1e-12)
            out += checks.close(row["projection_sq_norm"], row["projection_sq_closed_form"], 1e-10,
                                f"projection_sq_norm[{n}]")
            ref = sum(checks.radial_moment_ref(c, p, 1.0, j) for j in range(n + 1))
            out += checks.close(row["moment_partial_sum"], ref, 1e-9, f"moment_partial_sum[{n}]")
        return out
    return check


def wsigma_check(res):
    err = res["max_fourier_error"]
    return [] if err <= 1e-6 else [f"max_fourier_error {err!r} above the criterion-2 bound 1e-6"]


def garnett_check(psup, bsup):
    def check(res):
        out = checks.close(res["poisson_sup"], psup, 1e-12, "poisson_sup", atol=1e-9)
        out += checks.close(res["box_sup"], bsup, 1e-12, "box_sup")
        finite = not isinstance(psup, str)
        return out + ([] if res["both_finite"] is finite else ["both_finite"])
    return check


def w_pi_op(atoms, pieces, red: str | None = None) -> Op:
    atoms, pieces = tuple(atoms), tuple(pieces)
    pi = measures.VerticalMeasure(atoms=atoms, pieces=pieces)
    xs = np.logspace(-8, 8, 17)

    def check(w):
        out = [] if np.all(np.real(w) == 0.0) else ["W is not purely imaginary"]
        for x, val in zip(xs, np.imag(w)):
            out += checks.close(float(val), checks.vertical_w_ref(x, atoms, pieces), 1e-8,
                                f"W({x:.0e})")
        return out

    return Op("halfplane.w_pi", lambda: halfplane.w_pi(pi, xs), check, red=red)


def poisson_sup_op(r: float, w: float, a: float, b: float, c: float) -> Op:
    alpha = measures.RadialMeasure(atoms=((r, w),), pieces=((a, b, c, 0.0, 0.0),))

    def check(val):
        ref = float(np.max(checks.poisson_ref(norms.default_theta_grid(), [(r, w)], [(a, b, c)])))
        return checks.close(val, ref, 1e-8, "poisson_sup")

    return Op("norms.poisson_sup", lambda: norms.poisson_sup(alpha), check)


def fourier_check_op(pi) -> Op:
    def check(err):
        return [] if err <= 5e-3 else [f"truncated Fourier identity error {err!r} above 5e-3"]

    return Op("halfplane.w_pi_truncated_fourier_check",
              lambda: halfplane.w_pi_truncated_fourier_check(pi, 0.1, 10.0), check)


def laplace_op(atoms, pieces) -> Op:
    atoms, pieces = tuple(atoms), tuple(pieces)
    pi = measures.VerticalMeasure(atoms=atoms, pieces=pieces)
    xi = np.logspace(-3, 2, 24)

    def check(vals):
        ref = np.array([checks.laplace_ref(x, atoms, pieces, 4.0 * math.pi) for x in xi])
        out = []
        for x, v, rv in zip(xi, vals, ref):
            out += checks.close(float(v), float(rv), 1e-9, f"L({x:.2e})", atol=1e-12 * np.max(ref))
        return out

    return Op("measures.laplace_transform", lambda: measures.laplace_transform(pi, xi), check)


def weights_round(ctx: Context, seed: int, r: int) -> list[Op]:
    """Half of a ~110-op pass over the quadrature layers and the CLI; every
    op gets a fresh measure, so nothing a moment cache keeps is reused.  The
    eight poisson_sup calls are the ops at the round's 90th percentile."""
    rng = np.random.default_rng([seed, r, 3])
    u = rng.uniform
    ops = []
    if not ctx.tiny:
        ops.append(heavy_halfplane_op(ctx, u(0.4, 0.6), u(2.0, 6.0)))
    ops.append(cli_op(ctx, ["halfplane", "--measure", "lebesgue-halfplane"],
                      halfplane_checks(math.pi / 2.0, 1.0)))
    y, w = u(0.1, 10.0), u(0.5, 2.0)
    ops.append(cli_op(ctx, ["halfplane", "--measure", f"atom:y={fmt(y)},w={fmt(w)}"],
                      halfplane_checks(w / (2.0 * y), w / y)))
    a, b, c = u(0.1, 1.0), u(2.0, 10.0), u(0.5, 2.0)
    grid_v = c * (np.arctan(b / (math.pi * halfplane.default_x_grid()))
                  - np.arctan(a / (math.pi * halfplane.default_x_grid())))
    ops.append(cli_op(ctx, ["halfplane", "--measure", f"power:p=0.0,a={fmt(a)},b={fmt(b)},c={fmt(c)}"],
                      halfplane_checks(float(np.max(grid_v)), c * (b - a) / b)))
    for _ in range(3 if ctx.tiny else 12):
        p, b, c, n = u(-0.9, 2.0), u(0.5, 1.0), u(0.5, 2.0), int(rng.integers(8, 129))
        ops.append(cli_op(ctx, ["moments", "--measure", f"power:p={fmt(p)},b={fmt(b)},c={fmt(c)}",
                                "--n-max", str(n)], moments_check(c, p, b, n)))
    for _ in range(2 if ctx.tiny else 8):
        p, c = u(-0.9, 2.0), u(0.5, 2.0)
        ops.append(cli_op(ctx, ["carleson", "--measure", f"power:p={fmt(p)},c={fmt(c)}"],
                          carleson_check(c, p)))
    for _ in range(1 if ctx.tiny else 3):
        p, c = u(0.0, 2.0), u(0.5, 2.0)
        ops.append(cli_op(ctx, ["fejer", "--measure", f"power:p={fmt(p)},c={fmt(c)}",
                                "--n-list", "2", "8", "32"], fejer_check(c, p, [2, 8, 32])))
    wsigma = ["--grid", "4096", "--n-max", "64"]
    ops.append(cli_op(ctx, ["wsigma", "--measure", "lebesgue-disk"] + wsigma, wsigma_check,
                      red="wsigma-lebesgue-disk"))
    name = f"power:p={fmt(u(0.5, 1.5))}" if rng.random() < 0.5 else \
        f"atom:r={fmt(u(0.3, 0.95))},w={fmt(u(0.5, 2.0))}"
    ops.append(cli_op(ctx, ["wsigma", "--measure", name] + wsigma, wsigma_check))
    ops.append(cli_op(ctx, ["garnett", "--measure", "lebesgue-line"], garnett_check(math.pi, 1.0)))
    t, w = u(0.1, 10.0) * (1 if rng.random() < 0.5 else -1), u(0.5, 2.0)
    ops.append(cli_op(ctx, ["garnett", "--measure", f"atom:t={fmt(t)},w={fmt(w)}"],
                      garnett_check(*checks.garnett_atom_ref(t, w))))
    p = u(0.1, 0.9) * (1 if rng.random() < 0.5 else -1)
    ops.append(cli_op(ctx, ["garnett", "--measure", f"power:p={fmt(p)}"], garnett_check("inf", "inf")))
    for _ in range(1 if ctx.tiny else 8):
        ops.append(poisson_sup_op(u(0.1, 0.95), u(0.5, 2.0), u(0.0, 0.5), u(0.6, 0.99), u(0.5, 2.0)))
    ops.append(w_pi_op([], [(0.0, u(2.0, 6.0), u(0.5, 2.0), u(0.4, 0.6))], red="w_pi-power-touching-0"))
    a2 = u(0.1, 1.0)
    ops.append(w_pi_op([(u(0.1, 10.0), u(0.5, 2.0))],
                       [(u(0.0, 0.5), math.inf if rng.random() < 0.5 else u(5.0, 50.0), u(0.5, 2.0), 0.0),
                        (a2, a2 + u(0.5, 10.0), u(0.5, 2.0), u(-0.9, 2.0))]))
    ops.append(fourier_check_op(measures.atom_halfplane(u(0.2, 1.2), u(0.5, 2.0))))
    for _ in range(3 if ctx.tiny else 12):
        a = 0.0 if rng.random() < 0.5 else u(0.1, 1.0)
        b = math.inf if rng.random() < 0.5 else a + u(0.5, 10.0)
        ops.append(laplace_op([(u(0.1, 5.0), u(0.5, 2.0))], [(a, b, u(0.5, 2.0), u(-0.9, 2.0))]))
    return ops


ROUNDS = {"corpus": corpus_round, "solve": solve_round, "weights": weights_round}

# Seconds one round takes on the reference machine (2 cores, Python 3.11,
# numpy 2.4, scipy 1.17); a run does round(seconds / ROUND_SECONDS) rounds,
# so every run of a seed does the same work.
ROUND_SECONDS = {"corpus": 5.2, "solve": 7.7, "weights": 3.8}
