"""Acceptance gate: the nine headline criteria, one test per criterion
(criterion 2 is parametrized per measure).  Each test prints a
"CRITERION k ... PASS/FAIL" line before asserting, so the verdict survives
in the captured output of failing runs.

Criterion 2's Lebesgue leg: raw trapezoidal analysis of pointwise w_sigma
samples carries the aliasing error sum_t (sigma_{tm+n} - sigma_{tm-n}),
~(pi^2/6) n / m^2 = 6.3e-6 at n=64, m=4096, which comes from the jump of
w_sigma at theta = 0.  `analyze_w_sigma_errors` subtracts that jump, whose
size it reads off the density at r = 1, and adds back its exact
coefficients, which brings the error to ~2e-9.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from carleson_lab.halfplane import (
    stability_ratio,
    w_pi_sup,
    w_pi_truncated_fourier_check,
    const_bpi,
)
from carleson_lab.harness import corpus_scan, fejer_experiment
from carleson_lab.measures import (
    INF,
    LineMeasure,
    LinePiece,
    RadialMeasure,
    atom_disk,
    atom_halfplane,
    lebesgue_disk,
    lebesgue_halfplane,
    lebesgue_line,
    moment_array,
    power_disk,
)
from carleson_lab.norms import analyze_w_sigma_errors
from carleson_lab.sumnorm import sum_norm

from conftest import random_coeff_vector, rng_for
from test_halfplane import _admissible_instance


def report(k: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {k} ({label}): {verdict} -- {detail}")


def test_criterion_1_moment_oracle():
    t0 = time.time()
    n = np.arange(1025)
    leb_err = float(np.max(np.abs(moment_array(lebesgue_disk(), 1024) - 1.0 / (2 * n + 2))))
    pw_err = float(np.max(np.abs(moment_array(power_disk(1.0), 1024)
                                 - 1.0 / ((2 * n + 1) * (2 * n + 2)))))
    elapsed = time.time() - t0
    ok = leb_err < 1e-12 and pw_err < 1e-12 and elapsed < 1.0
    report(1, "moment oracle", ok,
           f"lebesgue err {leb_err:.2e}, (1-r)dr err {pw_err:.2e}, {elapsed:.2f}s")
    assert ok


@pytest.mark.parametrize("name,mu", [
    ("atom_0.5", atom_disk(0.5)),
    ("one_minus_r", power_disk(1.0)),
    ("lebesgue", lebesgue_disk()),
])
def test_criterion_2_w_sigma_fourier_identity(name, mu):
    t0 = time.time()
    err = analyze_w_sigma_errors(mu, m=4096, n_max=64)
    elapsed = time.time() - t0
    ok = err <= 1e-6 and elapsed < 5.0
    report(2, f"w_sigma Fourier identity [{name}]", ok, f"max err {err:.3e}, {elapsed:.1f}s")
    assert ok, (
        f"max Fourier error {err:.3e} exceeds 1e-6 for {name} (or took "
        f"{elapsed:.1f}s > 5s). A reading near 6.3e-6 for the Lebesgue measure "
        "is the aliasing floor of the unsubtracted jump of w_sigma at theta = 0; "
        "see the module docstring above.")


def test_criterion_3_sum_norm_certification(lebesgue):
    from test_sumnorm import reference_oracle

    t0 = time.time()
    worst_gap = 0.0
    n_inst = 0
    ok = True
    for i in range(24):
        rng = rng_for(500 + i)
        n_max = int(rng.integers(1, 3))
        m = int(rng.integers(2 * n_max + 1, 17))
        u = random_coeff_vector(rng, n_max)
        cert = sum_norm(u, lebesgue, m=m, tol=5e-5)
        ref = reference_oracle(u, lebesgue, m)
        slack = 1e-6 * max(1.0, ref)
        if not (cert.lower - slack <= ref <= cert.upper + slack):
            ok = False
        if cert.gap > 1e-4 * cert.upper:
            ok = False
        worst_gap = max(worst_gap, cert.gap / cert.upper)
        n_inst += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    report(3, "sum-norm certification", ok,
           f"{n_inst} instances, worst relative gap {worst_gap:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_fejer_dichotomy():
    t0 = time.time()
    rows = fejer_experiment(lebesgue_disk(), [2, 64, 1024])
    vals = [r["projection_sq_norm"] for r in rows]
    increasing = vals[0] < vals[1] < vals[2]
    match = max(abs(r["projection_sq_norm"] - r["projection_sq_closed_form"]) for r in rows)
    mu = power_disk(1.0)
    sig = moment_array(mu, 2048)
    sup = 0.0
    for n in range(1, 2049):
        j = np.arange(n + 1)
        sup = max(sup, 2.0 * math.pi * float(np.sum((1.0 - j / n) ** 2 * sig[: n + 1])))
    bound = 2.0 * math.pi * math.log(2.0)
    h1 = fejer_experiment(mu, [2048])[0]["h1_norm"]
    elapsed = time.time() - t0
    ok = (increasing and match < 1e-10 and sup <= bound + 1e-8
          and abs(h1 - 1.0) < 1e-12 and elapsed < 10.0)
    report(4, "Fejer dichotomy", ok,
           f"divergent leg increasing={increasing}, closed-form match {match:.1e}, "
           f"sup {sup:.6f} <= 2*pi*ln2 {bound:.6f}, h1 {h1:.15f}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_blowup_signature():
    t0 = time.time()
    maxima = []
    for eps in (1e-1, 1e-2, 1e-3):
        mu = RadialMeasure(pieces=((0.0, 1.0 - eps, 1.0, -0.5, 0.0),))
        rep = corpus_scan(mu, 100, seed=42, n_max=64, which="adapted")
        maxima.append(rep.max_ratio)
    increasing = maxima[0] < maxima[1] < maxima[2]
    cmax = []
    for mu in (lebesgue_disk(), power_disk(1.0), atom_disk(0.9)):
        cmax.append(corpus_scan(mu, 100, seed=42, n_max=64, which="adapted").max_ratio)
    spread = max(cmax) / min(cmax)
    elapsed = time.time() - t0
    ok = increasing and spread < 10.0 and elapsed < 600.0
    report(5, "blow-up signature", ok,
           f"non-Carleson maxima {['%.4f' % v for v in maxima]} increasing={increasing}, "
           f"Carleson spread factor {spread:.2f}, {elapsed:.0f}s")
    assert ok


def test_criterion_6_halfplane_explicit_constants():
    t0 = time.time()
    pi = lebesgue_halfplane()
    sup_err = abs(w_pi_sup(pi) - math.pi / 2.0)
    cb_err = abs(const_bpi(1.0, pi) - math.sqrt(2.0 + math.pi / 2.0))
    bound = 2.0 * math.sqrt(2.0 + math.pi / 2.0)
    worst = 0.0
    for i in range(50):
        f, g, h = _admissible_instance(i)
        for big_r in (1.0, 10.0):
            worst = max(worst, stability_ratio(f, g, h, pi, big_r))
    elapsed = time.time() - t0
    ok = sup_err < 1e-8 and cb_err < 1e-8 and worst <= bound + 1e-6 and elapsed < 60.0
    report(6, "half-plane explicit constants", ok,
           f"w_sup err {sup_err:.1e}, const_bpi err {cb_err:.1e}, "
           f"worst stability ratio {worst:.4f} vs {bound:.4f}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_truncated_w_fourier_identity():
    t0 = time.time()
    ok = True
    details = []
    for name, pi in (("lebesgue", lebesgue_halfplane()), ("atom_1.0", atom_halfplane(1.0))):
        errs = [w_pi_truncated_fourier_check(pi, 0.1, 10.0, n_x=n) for n in (2048, 4096, 8192)]
        if errs[1] > 5e-3:  # the default resolution
            ok = False
        if not errs[0] > errs[1] > errs[2]:
            ok = False
        details.append(f"{name}: {errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    report(7, "truncated W Fourier identity", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_8_garnett_cofiniteness():
    from carleson_lab.halfplane import garnett_check

    t0 = time.time()
    measures = {
        "lebesgue": lebesgue_line(),
        "atom_0": LineMeasure(atoms=((0.0, 1.0),)),
        "atom_1": LineMeasure(atoms=((1.0, 1.0),)),
        "abs_t_dt": LineMeasure(pieces=(LinePiece(-INF, INF, 1.0, 1.0),)),
        "dt_pieces": LineMeasure(pieces=(LinePiece(-INF, 0.0, 1.0, 0.0), LinePiece(0.0, INF, 1.0, 0.0))),
        "inv_sqrt_t": LineMeasure(pieces=(LinePiece(-1.0, 1.0, 1.0, -0.5),)),
    }
    ok = True
    details = []
    for name, nu in measures.items():
        p1, b1 = garnett_check(nu)
        p2, b2 = garnett_check(nu)
        cofinite = math.isinf(p1) == math.isinf(b1)
        reproducible = math.isinf(p1) or (abs(p1 - p2) < 1e-6 and abs(b1 - b2) < 1e-6)
        if not (cofinite and reproducible):
            ok = False
        details.append(f"{name}:{'inf' if math.isinf(p1) else 'fin'}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(8, "Garnett co-finiteness", ok, " ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_9_invariant_suite():
    # the subprocess runs from tests/, where an inherited relative PYTHONPATH
    # (such as PYTHONPATH=src) does not resolve: put the directory holding the
    # imported package first, absolute, so it works installed or not
    import carleson_lab
    pkg_root = str(Path(carleson_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "test_invariants.py", "-q", "--no-header", "-p", "no:cacheprovider"],
        cwd=str(Path(__file__).parent), env=env,
        capture_output=True, text=True)
    elapsed = time.time() - t0
    ok = proc.returncode == 0 and elapsed < 600.0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    report(9, "invariant suite", ok, f"{tail}, {elapsed:.0f}s")
    assert ok, proc.stdout + proc.stderr
