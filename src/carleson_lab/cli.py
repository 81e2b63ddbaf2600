"""Command-line front end: load measures, run experiments, emit
deterministic JSON/CSV reports.

Exit codes: 0 success, 2 invalid input (bad measure file or violated
invariant), 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import __version__
from .harness import corpus_scan, fejer_experiment, random_poly
from .halfplane import const_bpi, garnett_check, stability_constant, w_pi_sup
from .measures import (
    LineMeasure,
    RadialMeasure,
    VerticalMeasure,
    atom_disk,
    atom_halfplane,
    lebesgue_disk,
    lebesgue_halfplane,
    lebesgue_line,
    moment_array,
    power_disk,
    radial_carleson,
    singular_integral,
    vertical_carleson,
)
from .norms import analyze_w_sigma_errors
from .sumnorm import sum_norm

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3


class InputError(Exception):
    pass


def _parse_kv(spec: str) -> dict:
    out = {}
    for part in spec.split(","):
        if "=" not in part:
            raise InputError(f"malformed measure parameter {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = float(v)
    return out


def resolve_measure(name: str, kind: str):
    """A builtin measure name or a JSON file path."""
    builtin = {
        "radial": {
            "lebesgue-disk": lebesgue_disk,
        },
        "vertical": {
            "lebesgue-halfplane": lebesgue_halfplane,
        },
        "line": {
            "lebesgue-line": lebesgue_line,
        },
    }[kind]
    if name in builtin:
        return builtin[name]()
    if ":" in name and not os.path.exists(name):
        head, spec = name.split(":", 1)
        kv = _parse_kv(spec)
        try:
            if head == "atom" and kind == "radial":
                return atom_disk(kv["r"], kv.get("w", 1.0))
            if head == "atom" and kind == "vertical":
                return atom_halfplane(kv["y"], kv.get("w", 1.0))
            if head == "atom" and kind == "line":
                return LineMeasure(atoms=((kv["t"], kv.get("w", 1.0)),))
            if head == "power" and kind == "radial":
                return power_disk(kv["p"], b=kv.get("b", 1.0), c=kv.get("c", 1.0))
            if head == "power" and kind == "vertical":
                return VerticalMeasure(pieces=((kv.get("a", 0.0), kv.get("b", math.inf),
                                                kv.get("c", 1.0), kv["p"]),))
            if head == "power" and kind == "line":
                return LineMeasure(pieces=((kv.get("a", -math.inf), kv.get("b", math.inf),
                                            kv.get("c", 1.0), kv["p"]),))
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad builtin measure {name!r}: {exc}") from exc
        raise InputError(f"unknown builtin measure {name!r} for kind {kind}")
    try:
        with open(name) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read measure file {name}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"measure file {name}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    cls = {"radial": RadialMeasure, "vertical": VerticalMeasure, "line": LineMeasure}[kind]
    try:
        return cls.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"measure file {name}: {exc}") from exc


def _fin(x):
    return "inf" if isinstance(x, float) and math.isinf(x) else x


def emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        rows = report["results"]
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            w.writerow(sorted(rows[0]))
            for row in rows:
                w.writerow([row[k] for k in sorted(row)])
        else:
            w.writerow(["key", "value"])
            for k in sorted(report["results"]):
                w.writerow([k, report["results"][k]])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call; its defaults are immutable, so calls stay independent."""
    ap = argparse.ArgumentParser(prog="carleson-lab",
                                 description="numerical experiments for weighted "
                                             "Bergman/Hardy sum-space norms")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, measure_default="lebesgue-disk"):
        p.add_argument("--measure", default=measure_default)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--n-max", type=int, default=128)
        p.add_argument("--grid", type=int, default=512)
        p.add_argument("--tol", type=float, default=1e-5)
        p.add_argument("--count", type=int, default=100)
        p.add_argument("--max-iters", type=int, default=200_000)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "csv"], default="json")

    common(sub.add_parser("moments", help="moment sequence of a radial measure"))
    common(sub.add_parser("carleson", help="radial Carleson criterion"))
    p = sub.add_parser("sumnorm", help="certified sum-space norm of a random polynomial")
    common(p)
    common(sub.add_parser("bbb", help="Bourgain-Brezis-type ratio corpus"))
    common(sub.add_parser("adapted", help="adapted-pair ratio corpus"))
    common(sub.add_parser("embedding", help="analytic embedding ratio corpus"))
    p = sub.add_parser("fejer", help="Fejer kernel projection growth")
    common(p)
    p.add_argument("--n-list", type=int, nargs="+", default=(2, 8, 32, 128, 512))
    common(sub.add_parser("wsigma", help="boundary weight Fourier identity check"))
    p = sub.add_parser("halfplane", help="half-plane weight sup and explicit constants")
    common(p, measure_default="lebesgue-halfplane")
    p.add_argument("--trunc", type=float, default=None)
    common(sub.add_parser("garnett", help="Garnett criterion"), measure_default="lebesgue-line")
    return ap


def run(args) -> int:
    params = {
        "seed": args.seed, "n_max": args.n_max, "grid": args.grid,
        "tol": args.tol, "count": args.count, "measure": args.measure,
    }
    if args.seed < 0 or args.n_max < 0 or args.grid < 1 or args.tol <= 0 or args.count < 1:
        raise InputError("seed/n_max/grid/count must be nonnegative and tol positive")
    cmd = args.command
    exit_code = EXIT_OK

    if cmd == "moments":
        mu = resolve_measure(args.measure, "radial")
        sig = moment_array(mu, args.n_max)
        results = {"moments": sig.tolist()}
    elif cmd == "carleson":
        mu = resolve_measure(args.measure, "radial")
        ratio, ok = radial_carleson(mu)
        results = {"sup_ratio": _fin(ratio), "is_carleson": ok,
                   "singular_integral": _fin(singular_integral(mu))}
    elif cmd == "sumnorm":
        mu = resolve_measure(args.measure, "radial")
        u = random_poly(args.seed, 0, args.n_max)
        cert = sum_norm(u, mu, m=args.grid, tol=args.tol, max_iters=args.max_iters)
        results = cert.to_dict()
        if not cert.converged:
            exit_code = EXIT_NO_CONVERGENCE
    elif cmd in ("bbb", "adapted", "embedding"):
        mu = resolve_measure(args.measure, "radial")
        rep = corpus_scan(mu, args.count, seed=args.seed, n_max=args.n_max,
                          which=cmd, m=args.grid, tol=max(args.tol, 1e-4))
        results = rep.to_dict()
    elif cmd == "fejer":
        mu = resolve_measure(args.measure, "radial")
        results = fejer_experiment(mu, args.n_list)
    elif cmd == "wsigma":
        mu = resolve_measure(args.measure, "radial")
        err = analyze_w_sigma_errors(mu, m=max(args.grid, 4 * args.n_max), n_max=args.n_max)
        results = {"max_fourier_error": err}
    elif cmd == "halfplane":
        pi = resolve_measure(args.measure, "vertical")
        if args.trunc is not None:
            pi = pi.truncate(args.trunc)
        sup = w_pi_sup(pi)
        ratio, ok = vertical_carleson(pi)
        results = {
            "w_sup": _fin(sup),
            "is_carleson": ok,
            "carleson_sup_ratio": _fin(ratio),
            "stability_constant": _fin(stability_constant(pi)),
            "const_b_pi": _fin(const_bpi(1.0, pi)),
        }
    elif cmd == "garnett":
        nu = resolve_measure(args.measure, "line")
        psup, bsup = garnett_check(nu)
        results = {"poisson_sup": _fin(psup), "box_sup": _fin(bsup),
                   "both_finite": not math.isinf(psup)}

    emit({"command": cmd, "params": params, "results": results}, args)
    return exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
