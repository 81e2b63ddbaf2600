"""Command-line front end: load measures, run experiments, emit
deterministic JSON/CSV reports.

Each command is declared once, in COMMANDS (`adapted` is an alias of
`bbb`), with the FLAGS it reads: its parser takes only those beside
`--measure`, `--out` and `--format`, and `params` echoes them and the
measure.  `--measure` takes a builtin name, an `atom:`/`power:` spec or a
JSON measure file; specs and files are both read by `from_dict`.

Exit codes: 0 success, 2 invalid input (bad measure file or spec, or a
violated invariant; a NaN in a report is refused the same way, as bare
NaN is not JSON), 3 solver non-convergence.
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
from typing import Callable, NamedTuple

from . import __version__
from .harness import corpus_scan, fejer_experiment, random_poly
from .halfplane import const_bpi, garnett_check, stability_constant, w_pi_sup
from .measures import (
    INF,
    LineMeasure,
    RadialMeasure,
    VerticalMeasure,
    encode_inf,
    lebesgue_disk,
    lebesgue_halfplane,
    lebesgue_line,
    moment_array,
    radial_carleson,
    singular_integral,
    vertical_carleson,
)
from .norms import analyze_w_sigma_errors
from .sumnorm import DEFAULT_MAX_ITERS, DEFAULT_TOL, sum_norm

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3


class InputError(Exception):
    pass


# kind -> (measure class, builtin name, builtin measure, default piece ends of a spec)
KINDS = {
    "radial": (RadialMeasure, "lebesgue-disk", lebesgue_disk, (0.0, 1.0)),
    "vertical": (VerticalMeasure, "lebesgue-halfplane", lebesgue_halfplane, (0.0, INF)),
    "line": (LineMeasure, "lebesgue-line", lebesgue_line, (-INF, INF)),
}


def resolve_measure(name: str, kind: str):
    """The kind's builtin name, an atom:/power: spec or a JSON file path.  A
    spec becomes a measure-file dict, defaults filled in: an atom weighs 1,
    a piece spans the kind's default ends with c = 1."""
    cls, builtin, make, (a, b) = KINDS[kind]
    if name == builtin:
        return make()
    if ":" in name and not os.path.exists(name):
        where = f"bad builtin measure {name!r}"
        head, spec = name.split(":", 1)
        kv = {}
        for part in spec.split(","):
            if "=" not in part:
                raise InputError(f"malformed measure parameter {part!r}")
            k, v = part.split("=", 1)
            kv[k.strip()] = v
        if head not in ("atom", "power"):
            raise InputError(f"unknown builtin measure {name!r} for kind {kind}")
        doc = {"atoms": [{"w": 1.0, **kv}]} if head == "atom" else {
            "pieces": [{"a": a, "b": b, "c": 1.0, **kv}]}
    else:
        where = f"measure file {name}"
        try:
            with open(name) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {where}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"{where}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    try:
        return cls.from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
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


def _corpus(mu, args):
    args.tol = max(args.tol, 1e-4)  # the tol the scan runs at
    which = "embedding" if args.command == "embedding" else "adapted"  # bbb and its alias
    rep = corpus_scan(mu, args.count, seed=args.seed, n_max=args.n_max,
                      which=which, m=args.grid, tol=args.tol, max_iters=args.max_iters)
    return rep.to_dict(), EXIT_OK


def _sumnorm(mu, args):
    u = random_poly(args.seed, 0, args.n_max)
    cert = sum_norm(u, mu, m=args.grid, tol=args.tol, max_iters=args.max_iters)
    return cert.to_dict(), EXIT_OK if cert.converged else EXIT_NO_CONVERGENCE


def _wsigma(mu, args):
    args.grid = max(args.grid, 4 * args.n_max)  # the grid the check runs at
    return {"max_fourier_error": analyze_w_sigma_errors(mu, m=args.grid, n_max=args.n_max)}, EXIT_OK


def _carleson(mu, args):
    ratio, ok = radial_carleson(mu)
    return {"sup_ratio": ratio, "is_carleson": ok,
            "singular_integral": singular_integral(mu)}, EXIT_OK


def _halfplane(pi, args):
    pi = pi if args.trunc is None else pi.truncate(args.trunc)
    ratio, ok = vertical_carleson(pi)
    return {"w_sup": w_pi_sup(pi), "is_carleson": ok, "carleson_sup_ratio": ratio,
            "stability_constant": stability_constant(pi),
            "const_b_pi": const_bpi(pi)}, EXIT_OK


def _garnett(nu, args):
    psup, bsup = garnett_check(nu)
    return {"poisson_sup": psup, "box_sup": bsup, "both_finite": not math.isinf(psup)}, EXIT_OK


# dest -> (add_argument keywords of --dest, least valid value of it or of each
# entry); tol's is the least positive float, and truncate checks trunc itself
FLAGS = {
    "seed": ({"type": int, "default": 42}, 0),
    "n_max": ({"type": int, "default": 128}, 0),
    "grid": ({"type": int, "default": 512}, 1),
    "tol": ({"type": float, "default": DEFAULT_TOL}, math.ulp(0.0)),
    "count": ({"type": int, "default": 100}, 1),
    "max_iters": ({"type": int, "default": DEFAULT_MAX_ITERS}, 1),
    "n_list": ({"type": int, "nargs": "+", "default": (2, 8, 32, 128, 512)}, 1),
    "trunc": ({"type": float, "default": None}, None),
}
SOLVE = ("seed", "n_max", "grid", "tol", "max_iters")


class Command(NamedTuple):
    help: str
    kind: str
    run: Callable  # (measure, args) -> (results, exit code)
    reads: tuple = ()  # the FLAGS it reads
    aliases: tuple = ()


COMMANDS = {
    "moments": Command("moment sequence of a radial measure", "radial", lambda mu, args: (
        {"moments": moment_array(mu, args.n_max).tolist()}, EXIT_OK), ("n_max",)),
    "carleson": Command("radial Carleson criterion", "radial", _carleson),
    "sumnorm": Command("certified sum-space norm of a random polynomial", "radial", _sumnorm, SOLVE),
    "bbb": Command("Bourgain-Brezis-type (adapted-pair) ratio corpus", "radial", _corpus,
                   SOLVE + ("count",), aliases=("adapted",)),
    "embedding": Command("analytic embedding ratio corpus", "radial", _corpus, SOLVE + ("count",)),
    "fejer": Command("Fejer kernel projection growth", "radial",
                     lambda mu, args: (fejer_experiment(mu, args.n_list), EXIT_OK), ("n_list",)),
    "wsigma": Command("boundary weight Fourier identity check", "radial", _wsigma,
                      ("n_max", "grid")),
    "halfplane": Command("half-plane weight sup and explicit constants", "vertical", _halfplane,
                         ("trunc",)),
    "garnett": Command("Garnett criterion", "line", _garnett),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call; its defaults are immutable, so calls stay independent."""
    ap = argparse.ArgumentParser(prog="carleson-lab",
                                 description="numerical experiments for weighted "
                                             "Bergman/Hardy sum-space norms")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, aliases=cmd.aliases, help=cmd.help)
        p.set_defaults(entry=cmd)
        p.add_argument("--measure", default=KINDS[cmd.kind][1])
        for dest in cmd.reads:
            p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest][0])
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return ap


def run(args) -> int:
    for dest in args.entry.reads:
        value, least = getattr(args, dest), FLAGS[dest][1]
        values = value if isinstance(value, (list, tuple)) else (value,)
        if least is not None and not all(v >= least for v in values):  # NaN fails too
            raise InputError(f"{dest} must be at least {least}, got {value}")
    results, exit_code = args.entry.run(resolve_measure(args.measure, args.entry.kind), args)
    # read after the command ran: a command writes back a parameter it changed
    params = {"measure": args.measure, **{d: encode_inf(getattr(args, d)) for d in args.entry.reads}}
    if isinstance(results, dict):
        results = {k: encode_inf(v) for k, v in results.items()}
    emit({"command": args.command, "params": params, "results": results}, args)
    return exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
