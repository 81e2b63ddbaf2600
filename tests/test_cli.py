"""Unit tests for the command-line interface: builtin measures, report
schema, determinism, exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys

import mpmath
import pytest

from carleson_lab import harness
from carleson_lab.cli import (
    COMMANDS,
    EXIT_BAD_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    FLAGS,
    build_parser,
    emit,
    main,
    resolve_measure,
)
from carleson_lab.halfplane import GARNETT_GRID, stability_constant, w_pi_sup
from carleson_lab.measures import (
    Y_GRID,
    LineMeasure,
    RadialMeasure,
    RadialPiece,
    VerticalMeasure,
    atom_disk,
    atom_halfplane,
    lebesgue_disk,
)
from carleson_lab.sumnorm import sum_norm

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "schemas", "report.schema.json")
with open(SCHEMA_PATH) as _fh:
    SCHEMA = json.load(_fh)


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


def test_resolve_builtin_names():
    assert resolve_measure("lebesgue-disk", "radial") == lebesgue_disk()
    assert resolve_measure("atom:r=0.5", "radial") == atom_disk(0.5)
    assert resolve_measure("atom:r=0.5,w=2", "radial") == RadialMeasure(atoms=((0.5, 2.0),))
    mu = resolve_measure("power:p=1", "radial")
    assert mu.pieces[0].p == 1.0
    pi = resolve_measure("atom:y=2", "vertical")
    assert pi.atoms == ((2.0, 1.0),)
    nu = resolve_measure("power:p=0", "line")
    assert math.isinf(nu.pieces[0].b)


def test_spec_honours_every_piece_field_and_rejects_unknown_keys(capsys):
    assert resolve_measure("power:p=1,q=2,a=0.5", "radial") == RadialMeasure(
        pieces=(RadialPiece(0.5, 1.0, 1.0, 1.0, 2.0),))
    assert resolve_measure("power:p=1,b=0.5,c=2", "radial") == RadialMeasure(
        pieces=(RadialPiece(0.0, 0.5, 2.0, 1.0),))
    assert resolve_measure("power:p=-0.5,a=1,b=2,c=3", "vertical") == VerticalMeasure(
        pieces=((1.0, 2.0, 3.0, -0.5),))
    assert resolve_measure("atom:t=-1,w=2", "line") == LineMeasure(atoms=((-1.0, 2.0),))
    for argv, key in ((["halfplane", "--measure", "power:p=1,zz=3"], "zz"),
                      (["carleson", "--measure", "atom:r=0.5,y=3"], "y"),
                      (["garnett", "--measure", "power:p=0,q=1"], "q")):
        assert main(argv) == EXIT_BAD_INPUT
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_spec_or_file_without_a_required_key_names_it(tmp_path, capsys):
    path = tmp_path / "no_p.json"
    path.write_text(json.dumps({"pieces": [{"a": 0.0, "b": 1.0, "c": 1.0}]}))
    for argv, key in ((["carleson", "--measure", "atom:w=2"], "r"),
                      (["carleson", "--measure", "power:c=2"], "p"),
                      (["halfplane", "--measure", "atom:w=2"], "y"),
                      (["garnett", "--measure", "atom:w=2"], "t"),
                      (["moments", "--measure", str(path)], "p")):
        assert main(argv) == EXIT_BAD_INPUT
        assert f"missing key '{key}'" in capsys.readouterr().err


def subparsers() -> dict:
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_schema_command_enum_matches_parser():
    assert "adapted" in subparsers()
    assert sorted(SCHEMA["properties"]["command"]["enum"]) == sorted(subparsers())


SOLVE = {"seed", "n_max", "grid", "tol", "max_iters"}
# command -> the flags it reads: its parser's only flags beside --measure, --out and --format
ROWS = {"moments": {"n_max"}, "carleson": set(), "garnett": set(), "sumnorm": SOLVE,
        "bbb": SOLVE | {"count"}, "embedding": SOLVE | {"count"}, "fejer": {"n_list"},
        "wsigma": {"n_max", "grid"}, "halfplane": {"trunc"}}
# a cheap call of each command
CHEAP = {"moments": ["--n-max", "2"], "carleson": [], "garnett": [], "halfplane": [],
         "sumnorm": ["--n-max", "2", "--grid", "8"],
         "bbb": ["--count", "1", "--n-max", "2", "--grid", "8"],
         "embedding": ["--count", "1", "--n-max", "2", "--grid", "8"],
         "fejer": ["--n-list", "2"], "wsigma": ["--n-max", "2", "--grid", "8"]}


def test_each_parser_takes_exactly_its_row():
    # 49 settable flags over the nine parsers (83 when every command took all six solver flags)
    assert set(COMMANDS) == set(ROWS)
    total = 0
    for name, cmd in COMMANDS.items():
        flags = {s for a in subparsers()[name]._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(cmd.reads) == ROWS[name]
        assert flags == {"--measure", "--out", "--format"} | {"--" + d.replace("_", "-") for d in ROWS[name]}
        total += len(flags)
    assert total == 49


@pytest.mark.parametrize("command, dest", [(name, dest) for name in COMMANDS for dest in FLAGS
                                           if dest not in COMMANDS[name].reads])
def test_flag_a_command_does_not_read_exits_2(capsys, command, dest):
    with pytest.raises(SystemExit) as exc:
        main([command, "--" + dest.replace("_", "-"), "1"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [*COMMANDS, "adapted"])
def test_params_are_the_measure_and_the_flags_read(tmp_path, command):
    code, text = run_cli(tmp_path, command, *CHEAP["bbb" if command == "adapted" else command])
    assert code == EXIT_OK
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert set(doc["params"]) == {"measure"} | ROWS["bbb" if command == "adapted" else command]


def test_resolve_rejects_bad_names():
    from carleson_lab.cli import InputError

    with pytest.raises(InputError):
        resolve_measure("atom:bogus", "radial")
    with pytest.raises(InputError):
        resolve_measure("frobnicate:x=1", "radial")
    with pytest.raises(InputError):
        resolve_measure("no-such-file.json", "radial")


def test_moments_command(tmp_path):
    code, text = run_cli(tmp_path, "moments", "--n-max", "4")
    assert code == EXIT_OK
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert doc["command"] == "moments"
    assert doc["results"]["moments"][1] == pytest.approx(0.25)


def test_carleson_command_and_schema(tmp_path):
    code, text = run_cli(tmp_path, "carleson", "--measure", "atom:r=0.75")
    assert code == EXIT_OK
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert doc["results"]["is_carleson"] is True
    assert doc["results"]["sup_ratio"] == pytest.approx(4.0)


def test_carleson_inf_encoding(tmp_path):
    code, text = run_cli(tmp_path, "carleson", "--measure", "power:p=-0.5")
    doc = json.loads(text)
    assert doc["results"]["sup_ratio"] == "inf"
    assert doc["results"]["is_carleson"] is False


def test_determinism_byte_identical(tmp_path):
    _, a = run_cli(tmp_path, "bbb", "--count", "2", "--n-max", "8", "--grid", "64", "--tol", "1e-3")
    _, b = run_cli(tmp_path, "bbb", "--count", "2", "--n-max", "8", "--grid", "64", "--tol", "1e-3")
    assert a == b
    jsonschema.validate(json.loads(a), SCHEMA)


def test_sumnorm_command(tmp_path):
    code, text = run_cli(tmp_path, "sumnorm", "--n-max", "8", "--grid", "64", "--tol", "1e-3")
    assert code == EXIT_OK
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert doc["results"]["lower"] <= doc["results"]["upper"]
    assert doc["results"]["converged"] is True


def test_sumnorm_non_convergence_exit_code(tmp_path):
    code, text = run_cli(tmp_path, "sumnorm", "--n-max", "8", "--grid", "64",
                         "--tol", "1e-13", "--max-iters", "10")
    assert code == EXIT_NO_CONVERGENCE
    assert json.loads(text)["results"]["converged"] is False


def test_fejer_command_csv(tmp_path):
    code, text = run_cli(tmp_path, "fejer", "--n-list", "2", "4", "--format", "csv")
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].split(",")[0] == "h1_norm"
    assert len(lines) == 3


def test_shared_parser_keeps_calls_independent(tmp_path):
    # one parser per process: its defaults must not carry state between calls
    assert build_parser() is build_parser()
    for n_list in (["2", "8"], ["4"], []):
        code, text = run_cli(tmp_path, "fejer", *(["--n-list", *n_list] if n_list else []))
        assert code == EXIT_OK
        rows = json.loads(text)["results"]
        assert [row["n"] for row in rows] == ([int(n) for n in n_list] or [2, 8, 32, 128, 512])


def test_wsigma_command(tmp_path):
    code, text = run_cli(tmp_path, "wsigma", "--measure", "atom:r=0.5", "--n-max", "16",
                         "--grid", "256")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["results"]["max_fourier_error"] < 1e-8


def test_wsigma_reports_the_grid_it_ran_at(tmp_path):
    # the check runs at grid max(grid, 4*n_max); params say so
    code, text = run_cli(tmp_path, "wsigma", "--grid", "64", "--n-max", "64")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["params"]["grid"] == 256
    code, text = run_cli(tmp_path, "wsigma", "--grid", "4096", "--n-max", "64")
    assert json.loads(text)["params"]["grid"] == 4096


@pytest.mark.parametrize("command", ["bbb", "adapted", "embedding"])
def test_corpus_reports_the_tol_it_ran_at(tmp_path, command):
    # a scan runs at tol max(tol, 1e-4); params say so
    argv = [command, "--count", "1", "--n-max", "4", "--grid", "16"]
    code, text = run_cli(tmp_path, *argv, "--tol", "1e-5")
    assert code == EXIT_OK
    assert json.loads(text)["params"]["tol"] == 0.0001
    code, text = run_cli(tmp_path, *argv, "--tol", "1e-3")
    assert json.loads(text)["params"]["tol"] == 0.001


@pytest.mark.parametrize("command", ["bbb", "adapted", "embedding"])
def test_corpus_passes_max_iters_to_every_solve(tmp_path, monkeypatch, command):
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["max_iters"])
        return sum_norm(*args, **kwargs)

    monkeypatch.setattr(harness, "sum_norm", recording)
    argv = [command, "--count", "2", "--n-max", "4", "--grid", "16"]
    assert run_cli(tmp_path, *argv, "--max-iters", "123")[0] == EXIT_OK
    assert seen and set(seen) == {123}
    seen.clear()
    assert run_cli(tmp_path, *argv)[0] == EXIT_OK
    assert seen and set(seen) == {200_000}  # the default cap, as for sumnorm


def test_halfplane_command(tmp_path):
    code, text = run_cli(tmp_path, "halfplane")
    assert code == EXIT_OK
    doc = json.loads(text)
    jsonschema.validate(doc, SCHEMA)
    assert doc["results"]["w_sup"] == pytest.approx(math.pi / 2.0)
    assert doc["results"]["stability_constant"] == pytest.approx(2.0 * math.sqrt(2.0 + math.pi / 2.0))


def test_halfplane_command_evaluates_w_sup_once(tmp_path):
    # w_sup, stability_constant and const_b_pi share one memoised w_pi_sup
    w_pi_sup.cache_clear()
    code, text = run_cli(tmp_path, "halfplane", "--measure", "atom:y=2")
    assert code == EXIT_OK
    info = w_pi_sup.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    results = json.loads(text)["results"]
    assert results["stability_constant"] == stability_constant(atom_halfplane(2.0))


def test_halfplane_reports_its_trunc(tmp_path):
    for argv, trunc in (([], None), (["--trunc", "10"], 10.0), (["--trunc", "inf"], "inf")):
        code, text = run_cli(tmp_path, "halfplane", *argv)
        assert code == EXIT_OK
        doc = json.loads(text)
        jsonschema.validate(doc, SCHEMA)
        assert doc["params"]["trunc"] == trunc


def test_halfplane_trunc_nan_exit_code(capsys):
    # NaN fails every comparison, so it is rejected, not read as "no cut"
    assert main(["halfplane", "--trunc", "nan"]) == EXIT_BAD_INPUT
    assert "truncation needs 0 <= eps < R" in capsys.readouterr().err


@pytest.mark.parametrize("command, spec, field", [
    ("garnett", "power:p=nan", "p"), ("garnett", "atom:t=nan", "t"), ("halfplane", "atom:y=nan", "y"),
    ("halfplane", "power:p=nan,b=4", "p"), ("carleson", "power:p=nan", "p"),
    ("carleson", "power:p=inf", "p"), ("carleson", "power:p=0,q=inf", "q"),
    ("carleson", "atom:r=0.5,w=inf", "w"), ("carleson", "power:p=0,c=inf", "c"),
    ("garnett", "atom:t=inf", "t"), ("halfplane", "atom:y=inf", "y")])
def test_nan_measure_spec_exit_code(capsys, command, spec, field):
    # each constructor check is a positive condition, which NaN fails, and
    # it bounds the value above too, so an infinite c, p, q, weight or
    # position fails as well
    assert main([command, "--measure", spec]) == EXIT_BAD_INPUT
    assert f" {field} must" in capsys.readouterr().err


@pytest.mark.parametrize("command, p", [("halfplane", "1e17"), ("halfplane", "40"), ("halfplane", "-40"),
                                        ("garnett", "60"), ("garnett", "-60"), ("halfplane", "1e4")])
def test_huge_power_exponent_ends(command, p):
    # G_p lifts a part of order q < 0 by q -> q + 2 until q >= 0, which never
    # ends once q + 2 == q, and s^p times G_p(lo/s, hi/s) under- and
    # overflows at once: each spec ends within the timeout, with finite or
    # "inf" values, or exits 2 naming p
    env = dict(os.environ)  # the directory holding the imported package first, absolute
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(os.path.abspath(
        harness.__file__))), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "carleson_lab.cli", command, "--measure", f"power:p={p},a=1,b=2"],
                          env=env, capture_output=True, text=True, timeout=30)
    if proc.returncode == EXIT_OK:
        json.loads(proc.stdout, parse_constant=lambda c: pytest.fail(f"bare {c} in the report"))
    else:
        assert proc.returncode == EXIT_BAD_INPUT
        assert f"p={float(p):g}" in proc.stderr.splitlines()[-1]


def test_bbb_past_the_adapted_pair_range_exits_2():
    # a(n) of this truncation overflows near n = 6700: the call exits 2
    # naming n_max, before any solve, instead of a traceback
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(os.path.abspath(
        harness.__file__))), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "carleson_lab.cli", "bbb", "--measure", "power:p=-0.5,b=0.9",
                           "--n-max", "7000", "--grid", "28001", "--count", "1", "--max-iters", "1"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_BAD_INPUT
    assert "n_max=7000" in proc.stderr.splitlines()[-1]


def test_emit_refuses_bare_nan():
    # bare NaN is not JSON: the report is refused, not printed
    with pytest.raises(ValueError):
        emit({"results": {"x": math.nan}}, argparse.Namespace(format="json", out=None))


def test_garnett_command(tmp_path):
    code, text = run_cli(tmp_path, "garnett", "--measure", "atom:t=0")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["results"]["poisson_sup"] == "inf"
    assert doc["results"]["both_finite"] is False


def _mp_power_mass(p, lo, hi):
    """int_lo^hi t^p dt at 40 digits; 0 for an empty range."""
    lo, hi, e = mpmath.mpf(lo), mpmath.mpf(hi), mpmath.mpf(p) + 1
    if hi <= lo:
        return mpmath.mpf(0)
    return mpmath.log(hi / lo) if e == 0 else (hi**e - lo**e) / e


@pytest.mark.parametrize("command, p, key", [("garnett", -1.5, "box_sup"),
                                             ("garnett", -1.0, "box_sup"),
                                             ("halfplane", -0.9999999999999, "carleson_sup_ratio")])
def test_power_pieces_at_or_near_p_minus_one_match_mpmath(tmp_path, command, p, key):
    # box masses of |t|^p dt on [0.5, 50) were negative (p < -1) or wrong
    # wherever |t| < 1 (p = -1); y^p dy on [1, 2) cancelled as p -> -1
    a, b = (0.5, 50.0) if command == "garnett" else (1.0, 2.0)
    code, text = run_cli(tmp_path, command, "--measure", f"power:p={p},a={a},b={b}")
    assert code == EXIT_OK
    with mpmath.workdps(40):
        if command == "garnett":
            want = max(_mp_power_mass(p, a, min(L, b)) / (2 * L) for L in GARNETT_GRID)
        else:
            want = max(_mp_power_mass(p, a, min(y, b)) / y for y in [*Y_GRID, a, b])
    assert json.loads(text)["results"][key] == pytest.approx(float(want), rel=1e-12, abs=0.0)


def test_measure_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"atoms": [{"r": 0.75, "w": 1.0}]}))
    code, text = run_cli(tmp_path, "carleson", "--measure", str(path))
    assert code == EXIT_OK
    assert json.loads(text)["results"]["sup_ratio"] == pytest.approx(4.0)
    # a line measure file of the builtin lebesgue-line reads back to its results
    path.write_text(json.dumps({"pieces": [{"a": "-inf", "b": "inf", "c": 1.0, "p": 0.0}]}))
    reports = [json.loads(run_cli(tmp_path, "garnett", *argv)[1])
               for argv in (["--measure", str(path)], [])]
    assert reports[0]["results"] == reports[1]["results"]


def test_bad_measure_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["carleson", "--measure", str(path)])
    assert code == EXIT_BAD_INPUT
    assert "line 1" in capsys.readouterr().err
    # a key the atom class lacks is rejected, as in a spec
    path.write_text(json.dumps({"atoms": [{"r": 0.5, "w": 1.0, "q": 2.0}]}))
    assert main(["carleson", "--measure", str(path)]) == EXIT_BAD_INPUT
    assert "unknown key 'q'" in capsys.readouterr().err
    # a document that is not an object is bad input, not a crash
    path.write_text("[1, 2]")
    assert main(["carleson", "--measure", str(path)]) == EXIT_BAD_INPUT


def test_bad_params_exit_code(capsys):
    for argv, dest in ((["bbb", "--count", "0"], "count"), (["sumnorm", "--seed", "-1"], "seed"),
                       (["wsigma", "--grid", "0"], "grid"), (["moments", "--n-max", "-1"], "n_max"),
                       (["sumnorm", "--tol", "0"], "tol"), (["sumnorm", "--tol", "nan"], "tol"),
                       (["fejer", "--n-list", "2", "0"], "n_list")):
        assert main(argv) == EXIT_BAD_INPUT
        assert f"{dest} must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sumnorm", "bbb", "embedding"])
def test_max_iters_below_one_exit_code(capsys, command):
    # iterations: 0 reads as a certified split, so no command that takes a
    # cap takes one that would let a solve stop before its first iteration
    for value in ("0", "-3"):
        argv = [command, "--n-max", "4", "--max-iters", value]
        assert main(argv) == EXIT_BAD_INPUT
        assert "max_iters" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
