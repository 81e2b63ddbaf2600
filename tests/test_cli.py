"""Unit tests for the command-line interface: builtin measures, report
schema, determinism, exit codes."""

import argparse
import json
import math
import os

import pytest

from carleson_lab.cli import (
    EXIT_BAD_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    build_parser,
    main,
    resolve_measure,
)
from carleson_lab.halfplane import stability_constant, w_pi_sup
from carleson_lab.measures import (
    LineMeasure,
    RadialMeasure,
    RadialPiece,
    VerticalMeasure,
    atom_disk,
    atom_halfplane,
    lebesgue_disk,
    lebesgue_line,
    power_disk,
)

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
    assert resolve_measure("atom:r=0.5,w=2", "radial") == atom_disk(0.5, 2.0)
    mu = resolve_measure("power:p=1", "radial")
    assert mu.pieces[0].p == 1.0
    pi = resolve_measure("atom:y=2", "vertical")
    assert pi.atoms == ((2.0, 1.0),)
    nu = resolve_measure("power:p=0", "line")
    assert math.isinf(nu.pieces[0].b)


def test_spec_honours_every_piece_field_and_rejects_unknown_keys(capsys):
    assert resolve_measure("power:p=1,q=2,a=0.5", "radial") == RadialMeasure(
        pieces=(RadialPiece(0.5, 1.0, 1.0, 1.0, 2.0),))
    assert resolve_measure("power:p=1,b=0.5,c=2", "radial") == power_disk(1.0, b=0.5, c=2.0)
    assert resolve_measure("power:p=-0.5,a=1,b=2,c=3", "vertical") == VerticalMeasure(
        pieces=((1.0, 2.0, 3.0, -0.5),))
    assert resolve_measure("atom:t=-1,w=2", "line") == LineMeasure(atoms=((-1.0, 2.0),))
    for argv, key in ((["halfplane", "--measure", "power:p=1,zz=3"], "zz"),
                      (["carleson", "--measure", "atom:r=0.5,y=3"], "y"),
                      (["garnett", "--measure", "power:p=0,q=1"], "q")):
        assert main(argv) == EXIT_BAD_INPUT
        assert f"unknown key '{key}'" in capsys.readouterr().err


def test_schema_command_enum_matches_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert "adapted" in sub.choices
    assert sorted(SCHEMA["properties"]["command"]["enum"]) == sorted(sub.choices)


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


def test_garnett_command(tmp_path):
    code, text = run_cli(tmp_path, "garnett", "--measure", "atom:t=0")
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["results"]["poisson_sup"] == "inf"
    assert doc["results"]["both_finite"] is False


def test_measure_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(atom_disk(0.75).to_dict()))
    code, text = run_cli(tmp_path, "carleson", "--measure", str(path))
    assert code == EXIT_OK
    assert json.loads(text)["results"]["sup_ratio"] == pytest.approx(4.0)
    # a line measure file reads back to the results of the builtin it was written from
    path.write_text(json.dumps(lebesgue_line().to_dict()))
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
    assert main(["moments", "--count", "0"]) == EXIT_BAD_INPUT
    assert main(["moments", "--seed", "-1"]) == EXIT_BAD_INPUT


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
