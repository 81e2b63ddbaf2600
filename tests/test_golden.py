"""Golden CLI outputs: a fixed set of cheap commands run in-process through
`cli.main`, compared with the reports recorded in tests/golden/.

Strings, ints and bools must match exactly; floats within 1e-12 relative.
Re-record reports only when an output change is intended:
`PYTHONPATH=src python tests/test_golden.py NAME ...` rewrites the named
cases (keys of CASES), and with no name every case.
"""

import contextlib
import csv
import io
import json
import os
import sys

import pytest

from carleson_lab.cli import EXIT_OK, main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-12
CORPUS = ["--count", "4", "--n-max", "16", "--grid", "64"]

# name -> argv; measure files are read relative to GOLDEN_DIR
CASES = {
    "moments-atom": ["moments", "--measure", "atom:r=0.5", "--n-max", "8"],
    "moments-power": ["moments", "--measure", "power:p=-0.5", "--n-max", "8"],
    "carleson-atom": ["carleson", "--measure", "atom:r=0.75"],
    "carleson-power": ["carleson", "--measure", "power:p=-0.5"],
    "sumnorm": ["sumnorm", "--n-max", "16", "--grid", "64"],
    "sumnorm-atom": ["sumnorm", "--measure", "atom:r=0.9"],
    "bbb": ["bbb", *CORPUS],
    "adapted": ["adapted", "--measure", "power:p=1", *CORPUS],
    "embedding": ["embedding", *CORPUS],
    "bbb-csv": ["bbb", "--measure", "atom:r=0.5", *CORPUS, "--format", "csv"],
    "fejer": ["fejer", "--n-list", "2", "8", "32"],
    "wsigma": ["wsigma", "--grid", "4096", "--n-max", "64"],
    "halfplane-lebesgue": ["halfplane"],
    "halfplane-atom": ["halfplane", "--measure", "atom:y=2"],
    "halfplane-power": ["halfplane", "--measure", "power:p=0,b=5"],
    "halfplane-trunc": ["halfplane", "--trunc", "10"],
    "halfplane-file": ["halfplane", "--measure", "vertical-inf.json"],
    "garnett-lebesgue": ["garnett"],
    "garnett-atom": ["garnett", "--measure", "atom:t=1"],
    "garnett-power": ["garnett", "--measure", "power:p=1"],
}


def golden_path(name: str) -> str:
    ext = "csv" if "--format" in CASES[name] else "json"
    return os.path.join(GOLDEN_DIR, f"{name}.{ext}")


def run_case(name: str) -> str:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(CASES[name])
    finally:
        os.chdir(cwd)
    assert code == EXIT_OK, f"{name}: exit code {code}"
    return buf.getvalue()


def same(got, want, where: str):
    if isinstance(want, float) and isinstance(got, float):
        ok = got == want or abs(got - want) <= RTOL * max(abs(got), abs(want))
        assert ok, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert type(got) is dict and sorted(got) == sorted(want), f"{where}: keys differ"
        for k in want:
            same(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert type(got) is list and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def csv_cell(text: str):
    """A CSV cell as a float, a JSON value (the ratio lists) or the text."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    got = run_case(name)
    with open(golden_path(name)) as fh:
        want = fh.read()
    if golden_path(name).endswith(".csv"):
        rows = [[csv_cell(c) for c in row] for row in csv.reader(io.StringIO(got))]
        same(rows, [[csv_cell(c) for c in row] for row in csv.reader(io.StringIO(want))], name)
    else:
        same(json.loads(got), json.loads(want), name)


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden case {unknown[0]!r}; known: {', '.join(CASES)}")
    for case in sys.argv[1:] or CASES:
        with open(golden_path(case), "w") as out:
            out.write(run_case(case))
