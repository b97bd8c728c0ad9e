"""Golden reports: every subcommand over the shipped fixtures, compared
with the reports recorded in tests/golden/, timings left out.

Run ``python tests/test_golden.py`` from anywhere to record the reports
again after a deliberate change of output.
"""

import contextlib
import io
import json
import os
import pathlib

import pytest

from hopforder.cli import main
from hopforder.documents import dump_report

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

FIELDS = {
    "cubic_eisenstein": 3,
    "cubic_eisenstein_alt": 3,
    "quadratic": 2,
    "quadratic_i_local3": 2,
    "quadratic_sqrtm3_local3": 2,
    "trivial": 1,
}
GROUPS = ("group_c2", "group_c2xc2", "group_s3")


def _doc(name):
    return f"fixtures/{name}.json"


def _betas(n):
    """A unit vector, a vector with a negative and a fractional entry,
    and one of the wrong length."""
    return (
        ",".join(["0"] * (n - 1) + ["1"]),
        ",".join(["1", "-1/2", "2"][:n] + ["1"] * (n - 3)),
        ",".join(["1"] * (n + 1)),
    )


def _commands():
    single = {"check": [], "order": [], "free": [], "enum": []}
    for name in list(FIELDS) + list(GROUPS):
        single["check"].append(["check", _doc(name)])
        single["order"].append(["order", _doc(name)])
        single["free"].append(["free", _doc(name)])
        single["enum"].append(["enum", _doc(name)])
        single["enum"].append(["enum", _doc(name), "--detect-induced"])
    for name, n in FIELDS.items():
        single["free"] += [["free", _doc(name), f"--beta={b}"] for b in _betas(n)]
        single["free"].append(["free", _doc(name), "--search-bound", "1"])
    single["check"].append(["check", _doc("quadratic"), "--ring", "zp:3"])
    single["order"].append(["order", _doc("missing")])
    induce = []
    for left, m in FIELDS.items():
        for right, n in FIELDS.items():
            pair = ["induce", _doc(left), _doc(right)]
            induce.append(pair)
            induce.append(pair + [f"--gamma={_betas(m)[0]}", f"--delta={_betas(n)[1]}"])
    induce.append(["induce", _doc("quadratic"), _doc("trivial"), "--gamma=0,1"])
    induce.append(["induce", _doc("quadratic"), _doc("group_c2")])
    return {**single, "induce": induce}


COMMANDS = _commands()


def _parsed(text):
    return json.loads(text) if text else None


def run(argv):
    """Exit status, report and error of one command, timings left out."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    report = _parsed(out.getvalue())
    if report is not None:
        report.pop("timings")
    return {"argv": argv, "exit": code, "report": report, "error": _parsed(err.getvalue())}


def _cases():
    return [
        pytest.param(command, i, id=f"{command}-{i}")
        for command, argvs in COMMANDS.items()
        for i in range(len(argvs))
    ]


@pytest.fixture(scope="module")
def golden():
    return {
        command: json.loads((GOLDEN / f"{command}.json").read_text())
        for command in COMMANDS
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_covers_the_commands(golden, command):
    assert [case["argv"] for case in golden[command]] == COMMANDS[command]


@pytest.mark.parametrize("command, i", _cases())
def test_golden_report(golden, command, i):
    expected = golden[command][i]
    got = run(COMMANDS[command][i])
    # dump_report sorts keys, so equal dumps are equal reports byte for byte
    assert dump_report(got) == dump_report(expected)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command, argvs in COMMANDS.items():
        cases = [run(argv) for argv in argvs]
        (GOLDEN / f"{command}.json").write_text(dump_report(cases) + "\n")
