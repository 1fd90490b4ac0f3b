"""Byte-identical command-line output on a fixed corpus.

Each case runs one CLI command on one of the curves or pencils in
tests/golden/ and compares stdout byte for byte with the stored
tests/golden/<case>.out; the exit code and stderr are pinned in
tests/golden/cases.json.  After an
intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

and announce the change.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import lmicert
from lmicert.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RAYS = ["--rays", "31"]
FAST = RAYS + ["--random", "8"]

# curve file stem -> base point (None: the default origin)
CURVES = {
    "disc": None,
    "fermat": None,
    "lobe": "7/10,0",
    "odd_cubic": None,
    "concentric": None,
    "tangent": "-4,0",
}

# case suffix -> command and extra arguments
COMMANDS = {
    "check": ["check"],
    "hyperbolic": ["hyperbolic"],
    "topology.json": ["topology"],
    "topology.csv": ["topology", "--format", "csv"],
    "boundary.json": ["boundary"],
    "boundary.csv": ["boundary", "--format", "csv"],
    "boundary.svg": ["boundary", "--format", "svg"],
    "represent": ["represent"],
}

# every case after the grid, in the order it was added: case name ->
# command, input files in tests/golden/ and options.  A new case goes at
# the end of this one table, so every earlier test id keeps its index.
ADDED_CASES = [
    ("disc.det", ["det", "disc.pencil"]),
    ("disc.verify", ["verify", "disc.poly", "disc.pencil"]),
    ("disc.reduce-monic", ["reduce-monic", "disc.pencil"]),
    ("concentric.det", ["det", "concentric.pencil"]),
    ("concentric.verify", ["verify", "concentric.poly", "concentric.pencil"]),
    ("mismatch.verify", ["verify", "disc.poly", "concentric.pencil"]),
    ("forms7.det", ["det", "forms7.pencil"]),
    ("forms7.verify", ["verify", "forms7.poly", "forms7.pencil"]),
    ("approx.det", ["det", "approx.pencil"]),
    ("approx.verify", ["verify", "approx.poly", "approx.pencil"]),
    ("embedded.det", ["det", "embedded.pencil"]),
    ("embedded.reduce-monic", ["reduce-monic", "embedded.pencil"]),
    ("squares.det", ["det", "squares.pencil"]),
    ("squares.reduce-monic", ["reduce-monic", "squares.pencil"]),
    ("three.det", ["det", "three.pencil"]),
    ("three.reduce-monic", ["reduce-monic", "three.pencil"]),
    ("neg.verify", ["verify", "disc.poly", "neg.pencil"]),
    ("thin.reduce-monic", ["reduce-monic", "thin.pencil"]),
    # a non-default resolution must reach the parameters in the CSV
    ("odd_cubic.topology.csv.fine",
     ["topology", "odd_cubic.poly", "--format", "csv", "--resolution",
      "1/1024", *FAST]),
    # a singular L0 whose kernel is not spanned by coordinate vectors
    ("kernel2.reduce-monic", ["reduce-monic", "kernel2.pencil"]),
    # line tests with the default sampler (181 grid and 64 random rays)
    ("odd_cubic.check.default", ["check", "odd_cubic.poly"]),
    ("tangent.hyperbolic.default",
     ["hyperbolic", "tangent.poly", "--point=-4,0"]),
    ("concentric.check.default", ["check", "concentric.poly"]),
    # topology past the point where the scan builds its slope cells
    ("concentric.topology.json.default", ["topology", "concentric.poly"]),
    ("tangent.topology.json.default",
     ["topology", "tangent.poly", "--point=-4,0"]),
    ("odd_cubic.topology.csv.default",
     ["topology", "odd_cubic.poly", "--format", "csv"]),
    # the disc squared passes the line test, but no line through the
    # origin meets it in four distinct points: represent exits 3
    ("disc_squared.represent", ["represent", "disc_squared.poly", *FAST]),
    # line tests in three variables, where every ray is a seeded random one
    ("ball.check", ["check", "ball.poly", *FAST]),
    ("ball.hyperbolic", ["hyperbolic", "ball.poly", *FAST]),
    # fails on a random ray: exit 2 with the witness
    ("fermat3.check", ["check", "fermat3.poly", *FAST]),
    # an ApproxMatch: no axis intercept of the curve is rational
    ("approx.represent", ["represent", "approx.poly", *FAST]),
    # every restriction of the disc squared is a square: no ray's
    # isolation runs on a square-free restriction
    ("disc_squared.boundary.json", ["boundary", "disc_squared.poly", *RAYS]),
    # a degree-6 ApproxMatch: fifteen off-diagonal unknowns, the largest
    # solve the matching cap admits
    ("det6.represent", ["represent", "det6.poly", *FAST]),
]


def cases():
    for curve, point in CURVES.items():
        for suffix, command in COMMANDS.items():
            # boundary scans only the deterministic rays
            sampling = RAYS if command[0] == "boundary" else FAST
            argv = command[:1] + [str(GOLDEN / f"{curve}.poly")] + \
                command[1:] + sampling
            if point is not None:
                argv.append(f"--point={point}")
            yield f"{curve}.{suffix}", argv
    for name, argv in ADDED_CASES:
        yield name, [str(GOLDEN / a) if a.endswith((".poly", ".pencil"))
                     else a for a in argv]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _manifest():
    with open(GOLDEN / "cases.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name,argv", list(cases()))
def test_golden_output(name, argv):
    expected = _manifest()[name]
    code, out, err = run(argv)
    assert (GOLDEN / f"{name}.out").read_text(encoding="utf-8") == out
    assert code == expected["exit"]
    assert err == expected["stderr"]


def test_cases_and_manifest_agree():
    # every case is named once, pinned in cases.json and has its .out
    names = [name for name, _ in cases()]
    assert len(names) == len(set(names))
    assert set(names) == set(_manifest())
    assert all((GOLDEN / f"{name}.out").is_file() for name in names)


# reads a JSON list of argv lists on stdin, runs each through cli.main
# and prints [exit, stdout, stderr] per call; with the argument
# "block-numpy" any import of numpy fails
_RUNNER = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
if sys.argv[1:] == ["block-numpy"]:
    sys.modules["numpy"] = None
import lmicert.cli
at_import = sys.modules.get("numpy") is not None
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lmicert.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"numpy_at_import": at_import, "results": results,
                  "numpy_after": sys.modules.get("numpy") is not None}))
"""


def run_in_subprocess(argvs, *flags):
    src = str(Path(lmicert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, *flags], input=json.dumps(argvs),
        capture_output=True, encoding="utf-8", env=env, check=True)
    return json.loads(done.stdout)


def _expected(name):
    entry = _manifest()[name]
    return [entry["exit"],
            (GOLDEN / f"{name}.out").read_text(encoding="utf-8"),
            entry["stderr"]]


def test_commands_that_do_not_construct_never_load_numpy():
    # with numpy unimportable, every case but represent gives its bytes
    named = [(name, argv) for name, argv in cases()
             if argv[0] != "represent"]
    report = run_in_subprocess([argv for _, argv in named], "block-numpy")
    assert report["results"] == [_expected(name) for name, _ in named]


def test_represent_loads_numpy_for_its_solve():
    # the degree-3 solve imports numpy on first use, not lmicert
    argv = dict(cases())["odd_cubic.represent"]
    report = run_in_subprocess([argv])
    assert report["numpy_at_import"] is False
    assert report["results"] == [_expected("odd_cubic.represent")]
    assert report["numpy_after"] is True


def regenerate():
    manifest = {}
    for name, argv in cases():
        code, out, err = run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        manifest[name] = {"exit": code, "stderr": err}
    with open(GOLDEN / "cases.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(regenerate())
