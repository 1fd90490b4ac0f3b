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

# pencil commands: case name -> command and its input files
PENCIL_CASES = {
    "disc.det": ["det", "disc.pencil"],
    "disc.verify": ["verify", "disc.poly", "disc.pencil"],
    "disc.reduce-monic": ["reduce-monic", "disc.pencil"],
    "concentric.det": ["det", "concentric.pencil"],
    "concentric.verify": ["verify", "concentric.poly", "concentric.pencil"],
    "mismatch.verify": ["verify", "disc.poly", "concentric.pencil"],
    "forms7.det": ["det", "forms7.pencil"],
    "forms7.verify": ["verify", "forms7.poly", "forms7.pencil"],
    "approx.det": ["det", "approx.pencil"],
    "approx.verify": ["verify", "approx.poly", "approx.pencil"],
    "embedded.det": ["det", "embedded.pencil"],
    "embedded.reduce-monic": ["reduce-monic", "embedded.pencil"],
    "squares.det": ["det", "squares.pencil"],
    "squares.reduce-monic": ["reduce-monic", "squares.pencil"],
    "three.det": ["det", "three.pencil"],
    "three.reduce-monic": ["reduce-monic", "three.pencil"],
    "neg.verify": ["verify", "disc.poly", "neg.pencil"],
    "thin.reduce-monic": ["reduce-monic", "thin.pencil"],
}

# cases added after the grid above, last so earlier case ids keep their
# index: case name -> curve file stem and command with extra arguments
EXTRA_CASES = {
    # a non-default resolution must reach the parameters in the CSV
    "odd_cubic.topology.csv.fine": [
        "odd_cubic", "topology", "--format", "csv", "--resolution", "1/1024"],
}

# pencil cases added after EXTRA_CASES, last for the same reason
EXTRA_PENCIL_CASES = {
    # a singular L0 whose kernel is not spanned by coordinate vectors
    "kernel2.reduce-monic": ["reduce-monic", "kernel2.pencil"],
}

# line tests with the default sampler (181 grid and 64 random rays),
# last for the same reason: case name -> curve file stem, command and
# extra arguments
DEFAULT_SAMPLER_CASES = {
    "odd_cubic.check.default": ["odd_cubic", "check"],
    "tangent.hyperbolic.default": ["tangent", "hyperbolic", "--point=-4,0"],
    "concentric.check.default": ["concentric", "check"],
    # topology past the point where the scan builds its slope cells
    "concentric.topology.json.default": ["concentric", "topology"],
    "tangent.topology.json.default": ["tangent", "topology", "--point=-4,0"],
    "odd_cubic.topology.csv.default": ["odd_cubic", "topology", "--format",
                                       "csv"],
}

# cases like EXTRA_CASES added after all the above, last for the same
# reason
LATE_CASES = {
    # the disc squared passes the line test, but no line through the
    # origin meets it in four distinct points: represent exits 3
    "disc_squared.represent": ["disc_squared", "represent"],
}

# line tests in three variables, where every ray is a seeded random
# one, last for the same reason: case name -> curve file stem, command
# and extra arguments
THREE_VARIABLE_CASES = {
    "ball.check": ["ball", "check"],
    "ball.hyperbolic": ["ball", "hyperbolic"],
    # fails on a random ray: exit 2 with the witness
    "fermat3.check": ["fermat3", "check"],
}

# represent cases added after all the above, last for the same reason:
# case name -> curve file stem and command
APPROX_REPRESENT_CASES = {
    # an ApproxMatch: no axis intercept of the curve is rational
    "approx.represent": ["approx", "represent"],
}

# boundary cases added after all the above, last for the same reason:
# case name -> curve file stem and command
LATE_BOUNDARY_CASES = {
    # every restriction of the disc squared is a square: no ray's
    # isolation runs on a square-free restriction
    "disc_squared.boundary.json": ["disc_squared", "boundary"],
}


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
    for name, (command, *files) in PENCIL_CASES.items():
        yield name, [command] + [str(GOLDEN / f) for f in files]
    for name, (curve, command, *extra) in EXTRA_CASES.items():
        yield name, [command, str(GOLDEN / f"{curve}.poly"), *extra, *FAST]
    for name, (command, *files) in EXTRA_PENCIL_CASES.items():
        yield name, [command] + [str(GOLDEN / f) for f in files]
    for name, (curve, command, *extra) in DEFAULT_SAMPLER_CASES.items():
        yield name, [command, str(GOLDEN / f"{curve}.poly"), *extra]
    for name, (curve, command, *extra) in LATE_CASES.items():
        yield name, [command, str(GOLDEN / f"{curve}.poly"), *extra, *FAST]
    for name, (curve, command, *extra) in THREE_VARIABLE_CASES.items():
        yield name, [command, str(GOLDEN / f"{curve}.poly"), *extra, *FAST]
    for name, (curve, command) in APPROX_REPRESENT_CASES.items():
        yield name, [command, str(GOLDEN / f"{curve}.poly"), *FAST]
    for name, (curve, command) in LATE_BOUNDARY_CASES.items():
        yield name, [command, str(GOLDEN / f"{curve}.poly"), *RAYS]


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
