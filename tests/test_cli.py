"""End-to-end command-line behavior: exit codes, formats, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmicert
from lmicert import cli
from lmicert.cli import _build_parser, main
from lmicert.pencil import determinant_polynomial, parse_pencil
from lmicert.poly import format_rational, parse_polynomial
from lmicert.realroots import RootCount
from lmicert.rzcheck import (RaySampler, RayRecord, RZVerdict,
                             hyperbolicity_check, rigid_convexity_check)

DISC_POLY = "vars 2\n1 0 0\n-1 2 0\n-1 0 2\n"
CIRCLE2_POLY = "vars 2\n4 0 0\n-1 2 0\n-1 0 2\n"
FERMAT_POLY = "vars 2\n1 0 0\n-1 4 0\n-1 0 4\n"
CONCENTRIC_POLY = ("vars 2\n4 0 0\n-5 2 0\n-5 0 2\n"
                   "1 4 0\n2 2 2\n1 0 4\n")
ODD_CUBIC_POLY = ("vars 2\n4 0 0\n-4 1 0\n-1 2 0\n-1 0 2\n"
                  "1 3 0\n1 1 2\n")
STRIP_POLY = "vars 2\n1 0 0\n-1 2 0\n"
BALL_POLY = "vars 3\n1 0 0 0\n-1 2 0 0\n-1 0 2 0\n-1 0 0 2\n"
DISC_PENCIL = ("pencil 2 2\nL 0\n1 0\n0 1\nL 1\n1 0\n0 -1\n"
               "L 2\n0 1\n1 0\n")
EMBEDDED_PENCIL = ("pencil 2 2\nL 0\n4 0\n0 0\nL 1\n1 0\n0 0\n"
                   "L 2\n-1 0\n0 0\n")
FAST = ["--rays", "15", "--random", "4"]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# === check ===

def test_check_accepts_disc(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, err = run_cli(["check", path] + FAST)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ProbablyRZ"
    assert doc["witness_direction"] is None
    assert doc["degenerate_flag"] is False
    assert doc["ray_count"] == len(doc["per_ray"])
    assert err == ""


def test_check_rejects_fermat_with_witness(tmp_path):
    path = write(tmp_path, "fermat.poly", FERMAT_POLY)
    code, out, _ = run_cli(["check", path] + FAST)
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "CertifiedNotRZ"
    assert doc["witness_direction"] == ["1", "0"]
    assert len(doc["per_ray"]) == 1


def test_check_base_point_flag(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, _, _ = run_cli(["check", path, "--point", "1/2,1/4"] + FAST)
    assert code == 0
    code, _, err = run_cli(["check", path, "--point", "2,0"] + FAST)
    assert code == 1
    assert "error" in err


def test_check_output_deterministic(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    first = run_cli(["check", path] + FAST)
    second = run_cli(["check", path] + FAST)
    assert first == second


def test_check_out_file(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    target = tmp_path / "verdict.json"
    code, out, _ = run_cli(["check", path, "--out", str(target)] + FAST)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["kind"] == "ProbablyRZ"


# === hyperbolic ===

def test_hyperbolic_allows_negative_base_value(tmp_path):
    path = write(tmp_path, "outside.poly",
                 "vars 2\n-1 0 0\n1 2 0\n1 0 2\n")
    code, out, _ = run_cli(["hyperbolic", path] + FAST)
    assert code == 0
    assert json.loads(out)["kind"] == "ProbablyRZ"


def test_hyperbolic_rejects_fermat(tmp_path):
    path = write(tmp_path, "fermat.poly", FERMAT_POLY)
    code, out, _ = run_cli(["hyperbolic", path] + FAST)
    assert code == 2


# === represent / verify / det ===

def test_represent_disc_report_and_pencil(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    target = tmp_path / "disc.pencil"
    code, out, _ = run_cli(
        ["represent", path, "--out", str(target)] + FAST)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "ClosedForm"
    assert doc["kind"] == "ExactMatch"
    assert doc["constant"] == "1"
    assert doc["size"] == 2
    pencil = parse_pencil(target.read_text())
    assert determinant_polynomial(pencil) == parse_polynomial(DISC_POLY)
    assert doc["pencil"] == target.read_text()


def test_represent_with_factors_direct_sum(tmp_path):
    product = "vars 2\n1 0 0\n-1 1 0\n-1 2 0\n-1 0 2\n1 3 0\n1 1 2\n"
    factors = "vars 2\n1 0 0\n-1 1 0\n\nvars 2\n1 0 0\n-1 2 0\n-1 0 2\n"
    path = write(tmp_path, "product.poly", product)
    fpath = write(tmp_path, "factors.txt", factors)
    code, out, _ = run_cli(
        ["represent", path, "--factors", fpath] + FAST)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "DirectSum"
    assert doc["size"] == 3
    assert doc["kind"] == "ExactMatch"
    pencil = parse_pencil(doc["pencil"])
    assert determinant_polynomial(pencil) == parse_polynomial(product)


# factors negative at the origin, in pairs: -(1 - x1^2 - x2^2) and -1
# for the disc, x1 - 1 and -1 - x1 for the strip 1 - x1^2
@pytest.mark.parametrize("product, factors", [
    (DISC_POLY, "vars 2\n-1 0 0\n1 2 0\n1 0 2\n\nvars 2\n-1 0 0\n"),
    (STRIP_POLY, "vars 2\n-1 0 0\n1 1 0\n\nvars 2\n-1 0 0\n-1 1 0\n"),
], ids=["disc", "strip"])
def test_represent_negates_factors_negative_at_the_origin(tmp_path, product,
                                                          factors):
    path = write(tmp_path, "product.poly", product)
    fpath = write(tmp_path, "factors.txt", factors)
    code, out, _ = run_cli(["represent", path, "--factors", fpath] + FAST)
    assert code == 0
    doc = json.loads(out)
    assert (doc["method"], doc["kind"]) == ("DirectSum", "ExactMatch")
    pencil = parse_pencil(doc["pencil"])
    assert determinant_polynomial(pencil) == parse_polynomial(product)


def test_represent_not_rz_exits_2(tmp_path):
    path = write(tmp_path, "fermat.poly", FERMAT_POLY)
    code, out, _ = run_cli(["represent", path] + FAST)
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "CertifiedNotRZ"
    assert doc["witness_direction"] == ["1", "0"]


def test_represent_exits_2_on_a_failing_normalization_line(tmp_path):
    # 1 - x1^2 x2^2 passes its one scanned ray (1, 0); the line of the
    # first slope the cells decide, (1, 1), is the witness
    path = write(tmp_path, "cross.poly", "vars 2\n1 0 0\n-1 2 2\n")
    code, out, _ = run_cli(["represent", path, "--rays", "1",
                            "--random", "0"])
    assert code == 2
    assert json.loads(out)["witness_direction"] == ["1", "1"]


def test_represent_rejects_a_base_point_off_the_origin(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, err = run_cli(["represent", path, "--point", "1/2,0"] + FAST)
    assert (code, out) == (1, "")
    assert err == ("error: --point 1/2,0 is not the origin; represent "
                   "builds the pencil at the origin\n")
    # the origin itself, spelled out, changes nothing
    assert run_cli(["represent", path, "--point", "0,0"] + FAST) == \
        run_cli(["represent", path] + FAST)


def test_verify_round_trip(tmp_path):
    ppath = write(tmp_path, "disc.poly", DISC_POLY)
    qpath = write(tmp_path, "disc.pencil", DISC_PENCIL)
    code, out, _ = run_cli(["verify", ppath, qpath])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ExactMatch"
    assert doc["constant"] == "1"
    assert doc["membership_points"] == 0


def test_verify_mismatch_exits_3(tmp_path):
    ppath = write(tmp_path, "circle2.poly", CIRCLE2_POLY)
    qpath = write(tmp_path, "disc.pencil", DISC_PENCIL)
    code, out, _ = run_cli(["verify", ppath, qpath])
    assert code == 3
    assert json.loads(out)["kind"] == "Mismatch"


def test_det_expands_pencil(tmp_path):
    qpath = write(tmp_path, "disc.pencil", DISC_PENCIL)
    code, out, _ = run_cli(["det", qpath])
    assert code == 0
    assert parse_polynomial(out) == parse_polynomial(DISC_POLY)


# === reduce-monic ===

def test_reduce_monic_embedded_block(tmp_path):
    qpath = write(tmp_path, "embedded.pencil", EMBEDDED_PENCIL)
    code, out, _ = run_cli(["reduce-monic", qpath])
    assert code == 0
    doc = json.loads(out)
    assert doc["det_scale"] == "4"
    assert doc["rank"] == 1
    reduced = parse_pencil(doc["pencil"])
    assert reduced.monic()
    assert reduced.size == 1


def test_rank_zero_reduction_reads_back(tmp_path):
    # L0 = L1 = 0 reduces to the empty pencil, whose determinant is 1
    qpath = write(tmp_path, "zero.pencil", "pencil 1 1\nL 0\n0\nL 1\n0\n")
    code, out, _ = run_cli(["reduce-monic", qpath])
    assert code == 0
    doc = json.loads(out)
    assert (doc["rank"], doc["pencil"]) == (0, "pencil 0 1\nL 0\nL 1\n")
    empty = write(tmp_path, "empty.pencil", doc["pencil"])
    assert run_cli(["det", empty]) == (0, "vars 1\n1 0\n", "")
    assert run_cli(["reduce-monic", empty]) == (0, out, "")


def test_reduce_monic_failure_exits_3(tmp_path):
    bad = ("pencil 2 2\nL 0\n1 0\n0 0\nL 1\n0 0\n0 1\n"
           "L 2\n1 0\n0 0\n")
    qpath = write(tmp_path, "bad.pencil", bad)
    code, out, _ = run_cli(["reduce-monic", qpath])
    assert code == 3
    doc = json.loads(out)
    assert doc["kind"] == "ReductionError"
    assert "interior" in doc["error"]


# === topology ===

def test_topology_concentric_json(tmp_path):
    path = write(tmp_path, "concentric.poly", CONCENTRIC_POLY)
    code, out, _ = run_cli(["topology", path] + FAST)
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 4
    assert doc["ovals"] == 2
    assert doc["pseudo_line"] is False
    assert doc["consistent"] is True
    assert doc["flagged_rays"] == []


def test_topology_odd_cubic(tmp_path):
    path = write(tmp_path, "cubic.poly", ODD_CUBIC_POLY)
    code, out, _ = run_cli(["topology", path] + FAST)
    assert code == 0
    doc = json.loads(out)
    assert (doc["ovals"], doc["pseudo_line"]) == (1, True)


def test_topology_csv(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, _ = run_cli(
        ["topology", path, "--format", "csv", "--rays", "5",
         "--random", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ray,direction_x,direction_y,parameter,multiplicity"
    # every ray crosses the circle twice; axes are pinned on top of the grid
    assert len(lines) >= 11
    for row in lines[1:]:
        fields = row.split(",")
        assert len(fields) == 5
        assert fields[4] == "1"


def test_topology_not_rz_exits_2(tmp_path):
    path = write(tmp_path, "fermat.poly", FERMAT_POLY)
    code, out, _ = run_cli(["topology", path] + FAST)
    assert code == 2
    assert json.loads(out)["kind"] == "CertifiedNotRZ"


# === boundary ===

def test_boundary_json(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, _ = run_cli(["boundary", path, "--rays", "8"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["samples"]) == 16
    assert doc["unbounded_angles"] == []
    first = doc["samples"][0]
    assert set(first) == {"angle", "direction", "parameter", "x", "y"}


def test_boundary_csv_header_and_pairing(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, _ = run_cli(
        ["boundary", path, "--format", "csv", "--rays", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "angle,mu_minus,mu_plus,x,y"
    assert len(lines) == 17
    for row in lines[1:]:
        angle, mu_minus, mu_plus, _, _ = row.split(",")
        assert mu_minus and mu_plus


def test_boundary_svg_closed_region(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, _ = run_cli(
        ["boundary", path, "--format", "svg", "--rays", "12"])
    assert code == 0
    assert out.startswith("<svg")
    assert "<polygon" in out


def test_boundary_svg_unbounded_region(tmp_path):
    path = write(tmp_path, "strip.poly", STRIP_POLY)
    code, out, _ = run_cli(
        ["boundary", path, "--format", "svg", "--rays", "12"])
    assert code == 0
    assert "<polyline" in out


def test_boundary_resolution_flag(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, _, _ = run_cli(
        ["boundary", path, "--rays", "4", "--resolution", "1/1024"])
    assert code == 0


@pytest.mark.parametrize("resolution", [None, "8"])
def test_boundary_crossing_on_one_side_only(tmp_path, resolution):
    # 1 + x2 - x1^2 > 0: the line x1 = 0 meets the curve only at x2 = -1,
    # so ray (0, 1), the third of four, has a crossing on its negative
    # side alone; at resolution 8 the one Descartes piece (-2, 2) of
    # 1 + mu holds 0 and must be split there before the sides are told
    path = write(tmp_path, "parabola.poly", "vars 2\n1 0 0\n1 0 1\n-1 2 0\n")
    argv = ["boundary", path, "--rays", "4"]
    if resolution is not None:
        argv += ["--resolution", resolution]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["unbounded_angles"] == ["2"]
    assert len(doc["samples"]) == 7
    half = Fraction(resolution or Fraction(1, 2 ** 20)) / 2

    def region(mu, direction):
        x, y = (mu * Fraction(c) for c in direction)
        return 1 + y - x * x

    # a sign change between the ends of the window, cut at the base point
    # (the crossing lies on the sample's side of it), is a crossing there
    for sample in doc["samples"]:
        mu = Fraction(sample["parameter"])
        lo, hi = mu - half, mu + half
        lo, hi = (max(lo, 0), hi) if mu > 0 else (lo, min(hi, 0))
        assert region(lo, sample["direction"]) \
            * region(hi, sample["direction"]) <= 0


# === usage failures ===

def test_missing_file_exits_1(tmp_path):
    code, _, err = run_cli(["check", str(tmp_path / "absent.poly")])
    assert code == 1
    assert "error" in err


def test_malformed_polynomial_exits_1(tmp_path):
    path = write(tmp_path, "broken.poly", "vars 2\n1 0\n")
    code, _, err = run_cli(["check", path] + FAST)
    assert code == 1
    assert "error" in err


def test_bad_point_arity_exits_1(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, _, err = run_cli(["check", path, "--point", "1"] + FAST)
    assert code == 1
    assert "error" in err


def test_point_defaults_to_origin_in_three_variables(tmp_path):
    path = write(tmp_path, "ball.poly", BALL_POLY)
    code, out, err = run_cli(["check", path] + FAST)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["kind"] == "ProbablyRZ"
    assert all(len(r["direction"]) == 3 for r in doc["per_ray"])
    assert run_cli(["check", path, "--point", "0,0,0"] + FAST) == \
        (code, out, err)


# each check of a malformed input document, through a command that
# reads it: (command, document, the message after "error: ")
MALFORMED_DOCUMENTS = {
    "pencil-header": ("det", "# a comment\npencil 2\nL 0\n1\n",
                      "line 2: expected header 'pencil N m'"),
    "pencil-integers": ("det", "pencil two 1\nL 0\n1\nL 1\n0\n",
                        "line 1: pencil header needs integer N and m"),
    "pencil-no-matrix": ("det", "pencil 1 0\nL 0\n1\n",
                         "line 1: pencil needs N >= 0 and m >= 1"),
    "pencil-negative-size": ("det", "pencil -1 1\n",
                             "line 1: pencil needs N >= 0 and m >= 1"),
    "pencil-missing-block": ("det", "pencil 1 1\nL 0\n1\n\n",
                             "line 3: missing block 'L 1'"),
    "pencil-row-length": (
        "det", "pencil 2 1\nL 0\n1 0\n0\nL 1\n0 0\n0 0\n",
        "line 4: expected 2 entries, got 1"),
    "pencil-asymmetric": (
        "det", "pencil 2 1\nL 0\n1 2\n0 1\nL 1\n0 0\n0 0\n",
        "line 4: block 'L 0': matrix is not symmetric at (1,0): 0 vs 2"),
    "pencil-trailing": ("det", "pencil 1 1\nL 0\n1\nL 1\n0\nL 2\n",
                        "line 6: trailing content after the last block"),
    "poly-variable-count": ("check", "vars x\n1 0 0\n",
                            "line 1: bad variable count 'x'"),
    "poly-no-variables": ("check", "vars 0\n1\n",
                          "line 1: variable count must be positive"),
    "poly-exponent-token": ("check", "vars 2\n1 0 0\n\n1 a 0\n",
                            "line 4: exponents must be integers"),
    "poly-negative-exponent": ("check", "vars 2\n1 0 0\n1 -1 0\n",
                               "line 3: exponents must be nonnegative"),
    "poly-no-header": ("check", "# nothing here\n\n",
                       "missing 'vars m' header"),
}


@pytest.mark.parametrize("command, document, message",
                         list(MALFORMED_DOCUMENTS.values()),
                         ids=list(MALFORMED_DOCUMENTS))
def test_malformed_documents_exit_1_with_their_line(tmp_path, command,
                                                    document, message):
    path = write(tmp_path, "input", document)
    assert run_cli([command, path]) == (1, "", f"error: {message}\n")


def test_empty_factor_file_exits_1(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    fpath = write(tmp_path, "factors.txt", "# no polynomial\n\n\n")
    assert run_cli(["represent", path, "--factors", fpath] + FAST) == \
        (1, "", "error: factor file holds no polynomials\n")


def test_construction_error_reports_its_residual(tmp_path):
    # every start of the degree-3 solve reaches the float tolerance, but
    # no float pencil has an exact residual below 1e-30
    path = write(tmp_path, "odd_cubic.poly", ODD_CUBIC_POLY)
    code, out, err = run_cli(["represent", path, "--tol", "1e-30"] + FAST)
    assert (code, err) == (3, "")
    doc = json.loads(out)
    assert sorted(doc) == ["error", "kind", "residual"]
    assert doc["kind"] == "ConstructionError"
    assert doc["error"] == ("no start of the off-diagonal solve reached the "
                            "tolerance; retry with a different seed")
    assert isinstance(doc["residual"], float)
    assert 1e-30 < doc["residual"] < 1e-9


def test_boundary_svg_without_crossings(tmp_path):
    # the constant 1: no line meets the curve, so there is nothing to draw
    path = write(tmp_path, "one.poly", "vars 2\n1 0 0\n")
    assert run_cli(["boundary", path, "--format", "svg", "--rays", "4"]) == \
        (0, '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 10 10">'
            '</svg>\n', "")


def test_unknown_command_exits_1():
    code, _, _ = run_cli(["frobnicate", "whatever"])
    assert code == 1


def test_zero_polynomial_exits_1(tmp_path):
    path = write(tmp_path, "zero.poly", "vars 2\n")
    code, _, err = run_cli(["check", path] + FAST)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["boundary", "--rays", "0"], "rays must be >= 1"),
    (["boundary", "--rays", "-2"], "rays must be >= 1"),
    (["check", "--rays", "15", "--random", "-3"],
     "random_count must be >= 0"),
    (["topology", "--rays", "15", "--random", "-3"],
     "random_count must be >= 0"),
])
def test_bad_ray_counts_exit_1(tmp_path, argv, message):
    # a scan over no rays, or a negative number of random rays, is a
    # usage error, not an empty result
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, err = run_cli(argv[:1] + [path] + argv[1:])
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("command", [
    ["topology"] + FAST, ["topology", "--format", "csv"] + FAST,
    ["boundary", "--rays", "15"]])
@pytest.mark.parametrize("resolution", ["0", "-1/2"])
def test_nonpositive_resolution_exits_1(tmp_path, command, resolution):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, err = run_cli(command[:1] + [path] + command[1:]
                             + [f"--resolution={resolution}"])
    assert (code, out) == (1, "")
    assert "resolution must be positive" in err


@pytest.mark.parametrize("command", ["represent", "verify"])
@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "1e400", "-1e-3",
                                 "abc"])
def test_tolerance_must_be_finite_and_nonnegative(tmp_path, command, tol):
    # an infinite tolerance passes any pencil: it would make verify's
    # Mismatch here (residual 1/2) an ApproxMatch, and let represent
    # match the odd cubic with a zero L1
    poly = write(tmp_path, "p.poly",
                 DISC_POLY if command == "verify" else ODD_CUBIC_POLY)
    extra = [str(GOLDEN_DIR / "concentric.pencil")] \
        if command == "verify" else FAST
    assert run_cli([command, poly, *extra, f"--tol={tol}"]) == \
        (1, "", f"error: --tol must be a finite number >= 0, got '{tol}'\n")


@pytest.mark.parametrize("command", ["represent", "verify"])
@pytest.mark.parametrize("tol", ["0", "-0", "1e-300", "1e300"])
def test_tolerance_takes_every_finite_nonnegative_number(tmp_path, command,
                                                         tol):
    inputs = [write(tmp_path, "disc.poly", DISC_POLY)]
    if command == "verify":
        inputs.append(write(tmp_path, "disc.pencil", DISC_PENCIL))
    args = _build_parser().parse_args([command, *inputs, f"--tol={tol}"])
    assert args.tol == float(tol)


# the options each command reads, 33 of the 65 command-option slots
# (each command with each option of OPTION_VALUES but --factors, which
# only represent takes); any other slot is refused, not ignored
SCAN_OPTIONS = {"--point", "--rays", "--random", "--seed", "--out"}
COMMAND_OPTIONS = {
    "check": SCAN_OPTIONS,
    "hyperbolic": SCAN_OPTIONS,
    "represent": SCAN_OPTIONS | {"--tol", "--factors"},
    "verify": {"--tol", "--out"},
    "det": {"--out"},
    "reduce-monic": {"--out"},
    "topology": SCAN_OPTIONS | {"--resolution", "--format"},
    "boundary": {"--point", "--rays", "--resolution", "--format", "--out"},
}
# values chosen so that str() of the parsed value gives them back
OPTION_VALUES = {"--point": "0,0", "--rays": "5", "--random": "2",
                 "--seed": "3", "--tol": "0.5", "--resolution": "1/64",
                 "--out": "out.txt", "--format": "csv",
                 "--factors": "factors.txt"}
OPTION_SLOTS = [(command, option) for command in COMMAND_OPTIONS
                for option in OPTION_VALUES
                if option != "--factors" or command == "represent"]


@pytest.mark.parametrize("command", [
    "check", "hyperbolic", "represent", "verify", "det", "reduce-monic",
    "topology", "boundary"])
@pytest.mark.parametrize("resolution", ["1/0", "abc"])
def test_malformed_resolution_exits_1(tmp_path, command, resolution):
    # the value is parsed with the other options, before any input is read;
    # a command that reads no resolution refuses the option itself
    path = write(tmp_path, "disc.poly", DISC_POLY)
    extra = [path] if command == "verify" else []
    code, out, err = run_cli([command, path] + extra
                             + [f"--resolution={resolution}"])
    assert (code, out) == (1, "")
    if "--resolution" in COMMAND_OPTIONS[command]:
        assert err.startswith(f"error: bad rational '{resolution}'")
    else:
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("command, option", OPTION_SLOTS)
def test_each_command_takes_only_the_options_it_reads(tmp_path, command,
                                                      option):
    inputs = [write(tmp_path, "disc.poly", DISC_POLY)]
    if command == "verify":
        inputs.append(write(tmp_path, "disc.pencil", DISC_PENCIL))
    argv = [command, *inputs, f"{option}={OPTION_VALUES[option]}"]
    _, usage, _ = run_cli([command, "--help"])
    if option in COMMAND_OPTIONS[command]:
        assert option in usage
        args = _build_parser().parse_args(argv)
        assert str(getattr(args, option[2:])) == OPTION_VALUES[option]
    else:
        assert option not in usage
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_unknown_option_names_the_command(tmp_path, command):
    # the usage error comes from the command's own parser, so it shows
    # the command's usage, not the list of commands
    inputs = [write(tmp_path, "disc.poly", DISC_POLY)]
    if command == "verify":
        inputs.append(write(tmp_path, "disc.pencil", DISC_PENCIL))
    code, out, err = run_cli([command, *inputs, "--bogus", "3"])
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: lmicert {command} [-h]")
    assert err.endswith(f"lmicert {command}: error: unrecognized "
                        "arguments: --bogus 3\n")


def test_verify_with_seed_shows_verify_usage(tmp_path):
    poly = write(tmp_path, "disc.poly", DISC_POLY)
    pencil = write(tmp_path, "disc.pencil", DISC_PENCIL)
    code, out, err = run_cli(["verify", poly, pencil, "--seed", "3"])
    assert (code, out) == (1, "")
    assert err == ("usage: lmicert verify [-h] [--out OUT] [--tol TOL] "
                   "input pencil\nlmicert verify: error: unrecognized "
                   "arguments: --seed 3\n")


def test_topology_refuses_svg(tmp_path):
    path = write(tmp_path, "disc.poly", DISC_POLY)
    code, out, err = run_cli(["topology", path, "--format", "svg"])
    assert (code, out) == (1, "")
    assert "invalid choice: 'svg'" in err


def test_every_public_name_resolves_once():
    assert len(set(lmicert.__all__)) == len(lmicert.__all__)
    for name in lmicert.__all__:
        assert hasattr(lmicert, name), name


# === one parser per process ===

GOLDEN_DISC, GOLDEN_LOBE, GOLDEN_TANGENT, GOLDEN_PENCIL = (
    str(GOLDEN_DIR / name)
    for name in ("disc.poly", "lobe.poly", "tangent.poly", "disc.pencil"))

# two calls in one process, the second of which would show state the
# first left in the parser
REUSE_SEQUENCES = {
    "check-then-hyperbolic": [["check", GOLDEN_DISC, *FAST],
                              ["hyperbolic", GOLDEN_DISC, *FAST]],
    "point-then-origin": [["check", GOLDEN_LOBE, "--point=7/10,0", *FAST],
                          ["check", GOLDEN_LOBE, *FAST]],
    "csv-then-json": [["topology", GOLDEN_TANGENT, "--point=-4,0",
                       "--format", "csv", *FAST],
                      ["topology", GOLDEN_TANGENT, "--point=-4,0", *FAST]],
    "usage-error-then-verify": [
        ["verify", GOLDEN_DISC, GOLDEN_PENCIL, "--seed", "3"],
        ["verify", GOLDEN_DISC, GOLDEN_PENCIL]],
    "bad-resolution-then-default": [
        ["boundary", GOLDEN_DISC, "--rays", "8", "--resolution", "0"],
        ["boundary", GOLDEN_DISC, "--rays", "8"]],
    "help-then-det": [["--help"], ["det", GOLDEN_PENCIL]],
}


def run_fresh(argv):
    """The same call as run_cli, in a new interpreter."""
    src = str(Path(lmicert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from lmicert.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, encoding="utf-8", env=env, check=False)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("calls", list(REUSE_SEQUENCES.values()),
                         ids=list(REUSE_SEQUENCES))
def test_reused_parser_leaks_no_state(monkeypatch, calls):
    # help is wrapped to the terminal width: pin it for both processes
    monkeypatch.setenv("COLUMNS", "80")
    in_process = [run_cli(argv) for argv in calls]
    # the second call differs from the first, so leftovers would show
    assert in_process[0] != in_process[1]
    assert in_process == [run_fresh(argv) for argv in calls]


def test_parser_is_built_once_per_process(tmp_path):
    disc = write(tmp_path, "disc.poly", DISC_POLY)
    pencil = write(tmp_path, "disc.pencil", DISC_PENCIL)
    _build_parser.cache_clear()
    for argv in (["check", disc, *FAST], ["hyperbolic", disc, *FAST],
                 ["det", pencil], ["verify", disc, pencil], ["--help"],
                 ["nonsense"], ["check", disc, *FAST]):
        run_cli(argv)
    assert _build_parser.cache_info().misses == 1
    assert _build_parser.cache_info().hits == 6


def test_cached_parser_calls_the_current_check(tmp_path, monkeypatch):
    # a tracer rebinds the check functions in cli's namespace after the
    # parser may have been built; the next call must go through them
    path = write(tmp_path, "disc.poly", DISC_POLY)
    run_cli(["check", path, *FAST])
    seen = []
    for name in ("rigid_convexity_check", "hyperbolicity_check"):
        def spy(*args, _name=name, _real=getattr(cli, name)):
            seen.append(_name)
            return _real(*args)
        monkeypatch.setattr(cli, name, spy)
    assert run_cli(["check", path, *FAST])[0] == 0
    assert run_cli(["hyperbolic", path, *FAST])[0] == 0
    assert seen == ["rigid_convexity_check", "hyperbolicity_check"]


# === the JSON writer ===

GOLDEN = Path(__file__).resolve().parent / "golden"


def _dumps(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_json_writer_reproduces_every_golden_document():
    seen = 0
    for path in sorted(GOLDEN.glob("*.out")):
        text = path.read_text(encoding="utf-8")
        try:
            document = json.loads(text)
        except ValueError:
            continue                    # CSV, SVG and pencil text
        assert cli._json(document) == _dumps(document) == text, path.name
        seen += 1
    assert seen >= 40


_JSON_SCALARS = (st.none() | st.booleans()
                 | st.integers(min_value=-10 ** 30, max_value=10 ** 30)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.text(alphabet=st.characters(max_codepoint=0x1F600)))
_JSON_DOCUMENTS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=20)


@given(_JSON_DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(document):
    assert cli._json(document) == _dumps(document)


@pytest.mark.parametrize("document", [
    {"a": float("nan"), "b": [float("inf"), -float("inf"), -0.0, 1e300]},
    {"é \n\t\"\\": ["\x00\x1f\x7f", "\U0001f600"]},
    [[], {}, [[]], {"": {}}],
    {"z": True, "y": False, "x": None, "w": 10 ** 40},
])
def test_json_writer_edge_documents(document):
    assert cli._json(document) == _dumps(document)


def test_json_writer_refuses_what_json_dumps_refuses():
    for document in ({"a": Fraction(1, 2)}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            _dumps(document)
        with pytest.raises(TypeError):
            cli._json(document)


# === the line-test writer ===

LOBE_POLY = "vars 2\n1 3 0\n-3 1 2\n-1 4 0\n-2 2 2\n-1 0 4\n"
LOBE3_POLY = ("vars 3\n1 3 0 0\n-3 1 2 0\n-1 4 0 0\n-2 2 2 0\n"
              "-1 0 4 0\n")
FERMAT3_POLY = "vars 3\n1 0 0 0\n-1 4 0 0\n-1 0 4 0\n-1 0 0 4\n"
DISC_SQUARED_POLY = ("vars 2\n1 0 0\n-2 2 0\n-2 0 2\n1 4 0\n2 2 2\n"
                     "1 0 4\n")


def _old_verdict_document(verdict):
    """The document the line tests' JSON was once dumped from."""
    def fmt(direction):
        return [format_rational(c) for c in direction]
    return {
        "kind": verdict.kind,
        "witness_direction": (None if verdict.witness is None
                              else fmt(verdict.witness[0])),
        "ray_count": verdict.rays_checked,
        "seed": verdict.seed,
        "degenerate_flag": verdict.degenerate,
        "per_ray": [{"direction": fmt(r.direction), "degree": r.degree,
                     "distinct": r.distinct,
                     "with_multiplicity": r.with_multiplicity,
                     "at_infinity": r.at_infinity}
                    for r in verdict.per_ray],
    }


# command, polynomial, base point, --rays, --random, --seed, and the
# number of rays the verdict reads (None: every ray, passing)
_SCAN_CASES = [
    ("check", DISC_POLY, None, 15, 4, 0, None),
    ("hyperbolic", DISC_POLY, None, 15, 4, 0, None),
    ("check", DISC_POLY, None, 181, 64, 0, None),
    ("check", DISC_POLY, None, 1, 0, 0, None),
    ("hyperbolic", DISC_POLY, "3/2,0", 31, 8, 2, 8),
    ("check", DISC_SQUARED_POLY, None, 15, 4, 0, None),
    ("check", FERMAT_POLY, None, 15, 4, 0, 1),
    ("check", ODD_CUBIC_POLY, None, 31, 8, 0, None),
    ("check", LOBE_POLY, "7/10,0", 31, 8, 0, 8),
    ("check", BALL_POLY, None, 31, 8, 0, None),
    ("hyperbolic", BALL_POLY, None, 31, 8, 0, None),
    ("check", BALL_POLY, None, 1, 0, 0, None),
    ("check", BALL_POLY, None, 15, 4, -4, None),
    ("check", FERMAT3_POLY, None, 31, 8, 0, 1),
    ("check", LOBE3_POLY, "1/20,0,0", 31, 8, 3, 7),
    ("hyperbolic", LOBE3_POLY, "1/20,0,0", 31, 8, 3, 7),
]


@pytest.mark.parametrize("case", _SCAN_CASES)
def test_scan_writer_matches_the_dumped_document(tmp_path, case):
    command, text, point, rays, randoms, seed, witness_at = case
    path = write(tmp_path, "p.poly", text)
    argv = [command, path, "--rays", str(rays), "--random", str(randoms),
            f"--seed={seed}"] + ([] if point is None else [f"--point={point}"])
    code, out, err = run_cli(argv)
    p = parse_polynomial(text)
    check = (rigid_convexity_check if command == "check"
             else hyperbolicity_check)
    verdict = check(p, cli._parse_point(point, p.num_vars),
                    RaySampler(p.num_vars, rays, randoms, seed))
    expected = _dumps(_old_verdict_document(verdict))
    assert cli._verdict_json(verdict) == expected
    assert (code, out, err) == (0 if witness_at is None else 2, expected, "")
    if witness_at is not None:
        assert verdict.rays_checked == witness_at


def test_scan_writer_on_verdicts_the_command_line_cannot_give():
    v = (Fraction(-1), Fraction(3, 7))
    counts = RootCount(1, 1, 2)
    for verdict in (
            RZVerdict("ProbablyRZ", None, 0, 0, ()),
            RZVerdict("CertifiedNotRZ", (v, counts), 1, 10 ** 30,
                      (RayRecord(v, 2, 1, 1, 0, False),)),
            RZVerdict("ProbablyRZ", None, 2, -1,
                      (RayRecord((Fraction(1),), 0, 0, 0, 3, True),) * 2,
                      Fraction(0), True)):
        assert cli._verdict_json(verdict) == _dumps(
            _old_verdict_document(verdict))
