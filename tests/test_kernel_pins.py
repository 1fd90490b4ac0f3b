"""Exact outputs of the line kernel on a fixed, seeded table.

The table in tests/golden/kernel.json holds, for seeded random inputs,
the exact results of Polynomial.restrict (at the origin and off it),
square_free_decompose and isolate_real_roots at several resolutions.
Every rational is stored as its lowest-terms string, so a change in the
kernel's arithmetic that moves any output by any amount fails here.
The isolation inputs include roots on bisection midpoints (root 0 with
three more roots inside the power-of-two bound, and other dyadic roots,
which come back exact) and close roots split across factors of
different multiplicity.  After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_kernel_pins.py

and announce the change.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lmicert.poly import (Polynomial, UnivariatePolynomial, format_polynomial,
                          parse_polynomial)
from lmicert.realroots import isolate_real_roots, square_free_decompose

TABLE = Path(__file__).resolve().parent / "golden" / "kernel.json"
SEED = 20030617
RESOLUTIONS = ["1", "1/3", "1/16", "1/1048576", "1/1000000000000"]


def _q(rng, num=12, den=6, zero_share=0.0):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _strs(values):
    return [str(Fraction(v)) for v in values]


def _uni(coeffs):
    return UnivariatePolynomial([Fraction(c) for c in coeffs])


def _from_roots(roots, mults=None, lead=Fraction(1)):
    f = _uni([lead])
    for r, m in zip(roots, mults or [1] * len(roots)):
        for _ in range(m):
            f = f * _uni([-Fraction(r), 1])
    return f


# -- inputs -----------------------------------------------------------------


def restrict_inputs(rng):
    out = []
    for _ in range(48):
        m = rng.choice([1, 2, 2, 2, 3])
        deg = rng.randint(1, 7)
        terms = {}
        for _ in range(rng.randint(1, 10)):
            exps = [0] * m
            for _ in range(rng.randint(0, deg)):
                exps[rng.randrange(m)] += 1
            terms[tuple(exps)] = _q(rng, num=30, den=9)
        p = Polynomial(m, terms)
        origin = [Fraction(0)] * m
        point = [_q(rng, zero_share=0.3) for _ in range(m)]
        v = [_q(rng, num=7, den=5, zero_share=0.3) for _ in range(m)]
        if all(c == 0 for c in v):
            v[rng.randrange(m)] = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        for x0 in (origin, point):
            out.append((p, x0, v))
    return out


def decompose_inputs(rng):
    polys = [_uni([Fraction(7, 3)]),
             _uni([0, 1]),
             _uni([0, 0, 0, Fraction(-2, 5)]),
             _from_roots([1, 1, -1, -1, -1, 5]) * _uni([1, 0, 1])]
    for _ in range(60):
        f = _uni([_q(rng, num=9, den=4) or Fraction(1)])
        for _ in range(rng.randint(1, 4)):
            deg = rng.randint(1, 3)
            g = _uni([_q(rng, num=6, den=3) for _ in range(deg)]
                     + [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))])
            f = f * _power(g, rng.choice([1, 1, 2, 3]))
        polys.append(f)
    for _ in range(20):
        deg = rng.randint(1, 8)
        polys.append(_uni([rng.randint(-9, 9) for _ in range(deg)]
                          + [rng.randint(1, 9)]))
    return polys


def _power(g, n):
    out = _uni([1])
    for _ in range(n):
        out = out * g
    return out


def isolate_inputs(rng):
    eps = Fraction(1, 2 ** 30)
    third = Fraction(1, 3)
    polys = [
        # root 0 on the first midpoint, three more inside the bound
        _from_roots([0, 1, -1, 2]),
        _from_roots([0, -2, 3, Fraction(1, 2)], mults=[2, 1, 1, 3]),
        # dyadic roots off the first bisection points: 3/2, 3/4 and -3/4
        _from_roots([0, Fraction(3, 2), Fraction(3, 4), -Fraction(3, 4)]),
        _from_roots([Fraction(3, 2), 5, -1]),
        # close roots in factors of different multiplicity
        _from_roots([third, third + eps], mults=[1, 2]),
        _from_roots([Fraction(1, 7), Fraction(1, 7) + eps]),
        _from_roots([Fraction(-3, 2), 0, 7], mults=[1, 2, 1]),
        _uni([-2, 0, 1]),
        _uni([5, 0, 1]),
        _uni([Fraction(-1, 3), 0, 0, 1]),
        _uni([4]),
    ]
    for _ in range(30):
        roots = [_q(rng, num=8, den=4) for _ in range(rng.randint(1, 5))]
        mults = [rng.choice([1, 1, 2, 3]) for _ in roots]
        f = _from_roots(roots, mults, lead=_q(rng, num=5, den=3) or Fraction(1))
        polys.append(f * _uni([rng.randint(1, 4), 0, 1]) if rng.random() < 0.3
                     else f)
    for _ in range(30):
        deg = rng.randint(1, 8)
        polys.append(_uni([rng.randint(-9, 9) for _ in range(deg)]
                          + [rng.randint(1, 9)]))
    return polys


# -- the table ----------------------------------------------------------------


def build_table():
    rng = random.Random(SEED)
    restrict = [{"p": format_polynomial(p), "x0": _strs(x0), "v": _strs(v),
                 "out": _strs(p.restrict(x0, v).coeffs)}
                for p, x0, v in restrict_inputs(rng)]
    decompose = [{"f": _strs(f.coeffs),
                  "out": [[_strs(g.coeffs), m]
                          for g, m in square_free_decompose(f)]}
                 for f in decompose_inputs(rng)]
    isolate = []
    for f in isolate_inputs(rng):
        row = {"f": _strs(f.coeffs), "out": {}}
        for res in RESOLUTIONS:
            row["out"][res] = [[str(iv.low), str(iv.high), iv.multiplicity]
                               for iv in isolate_real_roots(f, Fraction(res))]
        isolate.append(row)
    return {"restrict": restrict, "square_free_decompose": decompose,
            "isolate_real_roots": isolate}


@pytest.fixture(scope="module")
def table():
    with open(TABLE, encoding="utf-8") as handle:
        return json.load(handle)


def test_restrict_matches_table(table):
    for row in table["restrict"]:
        p = parse_polynomial(row["p"])
        x0 = [Fraction(c) for c in row["x0"]]
        v = [Fraction(c) for c in row["v"]]
        assert _strs(p.restrict(x0, v).coeffs) == row["out"], row


def test_square_free_decompose_matches_table(table):
    for row in table["square_free_decompose"]:
        got = [[_strs(g.coeffs), m]
               for g, m in square_free_decompose(_uni(row["f"]))]
        assert got == row["out"], row


def test_isolate_real_roots_matches_table(table):
    for row in table["isolate_real_roots"]:
        f = _uni(row["f"])
        for res, expected in row["out"].items():
            got = [[str(iv.low), str(iv.high), iv.multiplicity]
                   for iv in isolate_real_roots(f, Fraction(res))]
            assert got == expected, (row["f"], res)


def regenerate():
    with open(TABLE, "w", encoding="utf-8") as handle:
        json.dump(build_table(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(regenerate())
