"""Exact determinant expansions on a fixed, seeded table of pencils.

The table in tests/golden/det.json holds, for seeded pencils with m = 1,
2, 3 variables and sizes 1..9, the text of the pencil and of
determinant_polynomial's result.  The inputs include dense and sparse
pencils with identity or general constant terms, Q^T diag(forms) Q
pencils that do not split into blocks, permuted direct sums, pencils
with a zero L_k, pencils whose determinant is identically 0 (a shared
kernel vector, a zero row and column), and pencils with large dyadic and
mixed denominators like the approximate matches that represent writes.
A change in the expansion's arithmetic that moves any coefficient by any
amount fails here.  After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_pencil_pins.py

and announce the change.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lmicert.pencil import (LinearPencil, SymmetricMatrix,
                            determinant_polynomial, direct_sum, format_pencil,
                            parse_pencil)
from lmicert.poly import Polynomial, format_polynomial

TABLE = Path(__file__).resolve().parent / "golden" / "det.json"
SEED = 19680701


def _q(rng, num=3, den=2, zero_share=0.0):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _sym(rng, n, value):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = value()
    return rows


def _pencil(mats):
    return LinearPencil([SymmetricMatrix(rows) for rows in mats])


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _inverse(a):
    n = len(a)
    rows = [list(a[i]) + _identity(n)[i] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _orthogonal(rng, n):
    """Cayley transform (I - S)(I + S)^-1 of a banded skew S: rational,
    orthogonal and dense."""
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        v = Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
        s[i][i + 1], s[i + 1][i] = v, -v
    eye = _identity(n)
    minus = [[eye[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]
    return _matmul(minus, _inverse(plus))


def _conjugated(rng, diagonals):
    """Q^T diag(d) Q for each diagonal d, with one random orthogonal Q."""
    n = len(diagonals[0])
    q = _orthogonal(rng, n)
    qt = [list(col) for col in zip(*q)]
    out = []
    for d in diagonals:
        diag = [[d[i] if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        out.append(_matmul(_matmul(qt, diag), q))
    return out


def _permuted(mats, perm):
    n = len(perm)
    return [[[mat[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            for mat in mats]


# -- inputs -----------------------------------------------------------------


def dense(rng, n, m):
    l0 = _identity(n) if rng.random() < 0.6 else _sym(rng, n, lambda: _q(rng))
    return _pencil([l0] + [_sym(rng, n, lambda: _q(rng)) for _ in range(m)])


def sparse(rng, n, m):
    def entry():
        return _q(rng, num=5, den=3, zero_share=0.75)
    l0 = [[Fraction(rng.randint(1, 3)) if i == j else Fraction(0)
           for j in range(n)] for i in range(n)]
    return _pencil([l0] + [_sym(rng, n, entry) for _ in range(m)])


def forms(rng, n, m):
    """Q^T diag(1 + a_i . x) Q: det is the product of the forms."""
    diagonals = [[Fraction(1)] * n]
    diagonals += [[_q(rng) for _ in range(n)] for _ in range(m)]
    return _pencil(_conjugated(rng, diagonals))


def permuted_sum(rng, sizes, m):
    blocks = [dense(rng, s, m) for s in sizes]
    total = direct_sum(blocks)
    perm = list(range(total.size))
    rng.shuffle(perm)
    return _pencil(_permuted([mat.entries for mat in total.matrices], perm))


def with_zero(rng, n, m, k):
    p = dense(rng, n, m)
    mats = [mat.entries for mat in p.matrices]
    mats[k] = [[Fraction(0)] * n for _ in range(n)]
    return _pencil(mats)


def shared_kernel(rng, n, m):
    """Every matrix kills the same vector: det is identically 0."""
    diagonals = [[Fraction(0)] + [_q(rng) or Fraction(1) for _ in range(n - 1)]
                 for _ in range(m + 1)]
    return _pencil(_conjugated(rng, diagonals))


def zero_row(rng, n, m):
    """A zero row and column in every matrix, permuted into place."""
    p = dense(rng, n - 1, m)
    mats = [[list(row) + [Fraction(0)] for row in mat.entries]
            + [[Fraction(0)] * n] for mat in p.matrices]
    perm = list(range(n))
    rng.shuffle(perm)
    return _pencil(_permuted(mats, perm))


def dyadic(rng, n, m):
    """Like the pencils of an approximate match: monic, one matrix of
    rounded doubles (denominators up to 2^60), and diagonal entries with
    large mixed denominators."""
    def double():
        return Fraction(rng.uniform(-3.0, 3.0))

    def big():
        return Fraction(rng.randint(-10 ** 21, 10 ** 21),
                        rng.randint(1, 10 ** 21))
    l1 = _sym(rng, n, double)
    for i in range(n):
        l1[i][i] = big()
    mats = [_identity(n), l1]
    for _ in range(m - 1):
        mats.append([[big() if i == j else Fraction(0) for j in range(n)]
                     for i in range(n)])
    return _pencil(mats)


def inputs(rng):
    out = []
    for m in (1, 2, 3):
        for n in range(1, 10):
            out += [("dense", dense(rng, n, m)),
                    ("sparse", sparse(rng, n, m)),
                    ("forms", forms(rng, n, m))]
        for sizes in ([1, 2], [2, 3], [3, 1, 2], [4, 4], [2, 2, 2, 3]):
            out.append(("permuted_sum", permuted_sum(rng, sizes, m)))
        for n in (2, 5):
            out.append(("shared_kernel", shared_kernel(rng, n, m)))
            out.append(("zero_row", zero_row(rng, n, m)))
        for n in (1, 3, 5, 7):
            out.append(("dyadic", dyadic(rng, n, m)))
        for k in range(m + 1):
            out.append(("zero_L", with_zero(rng, 4 + k, m, k)))
    return out


# -- beyond the table ----------------------------------------------------------


def test_dense_block_of_size_14_expands_to_the_product_of_its_forms():
    # one irreducible 14 x 14 block Q^T diag(1 + a_i x1 + b_i x2) Q
    rng = random.Random(14)
    coeffs = [(_q(rng), _q(rng)) for _ in range(14)]
    p = _pencil(_conjugated(rng, [[Fraction(1)] * 14,
                                  [a for a, _ in coeffs],
                                  [b for _, b in coeffs]]))
    assert all(p.matrices[1].entries[i][j] != 0 or p.matrices[2].entries[i][j]
               != 0 for i in range(14) for j in range(14))
    expected = Polynomial.constant(1, 2)
    for a, b in coeffs:
        expected = expected * Polynomial(2, {(0, 0): 1, (1, 0): a, (0, 1): b})
    assert determinant_polynomial(p) == expected


# -- the table ----------------------------------------------------------------


def build_table():
    rng = random.Random(SEED)
    return [{"kind": kind, "pencil": format_pencil(p),
             "det": format_polynomial(determinant_polynomial(p))}
            for kind, p in inputs(rng)]


@pytest.fixture(scope="module")
def table():
    with open(TABLE, encoding="utf-8") as handle:
        return json.load(handle)


def test_table_covers_every_kind(table):
    kinds = {row["kind"] for row in table}
    assert kinds == {"dense", "sparse", "forms", "permuted_sum", "zero_L",
                     "shared_kernel", "zero_row", "dyadic"}
    assert any(row["det"] == f"vars {m}\n" for row in table for m in (1, 2, 3))


def test_determinant_polynomial_matches_table(table):
    for row in table:
        p = parse_pencil(row["pencil"])
        got = format_polynomial(determinant_polynomial(p))
        assert got == row["det"], (row["kind"], row["pencil"])


def regenerate():
    with open(TABLE, "w", encoding="utf-8") as handle:
        json.dump(build_table(), handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(regenerate())
