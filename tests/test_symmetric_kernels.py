"""The exact kernels of pencil.py against independent oracles written
here: _bareiss_det against Fraction Gaussian elimination with row swaps,
_eliminate and is_psd against the Fraction elimination with diagonal
pivoting whose complements they keep times the last pivot, and
_interpolate against integer polynomials tabulated term by term.
Seeded or Hypothesis-drawn inputs and exact arithmetic only, so every
platform must agree."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmicert import pencil as pencil_module
from lmicert import rzcheck
from lmicert.pencil import (Membership, PsdReport, SymmetricMatrix,
                            _bareiss_det, _eliminate, _integer_rows,
                            _interpolate, _ldl, _triangle, is_psd)

F = Fraction


def upper_rows(full):
    n = len(full)
    return _triangle(n, [full[i][j] for i in range(n) for j in range(i, n)])


def full_rows(upper):
    n = len(upper)
    return [[upper[min(i, j)][abs(i - j)] for j in range(n)]
            for i in range(n)]


def gauss_det(full):
    """det by Fraction Gaussian elimination with row swaps."""
    m = [[F(v) for v in row] for row in full]
    n = len(m)
    det = F(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return F(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def symmetric_ints(rng, n, kind):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "sparse" and rng.random() < 0.7:
                continue
            rows[i][j] = rows[j][i] = rng.randint(-9, 9)
    if kind == "hollow":
        for i in range(n):
            rows[i][i] = 0
    elif kind == "zero head" and n:
        # a zero pivot with a later nonzero diagonal entry
        rows[0][0] = 0
    elif kind == "singular" and n:
        # rank below n: a Gram matrix of n - 1 integer vectors
        vs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        rows = [[sum(v[i] * v[j] for v in vs) for j in range(n)]
                for i in range(n)]
    elif kind == "zero row" and n:
        k = rng.randrange(n)
        for i in range(n):
            rows[k][i] = rows[i][k] = 0
    return rows


KINDS = ("dense", "sparse", "hollow", "zero head", "singular", "zero row")


@pytest.fixture
def repivots(monkeypatch):
    """Counts _repivot's branches: a swap when a later diagonal entry of
    the trailing block is nonzero, else a congruence when it succeeds."""
    counts = Counter()
    repivot = pencil_module._repivot

    def counting(rows, k):
        swap = any(row[0] for row in rows[k + 1:])
        done = repivot(rows, k)
        counts["swap" if swap else "congruence" if done else "zero"] += 1
        return done

    monkeypatch.setattr(pencil_module, "_repivot", counting)
    return counts


def test_bareiss_det_matches_gaussian_elimination(repivots):
    rng = random.Random(30)
    for n in range(10):
        for kind in KINDS:
            for _ in range(6):
                full = symmetric_ints(rng, n, kind)
                assert _bareiss_det(upper_rows(full)) == gauss_det(full), \
                    (kind, full)
    assert repivots["swap"] > 0
    assert repivots["congruence"] > 0
    assert repivots["zero"] > 0


def test_bareiss_det_of_hand_made_zero_pivots(repivots):
    # [[0, 2], [2, 0]]: no diagonal entry to swap in, so the congruence
    # e0 += e1 makes the pivot 4 and det = -4
    assert _bareiss_det([[0, 2], [0]]) == -4
    assert repivots == {"congruence": 1}
    # [[0, 1, 0], [1, 0, 0], [0, 0, 3]]: the 3 is swapped in first
    assert _bareiss_det([[0, 1, 0], [0, 0], [3]]) == -3
    assert repivots["swap"] == 1
    # a zero first row is det 0 at once
    assert _bareiss_det([[0, 0], [5]]) == 0
    assert _bareiss_det([]) == 1


def test_bareiss_det_of_bezout_matrices(monkeypatch):
    # every Bezout matrix SlopeCells._discriminant builds, read back
    # through the module it calls
    seen = []

    def capture(rows):
        full = full_rows(rows)
        det = _bareiss_det(rows)
        seen.append((full, det))
        return det

    monkeypatch.setattr(rzcheck, "_bareiss_det", capture)
    rng = random.Random(31)
    for d in range(1, 7):
        for _ in range(3):
            heads = [[rng.randint(-5, 5) for _ in range(k + 1)]
                     for k in range(d + 1)]
            heads[0][0] = rng.choice([-3, -1, 1, 2, 4])
            rzcheck.SlopeCells._discriminant(heads)
    assert len(seen) == sum(3 * (d * (d - 1) + 1) for d in range(1, 7))
    for full, det in seen:
        assert all(full[i][j] == full[j][i]
                   for i in range(len(full)) for j in range(i))
        assert det == gauss_det(full)


# -- _eliminate and is_psd against the Fraction elimination ----------------


def fraction_eliminate(mat):
    """Fraction symmetric elimination with diagonal pivoting: (verdict,
    steps (p, d, [(i, f)]) over every row left, stop (idx, complement,
    row))."""
    m = [list(row) for row in mat.entries]
    idx = list(range(mat.size))
    steps = []
    singular = False
    while m:
        live = []
        for i, row in enumerate(m):
            if row[i] < 0 or (not row[i] and any(row)):
                return Membership.OUTSIDE, steps, (idx, m, i)
            if row[i]:
                live.append(i)
        if len(live) < len(m):
            singular = True
            if not live:
                break
        p, rest = live[0], live[1:]
        d = m[p][p]
        mults, schur = [], []
        for i in rest:
            f = m[i][p] / d
            mults.append((idx[i], f))
            schur.append([m[i][j] - f * m[p][j] for j in rest])
        steps.append((idx[p], d, mults))
        m = schur
        idx = [idx[i] for i in rest]
    return (Membership.BOUNDARY if singular else Membership.INTERIOR,
            steps, None)


def fraction_report(mat):
    """The PsdReport of the Fraction elimination: squares (d, e_p + sum
    f e_i) per step, or the witness of the stop row lifted back."""
    n = mat.size
    verdict, steps, stop = fraction_eliminate(mat)
    if verdict is Membership.OUTSIDE:
        idx, s, a = stop
        w = [F(0)] * n
        if s[a][a] < 0:
            w[idx[a]] = F(1)
        else:
            b = next(b for b, v in enumerate(s[a]) if v)
            w[idx[a]] = s[b][b] / (2 * abs(s[a][b])) + 1
            w[idx[b]] = F(-1 if s[a][b] > 0 else 1)
        for p, _, mults in reversed(steps):
            w[p] = -sum((f * w[i] for i, f in mults), F(0))
        return PsdReport(False, False, witness=tuple(w))
    squares = []
    for p, d, mults in steps:
        v = [F(0)] * n
        v[p] = F(1)
        for i, f in mults:
            v[i] = f
        squares.append((d, tuple(v)))
    return PsdReport(True, len(steps) == n, squares=tuple(squares))


def rational_matrices(rng):
    def rat():
        return F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 6]))

    yield SymmetricMatrix([])
    for n in range(1, 8):
        for rank in range(n + 1):
            for _ in range(3):
                vs = [[rat() for _ in range(n)] for _ in range(rank)]
                yield SymmetricMatrix([[sum(v[i] * v[j] for v in vs)
                                        for j in range(n)] for i in range(n)])
        for _ in range(6):
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rat()
            yield SymmetricMatrix(rows)
        for _ in range(3):
            # a PSD matrix with zero rows spliced in, and an indefinite
            # one with a zero diagonal entry in a nonzero row
            vs = [[rat() for _ in range(n)] for _ in range(n)]
            zero = rng.randrange(n)
            rows = [[F(0) if zero in (i, j) else
                     sum(v[i] * v[j] for v in vs) for j in range(n)]
                    for i in range(n)]
            yield SymmetricMatrix(rows)
            if n > 1:
                rows[zero][zero] = F(0)
                rows[zero][(zero + 1) % n] = rows[(zero + 1) % n][zero] = 1
                yield SymmetricMatrix(rows)
        yield SymmetricMatrix.identity(n)
        yield SymmetricMatrix.zero(n)


def test_eliminate_keeps_the_fraction_elimination_times_its_last_pivot():
    kinds = Counter()
    for mat in rational_matrices(random.Random(32)):
        want_verdict, want_steps, want_stop = fraction_eliminate(mat)
        den, rows = _integer_rows(mat)
        verdict, steps, stop = _eliminate(rows)
        kinds[verdict] += 1
        assert verdict is want_verdict
        # the same pivots, pivot values and nonzero multipliers
        assert _ldl(steps, den) == [
            (p, d, [(i, f) for i, f in mults if f])
            for p, d, mults in want_steps]
        if want_stop is None:
            assert stop is None
            continue
        idx, s, a = stop
        want_idx, want_s, want_a = want_stop
        assert (idx, a) == (want_idx, want_a)
        scale = den * (steps[-1][1][0] if steps else 1)
        assert full_rows(s) == [[v * scale for v in row] for row in want_s]
    assert min(kinds.values()) >= 20 and len(kinds) == 3


def test_is_psd_reports_the_fraction_certificates():
    for mat in rational_matrices(random.Random(33)):
        assert is_psd(mat) == fraction_report(mat)


# -- _interpolate against tabulated integer polynomials --------------------


def simplex(s, m):
    return [a for a in product(range(s + 1), repeat=m) if sum(a) <= s]


def tabulate(terms, s, m):
    """{a: sum_e c_e a^e} at every lattice point of the simplex |a| <= s,
    in plain integer arithmetic."""
    table = {}
    for a in simplex(s, m):
        value = 0
        for e, c in terms.items():
            for x, k in zip(a, e):
                c *= x ** k
            value += c
        table[a] = value
    return table


@st.composite
def integer_polynomials(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    s = draw(st.integers(min_value=0, max_value=8))
    terms = draw(st.dictionaries(
        st.sampled_from(simplex(s, m)),
        st.integers(min_value=-10 ** 6, max_value=10 ** 6), max_size=12))
    return m, s, terms


@given(integer_polynomials())
@settings(max_examples=200, deadline=None)
def test_interpolate_recovers_integer_polynomials(drawn):
    m, s, terms = drawn
    want = {e: c for e, c in terms.items() if c}
    assert _interpolate(tabulate(terms, s, m), s, m) == want


@pytest.mark.parametrize("table,s,m", [
    # x (x - 1)/2: integer at every integer, coefficients -1/2 and 1/2
    ({a: a[0] * (a[0] - 1) // 2 for a in simplex(2, 1)}, 2, 1),
    # x1 x2 (x2 - 1)/2 in two variables
    ({a: a[0] * a[1] * (a[1] - 1) // 2 for a in simplex(3, 2)}, 3, 2),
])
def test_interpolate_refuses_non_integer_coefficients(table, s, m):
    with pytest.raises(AssertionError, match="non-integer coefficient"):
        _interpolate(table, s, m)
