"""Sturm counting and root isolation against hand-checked and numpy oracles."""

import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmicert import realroots, rzcheck
from lmicert.errors import ZeroPolynomialError
from lmicert.poly import UnivariatePolynomial, parse_polynomial
from lmicert.realroots import (_CELL_WIDTH_EXP, ZeroCells, count_real_roots,
                               count_roots_in_open_interval,
                               isolate_real_roots, power_of_two_bound,
                               side_counts, square_free_decompose)
from lmicert.rzcheck import boundary_samples

GOLDEN = Path(__file__).resolve().parent / "golden"


def poly(*coeffs):
    return UnivariatePolynomial([Fraction(c) for c in coeffs])


def from_roots(roots, mults=None):
    """Monic product of (t - r)^m over the given rational roots."""
    f = poly(1)
    mults = mults or [1] * len(roots)
    for r, m in zip(roots, mults):
        for _ in range(m):
            f = f * poly(-Fraction(r), 1)
    return f


# === counting ===

def test_no_real_roots():
    rc = count_real_roots(poly(1, 0, 1))     # t^2 + 1
    assert rc.distinct_real == 0
    assert rc.real_with_multiplicity == 0
    assert rc.total_degree == 2


def test_double_root_counted_with_multiplicity():
    f = from_roots([1, -2], mults=[2, 1])
    rc = count_real_roots(f)
    assert rc.distinct_real == 2
    assert rc.real_with_multiplicity == 3


def test_six_distinct_integer_roots():
    f = from_roots([1, 2, 3, 4, 5, 6])
    rc = count_real_roots(f)
    assert rc.distinct_real == rc.real_with_multiplicity == 6


def test_close_roots_distinguished():
    # 2^-40 apart: bisection with floats would conflate these
    eps = Fraction(1, 2 ** 40)
    f = from_roots([Fraction(1, 3), Fraction(1, 3) + eps])
    assert count_real_roots(f).distinct_real == 2


def test_open_interval_excludes_endpoint_neighbours():
    f = from_roots([0, 1, 2, 3])
    assert count_roots_in_open_interval(f, Fraction(1, 2), Fraction(5, 2)) == (2, 2)
    with pytest.raises(ValueError):
        count_roots_in_open_interval(f, 1, 2)


def test_open_interval_reversed_or_equal_ends_is_empty():
    # x^2 - 1 has both roots inside (-2, 2), and none in an empty interval
    f = from_roots([-1, 1])
    assert count_roots_in_open_interval(f, -2, 2) == (2, 2)
    assert count_roots_in_open_interval(f, 2, -2) == (0, 0)
    assert count_roots_in_open_interval(f, Fraction(1, 2), 0) == (0, 0)
    assert count_roots_in_open_interval(f, 2, 2) == (0, 0)
    # the endpoint check still comes first
    with pytest.raises(ValueError):
        count_roots_in_open_interval(f, 2, 1)


def test_side_counts_with_multiplicity():
    f = from_roots([-1, 2, 2])
    assert side_counts(f) == (1, 2)
    with pytest.raises(ValueError):
        side_counts(from_roots([0, 1]))


def test_zero_polynomial_rejected_everywhere():
    z = UnivariatePolynomial([])
    for fn in (count_real_roots, isolate_real_roots, side_counts):
        with pytest.raises(ZeroPolynomialError):
            fn(z)


# === square-free structure ===

def test_square_free_decompose_shape():
    f = from_roots([1, 1, -1, -1, -1, 5]) * poly(1, 0, 1)
    parts = square_free_decompose(f)
    by_mult = {m: g for g, m in parts}
    assert set(by_mult) == {1, 2, 3}
    assert by_mult[2] == poly(-1, 1)
    assert by_mult[3] == poly(1, 1)
    # multiplicity-1 part carries the complex pair and the simple root
    assert by_mult[1].degree() == 3


def test_square_free_decompose_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        square_free_decompose(UnivariatePolynomial(()))


# === isolation ===

def test_isolation_brackets_and_multiplicities():
    f = from_roots([Fraction(-3, 2), 0, 7], mults=[1, 2, 1])
    ivs = isolate_real_roots(f)
    assert [iv.multiplicity for iv in ivs] == [1, 2, 1]
    assert ivs[0].low <= Fraction(-3, 2) <= ivs[0].high
    assert ivs[1].low <= 0 <= ivs[1].high
    assert ivs[2].low <= 7 <= ivs[2].high
    for iv in ivs:
        assert iv.high - iv.low <= Fraction(1, 2 ** 20)


def test_isolation_intervals_disjoint_for_close_roots():
    eps = Fraction(1, 2 ** 30)
    f = from_roots([Fraction(1, 7), Fraction(1, 7) + eps])
    ivs = isolate_real_roots(f, resolution=Fraction(1, 2 ** 10))
    assert len(ivs) == 2
    assert ivs[0].high < ivs[1].low


def test_isolation_respects_resolution_argument():
    ivs = isolate_real_roots(poly(-2, 0, 1), resolution=Fraction(1, 2 ** 50))
    assert len(ivs) == 2
    for iv in ivs:
        assert iv.high - iv.low <= Fraction(1, 2 ** 50)


def test_isolation_rejects_a_zero_resolution():
    with pytest.raises(ValueError):
        isolate_real_roots(poly(-2, 0, 1), 0)


def test_isolation_of_rootless_polynomial():
    assert isolate_real_roots(poly(5, 0, 1)) == []


# === oracle cross-check: numpy companion matrix ===

def _numpy_real_roots(coeffs):
    """Distinct real roots of an integer-coefficient poly via numpy,
    clustering conjugate pairs at 1e-8."""
    arr = np.array([float(c) for c in reversed(coeffs)])
    roots = np.roots(arr)
    real = sorted(r.real for r in roots if abs(r.imag) < 1e-8)
    out = []
    for r in real:
        if not out or r - out[-1] > 1e-8:
            out.append(r)
    return out


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=7),
       st.data())
@settings(max_examples=80, deadline=None)
def test_counts_agree_with_numpy_on_square_free(coeffs, data):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return
    f = poly(*coeffs)
    parts = square_free_decompose(f)
    if not (len(parts) == 1 and parts[0][1] == 1):
        return      # numpy cannot be trusted near repeated roots
    expected = _numpy_real_roots(coeffs)
    rc = count_real_roots(f)
    assert rc.distinct_real == len(expected)
    ivs = isolate_real_roots(f)
    assert len(ivs) == len(expected)
    for iv, r in zip(ivs, expected):
        assert float(iv.low) - 1e-6 <= r <= float(iv.high) + 1e-6


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=1, max_size=5),
       st.fractions(min_value=-3, max_value=-1, max_denominator=4),
       st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=-6, max_value=5),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_constructed_roots_recovered_exactly(roots, lead, c, rootless, lo,
                                             width):
    # lead * (t^2 + c)^rootless * prod (t - r): a negative leading
    # coefficient and real-rootless factors change no count; distinct
    # roots and rootless <= 1 give a square-free f, anything else a
    # repeated factor
    f = from_roots(roots) * poly(lead)
    for _ in range(rootless):
        f = f * poly(c, 0, 1)
    distinct = sorted(set(roots))
    rc = count_real_roots(f)
    assert rc.distinct_real == len(distinct)
    assert rc.real_with_multiplicity == len(roots)
    ivs = isolate_real_roots(f)
    assert len(ivs) == len(distinct)
    for iv, r in zip(ivs, distinct):
        assert iv.low <= r <= iv.high
        assert iv.multiplicity == roots.count(r)
    if 0 not in roots:
        assert side_counts(f) == (sum(r < 0 for r in roots),
                                  sum(r > 0 for r in roots))
    # ends with denominator 5 are never roots (denominators above are <= 4)
    a, b = lo + Fraction(1, 5), lo + width + Fraction(1, 5)
    inside = [r for r in roots if a < r < b]
    assert count_roots_in_open_interval(f, a, b) == (len(set(inside)),
                                                     len(inside))


def test_seeded_random_batch_matches_numpy():
    rng = random.Random(31415)
    checked = 0
    for _ in range(120):
        deg = rng.randint(2, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        f = poly(*coeffs)
        parts = square_free_decompose(f)
        if not (len(parts) == 1 and parts[0][1] == 1):
            continue
        expected = _numpy_real_roots(coeffs)
        assert count_real_roots(f).distinct_real == len(expected)
        checked += 1
    assert checked > 100


# === oracle: Yun decomposition by its defining properties ===

def _gcd(a, b):
    """Monic gcd by the Euclidean algorithm over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


@given(st.lists(st.tuples(
           st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                    min_size=2, max_size=4),
           st.integers(min_value=1, max_value=3)),
       min_size=1, max_size=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
@settings(max_examples=80, deadline=None)
def test_square_free_decompose_properties(parts, scale):
    f = poly(scale or 1)
    for coeffs, mult in parts:
        if coeffs[-1] == 0:
            coeffs[-1] = Fraction(1)
        for _ in range(mult):
            f = f * poly(*coeffs)
    out = square_free_decompose(f)
    product = poly(1)
    for g, i in out:
        assert g.degree() >= 1 and g.leading() == 1
        assert _gcd(g, g.derivative()) == poly(1)
        for _ in range(i):
            product = product * g
    # f equals the product of g_i^i up to a nonzero constant
    assert f * product.leading() == product * f.leading()
    mults = [i for _, i in out]
    assert mults == sorted(set(mults))
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            assert _gcd(out[a][0], out[b][0]) == poly(1)


# === Descartes cells ===

def _int_coeffs(f):
    return list(f.primitive()[0])


def _cells_parts(cells):
    """(ends, end cells, pieces) of a ZeroCells, with the ends as
    Fractions t."""
    scale = Fraction(1 << cells.exp, 1 << cells.depth)
    return ([e * scale for e in cells.ends], cells.end_cells, cells.pieces)


# real roots: dyadic ones sit on bisection midpoints, others do not;
# repeated roots keep Descartes' bound at 2 or more at every width
_ROOTS = st.one_of(
    st.integers(min_value=-40, max_value=40).map(Fraction),
    st.builds(Fraction, st.integers(min_value=-40, max_value=40),
              st.sampled_from([2, 4, 8, 64])),
    st.fractions(min_value=-20, max_value=20, max_denominator=30))


@given(st.lists(st.tuples(_ROOTS, st.integers(min_value=1, max_value=3)),
                max_size=5),
       st.lists(st.integers(min_value=1, max_value=50), max_size=2),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=120, deadline=None)
def test_root_cells_isolate_every_real_root(roots, rootless, lead):
    f = poly(lead)
    for c in rootless:                      # t^2 + c has no real root
        f = f * poly(c, 0, 1)
    mults = {}
    for r, m in roots:
        mults[r] = mults.get(r, 0) + m
    f = f * from_roots(list(mults), list(mults.values()))
    c = _int_coeffs(f)
    bound = 1 << power_of_two_bound(c)
    assert all(-bound < r < bound for r in mults)
    cells = ZeroCells(c)
    ends, end_cells, pieces = _cells_parts(cells)
    assert ends == sorted(ends) and ends[0] == -bound == -ends[-1]
    for r in mults:
        assert cells.cell(r.numerator, r.denominator) is None
        j = next(j for j in range(len(ends) - 1) if ends[j] <= r < ends[j + 1])
        if ends[j] == r:
            assert end_cells[j] is None             # an exact zero
        else:
            assert type(pieces[j]) is not int       # an isolating piece

    def without(lo, hi):
        # f with the roots at lo and hi divided out: the same roots
        # inside (lo, hi), and neither end a root
        g = poly(1)
        for r, m in mults.items():
            if r not in (lo, hi):
                g = g * from_roots([r], [m])
        return g

    for j, piece in enumerate(pieces):
        lo, hi = ends[j], ends[j + 1]
        inside = [r for r in mults if lo < r < hi]
        if type(piece) is int:
            assert count_roots_in_open_interval(without(lo, hi), lo, hi) \
                == (0, 0)
        elif piece is not None:
            # one simple root, and its sign test splits the piece there
            assert len(inside) == 1 and mults[inside[0]] == 1
            left, _ = piece
            for t in (lo + (inside[0] - lo) / 3, hi - (hi - inside[0]) / 3):
                want = left if t < inside[0] else left + 1
                assert cells.cell(t.numerator, t.denominator) == want
        if end_cells[j + 1] is None:
            assert hi in mults


@given(st.lists(st.fractions(min_value=-30, max_value=30,
                             max_denominator=12), min_size=1, max_size=6,
                unique=True),
       st.lists(st.fractions(min_value=-40, max_value=40,
                             max_denominator=7), min_size=2, max_size=12))
@settings(max_examples=100, deadline=None)
def test_root_cells_number_the_gaps_between_simple_roots(roots, points):
    cells = ZeroCells(_int_coeffs(from_roots(roots)))
    for a in points:
        for b in points:
            ca = cells.cell(a.numerator, a.denominator)
            cb = cells.cell(b.numerator, b.denominator)
            if a in roots:
                assert ca is None
            elif ca is not None and ca == cb:
                assert not any(min(a, b) <= r <= max(a, b) for r in roots)
    # simple roots this far apart are all isolated, so every gap is
    # one cell and the numbers rise with t
    numbers = [cells.cell(t.numerator, t.denominator)
               for t in sorted(points) if t not in roots]
    assert None not in numbers and numbers == sorted(numbers)
    below = sorted(roots)[0] - 1
    assert cells.cell(below.numerator, below.denominator) == 0
    above = sorted(roots)[-1] + 1
    assert cells.cell(above.numerator, above.denominator) == len(roots)
    # t = a/b with b < 0 is the same point; b = 0 is no point
    for t in points:
        assert cells.cell(-t.numerator, -t.denominator) == \
            cells.cell(t.numerator, t.denominator)
        assert cells.cell(t.numerator, 0) is None


def test_root_cells_split_at_a_sixfold_zero_on_a_midpoint():
    # t^6 (t - 1/3)(t + 5): the zero at 0 is the first bisection point;
    # the sign just right of it comes from the piece's polynomial
    f = from_roots([0, Fraction(1, 3), -5], [6, 1, 1])
    cells = ZeroCells(_int_coeffs(f))
    at = [cells.cell(Fraction(t).numerator, Fraction(t).denominator)
          for t in (-6, -1, 0, Fraction(1, 10), Fraction(1, 3), 1)]
    assert at[2] is None and at[4] is None
    assert at[0] < at[1] < at[3] < at[5]


def test_root_cells_of_a_constant_are_one_cell():
    cells = ZeroCells([7])
    assert {cells.cell(t, 1) for t in (-100, 0, 3, 10 ** 6)} == {0}


def test_undecided_pieces_keep_the_bisection_finite():
    # (t^2 - 2)^2: two double irrational zeros, never on a midpoint
    c = _int_coeffs(poly(-2, 0, 1) * poly(-2, 0, 1))
    cells = ZeroCells(c)
    ends, _, pieces = _cells_parts(cells)
    undecided = [(ends[j], ends[j + 1]) for j, piece in enumerate(pieces)
                 if piece is None]
    assert undecided and all(hi - lo <= Fraction(1, 2 ** _CELL_WIDTH_EXP)
                             for lo, hi in undecided)
    # one piece holds sqrt(2), one -sqrt(2)
    assert any(0 < lo and lo * lo < 2 < hi * hi for lo, hi in undecided)
    assert any(hi < 0 and hi * hi < 2 < lo * lo for lo, hi in undecided)
    assert [cells.cell(a, b) for a, b in ((-3, 2), (-7, 5), (7, 5), (3, 2))] \
        == [0, 1, 1, 2]



# === the bisection's start inside a tighter bound ===

def _full_bisection(s, deepest=None, nearest=False):
    """Reference for realroots._descartes_pieces: the Descartes
    bisection of (-1, 1) from its one piece on level 0, every empty
    outer shell peeled one level at a time; the whole bisection only."""
    assert not nearest
    n = len(s) - 1
    q = realroots._taylor_shift(s, -1)
    stack = [([v << k for k, v in enumerate(q)], 0, 0)]
    leaves, zeros = [], set()
    while stack:
        q, i, k = stack.pop()
        bound = realroots._descartes_bound(q)
        if bound <= 1 or k == deepest:
            low = next(v for v in q if v)
            leaves.append((i, k, bound, 1 if low > 0 else -1))
            continue
        left = [v << (n - j) for j, v in enumerate(q)]
        right = realroots._taylor_shift(left, 1)
        if not right[0]:
            zeros.add((2 * i + 1, k + 1))
        stack += [(right, 2 * i + 1, k + 1), (left, 2 * i, k + 1)]
    return leaves, zeros


def _mirror(c):
    return [-v if k % 2 else v for k, v in enumerate(c)]


# integers and dyadic rationals (bisection midpoints), roots within
# 2^-20 of 0, roots at and next to powers of two (where the skipped
# shells end) and others
_START_ROOTS = st.one_of(
    st.builds(Fraction, st.integers(min_value=-64, max_value=64),
              st.sampled_from([1, 2, 8, 1024])),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.sampled_from([2 ** 20, 3 * 2 ** 20, 2 ** 24])),
    st.builds(lambda sign, j, eps: sign * Fraction(2) ** j * (1 + eps),
              st.sampled_from([-1, 1]), st.integers(min_value=-8, max_value=6),
              st.sampled_from([0, Fraction(1, 2 ** 10), -Fraction(1, 3)])),
    st.fractions(min_value=-50, max_value=50, max_denominator=30))


@given(st.lists(st.tuples(_START_ROOTS, st.integers(min_value=1, max_value=3)),
                max_size=4),
       st.lists(st.tuples(st.integers(min_value=-40, max_value=40),
                          st.sampled_from([1, 7, 2 ** 20, 2 ** 26])),
                max_size=2),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=80, deadline=None)
def test_root_cells_start_inside_a_tighter_bound(roots, pairs, lead):
    # L t^2 - 2 L a t + L a^2 + 1 has the nonreal zeros a +- i/sqrt(L),
    # which keep Descartes' bound up near t = a, at any distance from
    # the real zeros.  Isolation, which shares the bisection without a
    # depth limit, must not change either
    f = poly(lead)
    for a, big in pairs:
        f = f * poly(big * a * a + 1, -2 * big * a, big)
    mults = {}
    for r, m in roots:
        mults[r] = mults.get(r, 0) + m
    f = f * from_roots(list(mults), list(mults.values()))
    c = _int_coeffs(f)
    e = power_of_two_bound(c)
    # every real zero lies inside the tighter bound, and on neither end
    if len(c) > 1:
        s = realroots._unit_scaled(c, e)
        most = e + _CELL_WIDTH_EXP
        high = Fraction(2) ** (e - realroots._clear_levels(s, most))
        low = -Fraction(2) ** (e - realroots._clear_levels(_mirror(s), most))
        assert count_roots_in_open_interval(f, low, high)[0] == \
            count_real_roots(f).distinct_real
    points = [Fraction(n, 8) for n in range(-520, 521)]
    points += [Fraction(n, 2 ** 22) for n in range(-40, 41)]
    points += [r + d for r in mults for d in (0, Fraction(1, 2 ** 30),
                                              -Fraction(1, 2 ** 30))]
    got = []
    for bisection in (realroots._descartes_pieces, _full_bisection):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(realroots, "_descartes_pieces", bisection)
            cells = ZeroCells(c)
            got.append(([cells.cell(t.numerator, t.denominator)
                         for t in points],
                        [isolate_real_roots(poly(*f.coeffs), resolution)
                         for resolution in (Fraction(1), Fraction(1, 2 ** 20),
                                            Fraction(3, 2 ** 40))]
                        if len(c) > 1 else []))
    assert got[0] == got[1]


def test_root_cells_skip_the_empty_outer_shells(monkeypatch):
    # (t - 1/3)(t - 1/5)(t + 1/7)(t + 1/9)(t + 1/11)(t^2 + 10^4), of odd
    # degree: Fujiwara's bound is 2^5, and both halves go on from
    # (-1/4, 0) and (0, 1/2), the tightest pieces of the grid around the
    # real zeros; the shells outside are leaves
    f = from_roots([Fraction(1, 3), Fraction(1, 5), -Fraction(1, 7),
                    -Fraction(1, 9), -Fraction(1, 11)]) * poly(10 ** 4, 0, 1)
    c = _int_coeffs(f)
    e = power_of_two_bound(c)
    s = realroots._unit_scaled(c, e)
    assert e == 5
    assert realroots._clear_levels(s, 20) == e + 1
    assert realroots._clear_levels(_mirror(s), 20) == e + 2
    # every zero-free leaf, shells included, has the sign of s inside
    leaves, _ = realroots._descartes_pieces(s, 20)
    assert sum(1 for _, k, _, _ in leaves if k <= e + 2) >= 2 * e
    for i, k, bound, sign in leaves:
        if bound == 0:
            mid = Fraction(2 * i + 1 - (1 << k), 1 << k)
            assert realroots._int_sign_at(s, mid.numerator,
                                          mid.denominator) == sign
    tests = []
    bound = realroots._descartes_bound
    monkeypatch.setattr(realroots, "_descartes_bound",
                        lambda q: tests.append(q) or bound(q))
    skipped = ZeroCells(c)
    fewer = len(tests)
    monkeypatch.setattr(realroots, "_descartes_pieces", _full_bisection)
    tests.clear()
    full = ZeroCells(c)
    assert fewer < len(tests)
    assert [skipped.cell(n, 16) for n in range(-2 ** 13, 2 ** 13, 7)] == \
        [full.cell(n, 16) for n in range(-2 ** 13, 2 ** 13, 7)]


# === float-guided refinement ===

def _bisection_refine(grid, ja, jb, k, resolution, sign_a):
    """Reference for realroots._refine: exact bisection with an exact
    sign at every midpoint and the width tested on every level, from
    level 1 on."""
    while (k < 1 or (jb - ja) * resolution.denominator << grid.e
           > resolution.numerator << k):
        jm = ja + jb
        ja, jb, k = 2 * ja, 2 * jb, k + 1
        s = grid.sign(jm, k)
        if s == 0:
            return jm, jm, k
        if s == sign_a:
            ja = jm
        else:
            jb = jm
    return ja, jb, k


def _refine_inputs():
    huge = 2 ** 1101 + 3
    # coefficients above 2^1100, with roots 1/huge (next to 0), 1 and -2
    yield poly(-1, huge) * poly(-1, 1) * poly(2, 1)
    yield poly(-(2 ** 1100 + 1), 2 ** 1102 - 5) * poly(-2, 0, 1)
    # every root on a grid point: B = 4 and B = 8
    yield poly(-3, 2, 1)
    yield poly(6, -7, 0, 1)
    # roots 2^-30, 2^-40 and 2^-50 apart
    for e in (30, 40, 50):
        yield poly(-1, 1) * poly(-(2 ** e) - 1, 2 ** e) * poly(-2, 0, 1)
    rng = random.Random(5)
    for _ in range(12):
        yield UnivariatePolynomial([rng.randint(-9, 9)
                                    for _ in range(rng.randint(3, 8))]
                                   + [rng.choice([-3, -1, 1, 2])])


RESOLUTIONS = [Fraction(1), Fraction(1, 2 ** 20), Fraction(1, 2 ** 64)]


def _refine_cases():
    """(grid, ja, jb, k, sign_a) for every one-root piece of the
    Descartes bisection of every factor of the inputs, before any
    refinement."""
    for f in _refine_inputs():
        for g, _, _ in realroots._factor_chains(f, "isolate"):
            e = power_of_two_bound(g)
            grid = realroots._Grid(g, e)
            leaves, _ = realroots._descartes_pieces(grid.g)
            for i, k, bound, sign in leaves:
                if bound == 1:
                    ja = 2 * i - (1 << k)
                    yield grid, ja, ja + 2, k, sign


def test_float_guided_refine_matches_exact_bisection(monkeypatch):
    floated = []
    float_bisect = realroots._float_bisect

    def counted(*args):
        floated.append(float_bisect(*args))
        return floated[-1]

    monkeypatch.setattr(realroots, "_float_bisect", counted)
    cases = list(_refine_cases())
    assert len(cases) >= 40
    exact_points = taken = 0
    for grid, ja, jb, k, sign in cases:
        for resolution in RESOLUTIONS:
            floated.clear()
            got = realroots._refine(grid, ja, jb, k, resolution, sign)
            assert got == _bisection_refine(grid, ja, jb, k, resolution,
                                            sign)
            exact_points += got[0] == got[1]
            if floated and got[2] == floated[0][2]:
                taken += got == floated[0]
    # roots on grid points stop the bisection, and most float
    # bisections are taken as they are
    assert exact_points >= 3
    assert taken >= 20


@pytest.mark.parametrize("wrong", ["flipped", "neighbour"])
def test_refine_falls_back_when_the_floats_are_wrong(monkeypatch, wrong):
    float_bisect = realroots._float_bisect

    def misled(floats, ja, jb, k, end, sign_a):
        if wrong == "flipped":
            # every float sign reversed: a path that leaves the root
            return float_bisect([-c for c in floats], ja, jb, k, end,
                                sign_a)
        fa, fb, fk = float_bisect(floats, ja, jb, k, end, sign_a)
        return fb, 2 * fb - fa, fk

    monkeypatch.setattr(realroots, "_float_bisect", misled)
    for grid, ja, jb, k, sign in _refine_cases():
        for resolution in RESOLUTIONS:
            assert realroots._refine(grid, ja, jb, k, resolution, sign) == \
                _bisection_refine(grid, ja, jb, k, resolution, sign)


def test_isolation_with_float_guidance_matches_exact_bisection(monkeypatch):
    for resolution in RESOLUTIONS[1:]:
        got = [isolate_real_roots(f, resolution) for f in _refine_inputs()]
        monkeypatch.setattr(realroots, "_refine", _bisection_refine)
        assert got == [isolate_real_roots(f, resolution)
                       for f in _refine_inputs()]
        monkeypatch.undo()


# === exact dyadic roots ===

def _dyadic_root_inputs():
    """Seeded polynomials with dyadic rational roots of denominator at
    most 2^20 and multiplicity 1 or 2, a third of them times an
    irreducible quadratic (two irrational roots or none)."""
    rng = random.Random(2022)
    quadratics = [poly(-2, 0, 1), poly(-1, 1, 3), poly(1, 1, 1),
                  poly(-3, 0, 4)]
    for _ in range(200):
        roots = set()
        for _ in range(rng.randint(1, 4)):
            s = rng.randint(0, 20)
            roots.add(Fraction(rng.randint(-8 << s, 8 << s), 1 << s))
        roots = sorted(roots)
        f = from_roots(roots, [rng.choice([1, 2]) for _ in roots])
        if rng.random() < 1 / 3:
            f = f * rng.choice(quadratics)
        yield f, roots


def _check_isolation(f, resolution):
    intervals = isolate_real_roots(f, resolution)
    assert len(intervals) == count_real_roots(f).distinct_real
    for iv in intervals:
        assert iv.high - iv.low <= resolution
        if iv.low != iv.high:
            assert count_roots_in_open_interval(f, iv.low, iv.high) == \
                (1, iv.multiplicity)
    for a, b in zip(intervals, intervals[1:]):
        assert a.high < b.low
    return intervals


def test_dyadic_roots_come_back_exact():
    # every interval end lies on a power-of-two grid and every interval
    # is an aligned dyadic one narrower than the resolution, so no
    # dyadic root of denominator <= 1/resolution can lie inside one
    resolution = Fraction(1, 2 ** 20)
    for f, roots in _dyadic_root_inputs():
        intervals = _check_isolation(f, resolution)
        points = {iv.low for iv in intervals if iv.low == iv.high}
        assert set(roots) <= points, (f, roots)


@pytest.mark.parametrize("mult", [1, 2])
@pytest.mark.parametrize("close", [Fraction(1, 3 * 2 ** 40),
                                   Fraction(-1, 3 * 2 ** 40),
                                   Fraction(1, 2 ** 41)])
def test_dyadic_root_on_a_midpoint_next_to_a_close_root(mult, close):
    # 0 is the first bisection point of every grid, and a piece with an
    # end there holds a second root within 2^-40 of it
    f = from_roots([0, close, Fraction(1, 2), -3], [mult, 1, 1, 2])
    intervals = _check_isolation(f, Fraction(1, 2 ** 20))
    points = [iv.low for iv in intervals if iv.low == iv.high]
    assert {-3, 0, Fraction(1, 2)} <= set(points)
    near = [iv for iv in intervals if iv.low <= close <= iv.high]
    assert len(near) == 1 and near[0].multiplicity == 1
    assert [iv.multiplicity for iv in intervals if iv.low <= 0 <= iv.high] \
        == [mult]


@pytest.mark.parametrize("f, point", [
    (poly(0, 1), True), (poly(-1, 3), False),
    (poly(5, 0, 1) * poly(0, 1), True), (poly(2, -7), False)])
def test_dyadic_isolation_splits_the_whole_bound_at_zero(f, point):
    # one real root: the whole bound is one piece, which a resolution
    # wider than it would keep; it is split at 0 all the same
    (iv,) = isolate_real_roots(f, Fraction(2 ** 10))
    assert (iv.low == iv.high) == point
    assert iv.low >= 0 or iv.high <= 0


# === nearest roots on each side of 0 ===

def _nearest_of_full(f, resolution=Fraction(1, 2 ** 20)):
    """The nearest entries of the full isolation: the last interval
    below 0 and the first one above it."""
    intervals = isolate_real_roots(f, resolution)
    below = [iv for iv in intervals if iv.high <= 0]
    above = [iv for iv in intervals if iv.low >= 0]
    assert len(below) + len(above) == len(intervals)
    return below[-1:] + above[:1]


def _nearest_inputs():
    for f, _ in _dyadic_root_inputs():
        yield f
    yield from _refine_inputs()
    rng = random.Random(31)
    for _ in range(60):
        roots = [Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 6))]
        f = from_roots(roots) * poly(rng.randint(1, 5), 0, rng.choice([-1, 1]))
        yield f * poly(rng.randint(1, 9)) if rng.random() < 0.5 else f


def test_dyadic_nearest_mode_returns_the_nearest_entries_of_the_full_isolation():
    seen = 0
    for f in _nearest_inputs():
        if f.coeffs[0] == 0:
            continue
        seen += 1
        for resolution in (Fraction(1, 2 ** 20), Fraction(3, 2 ** 40)):
            assert isolate_real_roots(f, resolution, nearest=True) == \
                _nearest_of_full(f, resolution), f
    assert seen >= 200


@given(st.lists(st.tuples(_START_ROOTS, st.integers(min_value=1, max_value=2)),
                max_size=5),
       st.lists(st.tuples(st.integers(min_value=-40, max_value=40),
                          st.sampled_from([1, 7, 2 ** 20])),
                max_size=2),
       st.integers(min_value=-9, max_value=9).filter(bool))
@settings(max_examples=80, deadline=None)
def test_dyadic_nearest_mode_agrees_with_the_full_isolation(roots, pairs,
                                                            lead):
    # roots at and next to bisection midpoints and within 2^-20 of 0,
    # with nonreal pairs that keep Descartes' bound up near a
    f = poly(lead)
    for a, big in pairs:
        f = f * poly(big * a * a + 1, -2 * big * a, big)
    for r, m in roots:
        if r:
            f = f * from_roots([r], [m])
    assert isolate_real_roots(f, nearest=True) == _nearest_of_full(f)


def test_dyadic_nearest_roots_of_the_disc_on_its_axis_rays():
    # 1 - mu^2 along both axes: the roots +-1 are bisection midpoints,
    # where the walk stops with exact intervals
    disc = parse_polynomial((GOLDEN / "disc.poly").read_text())
    for v in ((1, 0), (0, 1)):
        f = disc.restrict((0, 0), v)
        got = isolate_real_roots(f, nearest=True)
        assert [(iv.low, iv.high) for iv in got] == [(-1, -1), (1, 1)]
        assert got == _nearest_of_full(f)


def test_dyadic_nearest_side_without_a_root():
    # roots 3 and 5 only above 0; (t^2 + 1) has none
    f = from_roots([3, 5]) * poly(1, 0, 1)
    (iv,) = isolate_real_roots(f, nearest=True)
    assert iv.low == iv.high == 3
    assert isolate_real_roots(from_roots([-7, Fraction(-1, 3)]),
                              nearest=True) == \
        _nearest_of_full(from_roots([-7, Fraction(-1, 3)]))
    assert isolate_real_roots(poly(1, 0, 1), nearest=True) == []
    assert isolate_real_roots(poly(4), nearest=True) == []


def test_dyadic_nearest_one_root_in_the_level_zero_piece():
    # 3t - 1: Descartes' bound of the whole bound is already 1, so the
    # level-0 piece is the one leaf, and _refine splits it at 0
    f = poly(-1, 3)
    g = realroots._factor_chains(f, "isolate")[0][0]
    s = realroots._unit_scaled(g, power_of_two_bound(g))
    leaves, zeros = realroots._descartes_pieces(s, nearest=True)
    assert [(k, bound) for _, k, bound, _ in leaves] == [(0, 1)] and not zeros
    (iv,) = isolate_real_roots(f, nearest=True)
    assert iv.low < Fraction(1, 3) < iv.high
    assert [iv] == _nearest_of_full(f)


def test_dyadic_nearest_falls_back_where_f_is_not_square_free(monkeypatch):
    f = from_roots([-2, 1, 3], [1, 2, 1]) * poly(1, 0, 1)
    calls = []
    isolate_factor = realroots._isolate_factor
    monkeypatch.setattr(realroots, "_isolate_factor",
                        lambda *args: calls.append(args[3:]) or
                        isolate_factor(*args))
    got = isolate_real_roots(f, nearest=True)
    assert got == _nearest_of_full(f)
    assert [iv.multiplicity for iv in got] == [1, 2]
    assert got[1].low == got[1].high == 1
    # no factor was isolated in the nearest mode
    assert calls and not any(calls)


def test_dyadic_nearest_falls_back_where_an_interval_touches_its_piece():
    # roots 1 -+ eps on either side of the bisection point 1: both
    # refined pieces end at 1, so the full isolation narrows them past
    # the resolution, and the nearest mode must return the same
    eps = Fraction(1, 3 * 2 ** 30)
    f = from_roots([1 - eps, 1 + eps, -5])
    g = realroots._factor_chains(f, "isolate")[0][0]
    assert realroots._isolate_factor(g, 1, Fraction(1, 2 ** 20), True) is None
    got = isolate_real_roots(f, nearest=True)
    assert got == _nearest_of_full(f)
    assert got[1].high - got[1].low < Fraction(1, 2 ** 22)


def test_dyadic_nearest_needs_a_nonzero_value_at_zero():
    with pytest.raises(ValueError):
        isolate_real_roots(from_roots([0, 1]), nearest=True)
    with pytest.raises(ValueError):
        isolate_real_roots(from_roots([0, 0, -1]), nearest=True)


def test_dyadic_nearest_refines_at_most_two_pieces_per_ray(monkeypatch):
    # the concentric quartic meets each line through the origin four
    # times; boundary isolates only the two crossings next to the
    # origin, where the full isolation refines all four off the axes
    p = parse_polynomial((GOLDEN / "concentric.poly").read_text())
    refined = []
    refine = realroots._refine
    monkeypatch.setattr(realroots, "_refine",
                        lambda *args: refined.append(1) or refine(*args))
    rays = 31
    data = boundary_samples(p, (0, 0), rays)
    assert len(data.samples) == 2 * rays
    assert 0 < len(refined) <= 2 * rays
    refined.clear()
    for j in range(rays):
        f = p.restrict((0, 0), rzcheck._square_ray(j, rays)[1])
        assert len(isolate_real_roots(f)) == 4
    assert len(refined) > 3 * rays
