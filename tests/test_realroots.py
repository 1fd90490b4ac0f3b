"""Sturm counting and root isolation against hand-checked and numpy oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmicert.errors import ZeroPolynomialError
from lmicert.poly import UnivariatePolynomial
from lmicert.realroots import (count_real_roots, count_roots_in_open_interval,
                               isolate_real_roots, side_counts,
                               square_free_decompose)


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
