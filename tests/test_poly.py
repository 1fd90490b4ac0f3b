"""Exact polynomial arithmetic, substitution, and text format."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmicert.errors import DimensionMismatch, ParseError
from lmicert.poly import (Polynomial, UnivariatePolynomial, as_point,
                          format_polynomial, format_rational,
                          parse_polynomial, parse_rational)

x1 = Polynomial.variable(1, 2)
x2 = Polynomial.variable(2, 2)
one = Polynomial.constant(1, 2)


def frac(a, b=1):
    return Fraction(a, b)


# === arithmetic and degree ===

def test_zero_degree_is_minus_infinity():
    z = Polynomial.zero(3)
    assert z.is_zero()
    assert z.degree() == float("-inf")


def test_constant_and_variable_degrees():
    assert Polynomial.constant(5, 2).degree() == 0
    assert x1.degree() == 1
    assert (x1 ** 3 * x2).degree() == 4


def test_product_expands():
    p = (one - x1) * (one + x1)
    assert p == one - x1 ** 2
    assert p.coefficient((1, 0)) == 0
    assert p.coefficient((2, 0)) == -1


def test_scalar_coercion_both_sides():
    assert 2 * x1 == x1 * 2
    assert (x1 + frac(1, 2)) - frac(1, 2) == x1
    assert (x1 * frac(3, 4)).coefficient((1, 0)) == frac(3, 4)


def test_mixed_dimension_rejected():
    y = Polynomial.variable(1, 3)
    with pytest.raises(DimensionMismatch):
        _ = x1 + y


def test_power():
    p = (x1 + x2) ** 3
    assert p.coefficient((2, 1)) == 3
    assert p.coefficient((3, 0)) == 1


def test_evaluate_rational_point():
    p = x1 ** 3 - 3 * x2 ** 2 * x1 - (x1 ** 2 + x2 ** 2) ** 2
    # hand arithmetic: (7/10)^3 - (7/10)^4 = 343/1000 - 2401/10000
    assert p.evaluate((frac(7, 10), 0)) == frac(1029, 10000)


def test_sorted_terms_graded_order():
    p = x2 ** 2 + x1 + one + x1 * x2
    expos = [e for e, _ in p.sorted_terms()]
    assert expos == [(0, 0), (1, 0), (0, 2), (1, 1)]


def test_constructor_rejects_malformed_terms():
    with pytest.raises(DimensionMismatch):
        Polynomial(0, {(): 1})
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})


def test_constructor_drops_terms_that_cancel():
    p = Polynomial(2, [((1, 0), 1), ((0, 1), 2), ((1, 0), -1)])
    assert p.terms == {(0, 1): frac(2)}


def test_index_and_power_checks():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(3, 2)
    with pytest.raises(DimensionMismatch):
        x1.partial_derivative(0)
    with pytest.raises(DimensionMismatch):
        x1.partial_derivative(3)
    with pytest.raises(ValueError):
        x1 ** -1


# === substitution ===

def test_shift_moves_base_point():
    p = one - x1 ** 2 - x2 ** 2
    q = p.shift((frac(1, 2), 0))
    assert q.evaluate((0, 0)) == p.evaluate((frac(1, 2), 0)) == frac(3, 4)
    assert q.evaluate((frac(1, 2), 0)) == p.evaluate((1, 0))


def test_restrict_is_line_substitution():
    p = one - x1 ** 2 - x2 ** 2
    f = p.restrict((0, 0), (1, 0))
    assert isinstance(f, UnivariatePolynomial)
    assert f.coeffs == (frac(1), frac(0), frac(-1))
    g = p.restrict((frac(1, 2), frac(1, 2)), (1, 2))
    for t in (0, 1, frac(-3, 7)):
        assert g.evaluate(frac(t)) == p.evaluate(
            (frac(1, 2) + t, frac(1, 2) + 2 * t))


def test_restrict_degree_drop():
    p = (one - x1) * (4 * one - x1 ** 2 - x2 ** 2)
    f = p.restrict((0, 0), (0, 1))
    assert f.degree() == 2
    assert f.coeffs == (frac(4), frac(0), frac(-1))


def test_partial_derivative():
    p = x1 ** 2 * x2 + 3 * x2
    assert p.partial_derivative(1) == 2 * x1 * x2
    assert p.partial_derivative(2) == x1 ** 2 + 3 * one


def test_point_and_direction_checks():
    with pytest.raises(DimensionMismatch):
        as_point((1, 2, 3), 2)
    with pytest.raises(DimensionMismatch):
        (x1 + x2).evaluate((1,))
    with pytest.raises(DimensionMismatch):
        (x1 + x2).restrict((0, 0), (0, 0))


# === univariate ===

def test_univariate_divmod_exact():
    f = UnivariatePolynomial([frac(-1), frac(0), frac(1)])   # t^2 - 1
    g = UnivariatePolynomial([frac(1), frac(1)])             # t + 1
    q, r = divmod(f, g)
    assert r.is_zero()
    assert q.coeffs == (frac(-1), frac(1))


def test_univariate_derivative_and_horner():
    f = UnivariatePolynomial([frac(2), frac(-3), frac(0), frac(5)])
    assert f.derivative().coeffs == (frac(-3), frac(0), frac(15))
    assert f.evaluate(frac(1, 2)) == 2 - frac(3, 2) + frac(5, 8)


# === text formats ===

def test_format_rational():
    assert format_rational(frac(3)) == "3"
    assert format_rational(frac(-1, 2)) == "-1/2"
    assert parse_rational("7/10") == frac(7, 10)
    assert parse_rational("0.7") == frac(7, 10)


def test_parse_rational_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse_rational("x", line=4)
    assert "line 4" in str(err.value)


def test_polynomial_round_trip():
    p = one - x1 ** 2 - x2 ** 2 + frac(7, 3) * x1 * x2
    assert parse_polynomial(format_polynomial(p)) == p


def test_parse_polynomial_sums_duplicates_and_skips_comments():
    text = "# a disc\nvars 2\n1 0 0\n-1 2 0   # x1^2\n-1 0 2\n-1 2 0\n"
    p = parse_polynomial(text)
    assert p.coefficient((2, 0)) == -2


def test_parse_polynomial_bad_header():
    with pytest.raises(ParseError) as err:
        parse_polynomial("degree 2\n1 0 0\n")
    assert "line 1" in str(err.value)


# === properties ===

point_st = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8))


@st.composite
def poly_st(draw):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    p = Polynomial.zero(2)
    for _ in range(n_terms):
        i = draw(st.integers(min_value=0, max_value=3))
        j = draw(st.integers(min_value=0, max_value=3))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        p = p + Polynomial.constant(c, 2) * x1 ** i * x2 ** j
    return p


@given(poly_st(), poly_st(), point_st)
@settings(max_examples=60, deadline=None)
def test_ring_operations_commute_with_evaluation(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (p - q).evaluate(pt) == p.evaluate(pt) - q.evaluate(pt)


@given(poly_st(), point_st, point_st)
@settings(max_examples=40, deadline=None)
def test_shift_composes_with_evaluation(p, a, b):
    shifted = p.shift(a)
    assert shifted.evaluate(b) == p.evaluate((a[0] + b[0], a[1] + b[1]))


@given(poly_st())
@settings(max_examples=40, deadline=None)
def test_format_parse_identity(p):
    assert parse_polynomial(format_polynomial(p)) == p


direction_st = point_st.filter(lambda v: v != (0, 0))


@given(poly_st(), point_st, direction_st)
@settings(max_examples=80, deadline=None)
def test_restrict_agrees_with_evaluation_on_the_line(p, x0, v):
    # a polynomial of degree <= d is fixed by its values at d + 1 points;
    # moving to a second base point and back shows that the forms p keeps
    # for its last base point are never read at another one
    other = (x0[0] + 1, x0[1] - Fraction(1, 2))
    for base in (x0, other, x0):
        f = p.restrict(base, v)
        if p.is_zero():
            assert f.is_zero()
            continue
        d = int(p.degree())
        assert f.degree() <= d
        for k in range(d + 1):
            t = Fraction(2 * k - d, k + 3)
            line = (base[0] + t * v[0], base[1] + t * v[1])
            assert f.evaluate(t) == p.evaluate(line)


def _term_by_term(p, x):
    """Oracle: sum of c * x^e over the terms, in Fraction."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        v = c
        for xi, e in zip(x, exps):
            v *= xi ** e
        total += v
    return total


wide_st = st.fractions(min_value=-2 ** 20, max_value=2 ** 20,
                       max_denominator=2 ** 60)
wide_point_st = st.tuples(wide_st, wide_st)


@st.composite
def wide_poly_st(draw):
    # up to degree 5 with denominators up to 2^60; zero terms give the
    # zero polynomial and only (0, 0) terms give a constant
    p = Polynomial.zero(2)
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        i = draw(st.integers(min_value=0, max_value=5))
        j = draw(st.integers(min_value=0, max_value=5 - i))
        p = p + Polynomial.constant(draw(wide_st), 2) * x1 ** i * x2 ** j
    return p


@given(st.one_of(wide_poly_st(), st.builds(lambda c: Polynomial.constant(c, 2),
                                           wide_st)),
       wide_point_st, st.one_of(st.none(), st.tuples(point_st, direction_st)))
@settings(max_examples=150, deadline=None)
def test_evaluate_agrees_with_term_by_term_sum(p, pt, line):
    # evaluate reads the form table at the last base point: the origin
    # when none is cached, else the base point of the last restrict
    if line is not None:
        p.restrict(*line)
    assert p.evaluate(pt) == _term_by_term(p, pt)
    # a second call reuses the table
    assert p.evaluate(pt) == _term_by_term(p, pt)


@st.composite
def three_var_poly_st(draw):
    p = Polynomial.zero(3)
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        exps = draw(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        p = p + Polynomial(3, {exps: c})
    return p


def _plane_and_space_cases():
    plane = st.tuples(st.one_of(poly_st(), wide_poly_st()),
                      st.one_of(point_st, wide_point_st))
    point3 = st.tuples(*[st.fractions(min_value=-4, max_value=4,
                                      max_denominator=8)] * 3)
    space = st.tuples(three_var_poly_st(), point3)
    return st.one_of(plane, space).filter(lambda c: not c[0].is_zero())


@given(_plane_and_space_cases())
@settings(max_examples=150, deadline=None)
def test_forms_off_the_origin_are_the_shift_over_one_denominator(case):
    # _build_forms shifts integer numerators; Polynomial.shift, in
    # Fraction arithmetic, is the reference: the same terms, over the
    # lcm of their denominators
    p, x0 = case
    x0 = tuple(Fraction(c) for c in x0)
    _, den, forms = p._build_forms(x0)
    shifted = p.shift(x0)
    terms = shifted.terms
    assert den == _lcm([c.denominator for c in terms.values()])
    assert len(forms) == int(p.degree()) + 1
    got = {}
    for k, form in enumerate(forms):
        for exps, c in form:
            assert sum(exps) == k and c != 0 and exps not in got
            got[exps] = Fraction(c, den)
    assert got == terms


def _lcm(values):
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


@pytest.mark.parametrize("p", [Polynomial.zero(2),
                               Polynomial.constant(frac(-7, 2 ** 60), 2)])
def test_evaluate_zero_and_constants_at_any_base_point(p):
    pt = (frac(3, 2 ** 60 - 1), frac(-5, 7))
    assert p.evaluate(pt) == _term_by_term(p, pt)
    p.restrict((frac(1, 3), frac(-2)), (1, 1))
    assert p.evaluate(pt) == _term_by_term(p, pt)


# === integer-first input and restriction ===

# ASCII digits, other Unicode digits (Arabic-Indic three, fullwidth one)
# and a superscript two, which is a digit to str.isdigit but not to int()
TOKEN_ALPHABET = "0123456789" + "٣１²" + "+-/_.e"


def _fraction_reading(token):
    """The reference reading of a token: Fraction(token), or the
    ParseError message parse_rational must give when Fraction fails."""
    try:
        return Fraction(token), None
    except (ValueError, ZeroDivisionError) as exc:
        return None, f"line 3: bad rational {token!r}: {exc}"


@given(st.one_of(st.text(TOKEN_ALPHABET, min_size=0, max_size=8),
                 st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,4})?", fullmatch=True)))
@settings(max_examples=400, deadline=None)
@example("1/0")
@example("-0004/0")
@example("0/0")
@example("-0/5")
@example("+1")
@example("-2/2")
@example("-1.0")
@example("-0004/4")
@example("1_000")       # Fraction reads it on Python >= 3.11 only
@example("٣/１")
@example("²")
@example("1/-2")
@example("")
def test_parse_rational_reads_tokens_as_fraction_does(token):
    value, message = _fraction_reading(token)
    if message is None:
        assert parse_rational(token, line=3) == value
    else:
        with pytest.raises(ParseError) as err:
            parse_rational(token, line=3)
        assert str(err.value) == message


def test_parse_polynomial_drops_cancelled_terms():
    p = parse_polynomial("vars 2\n1 0 0\n1/2 1 1\n-1 0 2\n-2/4 1 1\n")
    assert p == Polynomial(2, {(0, 0): 1, (0, 2): -1})
    assert (1, 1) not in p.terms
    assert p.degree() == 2


token_st = st.one_of(
    st.integers(min_value=-30, max_value=30).map(str),
    st.tuples(st.integers(min_value=-30, max_value=30),
              st.integers(min_value=1, max_value=12)).map(
        lambda nd: f"{nd[0]}/{nd[1]}"),
    st.sampled_from(["0", "-0", "+1", "0.5", "-1.25", "2e1", "-0004/4"]))


@st.composite
def poly_file_st(draw):
    """A polynomial file and its (coefficient token, exponents) lines;
    exponents come from a small set, so lines often repeat a term."""
    m = draw(st.integers(min_value=1, max_value=3))
    exps_st = st.tuples(*[st.integers(min_value=0, max_value=2)] * m)
    lines = draw(st.lists(st.tuples(token_st, exps_st), max_size=12))
    text = f"vars {m}\n" + "".join(
        f"{tok} {' '.join(map(str, exps))}\n" for tok, exps in lines)
    return m, lines, text


@given(poly_file_st())
@settings(max_examples=150, deadline=None)
def test_parse_polynomial_matches_validated_construction(case):
    m, lines, text = case
    terms = {}
    for tok, exps in lines:
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(tok)
    expected = Polynomial(m, terms)
    p = parse_polynomial(text)
    assert p == expected
    assert p.terms == expected.terms
    assert all(c != 0 for c in p.terms.values())
    assert hash(p) == hash(expected)


def _restriction_oracle(p, x0, v):
    """p(x0 + mu v) by substitution in p.shift(x0), in Fraction."""
    by_degree = {}
    for exps, c in p.shift(x0).terms.items():
        for vi, e in zip(v, exps):
            c *= Fraction(vi) ** e
        by_degree[sum(exps)] = by_degree.get(sum(exps), 0) + c
    out = [Fraction(by_degree.get(k, 0))
           for k in range(max(by_degree, default=-1) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@given(poly_st(), point_st, direction_st)
@settings(max_examples=120, deadline=None)
def test_restriction_matches_substitution_oracle(p, x0, v):
    expected = _restriction_oracle(p, x0, v)
    f = p.restrict(x0, v)
    ints, a, b = f.primitive()
    assert len(ints) == len(expected)
    assert f.degree() == (len(expected) - 1 if expected else float("-inf"))
    if ints:
        assert a > 0 and b > 0
        assert gcd(*ints) == 1
        assert f._coeffs is None        # not built before they are read
        # ints is a positive multiple of the oracle's coefficients
        assert all(Fraction(a, b) * c == e for c, e in zip(ints, expected))
    assert f.coeffs == expected
