"""Exact real-root counting and isolation for univariate rational polynomials.

Sturm chains are built on square-free parts only; multiplicities come from
a Yun decomposition.  The remainder sequence is computed on primitive
integer polynomials (pseudo-remainders with explicit sign correction), so
coefficient growth stays bounded and no rounding ever occurs.  Sign
variations at +-infinity are read off leading coefficients and parities;
nothing is evaluated at large arguments.

Every counter and the isolation go through one factor-chain loop
(_factor_chains: Yun decomposition, then one integer Sturm chain per
factor) and one counter (_count) whose interval ends may be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import ZeroPolynomialError
from .poly import UnivariatePolynomial

# Integer polynomials are plain lists of ints, lowest degree first, with a
# nonzero last entry (the zero polynomial is the empty list).

IntPoly = List[int]


def _to_int_poly(f: UnivariatePolynomial) -> IntPoly:
    """Scale a rational polynomial by a positive constant to a primitive
    integer polynomial.  The sign pattern is preserved exactly."""
    if f.is_zero():
        return []
    denom_lcm = 1
    for c in f.coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in f.coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    return [c // content for c in ints]


def _from_int_poly(c: IntPoly) -> UnivariatePolynomial:
    return UnivariatePolynomial([Fraction(v) for v in c])


def _int_derivative(c: IntPoly) -> IntPoly:
    return [k * c[k] for k in range(1, len(c))]


def _int_primitive(c: IntPoly) -> IntPoly:
    content = 0
    for v in c:
        content = gcd(content, v)
    return [v // content for v in c] if content else []


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _int_sign_at(c: IntPoly, x: Fraction) -> int:
    """Sign of the integer polynomial at a rational point, computed in
    integers: sum c_k p^k q^(n-k) for x = p/q."""
    if not c:
        return 0
    p, q = x.numerator, x.denominator
    n = len(c) - 1
    total = 0
    pk = 1
    for k, ck in enumerate(c):
        total += ck * pk * q ** (n - k)
        pk *= p
    return _sign(total)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """prem(a, b): remainder of lc(b)^(deg a - deg b + 1) * a by b,
    computed fraction-free."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    e = da - db + 1
    while r and len(r) - 1 >= db:
        lr = r[-1]
        s = len(r) - 1 - db
        r = [lb * v for v in r]
        for j, bj in enumerate(b):
            r[s + j] -= lr * bj
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0 and r:
        f = lb ** e
        r = [f * v for v in r]
    return r


def _int_sturm_chain(g: IntPoly) -> List[IntPoly]:
    """Sturm chain of a square-free primitive integer polynomial.

    Each element is a positive-constant multiple of the textbook chain
    entry: pseudo-remainders scale by lc^(delta+1), which flips the sign
    exactly when lc < 0 and delta+1 is odd, so the negation is conditional.
    """
    chain = [g]
    if len(g) <= 1:
        return chain
    chain.append(_int_primitive(_int_derivative(g)))
    while len(chain[-1]) > 1:
        prev, cur = chain[-2], chain[-1]
        rem = _pseudo_rem(prev, cur)
        if not rem:
            break
        delta = (len(prev) - 1) - (len(cur) - 1)
        lb = cur[-1]
        if lb > 0 or (delta + 1) % 2 == 0:
            rem = [-v for v in rem]
        chain.append(_int_primitive(rem))
    return chain


def _variations(signs: Sequence[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def _signs(chain: Sequence[IntPoly], x: Optional[Fraction],
           side: int) -> List[int]:
    """Chain signs at x; x = None stands for side * infinity, where the
    signs are read off leading coefficients and degree parities."""
    if x is None:
        return [_sign(c[-1]) * side ** (len(c) - 1) for c in chain]
    return [_int_sign_at(c, x) for c in chain]


def _count(chain: Sequence[IntPoly], lo: Optional[Fraction] = None,
           hi: Optional[Fraction] = None) -> int:
    """Distinct roots in (lo, hi); a missing end is -inf or +inf.  Finite
    ends must not be roots."""
    return (_variations(_signs(chain, lo, -1))
            - _variations(_signs(chain, hi, 1)))


def _cauchy_bound(c: IntPoly) -> Fraction:
    """All real roots lie strictly inside (-M, M)."""
    lead = abs(c[-1])
    top = max((abs(v) for v in c[:-1]), default=0)
    return Fraction(1) + Fraction(top, lead)


# -- public API ---------------------------------------------------------------


@dataclass(frozen=True)
class RootCount:
    distinct_real: int
    real_with_multiplicity: int
    total_degree: int


@dataclass(frozen=True)
class RootInterval:
    """One isolated real root: low <= root <= high; low == high marks an
    exactly known rational root."""
    low: Fraction
    high: Fraction
    multiplicity: int

    def midpoint(self) -> Fraction:
        return (self.low + self.high) / 2


def square_free_decompose(
        f: UnivariatePolynomial) -> List[Tuple[UnivariatePolynomial, int]]:
    """Yun decomposition: pairwise-coprime monic square-free factors g_i
    with product of g_i^i equal to f up to a nonzero constant."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    if f.degree() == 0:
        return []
    fp = f.derivative()
    g = _gcd_monic(f, fp)
    out: List[Tuple[UnivariatePolynomial, int]] = []
    b = f.exact_div(g)
    c = fp.exact_div(g)
    d = c - b.derivative()
    i = 1
    while b.degree() > 0:
        a = _gcd_monic(b, d)
        if a.degree() > 0:
            out.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        i += 1
    return out


def _gcd_monic(a: UnivariatePolynomial,
               b: UnivariatePolynomial) -> UnivariatePolynomial:
    while not b.is_zero():
        a, b = b, (a % b)
        if not a.is_zero():
            a = a.monic()
    if a.is_zero():
        raise ZeroPolynomialError("gcd of two zero polynomials")
    return a.monic()


def sturm_chain(f: UnivariatePolynomial) -> List[UnivariatePolynomial]:
    """Sturm chain of a square-free polynomial.  The last element is a
    nonzero constant; anything else means the input was not square-free."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot build a Sturm chain for zero")
    chain = _int_sturm_chain(_to_int_poly(f))
    if len(chain[-1]) > 1:
        raise ValueError("input is not square-free; decompose it first")
    return [_from_int_poly(c) for c in chain]


def _factor_chains(f: UnivariatePolynomial, verb: str
                   ) -> List[Tuple[IntPoly, List[IntPoly], int]]:
    """(g, Sturm chain of g, multiplicity) for each square-free factor g
    of f, as a primitive integer polynomial."""
    if f.is_zero():
        raise ZeroPolynomialError(
            f"cannot {verb} roots of the zero polynomial")
    out = []
    for g, mult in square_free_decompose(f):
        gi = _to_int_poly(g)
        out.append((gi, _int_sturm_chain(gi), mult))
    return out


def _tally(factors, lo: Optional[Fraction] = None,
           hi: Optional[Fraction] = None) -> Tuple[int, int]:
    """(distinct, with multiplicity) count of roots in (lo, hi)."""
    distinct = 0
    with_mult = 0
    for _, chain, mult in factors:
        n = _count(chain, lo, hi)
        distinct += n
        with_mult += mult * n
    return distinct, with_mult


def count_real_roots(f: UnivariatePolynomial) -> RootCount:
    """Exact count of real roots, distinct and with multiplicity."""
    distinct, with_mult = _tally(_factor_chains(f, "count"))
    return RootCount(distinct, with_mult, int(f.degree()))


def count_roots_in_open_interval(f: UnivariatePolynomial,
                                 lo: Fraction, hi: Fraction) -> Tuple[int, int]:
    """(distinct, with multiplicity) count of roots in the open interval
    (lo, hi).  The endpoints must not be roots of f."""
    factors = _factor_chains(f, "count")
    lo, hi = Fraction(lo), Fraction(hi)
    if f.evaluate(lo) == 0 or f.evaluate(hi) == 0:
        raise ValueError("interval endpoints must not be roots")
    return _tally(factors, lo, hi)


def side_counts(f: UnivariatePolynomial) -> Tuple[int, int]:
    """Roots with multiplicity on each side of 0: (negative, positive).
    Requires f(0) != 0."""
    factors = _factor_chains(f, "count")
    if f.evaluate(0) == 0:
        raise ValueError("f(0) = 0; side counts are undefined")
    zero = Fraction(0)
    return _tally(factors, hi=zero)[1], _tally(factors, lo=zero)[1]


def isolate_real_roots(f: UnivariatePolynomial,
                       resolution: Fraction = Fraction(1, 2 ** 20)
                       ) -> List[RootInterval]:
    """Disjoint intervals, each of width <= resolution, each containing
    exactly one distinct real root of f, sorted ascending, with the
    root's multiplicity attached."""
    factors = _factor_chains(f, "isolate")
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    found: List[Tuple[IntPoly, List[IntPoly], Fraction, Fraction, int]] = []
    for gi, chain, mult in factors:
        for lo, hi in _isolate_factor(gi, chain, resolution):
            found.append((gi, chain, lo, hi, mult))
    # roots of coprime factors are distinct, but their isolating intervals
    # can still overlap; shrink until they are pairwise disjoint
    target = resolution
    while True:
        found.sort(key=lambda t: (t[2], t[3]))
        clash = None
        for i in range(len(found) - 1):
            if found[i][3] >= found[i + 1][2]:
                clash = i
                break
        if clash is None:
            break
        target = target / 4
        for i in (clash, clash + 1):
            gi, chain, lo, hi, mult = found[i]
            if lo != hi:
                lo, hi = _refine(gi, lo, hi, target)
                found[i] = (gi, chain, lo, hi, mult)
    return [RootInterval(lo, hi, mult) for (_, _, lo, hi, mult) in found]


def _isolate_factor(g: IntPoly, chain: List[IntPoly],
                    resolution: Fraction) -> List[Tuple[Fraction, Fraction]]:
    bound = _cauchy_bound(g)
    out: List[Tuple[Fraction, Fraction]] = []
    total = _count(chain, -bound, bound)
    stack = [(-bound, bound, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append(_refine(g, a, b, resolution))
            continue
        mid = (a + b) / 2
        if _int_sign_at(g, mid) == 0:
            # exact root at the cut point; carve out a buffer around it
            delta = (b - a) / 4
            while True:
                lo2, hi2 = mid - delta, mid + delta
                if (_int_sign_at(g, lo2) != 0 and _int_sign_at(g, hi2) != 0
                        and _count(chain, lo2, hi2) == 1):
                    break
                delta = delta / 2
            out.append((mid, mid))
            stack.append((a, lo2, _count(chain, a, lo2)))
            stack.append((hi2, b, _count(chain, hi2, b)))
        else:
            left = _count(chain, a, mid)
            stack.append((a, mid, left))
            stack.append((mid, b, n - left))
    return out


def _refine(g: IntPoly, a: Fraction, b: Fraction,
            resolution: Fraction) -> Tuple[Fraction, Fraction]:
    """Shrink an interval known to contain exactly one simple root; the
    endpoints are non-roots, so the sign change tracks the root."""
    sign_a = _int_sign_at(g, a)
    while b - a > resolution:
        mid = (a + b) / 2
        s = _int_sign_at(g, mid)
        if s == 0:
            return mid, mid
        if s == sign_a:
            a = mid
        else:
            b = mid
    return a, b
