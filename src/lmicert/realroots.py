"""Exact real-root counting and isolation for univariate rational polynomials.

Everything below runs on primitive integer polynomials, read off the
input with UnivariatePolynomial.primitive(): a positive multiple of it,
so every sign is kept.  A restriction from Polynomial.restrict carries
those integers from the start; any other input is scaled once.

  * Yun's square-free decomposition: gcds are primitive pseudo-remainder
    sequences and every quotient is an exact division in Z[x].
  * Sturm chains on the square-free factors, by pseudo-remainders with
    explicit sign correction, so coefficient growth stays bounded and no
    rounding ever occurs.  They count: sign variations at +-infinity are
    read off leading coefficients and parities; finite points p/q are
    evaluated by an integer Horner scheme on numerator and denominator.
  * One Descartes bisection (_descartes_pieces, Collins-Akritas 1976)
    locates roots, inside one bound: every real root of an integer
    polynomial lies strictly inside (-2^e, 2^e), e = power_of_two_bound.
    The bisection points 2^e j/2^k are reached on the integers (j, k).
    Isolation runs it on each square-free factor with no depth limit
    and refines each one-root piece by sign bisection on the same grid,
    so a dyadic root of denominator at most 1/resolution is returned
    exactly.  Asked only for the nearest root on each side of 0, as
    rzcheck.boundary_samples asks, isolation walks each half of the
    bound outwards from 0, stops at the first piece with a zero and
    never isolates the roots farther out; a factored input, or an
    interval that reaches an end of its piece, is isolated fully, since
    there the interval can depend on those roots.  ZeroCells runs the
    bisection with a depth limit and no gcd, and numbers the zero-free
    intervals; rzcheck.SlopeCells builds them for the plane line test's
    slope polynomial.  With the depth limit, a
    half of the bound that is to be split goes on from its inner piece
    inside a tighter bound on the same points (_clear_levels), so the
    empty outer shells cost one test a level, not a split and two.

Counting and isolation are independent engines, so each can check the
other.  Every counter and the isolation read one root analysis per
polynomial (_factor_chains, kept in its _roots slot), and the counters
go through one counter (_count) whose interval ends may be infinite.
The analysis builds the Sturm chain of f first: its last element is
gcd(f, f'), so a constant one proves f square-free and the chain is the
whole answer, one remainder sequence in all.  Only otherwise does Yun's
decomposition run, then one chain per factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from bisect import bisect_right
from math import gcd, ldexp
from typing import List, Optional, Sequence, Set, Tuple

from .errors import ZeroPolynomialError
from .poly import UnivariatePolynomial

# Integer polynomials are plain sequences of ints, lowest degree first,
# with a nonzero last entry (the zero polynomial is empty).

IntPoly = Sequence[int]


def _int_derivative(c: IntPoly) -> IntPoly:
    return [k * c[k] for k in range(1, len(c))]


def _int_primitive(c: IntPoly) -> IntPoly:
    content = gcd(*c)
    if content == 1:
        return list(c)
    return [v // content for v in c] if content else []


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _int_sign_at(c: IntPoly, p: int, q: int = 1) -> int:
    """Sign of the integer polynomial at the rational point p/q (q > 0),
    computed in integers: the sign of sum c_k p^k q^(n-k), by Horner."""
    if not c:
        return 0
    if not p:
        return _sign(c[0])
    total = c[-1]
    qk = 1
    for k in range(len(c) - 2, -1, -1):
        qk *= q
        total = total * p + c[k] * qk
    return _sign(total)


def _int_sub(a: IntPoly, b: IntPoly) -> IntPoly:
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
           for i in range(max(len(a), len(b)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def _int_exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """a / b for integer polynomials where b divides a in Z[x]; by Gauss's
    lemma that holds whenever a primitive b divides a over Q."""
    db = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        qi, rem = divmod(r[i + db], b[-1])
        if rem:
            raise ValueError("division is not exact")
        q[i] = qi
        if qi:
            for j in range(db):
                r[i + j] -= qi * b[j]
    if any(r[:db]):
        raise ValueError("division is not exact")
    return q


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


def _int_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient, by a primitive
    pseudo-remainder sequence."""
    while b:
        a, b = b, _int_primitive(_pseudo_rem(a, b))
    a = _int_primitive(a)
    return a if a[-1] > 0 else [-v for v in a]


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


def _variations_at(chain: Sequence[IntPoly], x: Optional[Tuple[int, int]],
                   side: int) -> int:
    """Sign variations of the chain at x = (p, q), the point p/q; x = None
    stands for side * infinity, where the signs are read off leading
    coefficients and degree parities."""
    if x is None:
        return _variations([_sign(c[-1]) * side ** (len(c) - 1)
                            for c in chain])
    return _variations([_int_sign_at(c, *x) for c in chain])


def _count(chain: Sequence[IntPoly], lo: Optional[Tuple[int, int]] = None,
           hi: Optional[Tuple[int, int]] = None) -> int:
    """Distinct roots in (lo, hi); a missing end is -inf or +inf.  Finite
    ends are (p, q) pairs for p/q and must not be roots."""
    return _variations_at(chain, lo, -1) - _variations_at(chain, hi, 1)


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
        low, high = self.low, self.high
        return Fraction(low.numerator * high.denominator
                        + high.numerator * low.denominator,
                        2 * low.denominator * high.denominator)


def square_free_decompose(
        f: UnivariatePolynomial) -> List[Tuple[UnivariatePolynomial, int]]:
    """Yun decomposition: pairwise-coprime monic square-free factors g_i
    with product of g_i^i equal to f up to a nonzero constant."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    if f.degree() == 0:
        return []
    fi = f.primitive()[0]
    fp = _int_derivative(fi)
    g = _int_gcd(fi, fp)
    out: List[Tuple[UnivariatePolynomial, int]] = []
    b = _int_exact_div(fi, g)
    d = _int_sub(_int_exact_div(fp, g), _int_derivative(b))
    i = 1
    while len(b) > 1:
        a = _int_gcd(b, d)
        if len(a) > 1:
            out.append((UnivariatePolynomial._from_primitive(
                tuple(a), 1, a[-1]), i))
        b = _int_exact_div(b, a)
        d = _int_sub(_int_exact_div(d, a), _int_derivative(b))
        i += 1
    return out


def _factor_chains(f: UnivariatePolynomial, verb: str
                   ) -> List[Tuple[IntPoly, List[IntPoly], int]]:
    """(g, Sturm chain of g, multiplicity) for each square-free factor g
    of f, as a primitive integer polynomial with positive leading
    coefficient; a square-free f is its own factor, with its chain.
    Computed on first use and kept in f's _roots slot."""
    if f.is_zero():
        raise ZeroPolynomialError(
            f"cannot {verb} roots of the zero polynomial")
    if f._roots is not None:
        return f._roots
    out = []
    if f.degree() > 0:
        fi = f.primitive()[0]
        if fi[-1] < 0:
            fi = [-v for v in fi]
        chain = _int_sturm_chain(fi)
        if len(chain[-1]) == 1:
            out.append((fi, chain, 1))
        else:
            for g, mult in square_free_decompose(f):
                gi = g.primitive()[0]
                out.append((gi, _int_sturm_chain(gi), mult))
    f._roots = out
    return out


def _tally(factors, lo: Optional[Tuple[int, int]] = None,
           hi: Optional[Tuple[int, int]] = None) -> Tuple[int, int]:
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
    lo, hi = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
    fi = f.primitive()[0]
    if _int_sign_at(fi, *lo) == 0 or _int_sign_at(fi, *hi) == 0:
        raise ValueError("interval endpoints must not be roots")
    return _tally(factors, lo, hi)


def side_counts(f: UnivariatePolynomial) -> Tuple[int, int]:
    """Roots with multiplicity on each side of 0: (negative, positive).
    Requires f(0) != 0."""
    factors = _factor_chains(f, "count")
    if f.primitive()[0][0] == 0:
        raise ValueError("f(0) = 0; side counts are undefined")
    zero = (0, 1)
    return _tally(factors, hi=zero)[1], _tally(factors, lo=zero)[1]


def _unit_scaled(c: IntPoly, e: int) -> IntPoly:
    """A positive multiple of c(2^e y): the real zeros of c inside
    (-2^e, 2^e) become its zeros inside (-1, 1)."""
    return _int_primitive([v << (e * k) for k, v in enumerate(c)])


class _Grid:
    """The bisection points 2^e j/2^k of one square-free factor g, where
    e = power_of_two_bound(g): every real root lies strictly inside
    (-2^e, 2^e), the interval (-1, 1) on level 0.  g is scaled once to
    a positive multiple of g(2^e y), so signs at the grid point
    2^e j/2^k are signs of the scaled g at j/2^k.  floats holds the
    scaled g over 2^b, b the bit length of its largest coefficient,
    highest degree first: every coefficient is at most 1 in size, so at
    |y| <= 1 no float overflows."""

    __slots__ = ("e", "g", "floats")

    def __init__(self, g: IntPoly, e: int):
        self.e = e
        self.g = _unit_scaled(g, e)
        top = 1 << max(abs(c).bit_length() for c in self.g)
        self.floats = [c / top for c in reversed(self.g)]

    def point(self, j: int, k: int) -> Fraction:
        return Fraction(j << self.e, 1 << k)

    def sign(self, j: int, k: int) -> int:
        return _int_sign_at(self.g, j, 1 << k)


def isolate_real_roots(f: UnivariatePolynomial,
                       resolution: Fraction = Fraction(1, 2 ** 20),
                       nearest: bool = False) -> List[RootInterval]:
    """Disjoint intervals, each of width <= resolution, each containing
    exactly one distinct real root of f, sorted ascending, with the
    root's multiplicity attached.

    Each square-free factor is isolated by the Descartes bisection
    (_descartes_pieces) with no depth limit, since a square-free factor
    always separates, and each one-zero piece is narrowed by _refine.  Every
    end is a point 2^e j/2^k of the factor's grid, so an interval is an
    aligned dyadic one, of power-of-two width: no grid point of a
    coarser level lies inside it.  So 0, on every grid, is inside no
    interval, and a root that is a dyadic rational with denominator at
    most 1/resolution comes back exact, as [r, r].

    With nearest, f(0) must not be 0, and only the intervals of the
    nearest root below 0 and the nearest above it come back, those of
    the full isolation.  On a square-free f the bisection goes from 0
    outwards on each side and stops at the piece that holds that root
    (_descartes_pieces with nearest), and only that piece is refined:
    roots farther out are never isolated.  The full isolation narrows
    an interval once more only where it touches another, which needs an
    end of its one-zero piece, so where a refined interval reaches one,
    and wherever f has a square factor, f is isolated fully and the two
    intervals are picked from the result.  Between factors the clash
    refinement shrinks one target shared by every clash, so there the
    nearest interval can depend on roots farther out."""
    factors = _factor_chains(f, "isolate")
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if not nearest:
        return _isolate(factors, resolution)
    if f.primitive()[0][0] == 0:
        raise ValueError("f(0) = 0; no root is nearest on either side")
    if len(factors) == 1 and factors[0][2] == 1:
        found = _isolate_factor(factors[0][0], 1, resolution, True)
        if found is not None:
            # at most one interval on each side of 0: the one below first
            found.sort(key=lambda t: t[0] >= 0)
            return [RootInterval(t[0], t[1], 1) for t in found]
    intervals = _isolate(factors, resolution)
    below = sum(1 for iv in intervals if iv.low < 0)
    return intervals[max(0, below - 1):below + 1]


def _isolate_factor(g: IntPoly, mult: int, resolution: Fraction,
                    nearest: bool = False) -> Optional[list]:
    """The intervals of the square-free factor g of multiplicity mult, as
    [low, high, grid, ja, jb, k, sign, mult]: low = 2^e ja/2^k and
    high = 2^e jb/2^k on g's grid, sign g's just right of low.  With
    nearest, those of the nearest root on each side of 0, or None when
    a refined interval reaches an end of its piece."""
    grid = _Grid(g, power_of_two_bound(g))
    leaves, zeros = _descartes_pieces(grid.g, nearest=nearest)
    found = []
    # the piece x in (i/2^k, (i+1)/2^k) of (0, 1) is y in
    # ((2i - 2^k)/2^k, (2i + 2 - 2^k)/2^k)
    for i, k in zeros:
        j = 2 * i - (1 << k)
        point = grid.point(j, k)
        found.append([point, point, grid, j, j, k, 0, mult])
    for i, k, bound, sign in leaves:
        if bound == 1:
            j = 2 * i - (1 << k)
            ja, jb, fine = _refine(grid, j, j + 2, k, resolution, sign)
            if nearest and k and (ja == j << (fine - k)
                                  or jb == (j + 2) << (fine - k)):
                return None
            found.append([grid.point(ja, fine), grid.point(jb, fine), grid,
                          ja, jb, fine, sign, mult])
    return found


def _isolate(factors, resolution: Fraction) -> List[RootInterval]:
    """isolate_real_roots of the factors _factor_chains found."""
    found = []
    for g, _, mult in factors:
        found += _isolate_factor(g, mult, resolution)
    # roots of coprime factors are distinct, but their isolating intervals
    # can still overlap; shrink until they are pairwise disjoint
    target = resolution
    while True:
        found.sort(key=lambda t: (t[0], t[1]))
        clash = None
        for i in range(len(found) - 1):
            if found[i][1] >= found[i + 1][0]:
                clash = i
                break
        if clash is None:
            break
        target = target / 4
        for i in (clash, clash + 1):
            _, _, grid, ja, jb, k, sign, mult = found[i]
            if ja != jb:
                ja, jb, k = _refine(grid, ja, jb, k, target, sign)
                found[i] = [grid.point(ja, k), grid.point(jb, k), grid,
                            ja, jb, k, sign, mult]
    return [RootInterval(t[0], t[1], t[7]) for t in found]


# the deepest level to which _refine bisects in floats: grid points
# j/2^k in (-1, 1) are doubles up to k = 53, and near a simple root the
# float sign of g is reliable only a few levels less deep
_FLOAT_LEVELS = 45


def _refine(grid: _Grid, ja: int, jb: int, k: int, resolution: Fraction,
            sign_a: int) -> Tuple[int, int, int]:
    """Shrink (ja, jb) on level k, known to hold exactly one simple root
    of g inside, by bisection: down to the first level K >= 1 on which
    2^e (jb - ja)/2^K <= resolution, or to a midpoint that is the root.
    Level 0's one piece (-1, 1) is split at 0 however wide the
    resolution, so every interval returned is an aligned dyadic one.
    sign_a is the sign of g just right of ja, the sign the bisection
    read off the piece; so an end that is a root of g, a midpoint of an
    earlier level, needs no buffer.  The width in grid steps stays
    jb - ja, so K is read off bit lengths once.

    The bisection runs in floats first (_float_bisect), to level
    min(K, _FLOAT_LEVELS).  Its interval is taken only when each of its
    ends is the end of (ja, jb) it started from or has the exact sign
    of g on that side of the root: sign_a at the left end, -sign_a at
    the right.  Then the one root lies strictly inside it, so on no
    midpoint of the levels before it, and exact bisection, which keeps
    the half that holds the root, would reach the same interval.
    Otherwise the exact bisection starts again from (ja, jb).  Floats
    only choose which path runs, never which interval is returned; the
    levels after the float ones are bisected exactly."""
    top = (jb - ja) * resolution.denominator << grid.e
    unit = resolution.numerator
    end = max(1, k, top.bit_length() - unit.bit_length())
    if unit << end < top:
        end += 1
    deep = min(end, _FLOAT_LEVELS)
    if deep > k:
        fa, fb, fk = _float_bisect(grid.floats, ja, jb, k, deep, sign_a)
        up = fk - k
        if ((fa == ja << up or grid.sign(fa, fk) == sign_a)
                and (fb == jb << up or grid.sign(fb, fk) == -sign_a)):
            ja, jb, k = fa, fb, fk
    while k < end:
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


def _float_bisect(floats: List[float], ja: int, jb: int, k: int, end: int,
                  sign_a: int) -> Tuple[int, int, int]:
    """_refine's bisection of (ja, jb) from level k to level end, with
    the sign of g at each midpoint j/2^k taken in floats (Horner on
    floats, highest degree first); a float zero counts as -sign_a."""
    while k < end:
        jm = ja + jb
        ja, jb, k = 2 * ja, 2 * jb, k + 1
        y = ldexp(jm, -k)
        value = 0.0
        for c in floats:
            value = value * y + c
        if (value > 0) - (value < 0) == sign_a:
            ja = jm
        else:
            jb = jm
    return ja, jb, k


# -- Descartes bisection ------------------------------------------------------


def power_of_two_bound(c: IntPoly) -> int:
    """An exponent e >= 1 such that every real root of the nonzero
    integer polynomial c lies strictly inside (-2^e, 2^e).

    Fujiwara's bound in powers of two, over the coefficients that can
    balance the leading term: a root x >= 2^e of c, with c_n > 0 say,
    has c_n x^n <= sum |c_(n-k)| x^(n-k) over the c_(n-k) < 0.  When each
    of those has |c_(n-k)| <= c_n 2^(k(e-1)), the right side is at most
    (1 - 2^-n) c_n x^n, so there is no such root; the same holds for
    c(-x).  Each exponent is read off bit lengths: |a| <= |l| 2^j for
    j = len(a) - len(l) + 1."""
    n = len(c) - 1
    lead = abs(c[-1]).bit_length()
    e = 1
    for k in range(1, n + 1):
        a = c[n - k]
        if a:
            j = abs(a).bit_length() - lead + 1
            # a opposes the lead at x > 0 when the signs differ, and at
            # x < 0 when they differ after (-1)^k; one of them when k
            # is odd
            if k % 2 or (a < 0) != (c[-1] < 0):
                e = max(e, 1 - (-j // k))
    return e


def _taylor_shift(c: IntPoly, a: int) -> List[int]:
    """The coefficients of c(x + a)."""
    out = list(c)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def _descartes_bound(q: IntPoly) -> int:
    """The sign variations of (x + 1)^n q(1 / (x + 1)), capped at 2: 0
    proves that q has no root in (0, 1) and 1 that it has one simple
    root there (Descartes' rule of signs).  The variations are read as
    the Taylor shift finishes each coefficient, lowest first, and the
    shift stops at the second."""
    out = list(q[::-1])
    while out and not out[-1]:
        out.pop()           # roots at 0 are not in (0, 1)
    n = len(out)
    variations = 0
    prev = 0
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            out[j] += out[j + 1]
        v = out[i]
        if v:
            if prev and (v > 0) != (prev > 0):
                variations += 1
                if variations == 2:
                    return 2
            prev = v
    return variations


def _clear_levels(t: IntPoly, most: int) -> int:
    """The largest m <= most, or 0, such that t(2^-m (x + 1)) has no
    sign variation and t(2^-m) != 0.  Then t has no zero in [2^-m, oo),
    and Descartes' bound is 0 on every piece (a, b) with 2^-m <= a,
    since t(2^-m + x) has coefficients of one sign and so has
    (x + 1)^n t((a + b x)/(x + 1)).  The test holds for every m up to
    some m*, since the sign variations of t(a + x) do not rise with a
    (Budan-Fourier), so m rises one level at a time until it fails:
    one Taylor shift a level, where peeling a shell costs a split and
    two Descartes tests."""
    n = len(t) - 1
    m = 0
    while m < most:
        scaled = [v << ((m + 1) * (n - k)) for k, v in enumerate(t)]
        if not sum(scaled) or _descartes_bound(scaled[::-1]):
            return m
        m += 1
    return m


def _descartes_pieces(s: IntPoly, deepest: Optional[int] = None,
                      nearest: bool = False
                      ) -> Tuple[List[Tuple[int, int, int, int]],
                                 Set[Tuple[int, int]]]:
    """Descartes bisection (Collins-Akritas 1976) of (-1, 1) for the
    real zeros of a nonzero integer polynomial s, all of which lie
    inside it (s = _unit_scaled(c, power_of_two_bound(c))).

    x in (0, 1) stands for y = 2x - 1, and the piece (i/2^k, (i+1)/2^k)
    of (0, 1) is mapped onto (0, 1), where its polynomial q is a
    positive multiple of s, so it has s's signs.  A piece with
    Descartes bound 0 has no zero and one with bound 1 one simple zero;
    one with a larger bound is split at its midpoint, unless it is on
    level deepest.  Returns the leaves as (i, k, bound, sign), sign
    being that of s just right of the piece's left end: of q's lowest
    nonzero coefficient, also where that end is a zero.  And the
    midpoints (i, k), i odd, where s vanishes: with every zero on a
    midpoint or inside a one-zero leaf, for want of a depth limit, these
    are all of s's real zeros.  No gcd is taken, so a multiple zero, or
    zeros closer than 2^-deepest, keep the bound at 2 or more at every
    width; the depth limit stops that bisection.

    The pieces are walked in order, each split's nearer half, then its
    midpoint, then its farther half.  Without nearest that is left to
    right, and the leaves come back in that order.  With nearest, for
    s(0) != 0 and no depth limit, the half (0, 1) is walked left to
    right and the half (-1, 0) right to left, each away from 0, and a
    half stops at its first one-zero leaf or zero midpoint: the one
    that holds its zero nearest 0.  Which pieces are split does not
    depend on the order of the walk, so that leaf is the full
    bisection's, and no zero farther out is located.

    With a depth limit, a half (0, 1) or (-1, 0) that is to be split
    is not peeled one empty outer shell at a time.  It goes on from its
    inner piece (0, 2^-m) or (-2^-m, 0), on level m + 1 <= deepest, m
    from _clear_levels, and the shells (2^-l, 2^(1-l)), l <= m, or
    their mirrors are zero-free leaves.  Descartes' bound of a piece is
    at most that of any piece around it, so where the plain bisection
    stops above level m + 1 these leaves only cut its leaf further, and
    below it both bisect alike: the zeros and the undecided pieces are
    the same.  Isolation bisects plainly: its factors are of low degree
    in practice, where a shell costs about what the test that skips it
    costs, and a one-zero leaf deeper than its refinement would narrow
    it to would change the interval returned."""
    n = len(s) - 1
    # q(x) = s(2x - 1): (0, 1) is (-1, 1)
    q = _taylor_shift(s, -1)
    q = [v << k for k, v in enumerate(q)]
    leaves = []
    zeros = set()
    shells = []
    # nearest: the halves, 0 for (-1, 0) and 1 for (0, 1), whose zero
    # nearest 0 is found; piece (i, k), k >= 1, is in half i >> (k - 1)
    done = set()
    # (q, i, k) for a piece, (None, i, k) for a zero midpoint
    stack = [(_int_primitive(q), 0, 0)]
    while stack:
        q, i, k = stack.pop()
        if done and i >> (k - 1) in done:
            continue
        if q is None:
            zeros.add((i, k))
            if nearest:
                done.add(i >> (k - 1))
            continue
        bound = _descartes_bound(q)
        if bound <= 1 or k == deepest:
            leaves.append((i, k, bound, _sign(next(v for v in q if v))))
            if nearest and bound and k:
                done.add(i >> (k - 1))
            continue
        if k == 1 and deepest is not None:
            # beyond 2^-m, t(y) = s(+-y) has the sign of its lead.  Shell
            # l is piece 2^l + 1 on level l + 1, its mirror 2^l - 2; the
            # left half comes off the stack first, the right one last
            t = s if i else [-v if j & 1 else v for j, v in enumerate(s)]
            m = _clear_levels(t, deepest - 1)
            if m:
                q = [v << (m * (n - j)) for j, v in enumerate(s)]
                sign = _sign(t[-1])
                if i:
                    # (0, 2^-m) is piece 2^m on level m + 1: s(2^-m x)
                    stack.append((_int_primitive(q), 1 << m, m + 1))
                    shells = [((1 << l) + 1, l + 1, 0, sign)
                              for l in range(m, 0, -1)]
                else:
                    # (-2^-m, 0) is piece 2^m - 1: s(2^-m (x - 1))
                    leaves += [((1 << l) - 2, l + 1, 0, sign)
                               for l in range(1, m + 1)]
                    stack.append((_int_primitive(_taylor_shift(q, -1)),
                                  (1 << m) - 1, m + 1))
                continue
        left = [v << (n - j) for j, v in enumerate(q)]   # 2^n q(x/2)
        right = _taylor_shift(left, 1)
        # popped last to first: the nearer half, the midpoint, the other
        split = [(_int_primitive(right), 2 * i + 1, k + 1),
                 (_int_primitive(left), 2 * i, k + 1)]
        if not right[0]:
            split.insert(1, (None, 2 * i + 1, k + 1))
        if nearest and k and not i >> (k - 1):
            split.reverse()
        stack += split
    return leaves + shells, zeros


# undecided pieces of the bisection are narrower than 2^-_CELL_WIDTH_EXP
_CELL_WIDTH_EXP = 12


class ZeroCells:
    """The real line cut at the real zeros of an integer polynomial c, as
    far as Descartes bisection decides them.

    With e = power_of_two_bound(c), _descartes_pieces bisects (-2^e, 2^e)
    until each piece has Descartes bound 0 or 1 or is narrower than
    2^-_CELL_WIDTH_EXP.  A piece still at bound 2 or more there is kept
    undecided: it may hold a multiple zero, or zeros closer than that.
    A midpoint where c vanishes is an exact zero.

    cell(a, b) numbers the open cells between the zeros from left to
    right: two points with the same number lie in one zero-free
    interval.  A point that is a zero, or lies in an undecided piece,
    gets None; an undecided piece may hide zeros, so the cells on its
    two sides get different numbers.  Every t with |t| >= 2^e is
    decided.
    """

    __slots__ = ("c", "exp", "depth", "ends", "end_cells", "pieces")

    def __init__(self, c: IntPoly):
        self.c = c
        e = self.exp = power_of_two_bound(c)
        leaves, zeros = _descartes_pieces(_unit_scaled(c, e),
                                          e + 1 + _CELL_WIDTH_EXP)
        # the leaves came off the stack left to right.  An end x = i/2^k
        # is kept as the integer (2i - 2^k) 2^(depth - k), which is
        # t 2^(depth - e) for t = 2^e (2x - 1).  A piece is a cell number
        # (no zero), (cell left of the zero, sign right of the piece's
        # left end) for one simple zero, or None (undecided).
        depth = self.depth = max(k for _, k, _, _ in leaves)
        self.ends = [-1 << depth]
        self.end_cells = [0]
        self.pieces = []
        cell = 0
        for i, k, bound, sign in leaves:
            if bound == 0:
                self.pieces.append(cell)
            else:
                self.pieces.append((cell, sign) if bound == 1 else None)
                cell += 1
            i += 1
            self.ends.append((2 * i - (1 << k)) << (depth - k))
            while k and not i & 1:
                i >>= 1
                k -= 1
            if (i, k) in zeros:
                self.end_cells.append(None)
                cell += 1
            else:
                self.end_cells.append(cell)

    def cell(self, a: int, b: int) -> Optional[int]:
        """The number of the zero-free cell that holds t = a/b, or None;
        None also for b = 0."""
        if b <= 0:
            return None if not b else self.cell(-a, -b)
        u, rest = divmod(a << self.depth, b << self.exp)
        ends = self.ends
        if u < ends[0]:
            return 0
        if u >= ends[-1]:
            return self.end_cells[-1]
        j = bisect_right(ends, u) - 1       # ends[j] <= u < ends[j + 1]
        if not rest and ends[j] == u:
            return self.end_cells[j]
        piece = self.pieces[j]
        if piece is None or type(piece) is int:
            return piece
        left, sign = piece
        s = _int_sign_at(self.c, a, b)
        if not s:
            return None
        return left if s == sign else left + 1
