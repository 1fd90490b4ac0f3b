"""Exact real-root counting and isolation for univariate rational polynomials.

Everything below runs on primitive integer polynomials, read off the
input with UnivariatePolynomial.primitive(): a positive multiple of it,
so every sign is kept.  A restriction from Polynomial.restrict carries
those integers from the start; any other input is scaled once.

  * Yun's square-free decomposition: gcds are primitive pseudo-remainder
    sequences and every quotient is an exact division in Z[x].
  * Sturm chains on the square-free factors, by pseudo-remainders with
    explicit sign correction, so coefficient growth stays bounded and no
    rounding ever occurs.  Sign variations at +-infinity are read off
    leading coefficients and parities; finite points p/q are evaluated
    by an integer Horner scheme on numerator and denominator.
  * Dyadic isolation: every bisection point of a factor with Cauchy
    bound B = m/l is B*j/2^k, so the factor and its chain are scaled
    once to l^n c(m y / l) and bisected on the integers (j, k).  Ends
    become Fractions only when they are returned.
  * Descartes cells (RootCells): the zero-free intervals of an integer
    polynomial, by Descartes bisection inside a power-of-two bound on
    its real roots, with no gcd taken; the plane line test reads them
    as its slope cells.

Every counter and the isolation read one root analysis per polynomial
(_factor_chains, kept in its _roots slot) and go through one counter
(_count) whose interval ends may be infinite.  The analysis builds the
Sturm chain of f first: its last element is gcd(f, f'), so a constant
one proves f square-free and the chain is the whole answer, one
remainder sequence in all.  Only otherwise does Yun's decomposition
run, then one chain per factor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, ldexp
from typing import List, Optional, Sequence, Tuple

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
        return (self.low + self.high) / 2


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


class _Grid:
    """The bisection points B*j/2^k of one square-free factor g, where
    B = m/l is its Cauchy bound: every real root lies strictly inside
    (-B, B).  g and its Sturm chain are scaled once to l^n c(m y / l),
    a positive multiple of c at x = B*y, so signs at the grid point
    B*j/2^k are signs of the scaled polynomials at j/2^k.  floats holds
    the scaled g over 2^b, b the bit length of its largest coefficient,
    highest degree first: every coefficient is at most 1 in size, so at
    |y| <= 1 no float overflows."""

    __slots__ = ("m", "l", "g", "chain", "floats")

    def __init__(self, g: IntPoly, chain: List[IntPoly]):
        lead = abs(g[-1])
        bound = Fraction(lead + max((abs(v) for v in g[:-1]), default=0),
                         lead)
        self.m, self.l = bound.numerator, bound.denominator
        self.g = self._scaled(g)
        self.chain = [self._scaled(c) for c in chain]
        top = 1 << max(abs(c).bit_length() for c in self.g)
        self.floats = [c / top for c in reversed(self.g)]

    def _scaled(self, c: IntPoly) -> IntPoly:
        n = len(c) - 1
        mk = 1
        out = []
        for k, ck in enumerate(c):
            out.append(ck * mk * self.l ** (n - k))
            mk *= self.m
        return _int_primitive(out)

    def point(self, j: int, k: int) -> Fraction:
        return Fraction(self.m * j, self.l << k)

    def sign(self, j: int, k: int) -> int:
        return _int_sign_at(self.g, j, 1 << k)

    def variations(self, j: int, k: int) -> int:
        return _variations_at(self.chain, (j, 1 << k), 1)


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
    # [low, high, grid, ja, jb, k, multiplicity]: low = B*ja/2^k and
    # high = B*jb/2^k on the factor's grid
    found = []
    for gi, chain, mult in factors:
        grid = _Grid(gi, chain)
        for ja, jb, k in _isolate_factor(grid, resolution):
            found.append([grid.point(ja, k), grid.point(jb, k), grid,
                          ja, jb, k, mult])
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
            _, _, grid, ja, jb, k, mult = found[i]
            if ja != jb:
                ja, jb, k = _refine(grid, ja, jb, k, target)
                found[i] = [grid.point(ja, k), grid.point(jb, k), grid,
                            ja, jb, k, mult]
    return [RootInterval(t[0], t[1], t[6]) for t in found]


def _isolate_factor(grid: _Grid, resolution: Fraction
                    ) -> List[Tuple[int, int, int]]:
    """Isolating intervals (ja, jb, k) of the factor's roots, by Sturm
    bisection of (-B, B).  A stack entry carries its interval, its root
    count and the chain's sign variations at its left end."""
    out: List[Tuple[int, int, int]] = []
    var_lo = grid.variations(-1, 0)
    stack = [(-1, 1, 0, var_lo - grid.variations(1, 0), var_lo)]
    while stack:
        ja, jb, k, n, var_a = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append(_refine(grid, ja, jb, k, resolution))
            continue
        jm = ja + jb            # the midpoint, on level k + 1
        if grid.sign(jm, k + 1) == 0:
            # exact root at the cut point; carve out a buffer around it:
            # mid -+ delta with delta = (b - a)/4, then halved, on level lv
            lv, mid, delta = k + 2, 2 * jm, jb - ja
            while True:
                lo2, hi2 = mid - delta, mid + delta
                if grid.sign(lo2, lv) != 0 and grid.sign(hi2, lv) != 0:
                    var_lo2 = grid.variations(lo2, lv)
                    var_hi2 = grid.variations(hi2, lv)
                    if var_lo2 - var_hi2 == 1:
                        break
                lv += 1
                mid *= 2
            out.append((jm, jm, k + 1))
            up = lv - k
            stack.append((ja << up, lo2, lv, var_a - var_lo2, var_a))
            stack.append((hi2, jb << up, lv, var_hi2 - (var_a - n), var_hi2))
        else:
            var_m = grid.variations(jm, k + 1)
            left = var_a - var_m
            stack.append((2 * ja, jm, k + 1, left, var_a))
            stack.append((jm, 2 * jb, k + 1, n - left, var_m))
    return out


# the deepest level to which _refine bisects in floats: grid points
# j/2^k in (-1, 1) are doubles up to k = 53, and near a simple root the
# float sign of g is reliable only a few levels less deep
_FLOAT_LEVELS = 45


def _refine(grid: _Grid, ja: int, jb: int, k: int,
            resolution: Fraction) -> Tuple[int, int, int]:
    """Shrink (ja, jb) on level k, known to hold exactly one simple root
    and no root at its ends, by bisection: down to the first level K on
    which B*(jb - ja)/2^K <= resolution, or to a midpoint that is the
    root.  The width in grid steps stays jb - ja, so K is read off bit
    lengths once.

    The bisection runs in floats first (_float_bisect), to level
    min(K, _FLOAT_LEVELS).  Its interval is taken only when g has the
    exact sign sign_a at its left end and -sign_a at its right end.
    Then the one root lies strictly inside it, so on no midpoint of
    the levels before it, and exact bisection, which keeps the half
    that holds the root, would reach the same interval.  Otherwise
    the exact bisection starts again from (ja, jb).  Floats only choose
    which path runs, never which interval is returned; the levels
    after the float ones are bisected exactly."""
    sign_a = grid.sign(ja, k)
    top = grid.m * (jb - ja) * resolution.denominator
    unit = grid.l * resolution.numerator
    end = max(k, top.bit_length() - unit.bit_length())
    if unit << end < top:
        end += 1
    deep = min(end, _FLOAT_LEVELS)
    if deep > k:
        fa, fb, fk = _float_bisect(grid.floats, ja, jb, k, deep, sign_a)
        if grid.sign(fa, fk) == sign_a and grid.sign(fb, fk) == -sign_a:
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


# -- cells of the real line by Descartes bisection ----------------------------


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


class RootCells:
    """The real line cut at the real zeros of a nonzero integer
    polynomial c, as far as Descartes bisection decides them
    (Collins-Akritas 1976).

    With B = 2^e, e = power_of_two_bound(c), every real zero lies in
    (-B, B).  That interval is bisected on the dyadic grid; each piece
    is mapped onto (0, 1), where its polynomial q is a positive multiple
    of c, so it has c's signs.  A piece with Descartes bound 0 has no
    zero.  Bound 1 means one simple zero; the sign of c just right of
    the piece's left end is the sign of q's lowest nonzero coefficient,
    also where that end is a zero.  A piece with a larger bound is split
    at its midpoint until it is narrower than 2^-width_exp, and then kept
    undecided: a multiple zero, or zeros closer than that, keeps the
    bound at 2 or more at every width, so only the depth limit makes
    the bisection stop, and it always stops.  A midpoint where c
    vanishes is an exact zero.  No gcd is taken.

    cell(a, b) numbers the open cells between the zeros from left to
    right: two points with the same number lie in one zero-free
    interval.  A point that is a zero, or lies in an undecided piece,
    gets None; an undecided piece may hide zeros, so the cells on its
    two sides get different numbers.
    """

    __slots__ = ("c", "exp", "depth", "ends", "end_cells", "pieces")

    def __init__(self, c: IntPoly, width_exp: int):
        self.c = c
        e = self.exp = power_of_two_bound(c)
        n = len(c) - 1
        # q(x) = c(2^e (2x - 1)): (0, 1) is (-B, B)
        q = _taylor_shift([v << (e * k) for k, v in enumerate(c)], -1)
        q = [v << k for k, v in enumerate(q)]
        deepest = e + 1 + width_exp
        leaves = []             # (i, k, bound, sign right of i/2^k)
        zeros = set()           # midpoints (i, k), i odd, where q vanishes
        stack = [(_int_primitive(q), 0, 0)]
        while stack:
            q, i, k = stack.pop()
            bound = _descartes_bound(q)
            if bound <= 1 or k == deepest:
                leaves.append((i, k, bound,
                               _sign(next(v for v in q if v))))
                continue
            left = [v << (n - j) for j, v in enumerate(q)]   # 2^n q(x/2)
            right = _taylor_shift(left, 1)
            if not right[0]:
                zeros.add((2 * i + 1, k + 1))
            stack.append((_int_primitive(right), 2 * i + 1, k + 1))
            stack.append((_int_primitive(left), 2 * i, k + 1))
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
        """The number of the zero-free cell that holds t = a/b (b > 0),
        or None."""
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
