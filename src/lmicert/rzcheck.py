"""Line-test certification of the real-zero property and rigid convexity.

A polynomial p with p(x0) > 0 passes the line test along a direction v
when the restriction f(mu) = p(x0 + mu v) has only real roots, counted
with multiplicity; a drop deg f < deg p is counted as deg p - deg f
intersections at infinity and is permitted.  Failing rays are exact,
unconditional certificates (the restriction provably has nonreal roots);
passing every sampled ray yields only a "ProbablyRZ" verdict, since no
finite ray family covers all lines.

Every scan goes through one core: _scan checks the base point and the
sampler, restricts p to each direction, counts the roots and stops at
the first failing ray.  rz_check, rigid_convexity_check,
hyperbolicity_check and topology.oval_profile are thin shells over it;
boundary_samples shares its base check (_checked_base).
hyperbolicity_check counts the affine restriction too and reads the
count of its reversal (the at-infinity chart) off it.  Restrictions
are read off p's homogeneous forms at the base point, which
Polynomial.restrict builds once per base point, and each restriction
keeps its one root analysis for every later count or isolation.

The scans and boundary_samples share one exact ray family in the plane
(RaySampler); every direction has max-norm 1 and a positive last
nonzero coordinate, so the rays are the same on every platform.  A
scan builds each ray only when it reaches it, so a scan that stops at
an early witness never builds the rays after it.  The rays are drawn,
tested for the grid and deduplicated on integer vectors, and a ray's
Fraction direction is built once, when it is new.

In the plane the root count along a line through x0 is constant
between the real zeros of P(t) = D(t) h_d(1, t), where t is the line's
slope, D(t) is the discriminant of g_t(s) = s^d p(x0 + (1, t)/s) (up
to a constant factor) and h_d is p's top form: a 1-D cylindrical
decomposition.  So once a line test of degree >= 2 has passed a
prefix of _CELLS_AFTER = 8 rays, it builds these slope cells once
(SlopeCells.at: D by interpolation from Bezout determinants, the zeros
of P by Descartes bisection), and each later ray whose slope lies
strictly inside a cell where a ray was already counted takes that
ray's root count, with no restriction: one direct count per cell.
Vertical rays, slopes that may be zeros of P, and every ray when D = 0
(p not square-free) are counted directly.
The verdict and every record are those of counting every ray.  Every
scan keys a ray by its slope's cell number alone (ZeroCells.cell) and
names the ray each borrowing ray took its counts from, whose side
counts oval_profile reads.  boundary_samples, which isolates the
nearest root on each side of the base point on every ray, does not use
the cells.  construct.intercept_normalize reads them too: a slope t
with a cell is a line through x0 that meets the curve in d distinct
points or certifies that p is not real-zero.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, List, Optional, Tuple, Union

from .errors import BasePointError, DimensionMismatch, ZeroPolynomialError
from .pencil import _bareiss_det, _forward_differences, _newton_to_powers
from .poly import Polynomial, UnivariatePolynomial, as_point
from .realroots import (RootCount, ZeroCells, count_real_roots,
                        isolate_real_roots)

Direction = Tuple[Fraction, ...]
Vector = Tuple[int, ...]

CERTIFIED_NOT_RZ = "CertifiedNotRZ"
PROBABLY_RZ = "ProbablyRZ"


@dataclass(frozen=True)
class RaySampler:
    """Seeded family of exact rational directions through a base point.

    For two variables: ray j of the deterministic_count = K rays sits at
    pseudo-angle s = 4j/K on the upper half of the max-norm unit square,
    counter-clockwise from (1, 0): (1, s), (2 - s, 1) or (-1, 4 - s) for
    s <= 1, s <= 3 or beyond, one ray per line in increasing angle.  Then
    come random_count seeded random rational directions.  Other
    dimensions have no natural angle grid, so all rays are seeded random
    there.  extra_directions are scanned first.  Every direction is
    canonical (_reduce_direction), and each ray is listed once, at its
    first occurrence.

    directions() checks the sampler and canonicalises the extra
    directions at once, but builds the other rays only as they are read,
    so a scan that stops at an early witness pays only for the rays it
    scanned.
    """
    num_vars: int
    deterministic_count: int = 181
    random_count: int = 64
    seed: int = 0
    extra_directions: Tuple[Tuple[int, ...], ...] = ()

    def directions(self) -> Sequence[Direction]:
        if self.num_vars < 1:
            raise DimensionMismatch("sampler needs num_vars >= 1")
        if self.deterministic_count < 1:
            raise ValueError("deterministic_count must be >= 1")
        if self.random_count < 0:
            raise ValueError("random_count must be >= 0")
        extras = []
        for coords in self.extra_directions:
            if len(coords) != self.num_vars:
                raise DimensionMismatch("extra direction has wrong length")
            extras.append(_reduce_direction(coords))
        return _Rays(self._distinct_rays(list(dict.fromkeys(extras))))

    def _distinct_rays(self, extras: List[Direction]
                       ) -> Iterator[Tuple[Vector, Direction]]:
        """(w, v) for every ray v in scan order, each at its first
        occurrence, with w a positive integer multiple of v.

        The grid rays are pairwise distinct, so a grid ray is a repeat
        only of an extra direction, found by its grid index; only the
        extra and random rays are hashed, by their primitive w.  A
        random ray's direction is built only when it is new."""
        vectors = [_integer_vector(v) for v in extras]
        yield from zip(vectors, extras)
        count = self.deterministic_count
        plane = self.num_vars == 2
        if plane:
            taken = {_grid_index(w, count) for w in vectors}
            for j in range(count):
                if j not in taken:
                    yield _square_ray(j, count)
            randoms = self.random_count
        else:
            randoms = count + self.random_count
        seen = set(vectors)
        rng = random.Random(self.seed)
        for _ in range(randoms):
            w = _random_vector(rng, self.num_vars)
            if plane and _grid_index(w, count) is not None or w in seen:
                continue
            seen.add(w)
            top = max(map(abs, w))
            yield w, tuple([Fraction(c, top) for c in w])


class _Rays(Sequence):
    """The distinct rays of one RaySampler.directions() call, read-only.

    Iteration builds each ray the first time any reader reaches it;
    len, indexing and count build all that is left.  pairs() iterates
    (w, v), w the ray's integer vector (RaySampler._distinct_rays).  Two
    families are equal when they hold the same rays in the same order."""

    __slots__ = ("_built", "_vectors", "_pending")

    def __init__(self, rays: Iterator[Tuple[Vector, Direction]]):
        self._built: List[Direction] = []
        self._vectors: List[Vector] = []
        self._pending = rays

    def pairs(self) -> Iterator[Tuple[Vector, Direction]]:
        built, vectors = self._built, self._vectors
        i = 0
        while True:
            if i == len(built):
                pair = next(self._pending, None)
                if pair is None:
                    return
                vectors.append(pair[0])
                built.append(pair[1])
            yield vectors[i], built[i]
            i += 1

    def __iter__(self) -> Iterator[Direction]:
        return (v for _, v in self.pairs())

    def _all(self) -> List[Direction]:
        for _ in self.pairs():
            pass
        return self._built

    def __len__(self) -> int:
        return len(self._all())

    def __getitem__(self, index):
        return self._all()[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Rays):
            return NotImplemented
        return self._all() == other._all()

    __hash__ = None


def _grid_index(w: Vector, count: int) -> Optional[int]:
    """j if the plane vector w, a positive multiple of a canonical
    direction, lies on ray j of count grid rays, else None: w's
    pseudo-angle n/d must be 4j/count."""
    a, b = w
    if a >= b:
        n, d = b, a
    elif b >= -a:
        n, d = 2 * b - a, b
    else:
        n, d = -4 * a - b, -a
    j, rest = divmod(n * count, 4 * d)
    return None if rest else j


_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


def _square_ray(j: int, count: int) -> Tuple[Vector, Direction]:
    """Ray j of count: (count v, v) for v the point at pseudo-angle
    s = 4j/count on the upper half of the max-norm unit square, already
    canonical."""
    four_j = 4 * j
    if four_j <= count:
        return (count, four_j), (_ONE, Fraction(four_j, count))
    if four_j <= 3 * count:
        w = (2 * count - four_j, count)
        return w, (Fraction(w[0], count), _ONE)
    w = (-count, 4 * count - four_j)
    return w, (_MINUS_ONE, Fraction(w[1], count))


def _reduce_direction(coords: Sequence) -> Direction:
    """The canonical direction of the line through coords: v / max|v_i|,
    signed so that the last nonzero coordinate is positive.  In the
    plane that keeps every ray in the upper half plane, so boundary
    scans can trust the orientation."""
    v = [Fraction(c) for c in coords]
    top = max(map(abs, v))
    if top == 0:
        raise DimensionMismatch("zero direction")
    if next(c for c in reversed(v) if c != 0) < 0:
        top = -top
    return tuple(c / top for c in v)


def _integer_vector(v: Direction) -> Vector:
    """The primitive integer vector on the canonical direction v: v
    times the lcm of its denominators, since some |v_i| is 1."""
    scale = lcm(*[c.denominator for c in v])
    return tuple([c.numerator * (scale // c.denominator) for c in v])


def _random_vector(rng: random.Random, m: int) -> Vector:
    """m seeded draws n/q, n in [-64, 64] and q in [1, 16], redrawn
    while all are zero, as the primitive integer vector w on their line
    whose last nonzero entry is positive: w / max|w| is the canonical
    direction (_reduce_direction).  rng.randint(a, b) draws
    a + rng.randrange(b - a + 1), so the draws are written that way."""
    randrange = rng.randrange
    while True:
        nums, dens = [], []
        for _ in range(m):
            nums.append(randrange(129) - 64)
            dens.append(randrange(16) + 1)
        if any(nums):
            break
    scale = lcm(*dens)
    w = [n * (scale // q) for n, q in zip(nums, dens)]
    g = gcd(*w)
    if next(filter(None, reversed(w))) < 0:
        g = -g
    return tuple([c // g for c in w])


@dataclass(frozen=True)
class RayRecord:
    direction: Direction
    degree: int                 # degree of the restriction
    distinct: int
    with_multiplicity: int
    at_infinity: int            # deg p - deg f
    passed: bool


@dataclass(frozen=True)
class RZVerdict:
    kind: str                   # CERTIFIED_NOT_RZ or PROBABLY_RZ
    witness: Optional[Tuple[Direction, RootCount]]
    rays_checked: int
    seed: int
    per_ray: Tuple[RayRecord, ...]
    # populated by rigid_convexity_check only
    distinct_fraction: Optional[Fraction] = None
    degenerate: Optional[bool] = None

    def certified_not_rz(self) -> bool:
        return self.kind == CERTIFIED_NOT_RZ


def _checked_base(p: Polynomial, x0: Sequence, signed: bool = False
                  ) -> Tuple[Polynomial, Tuple[Fraction, ...]]:
    """(q, x) with x the base point and q(x) > 0: q = p, or with signed
    also q = -p when p(x0) < 0."""
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no line test")
    x = as_point(x0, p.num_vars)
    value = p.evaluate(x)
    if signed:
        if value == 0:
            raise BasePointError("p(x0) = 0; hyperbolicity needs p(x0) != 0")
        return (p if value > 0 else -p), x
    if value <= 0:
        raise BasePointError(
            f"p(x0) = {value} is not positive; the base point must be "
            f"interior to the region")
    return p, x


def _scan(p: Polynomial, x0: Sequence, sampler: RaySampler,
          reverse: bool = False
          ) -> Tuple[RZVerdict, List[Union[UnivariatePolynomial, int]]]:
    """The line test along the sampler's directions: the verdict, and
    per scanned ray its restriction f, or the index of the ray it took
    its counts from.

    Roots are counted on the restriction f; reverse, which allows
    p(x0) < 0, reports the count of f's reversal padded to degree
    d = deg p instead.  f(0) = q(x0) is nonzero, so that reversal has
    degree d, f's roots inverted and a root at 0 of multiplicity
    d - deg f: f's count plus one distinct root when deg f < d.  A ray
    passes when all roots of the counted polynomial are real with
    multiplicity; the first failing ray stops the scan and is the
    witness.

    A plane scan of degree >= 2 builds the slope cells (SlopeCells.at)
    once _CELLS_AFTER = 8 rays have passed.  From then on, a ray whose
    slope w2/w1 lies in a cell where an earlier ray was counted
    (ZeroCells.cell) takes the RootCount of the first such ray, with no
    restriction; the verdict is the one of counting every ray.
    """
    q, x = _checked_base(p, x0, signed=reverse)
    if sampler.num_vars != p.num_vars:
        raise DimensionMismatch("sampler dimension differs from polynomial")
    d = int(q.degree())
    per_ray: List[RayRecord] = []
    kept: List[Union[UnivariatePolynomial, int]] = []
    build = d >= 2 and p.num_vars == 2
    cells = None
    counted = {}                # cell -> (RootCount, index of a ray in it)
    rays = sampler.directions()
    for w, v in rays.pairs():
        cell = None if cells is None else cells.cell(w[1], w[0])
        hit = None if cell is None else counted.get(cell)
        if hit is None:
            f = q.restrict(x, v)
            counts = count_real_roots(f)
            drop = d - counts.total_degree
            if reverse and drop:
                counts = RootCount(counts.distinct_real + 1,
                                   counts.real_with_multiplicity + drop, d)
            kept.append(f)
            if cell is not None:
                counted[cell] = (counts, len(per_ray))
        else:
            counts = hit[0]
            kept.append(hit[1])
        deg = counts.total_degree
        real = counts.real_with_multiplicity
        per_ray.append(RayRecord(v, deg, counts.distinct_real, real,
                                 d - deg, real == deg))
        if real != deg:
            return (RZVerdict(CERTIFIED_NOT_RZ, (v, counts), len(per_ray),
                              sampler.seed, tuple(per_ray)), kept)
        if build and len(per_ray) == _CELLS_AFTER:
            build = False
            cells = SlopeCells.at(q, x)
            # the rays counted so far are the first of their cells
            for i, (w, r) in enumerate(zip(rays._vectors, per_ray)
                                       if cells is not None else ()):
                cell = cells.cell(w[1], w[0])
                if cell is not None and cell not in counted:
                    counted[cell] = (RootCount(r.distinct,
                                               r.with_multiplicity,
                                               r.degree), i)
    return (RZVerdict(PROBABLY_RZ, None, len(per_ray), sampler.seed,
                      tuple(per_ray)), kept)


# -- slope cells --------------------------------------------------------------
#
# In the plane, the line through x0 with slope t meets p = 0 where
# g_t(s) = s^d p(x0 + (1, t)/s) = sum_k h_k(1, t) s^(d-k) vanishes, h_k
# the degree-k form of p(x0 + y); the ray v = (v1, v2), v1 != 0, has the
# restriction f(mu) = sum_k v1^k h_k(1, t) mu^k with t = v2/v1, whose
# roots are those of g_t at s = 1/(v1 mu) and whose degree drops are
# roots s = 0.  g_t has the constant leading coefficient p(x0) != 0.
# Where P(t) = D(t) h_d(1, t) is nonzero, with D(t) the resultant of
# g_t and g_t', g_t is square-free and has no root at 0, so deg f = d,
# f is square-free, and its count of real roots cannot change without
# two roots meeting: the RootCount of every ray (and of its reversal)
# is constant on each open interval between the real zeros of P.  That
# is the one-dimensional cylindrical decomposition (Collins 1975).

# Rays a scan counts directly before it builds the cells.  A passing
# plane scan reads every ray (245 by default), so it pays for the build
# whatever the prefix, and a ray counted before the build costs a count
# that its cell may have spared.  A short prefix spares the build only
# to scans that fail within it, as the Fermat and product inputs of
# perfbench's reject workload do.  The build is dear at high degree
# alone.  On gen.determinantal(random.Random(100 d + s), d, generic=True),
# s = 0..3, at the origin (best of 3-7 runs, 2-core x86-64, Python
# 3.11), the whole build, before (Sylvester determinants, the Descartes
# bisection from (-2^e, 2^e)) and now, against one direct count
# (restriction plus Sturm count):
#
#     d   build before   build now    one count
#     2   0.15-0.22 ms   0.12-0.18    18-29 us
#     3   0.45-0.75      0.32-0.71    27-45
#     4   1.4-1.7        0.7-1.3      55-68
#     5   4.1-5.4        2.7-4.0      79-97
#     6   7.0-10.4       3.1-5.4      82-135
#     7   16-22          9.5-14       117-197
#     8   34-53          19-24        176-282
#
# Worst case: a non-real-zero input of high degree whose witness lies
# between rays 9 and 64 now pays the build, where before it paid at
# most 64 direct counts (about 13-18 ms at d = 8).  On the lobe cubic
# times a determinantal quartic, sheared so that the witness is ray 10,
# that went from 2.3 to 116 ms: D has square factors, so the bisection
# keeps ten undecided pieces down to its depth limit.
_CELLS_AFTER = 8

class SlopeCells(ZeroCells):
    """The plane line test's cells: the slope axis cut at the real zeros
    of P(t) = D(t) H_d(t) (realroots.ZeroCells), which at(q, x) builds.
    A ray with integer vector w lies in the cell cell(w2, w1) of its
    slope; a vertical ray lies in none."""

    __slots__ = ()

    @classmethod
    def at(cls, q: Polynomial, x: Tuple[Fraction, ...]
           ) -> Optional[SlopeCells]:
        """The cells of P(t) = D(t) H_d(t) for q in two variables at x,
        or None when D = 0 (q is not square-free)."""
        table = q._forms
        if table is None or table[0] != x:
            table = q._build_forms(x)
        heads = cls._heads(table[2])
        disc = cls._discriminant(heads)
        if not disc:
            return None
        top = heads[-1]
        while not top[-1]:
            top.pop()
        product = [0] * (len(disc) + len(top) - 1)
        for i, a in enumerate(disc):
            for j, b in enumerate(top):
                product[i + j] += a * b
        return cls(product)

    @staticmethod
    def _heads(forms) -> List[List[int]]:
        """H_k(t) = sum_(|e| = k) C_e t^e2 = E h_k(1, t) for k = 0..d,
        lowest degree first, from the integer form table (E, C_e) of
        Polynomial._build_forms."""
        heads = [[0] * (k + 1) for k in range(len(forms))]
        for k, form in enumerate(forms):
            for exps, c in form:
                heads[k][exps[1]] = c
        return heads

    @staticmethod
    def _discriminant(heads: List[List[int]]) -> List[int]:
        """The integer coefficients of D(t) = Res_s(G_t, G_t'), lowest
        degree first ([] when D = 0), for G_t(s) = sum_k H_k(t) s^(d-k)
        = E g_t(s), heads[k] = H_k = E h_k(1, t) lowest degree first;
        so D(t) = E^(2d-1) Res_s(g_t, g_t').

        deg D <= d(d-1), so D is recovered from its values at
        t = 0..d(d-1) by the two line steps of pencil._interpolate:
        forward differences give its Newton coefficients, and Horner
        steps expand those into powers.  Each value is a Bareiss
        determinant of the d-square Bezout matrix B of f = G_t and
        g = G_t', not of their (2d-1)-square Sylvester matrix S:
        det B = (-1)^(d(d-1)/2) lc(f) det S, and lc(f) = H_0 is the
        constant E p(x0) != 0, which divides out exactly.  B is read
        off (f(x) g(y) - f(y) g(x))/(x - y) = sum B_ij x^i y^j, whose
        coefficients give B_ij = B_(i-1)(j+1) + f_(j+1) g_i - f_i g_(j+1)
        (f_j, g_j the coefficients of s^j; B_ij = 0 off 0..d-1).  B is
        symmetric, and its upper rows (j >= i) are what the determinant
        reads."""
        d = len(heads) - 1
        top = d * (d - 1)
        lead = heads[0][0] if d * (d - 1) % 4 == 0 else -heads[0][0]
        values = []
        for t in range(top + 1):
            # G_t, lowest power of s first, and its derivative
            f = []
            for h in reversed(heads):
                value = 0
                for c in reversed(h):
                    value = value * t + c
                f.append(value)
            g = [j * c for j, c in enumerate(f)][1:] + [0]
            rows = []
            above = [0] * (d + 1)
            for i in range(d):
                gi, fi = g[i], f[i]
                above = [above[j + 1] + f[j + 1] * gi - fi * g[j + 1]
                         for j in range(d)] + [0]
                rows.append(above[i:d])
            values.append(_bareiss_det(rows) // lead)
        _forward_differences(values)
        _newton_to_powers(values)
        while values and not values[-1]:
            values.pop()
        return values


def rz_check(p: Polynomial, x0: Sequence,
             sampler: Optional[RaySampler] = None) -> RZVerdict:
    """Certify violation of the shifted real-zero condition at x0, or
    report probable satisfaction.

    The first failing ray (in sampler order) stops the scan and is the
    witness; all roots on it were counted exactly, so the negative
    verdict is unconditional.
    """
    return _scan(p, x0, sampler or RaySampler(p.num_vars))[0]


def rigid_convexity_check(p: Polynomial, x0: Sequence,
                          sampler: Optional[RaySampler] = None) -> RZVerdict:
    """rz_check plus distinct-root statistics.

    A ProbablyRZ verdict in which no ray attains deg p distinct affine
    real roots is flagged degenerate: the input is then likely a
    non-minimal defining polynomial, e.g. a perfect square.
    """
    verdict = _scan(p, x0, sampler or RaySampler(p.num_vars))[0]
    if verdict.certified_not_rz():
        return verdict
    d = int(p.degree())
    all_distinct = sum(1 for r in verdict.per_ray
                       if r.degree == d and r.distinct == d)
    return replace(verdict,
                   distinct_fraction=Fraction(all_distinct,
                                              verdict.rays_checked),
                   degenerate=(all_distinct == 0))


def hyperbolicity_check(p: Polynomial, x0: Sequence,
                        sampler: Optional[RaySampler] = None) -> RZVerdict:
    """Line test for the homogenization, sampled on the hyperplane at
    infinity.

    For a direction v there, the homogenization restricted to the
    projective line through v and the lifted base point has root
    polynomial equal to the degree-padded coefficient reversal of
    p(x0 + mu v); intersections at infinity of the affine test turn into
    roots at 0 here, so the pass condition is all deg p roots real with
    multiplicity, with nothing left at infinity.  p(x0) may be negative
    (the homogenization is negated); it must be nonzero.
    """
    return _scan(p, x0, sampler or RaySampler(p.num_vars), reverse=True)[0]


# -- boundary extraction ------------------------------------------------------


@dataclass(frozen=True)
class BoundarySample:
    angle: Fraction              # pseudo-angle in [0, 8) of the side
    direction: Direction
    parameter: Fraction          # signed mu with x = x0 + mu*direction
    point: Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class BoundaryData:
    samples: Tuple[BoundarySample, ...]      # sorted by pseudo-angle
    unbounded_angles: Tuple[Fraction, ...]   # sides with no crossing


def boundary_samples(p: Polynomial, x0: Sequence, rays: int = 181,
                     resolution: Fraction = Fraction(1, 2 ** 20)
                     ) -> BoundaryData:
    """Boundary points of the region component of x0, one per crossing
    of each scan line, for two-variable polynomials.

    The scan lines are RaySampler's `rays` deterministic rays, of
    max-norm 1, so the resolution bounds the point error directly.
    Along each, the nearest root on each side of the base point is a
    boundary crossing, at pseudo-angle 4j/K on the positive side of ray
    j of K and 4 + 4j/K on the negative side; a side without real roots
    means the region is unbounded in that direction, which is recorded
    rather than raised.  Only those two roots are isolated
    (isolate_real_roots with nearest): a root farther out is a crossing
    of an outer oval, which no sample shows.  Each sample's parameter
    is the midpoint of its interval and each coordinate of its point
    is built as one Fraction from integers.
    """
    if p.num_vars != 2:
        raise DimensionMismatch("boundary extraction is two-variable only")
    if rays < 1:
        raise ValueError("rays must be >= 1")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    q, x = _checked_base(p, x0)
    # per side, in increasing angle: every positive side (4j/K) comes
    # before every negative one (4 + 4j/K)
    samples: Tuple[List[BoundarySample], ...] = ([], [])
    unbounded: Tuple[List[Fraction], ...] = ([], [])
    for j in range(rays):
        _, v = _square_ray(j, rays)
        f = q.restrict(x, v)
        angle = Fraction(4 * j, rays)
        if f.degree() <= 0:
            unbounded[0].append(angle)
            unbounded[1].append(angle + 4)
            continue
        # f(0) = q(x) > 0, as the nearest mode needs
        neg = pos = None
        for iv in isolate_real_roots(f, resolution, nearest=True):
            if iv.low >= 0:
                pos = iv
            else:
                neg = iv
        for side, side_angle, iv in ((0, angle, pos), (1, angle + 4, neg)):
            if iv is None:
                unbounded[side].append(side_angle)
                continue
            mu = iv.midpoint()
            pt = (_moved(x[0], mu, v[0]), _moved(x[1], mu, v[1]))
            samples[side].append(BoundarySample(side_angle, v, mu, pt))
    return BoundaryData(tuple(samples[0] + samples[1]),
                        tuple(unbounded[0] + unbounded[1]))


def _moved(c: Fraction, mu: Fraction, w: Fraction) -> Fraction:
    """c + mu w, as one Fraction of integers."""
    den = mu.denominator * w.denominator
    return Fraction(c.numerator * den + mu.numerator * w.numerator
                    * c.denominator, c.denominator * den)
