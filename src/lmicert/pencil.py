"""Linear pencils of symmetric rational matrices.

Provides exact evaluation, PSD/PD decisions with certificates, determinant
expansion to a sparse polynomial, direct sums, shifts, spectrahedron
membership, and reduction of a pencil with singular PSD constant term to
an equivalent monic pencil on its range.

Each fact has one exact core: one diagonal-pivoted symmetric
elimination (_eliminate) answers every PSD question: the verdict,
is_psd's certificates (the squares its steps sum to, or a negative
witness lifted back through its pivots by _lift) and ker L0, lifted the
same way.  One cached helper (_range_compression) reads off a single
elimination of L0 its verdict, whether 0 is interior for a singular
PSD L0, the compression (the principal block on L0's pivots, for both
membership and reduce_to_monic) and the LDL^T of the compressed L0
that reduce_to_monic normalizes.

Matrices hold Fractions; the kernels scale them to integers over
common denominators and work in int, on the upper rows of a symmetric
matrix (_triangle): point evaluation (one integer multiple of L(x) per
point, which membership classifies as it is), both symmetric
eliminations, fraction-free (_bareiss_det for every determinant, and
_eliminate, which keeps each Schur complement times its last pivot),
determinant expansion, and the congruence of monic reduction.
Fractions are built only where a certificate is read: is_psd's squares
and witness, _lift, reduce_to_monic and ker L0.  Decisions are exact,
never floating.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, ParseError, ReductionError
from .poly import (Polynomial, _exact_sqrt, _lcm_denominators, as_point,
                   format_rational, parse_rational)


class SymmetricMatrix:
    """Immutable exact symmetric matrix."""

    __slots__ = ("entries", "size")

    def __init__(self, rows: Sequence[Sequence]):
        entries = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise DimensionMismatch("matrix is not square")
        for i in range(n):
            for j in range(i):
                if entries[i][j] != entries[j][i]:
                    raise ValueError(
                        f"matrix is not symmetric at ({i},{j}): "
                        f"{entries[i][j]} vs {entries[j][i]}")
        self.entries = entries
        self.size = n

    @classmethod
    def _trusted(cls, entries: Tuple[tuple, ...]) -> "SymmetricMatrix":
        """Wrap entries that are square and symmetric by construction,
        without coercing or checking them."""
        mat = object.__new__(cls)
        mat.entries = entries
        mat.size = len(entries)
        return mat

    @classmethod
    def identity(cls, n: int) -> "SymmetricMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "SymmetricMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "SymmetricMatrix":
        vals = [Fraction(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)]
                    for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        if self.size != other.size:
            raise DimensionMismatch("matrix sizes differ")
        return SymmetricMatrix(
            [[a + b for a, b in zip(r1, r2)]
             for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "SymmetricMatrix":
        c = Fraction(c)
        return SymmetricMatrix([[c * v for v in row] for row in self.entries])

    def is_identity(self) -> bool:
        return all(self.entries[i][j] == (1 if i == j else 0)
                   for i in range(self.size) for j in range(self.size))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def __eq__(self, other):
        return (isinstance(other, SymmetricMatrix)
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SymmetricMatrix({[list(map(str, r)) for r in self.entries]})"


class LinearPencil:
    """Symmetric matrix tuple (L0, L1, ..., Lm) defining x -> L0 + sum x_i L_i.

    _ints holds (D, the upper triangles of D L0, ..., D Lm as integer
    lists), _det the determinant polynomial and _monic whether L0 = I,
    each filled on first use."""

    __slots__ = ("matrices", "num_vars", "size", "_hash", "_ints", "_det",
                 "_monic")

    def __init__(self, matrices: Sequence[SymmetricMatrix]):
        mats = tuple(matrices)
        if len(mats) < 2:
            raise DimensionMismatch("a pencil needs L0 and at least one L_i")
        n = mats[0].size
        for mat in mats:
            if mat.size != n:
                raise DimensionMismatch("pencil matrices must share one size")
        self.matrices = mats
        self.num_vars = len(mats) - 1
        self.size = n
        self._hash = None
        self._ints = None
        self._det = None
        self._monic = None

    def monic(self) -> bool:
        if self._monic is None:
            self._monic = self.matrices[0].is_identity()
        return self._monic

    def evaluate(self, point: Sequence) -> SymmetricMatrix:
        scale, rows = self._scaled(point)
        return SymmetricMatrix._trusted(
            _mirror([[Fraction(v, scale) for v in row] for row in rows]))

    def _scaled(self, point: Sequence) -> Tuple[int, List[List[int]]]:
        """(s, the upper rows of s L(x)) with a positive integer s and
        integer entries (_triangle)."""
        scale, terms = self._terms(point)
        return scale, _triangle(self.size, _combine(terms))

    def _terms(self, point: Sequence) -> Tuple[int, list]:
        """(s, [(c, u), ...]) with s L(x) = sum c u over nonzero integers
        c and the upper triangles u of D L0, ..., D Lm, row by row: with
        x = X/Dx, s L(x) is Dx (D L0) + sum X_i (D L_i) and s = D Dx."""
        x = as_point(point, self.num_vars)
        if self._ints is None:
            self._ints = _integer_uppers(
                [mat.entries for mat in self.matrices])
        den, (base, *rest) = self._ints
        dx = _lcm_denominators(x)
        terms = [(dx, base)]
        for c, upper in zip(x, rest):
            if c:
                terms.append((c.numerator * (dx // c.denominator), upper))
        return den * dx, terms

    def __eq__(self, other):
        return (isinstance(other, LinearPencil)
                and self.matrices == other.matrices)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.matrices)
        return self._hash

    def __repr__(self):
        return f"LinearPencil(size={self.size}, num_vars={self.num_vars})"


def _integer_uppers(mats: Sequence[Sequence[Sequence[Fraction]]]):
    """(D, [the upper triangle of D M, row by row, as ints for M in
    mats]) for symmetric matrices M given by their rows and the least
    positive integer D that clears every denominator of mats."""
    uppers = [[v for i, row in enumerate(mat) for v in row[i:]]
              for mat in mats]
    den = _lcm_denominators(v for upper in uppers for v in upper)
    return den, [[v.numerator * (den // v.denominator) for v in upper]
                 for upper in uppers]


def _integer_rows(mat: SymmetricMatrix) -> Tuple[int, List[List[int]]]:
    """(D, the upper rows of D M) for the D of _integer_uppers."""
    den, (upper,) = _integer_uppers([mat.entries])
    return den, _triangle(mat.size, upper)


def _combine(terms) -> List[int]:
    """sum c u over the pairs (c, u) of terms, entry by entry."""
    (c, u), *rest = terms
    acc = [c * v for v in u]
    for c, u in rest:
        acc = [a + c * v for a, v in zip(acc, u)]
    return acc


def _triangle(n: int, upper: Sequence) -> List[list]:
    """The upper rows of an n x n symmetric matrix whose upper triangle,
    row by row, is upper: row i holds the entries (i, i), ..., (i, n-1),
    so entry (i, j), i <= j, is rows[i][j - i]."""
    rows, start = [], 0
    for i in range(n):
        rows.append(upper[start:start + n - i])
        start += n - i
    return rows


def _mirror(rows: Sequence[Sequence]) -> Tuple[tuple, ...]:
    """The symmetric matrix, as row tuples, with the upper rows rows."""
    n = len(rows)
    return tuple(tuple(rows[i][j - i] if i <= j else rows[j][i - j]
                       for j in range(n)) for i in range(n))


# -- exact definiteness -------------------------------------------------------


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    is_pd: bool
    # exactly one certificate is populated: squares when PSD ((d, v) with
    # d > 0 and M = sum d v v'), witness otherwise (w with w'Mw < 0)
    squares: Optional[Tuple[Tuple[Fraction, tuple], ...]] = None
    witness: Optional[Tuple[Fraction, ...]] = None


def is_psd(mat: SymmetricMatrix) -> PsdReport:
    """Exact PSD/PD decision by _eliminate on the integer multiple D M of
    _integer_rows, with a checked certificate: one square (d, v) per
    pivot, d > 0, with M = sum d v v' when PSD (PD when there are n); a
    vector w with w'Mw < 0 otherwise (_witness).

    A step of _ldl, (p, d, mults), leaves the complement m - d v v', v =
    e_p + sum f e_i over its multipliers; a zero row drops out after its
    last one, so the squares sum to a singular M too.
    """
    n = mat.size
    den, rows = _integer_rows(mat)
    verdict, steps, stop = _eliminate(rows)
    if verdict is Membership.OUTSIDE:
        w = _witness(n, steps, stop)
        value = sum(wi * sum(mij * wj for mij, wj in zip(row, w))
                    for wi, row in zip(w, mat.entries))
        if value >= 0:
            raise AssertionError("internal error: witness is not negative")
        return PsdReport(False, False, witness=tuple(w))
    # a support is in increasing index order and M is symmetric, so the
    # upper triangle of the sum decides
    total = [[0] * n for _ in range(n)]
    squares = []
    for p, d, mults in _ldl(steps, den):
        support = [(p, Fraction(1))] + mults
        v = [Fraction(0)] * n
        for k, (i, a) in enumerate(support):
            v[i], da, row = a, d * a, total[i]
            for j, b in support[k:]:
                row[j] += da * b
        squares.append((d, tuple(v)))
    if any(tuple(row[i:]) != m_row[i:]
           for i, (row, m_row) in enumerate(zip(total, mat.entries))):
        raise AssertionError("internal error: squares do not sum to M")
    return PsdReport(True, len(steps) == n, squares=tuple(squares))


class Membership(enum.Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"


def _eliminate(rows: List[List[int]]):
    """One fraction-free symmetric elimination with diagonal pivoting of
    the integer matrix with upper rows rows (_triangle): (verdict,
    steps, stop), the verdict being Interior (PD), Boundary (PSD and
    singular) or Outside.

    It is the Fraction elimination that takes each pivot in turn from
    the first nonzero diagonal entry of the Schur complement, with every
    complement kept times the last pivot P > 0 (Bareiss): after pivot p
    the entry (i, j) is (P a_ij - a_ip a_pj) / P_prev, the minor of the
    matrix on the pivots so far bordered by row i and column j, so every
    division is exact and every sign and zero is the Fraction one.  A
    zero row is a kernel vector and drops out.  A negative diagonal
    entry, or a zero one whose row is not zero, is a negative 1x1 or 2x2
    principal minor of the complement: the verdict is then Outside and
    stop is (original indices, complement rows, that row); otherwise
    stop is None.  After a positive pivot the complement is PSD (PD)
    exactly when the matrix is.  So a PD matrix pivots in natural order,
    and its steps are its LDL^T (_ldl).

    Each step is (indices, row) for the complement it pivots: its
    original indices, the pivot p = indices[0] first, and the pivot's
    upper row, row[0] = P and row[k] the entry of row indices[k].
    """
    idx = list(range(len(rows)))
    steps = []
    singular = False
    prev = 1
    while rows:
        live = []
        for a, row in enumerate(rows):
            if row[0] < 0 or (not row[0] and (
                    any(row) or any(rows[b][a - b] for b in range(a)))):
                return Membership.OUTSIDE, steps, (idx, rows, a)
            if row[0]:
                live.append(a)
        if len(live) < len(rows):
            singular = True
            if not live:
                break
            keep = set(live)
            rows = [[v for b, v in enumerate(rows[a], a) if b in keep]
                    for a in live]
            idx = [idx[a] for a in live]
        col = rows[0]
        pivot = col[0]
        steps.append((idx, col))
        # row off holds (off, off + j) and col (0, j); a row with no
        # entry in the pivot column is only rescaled, by P / P_prev
        schur = []
        for off in range(1, len(rows)):
            row, f = rows[off], col[off]
            if f or pivot != prev:
                row = [(pivot * row[j] - f * col[j + off]) // prev
                       for j in range(len(row))]
            schur.append(row)
        rows = schur
        idx = idx[1:]
        prev = pivot
    verdict = Membership.BOUNDARY if singular else Membership.INTERIOR
    return verdict, steps, None


def _ldl(steps, den: int):
    """The Fraction steps (p, d, [(i, f), ...]) of _eliminate's steps
    on D M, D = den, for M: pivot d = P / (P_prev D) > 0 and the nonzero
    multipliers f = a_ip / P in original indices.  For a PD matrix these
    are its LDL^T: T[i][p] = f, D = the pivots."""
    out, prev = [], den
    for idx, row in steps:
        pivot = row[0]
        out.append((idx[0], Fraction(pivot, prev),
                    [(i, Fraction(a, pivot))
                     for i, a in zip(idx[1:], row[1:]) if a]))
        prev = pivot * den
    return out


def _witness(n: int, steps, stop) -> List[Fraction]:
    """A vector w with w'Mw < 0 from an Outside elimination of M.

    The stopping row a of the complement S gives e_a when s_aa < 0, and
    t e_a - sign(s_ab) e_b with form -2 t |s_ab| + s_bb < 0 when s_aa = 0
    and s_ab != 0.  _lift then keeps w'Mw equal to the form of the
    complement it came from.  S is kept times a positive integer, which
    changes none of these signs or ratios.
    """
    idx, s, a = stop
    w = [Fraction(0)] * n
    if s[a][0] < 0:
        w[idx[a]] = Fraction(1)
    else:
        row = [s[min(a, b)][abs(a - b)] for b in range(len(s))]
        b = next(b for b, v in enumerate(row) if v)
        w[idx[a]] = Fraction(s[b][0], 2 * abs(row[b])) + 1
        w[idx[b]] = Fraction(-1 if row[b] > 0 else 1)
    return _lift(w, steps)


def _lift(w: List[Fraction], steps) -> List[Fraction]:
    """Back-substitute w through the steps of _eliminate, in place: each
    pivot p, in reverse, gets w_p = -sum f_i w_i, f_i = a_ip / P.  One
    step maps (w_p, u) to (0, S u) under M, S the complement it leaves;
    so M w is 0 on the pivot rows, and w'Mw is the form of the last
    complement on w."""
    for idx, row in reversed(steps):
        w[idx[0]] = Fraction(-sum(a * w[i] for i, a in zip(idx[1:], row[1:])
                                  if a), row[0])
    return w


def membership(pencil: LinearPencil, point: Sequence) -> Membership:
    """Classify a point against the spectrahedron of the pencil.

    For PD (in particular monic) L0 this is the direct PSD/PD test.  A
    singular PSD L0 satisfying the range condition (_range_compression)
    makes the pencil block-diagonal with an identically zero block, so
    the classification runs on the compression to range(L0); otherwise
    the literal test is used (Interior is then typically empty).  A
    non-PSD L0 is an error.  The integer multiple s L(x), s > 0, of
    LinearPencil._terms has the verdict of L(x); its diagonal comes
    first, and a negative entry there is Outside at once, the verdict
    _eliminate's first pass would give.
    """
    if not pencil.monic():
        base, compressed, _, _ = _range_compression(pencil)
        if base is Membership.OUTSIDE:
            raise ReductionError(
                "L0 is not positive semidefinite at the reference point; "
                "apply reduce_to_monic after shifting to an interior point")
        if compressed is not None:
            pencil = compressed
    _, terms = pencil._terms(point)
    n = pencil.size
    if any(sum(c * u[i * n - i * (i - 1) // 2] for c, u in terms) < 0
           for i in range(n)):
        return Membership.OUTSIDE
    return _eliminate(_triangle(n, _combine(terms)))[0]


# -- determinants -------------------------------------------------------------


def determinant_polynomial(pencil: LinearPencil) -> Polynomial:
    """Exact det(L0 + x1 L1 + ... + xm Lm) as a polynomial in x1..xm.

    The joint support graph is split into connected components (so direct
    sums, permuted or not, factor automatically).  Each component of size
    s is scaled to integer matrices over one common denominator, its
    determinant is evaluated by fraction-free Bareiss elimination
    (_bareiss_det, on the upper rows of each symmetric evaluation) at the
    C(s+m, m) lattice points of the simplex |a| <= s, and the polynomial
    of total degree at most s through those values is recovered by
    _interpolate: forward differences along each axis give its Newton
    coefficients, which Horner steps then expand into powers.  Every
    step is in integers; the only division by the denominator comes
    last.  The determinant is the product of the components' (1 for the
    0 x 0 pencil).  Kept on the pencil (_det).
    """
    if pencil._det is None:
        dets = [_component_det(pencil, comp) for comp in _components(pencil)]
        pencil._det = (reduce(mul, dets) if dets
                       else Polynomial.constant(1, pencil.num_vars))
    return pencil._det


def _components(pencil: LinearPencil) -> List[List[int]]:
    n = pencil.size
    adj = [set() for _ in range(n)]
    for mat in pencil.matrices:
        for i in range(n):
            for j in range(i + 1, n):
                if mat.entries[i][j] != 0:
                    adj[i].add(j)
                    adj[j].add(i)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _component_det(pencil: LinearPencil, comp: List[int]) -> Polynomial:
    """Determinant of the principal subpencil on comp, by evaluation at
    integer points and interpolation."""
    s = len(comp)
    m = pencil.num_vars
    den, (a0, *ak) = _integer_uppers(
        [[[mat.entries[i][j] for j in comp] for i in comp]
         for mat in pencil.matrices])
    points = [a for a in product(range(s + 1), repeat=m) if sum(a) <= s]
    table = {}
    for a in points:
        terms = [(1, a0)] + [(c, u) for c, u in zip(a, ak) if c]
        table[a] = _bareiss_det(_triangle(s, _combine(terms)))
    den_s = den ** s
    return Polynomial(m, {e: Fraction(c, den_s)
                          for e, c in _interpolate(table, s, m).items()})


def _interpolate(table, s: int, m: int):
    """The nonzero coefficients {e: c} of the polynomial in m variables
    of total degree at most s that takes the integer value table[a] at
    each lattice point a of the simplex |a| <= s.  The polynomial must
    have integer coefficients; table is overwritten.

    Two passes run along every axis-parallel line of the simplex (a
    line along axis k from a with a_k = 0 has s - |a| + 1 points).  The
    first takes forward differences, after which table[a] is the
    Newton coefficient Delta^a f(0) of f = sum_a Delta^a f(0)
    prod_k binom(x_k, a_k).  The second turns each axis' binomials into
    powers, after which table[a] is the coefficient of x^a."""
    lines = [[a[:k] + (j,) + a[k + 1:] for j in range(s - sum(a) + 1)]
             for k in range(m) for a in table if not a[k]]
    for step in (_forward_differences, _newton_to_powers):
        for line in lines:
            g = [table[b] for b in line]
            step(g)
            table.update(zip(line, g))
    return {e: c for e, c in table.items() if c}


def _forward_differences(g: List[int]) -> None:
    """Replace the values g[x] at x = 0..n by the Newton coefficients
    Delta^j g(0), in place: g(x) = sum_j Delta^j g(0) binom(x, j)."""
    for j in range(1, len(g)):
        for i in range(len(g) - 1, j - 1, -1):
            g[i] -= g[i - 1]


def _newton_to_powers(g: List[int]) -> None:
    """Replace the Newton coefficients g[j] of q(x) = sum_j g[j]
    binom(x, j) by the coefficients of x^j, in place.  Each g[j] is
    divided by j! exactly (an integer q has integer quotients), and
    q = sum_j (g[j]/j!) x(x-1)...(x-j+1) is expanded by Horner from
    the top, q <- q (x - j) + g[j]/j!, with q kept in g[j:]."""
    fact = 1
    for j in range(2, len(g)):
        fact *= j
        q, r = divmod(g[j], fact)
        if r:
            raise AssertionError("internal error: interpolated polynomial "
                                 "has a non-integer coefficient")
        g[j] = q
    for j in range(len(g) - 2, 0, -1):
        for i in range(j, len(g) - 1):
            g[i] -= j * g[i + 1]


def _bareiss_det(rows: List[List[int]]) -> int:
    """Determinant of a symmetric integer matrix from its upper rows
    (_triangle) by fraction-free Bareiss elimination, which keeps the
    trailing block symmetric, so only its upper rows are updated; rows
    is overwritten and every division is exact.  A zero pivot is made
    nonzero by _repivot, a congruence of determinant 1."""
    n = len(rows)
    prev = 1
    for k in range(n - 1):
        if not rows[k][0] and not _repivot(rows, k):
            return 0
        col = rows[k]
        pivot = col[0]
        # row k + off holds (k + off, k + off + j); col holds (k, k + j)
        for off in range(1, n - k):
            row, f = rows[k + off], col[off]
            for j in range(n - k - off):
                row[j] = (row[j] * pivot - f * col[j + off]) // prev
        prev = pivot
    return rows[-1][0] if rows else 1


def _repivot(rows: List[List[int]], k: int) -> bool:
    """Make the zero diagonal entry (k, k) of the trailing block of the
    upper rows rows nonzero by a congruence of determinant 1, in place:
    swap k on both sides with the first later index whose diagonal
    entry is nonzero; if there is none, add the first index j with
    (k, j) nonzero to k on both sides, which makes (k, k) 2 (k, j).
    False, with rows untouched, when the trailing diagonal and row k are
    zero, and so is the determinant."""
    t = len(rows) - k
    full = [[rows[k + min(a, b)][abs(a - b)] for b in range(t)]
            for a in range(t)]
    swap = next((a for a in range(1, t) if full[a][a]), None)
    if swap is not None:
        order = list(range(t))
        order[0], order[swap] = swap, 0
        full = [[full[a][b] for b in order] for a in order]
    else:
        j = next((b for b in range(1, t) if full[0][b]), None)
        if j is None:
            return False
        full[0] = [v + c for v, c in zip(full[0], full[j])]
        for row in full:
            row[0] += row[j]
    rows[k:] = [row[a:] for a, row in enumerate(full)]
    return True


def direct_sum(pencils: Sequence[LinearPencil]) -> LinearPencil:
    """Block-diagonal sum; determinants multiply exactly."""
    pencils = list(pencils)
    if not pencils:
        raise DimensionMismatch("direct_sum of an empty list")
    m = pencils[0].num_vars
    for p in pencils:
        if p.num_vars != m:
            raise DimensionMismatch("pencils must share num_vars")
    total = sum(p.size for p in pencils)
    mats = []
    for k in range(m + 1):
        rows = [[Fraction(0)] * total for _ in range(total)]
        off = 0
        for p in pencils:
            sub = p.matrices[k].entries
            for i in range(p.size):
                for j in range(p.size):
                    rows[off + i][off + j] = sub[i][j]
            off += p.size
        mats.append(SymmetricMatrix(rows))
    return LinearPencil(mats)


def shift_pencil(pencil: LinearPencil, x0: Sequence) -> LinearPencil:
    """Re-base the pencil at x0: the constant term becomes L(x0)."""
    shifted0 = pencil.evaluate(x0)
    return LinearPencil((shifted0,) + pencil.matrices[1:])


# -- monic reduction ----------------------------------------------------------


@dataclass(frozen=True)
class MonicReduction:
    """Result of reduce_to_monic: det of the compressed pencil, the
    principal block on L0's pivots, equals det_scale times det of the
    monic pencil; det_scale > 0 is the product of that block's pivots."""
    pencil: LinearPencil
    det_scale: Fraction
    rank: int


def reduce_to_monic(pencil: LinearPencil) -> MonicReduction:
    """Compress a pencil with PSD L0 to an equivalent monic pencil.

    Steps: verify L0 is PSD and 0 is interior, which for PSD L0 holds
    exactly when ker L0 lies in ker L_j for every j (the range condition
    of _range_compression); compress to the principal block on L0's
    pivots, whose L0 = T D T^t the same elimination of L0 gives; normalize
    the positive diagonal D away exactly.  The last step needs every pivot
    to be a rational square (after an optional uniform rescale);
    otherwise no exact rational congruence to a monic pencil exists, and
    a structured error says so.
    """
    if not is_psd(pencil.matrices[0]).is_psd:
        raise ReductionError("L0 is not positive semidefinite")
    if pencil.monic():
        return MonicReduction(pencil, Fraction(1), pencil.size)
    _, compressed, steps, bad = _range_compression(pencil)
    if compressed is None:
        raise ReductionError(
            f"0 is not interior to the spectrahedron: L{bad} does not "
            f"vanish on ker L0")
    piv = [d for _, d, _ in steps]
    scale = Fraction(1)
    roots = [_exact_sqrt(d) for d in piv]
    if None in roots:
        # a uniform positive rescale changes no membership facts but can
        # fix the square classes; one retry with c = 1/d_1
        scale = 1 / piv[0]
        roots = [_exact_sqrt(scale * d) for d in piv]
        if None in roots:
            pretty = ", ".join(format_rational(d) for d in piv)
            raise ReductionError(
                f"no exact rational congruence makes the compressed L0 the "
                f"identity: LDL pivots [{pretty}] are not rational squares, "
                f"even after a uniform rescale")
    # L0 = W W^t with W = T diag(roots); T^-1 replays the elimination's
    # row operations on I, and W^-1 = diag(1/roots) T^-1
    r = compressed.size
    w_inv = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for p, _, mults in steps:
        for i, f in mults:
            w_inv[i] = [a - f * b for a, b in zip(w_inv[i], w_inv[p])]
    w_inv = [[v / root for v in row] for row, root in zip(w_inv, roots)]
    det_scale = Fraction(1)
    for d in piv:
        det_scale *= d
    out = []
    for mat in compressed.matrices:
        rows = [[v * scale for v in row] for row in mat.entries]
        out.append(_congruence(w_inv, rows))
    reduced = LinearPencil(out)
    if not reduced.monic():
        raise AssertionError("internal error: reduction did not reach I")
    return MonicReduction(reduced, det_scale, compressed.size)


def _congruence(b, m) -> SymmetricMatrix:
    """b m b^t for plain row lists of Fractions, m symmetric, over the
    integers: with row i of b equal to b_i / beta_i and m = m' / mu for
    integer b_i and m', entry (i, j) is b_i m' b_j^t / (beta_i beta_j mu).
    """
    mu = _lcm_denominators(v for row in m for v in row)
    mi = [[v.numerator * (mu // v.denominator) for v in row] for row in m]
    bi, betas = [], []
    for row in b:
        beta = _lcm_denominators(row)
        betas.append(beta)
        bi.append([v.numerator * (beta // v.denominator) for v in row])
    # m' is symmetric, so row j of b_i m' is b_i . m'_j
    bm = [[sum(map(mul, row, mrow)) for mrow in mi] for row in bi]
    n = len(bi)
    return SymmetricMatrix._trusted(_mirror([[
        Fraction(sum(map(mul, bm[i], bi[j])), betas[i] * betas[j] * mu)
        for j in range(i, n)] for i in range(n)]))


@lru_cache(maxsize=16)
def _range_compression(pencil: LinearPencil):
    """(the verdict of L0, the compression, its L0's steps (_ldl), None)
    when ker L0 lies in ker L_j for every j >= 1, else (the verdict,
    None, None, the first j for which it does not), all read off one
    _eliminate of L0's integer multiple (_integer_rows).  A PD L0 is its
    own compression, with its own steps; a non-PSD L0 gets none.

    Each index k that is not a pivot gives the kernel vector _lift(e_k),
    and these span ker L0.  The pivot coordinates span a complement of
    ker L0, so when every L_j vanishes on ker L0, L(x) is congruent to
    blockdiag(L(x)[P, P], 0): the compression is the principal block on
    L0's pivots P.  It has the membership verdicts of the pencil, and its
    determinant is, up to a positive constant, that of any compression
    to a complement of ker L0.  Its L0's steps are L0's on the pivot rows,
    renumbered to block positions: a Schur complement entry on pivot rows
    reads only pivot rows, and each pivot is the first pivot row left.

    For PSD L0 this range condition holds exactly when 0 is interior to
    the spectrahedron: for v in ker L0, v'(L0 + eps L_j)v = eps v'L_j v,
    so both signs of eps keep the matrix PSD only if that form is 0, and
    a PSD matrix M with v'Mv = 0 has Mv = 0, here eps L_j v; conversely
    a small eps keeps the compression PD.  Cached because membership
    asks it again for every point of one pencil.
    """
    den, rows = _integer_rows(pencil.matrices[0])
    base, steps, _ = _eliminate(rows)
    if base is Membership.INTERIOR:
        return base, pencil, _ldl(steps, den), None
    if base is Membership.OUTSIDE:
        return base, None, None, None
    n = pencil.size
    pivots = [idx[0] for idx, _ in steps]
    kernel = [_lift([Fraction(int(i == k)) for i in range(n)], steps)
              for k in sorted(set(range(n)) - set(pivots))]
    for j, mat in enumerate(pencil.matrices[1:], start=1):
        if any(sum(map(mul, row, v)) for v in kernel for row in mat.entries):
            return base, None, None, j
    # _eliminate pivots in increasing index order
    compressed = LinearPencil([
        SymmetricMatrix._trusted(tuple(tuple(mat.entries[i][k] for k in pivots)
                                       for i in pivots))
        for mat in pencil.matrices])
    at = {p: k for k, p in enumerate(pivots)}
    steps = [(at[p], d, [(at[i], f) for i, f in mults if i in at])
             for p, d, mults in _ldl(steps, den)]
    return base, compressed, steps, None


# -- text format --------------------------------------------------------------
#
# First line:  pencil N m
# Then m+1 blocks:  a header line 'L k' followed by N rows of N rational
# entries.  '#' comments and blank lines are allowed anywhere.


def format_pencil(pencil: LinearPencil) -> str:
    lines = [f"pencil {pencil.size} {pencil.num_vars}"]
    for k, mat in enumerate(pencil.matrices):
        lines.append(f"L {k}")
        for row in mat.entries:
            lines.append(" ".join(format_rational(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_pencil(text: str) -> LinearPencil:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise ParseError("empty pencil document")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "pencil":
        raise ParseError("expected header 'pencil N m'", lineno)
    try:
        size, num_vars = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError("pencil header needs integer N and m", lineno)
    # N = 0 is the empty pencil of a rank-0 reduction, with determinant 1
    if size < 0 or num_vars < 1:
        raise ParseError("pencil needs N >= 0 and m >= 1", lineno)
    pos = 1
    mats = []
    for k in range(num_vars + 1):
        if pos >= len(lines):
            raise ParseError(f"missing block 'L {k}'", lines[-1][0])
        lineno, header = lines[pos]
        if header.split() != ["L", str(k)]:
            raise ParseError(f"expected block header 'L {k}', got {header!r}",
                             lineno)
        pos += 1
        rows = []
        for _ in range(size):
            if pos >= len(lines):
                raise ParseError(f"block 'L {k}' is missing rows", lines[-1][0])
            lineno, row_text = lines[pos]
            pos += 1
            tokens = row_text.split()
            if len(tokens) != size:
                raise ParseError(
                    f"expected {size} entries, got {len(tokens)}", lineno)
            rows.append([parse_rational(tok, lineno) for tok in tokens])
        try:
            mats.append(SymmetricMatrix(rows))
        except ValueError as exc:
            raise ParseError(f"block 'L {k}': {exc}", lines[pos - 1][0])
    if pos != len(lines):
        raise ParseError("trailing content after the last block",
                         lines[pos][0])
    return LinearPencil(mats)
