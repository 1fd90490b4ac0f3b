"""Seeded inputs and exact reference values, in the standard library only.

Nothing here imports lmicert: the inputs a workload feeds to the
program and the values its outputs are checked against come from this
module alone, so the oracles do not depend on the code being timed.

Polynomials are dicts {(e1, e2): Fraction}; matrices are lists of
lists of Fraction.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from typing import Dict, List, Sequence, Tuple

Poly = Dict[Tuple[int, int], F]
Matrix = List[List[F]]


# -- polynomials --------------------------------------------------------


def poly_add(p: Poly, q: Poly, scale: F = F(1)) -> Poly:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, F(0)) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (a1, a2), c in p.items():
        for (b1, b2), d in q.items():
            e = (a1 + b1, a2 + b2)
            out[e] = out.get(e, F(0)) + c * d
    return {e: c for e, c in out.items() if c}


def poly_pow(p: Poly, k: int) -> Poly:
    out: Poly = {(0, 0): F(1)}
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_eval(p: Poly, x: Sequence[F]) -> F:
    """Exact value at a rational point, by Horner in x1 over rows that
    are Horner in x2."""
    by_e1: Dict[int, Dict[int, F]] = {}
    for (e1, e2), c in p.items():
        by_e1.setdefault(e1, {})[e2] = c
    total = F(0)
    for e1 in range(max(by_e1, default=0), -1, -1):
        row = by_e1.get(e1, {})
        inner = F(0)
        for e2 in range(max(row, default=0), -1, -1):
            inner = inner * x[1] + row.get(e2, 0)
        total = total * x[0] + inner
    return total


def poly_degree(p: Poly) -> int:
    return max(e1 + e2 for e1, e2 in p)


def linear(c0, c1, c2) -> Poly:
    return {e: F(c) for e, c in (((0, 0), c0), ((1, 0), c1), ((0, 1), c2))
            if c}


def format_poly(p: Poly) -> str:
    """The program's polynomial file format: a `vars 2` header, then
    one `coefficient e1 e2` line per term."""
    lines = ["vars 2"]
    for (e1, e2), c in sorted(p.items()):
        lines.append(f"{c} {e1} {e2}")
    return "\n".join(lines) + "\n"


def parse_poly(text: str) -> Poly:
    """Read the program's polynomial format (two variables only)."""
    out: Poly = {}
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows or rows[0] != ["vars", "2"]:
        raise ValueError("expected a 'vars 2' header")
    for fields in rows[1:]:
        if len(fields) != 3:
            raise ValueError(f"bad term line {fields!r}")
        e = (int(fields[1]), int(fields[2]))
        out[e] = out.get(e, F(0)) + F(fields[0])
    return {e: c for e, c in out.items() if c}


def restrict(p: Poly, x0: Sequence[F], v: Sequence[F]) -> List[F]:
    """Coefficients, lowest first, of t -> p(x0 + t v), by exact
    evaluation at t = 0..deg p and interpolation."""
    nodes = list(range(poly_degree(p) + 1))
    return _interpolate(nodes, [poly_eval(p, (x0[0] + t * v[0],
                                              x0[1] + t * v[1]))
                                for t in nodes])


def _trim(f: List[F]) -> List[F]:
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _divmod1(f: List[F], g: List[F]) -> Tuple[List[F], List[F]]:
    f, g = _trim(list(f)), _trim(g)
    q = [F(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        q[shift] = c
        for i, gi in enumerate(g):
            f[shift + i] -= c * gi
        f = _trim(f)
    return q, f


def squarefree_part(f: List[F]) -> List[F]:
    """f / gcd(f, f'): every real root of f is a simple root of it."""
    a, b = _trim(list(f)), _trim([k * c for k, c in enumerate(f)][1:])
    while b:
        a, b = b, _divmod1(a, b)[1]
    return _divmod1(f, a)[0]


def eval1(f: Sequence[F], t: F) -> F:
    total = F(0)
    for c in reversed(f):
        total = total * t + c
    return total


# -- matrices -----------------------------------------------------------


def identity(n: int) -> Matrix:
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _scaled(a: Matrix) -> Tuple[List[List[int]], int]:
    """(integer matrix, d) with a = integer matrix / d."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in a], d


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product, summed in integers over common denominators:
    Fraction sums of the Cayley pencils' entries made set-up time
    depend on the seed."""
    (ia, da), (ib, db) = _scaled(a), _scaled(b)
    cols = list(zip(*ib))
    return [[F(sum(x * y for x, y in zip(row, col)), da * db)
             for col in cols] for row in ia]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def bareiss_det(m: Matrix) -> F:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, F(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return F(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else F(1)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination on the
    integer matrix d * m: every division is exact, and at the end each
    pivot is det(d * m) and the right half is det(d * m) (d * m)^-1."""
    im, d = _scaled(m)
    n = len(im)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(im)]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        for i in range(n):
            if i != k:
                f, g = pk[k], a[i][k]
                a[i] = [(f * v - g * w) // prev for v, w in zip(a[i], pk)]
        prev = pk[k]
    return [[F(d * v, prev) for v in row[n:]] for row in a]


def pencil_at(mats: Sequence[Matrix], x: Sequence[F]) -> Matrix:
    n = len(mats[0])
    return [[mats[0][i][j] + x[0] * mats[1][i][j] + x[1] * mats[2][i][j]
             for j in range(n)] for i in range(n)]


def format_pencil(mats: Sequence[Matrix]) -> str:
    """The program's pencil file format: `pencil N m`, then blocks
    `L k` of N rows each."""
    lines = [f"pencil {len(mats[0])} {len(mats) - 1}"]
    for k, mat in enumerate(mats):
        lines.append(f"L {k}")
        lines.extend(" ".join(str(v) for v in row) for row in mat)
    return "\n".join(lines) + "\n"


def parse_pencil(text: str) -> List[Matrix]:
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if len(rows[0]) != 3 or rows[0][0] != "pencil":
        raise ValueError("expected a 'pencil N m' header")
    n, m = int(rows[0][1]), int(rows[0][2])
    mats, pos = [], 1
    for k in range(m + 1):
        if rows[pos] != ["L", str(k)]:
            raise ValueError(f"expected block 'L {k}'")
        mats.append([[F(t) for t in row] for row in rows[pos + 1:pos + 1 + n]])
        pos += 1 + n
    if pos != len(rows):
        raise ValueError("trailing content in pencil")
    return mats


# -- interpolation ------------------------------------------------------


def _interpolate(xs: Sequence[int], ys: Sequence[F]) -> List[F]:
    """Monomial coefficients of the polynomial through (xs, ys), by
    Newton divided differences."""
    n = len(xs)
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [F(0)] * n
    for i in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - xs[i]) + dd[i]
        shifted = [F(0)] + coeffs[:-1]
        coeffs = [s - xs[i] * c for s, c in zip(shifted, coeffs)]
        coeffs[0] += dd[i]
    return coeffs


def determinant_poly(mats: Sequence[Matrix]) -> Poly:
    """det(L0 + x1 L1 + x2 L2) by Bareiss determinants on the
    (n+1) x (n+1) integer grid and exact interpolation."""
    n = len(mats[0])
    nodes = list(range(n + 1))
    # per x2 node, coefficients in x1; then interpolate each in x2
    per_x2 = []
    for b in nodes:
        ys = [bareiss_det(pencil_at(mats, (F(a), F(b)))) for a in nodes]
        per_x2.append(_interpolate(nodes, ys))
    out: Poly = {}
    for e1 in range(n + 1):
        col = _interpolate(nodes, [row[e1] for row in per_x2])
        for e2, c in enumerate(col):
            if c:
                out[(e1, e2)] = c
    return out


# -- seeded inputs ------------------------------------------------------


def random_symmetric(rng: random.Random, n: int) -> Matrix:
    """Entries k/1 or k/2 with |k| <= 2."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = F(rng.randint(-2, 2),
                                        rng.choice((1, 2)))
    return rows


def determinantal(rng: random.Random, d: int,
                  generic: bool = False) -> Tuple[List[Matrix], Poly]:
    """A monic pencil I + x1 A1 + x2 A2 of size d with small random
    rational entries and its determinant, of total degree exactly d.
    Such a polynomial is real zero at the origin by construction.

    With `generic`, commuting A1, A2 are redrawn: they split the curve
    into d lines, which the oval count of a degree-d determinantal
    curve does not describe, and represent fails on some of them
    (README.md, known defects)."""
    while True:
        mats = [identity(d)] + [random_symmetric(rng, d) for _ in range(2)]
        if generic and matmul(mats[1], mats[2]) == \
                matmul(mats[2], mats[1]):
            continue
        p = determinant_poly(mats)
        if poly_degree(p) == d:
            return mats, p


def rational_change(rng: random.Random) -> Tuple[Poly, Poly]:
    """Two linear forms l1, l2 of an invertible rational change of
    coordinates."""
    while True:
        a = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
             for _ in range(2)]
        if a[0][0] * a[1][1] - a[0][1] * a[1][0] != 0:
            return linear(0, *a[0]), linear(0, *a[1])


def fermat(rng: random.Random, k: int) -> Poly:
    """1 - l1^k - l2^k for even k under a random rational coordinate
    change: every line through the origin meets the curve in only two
    real points, so the polynomial is certifiably not real zero."""
    l1, l2 = rational_change(rng)
    one: Poly = {(0, 0): F(1)}
    return poly_add(poly_add(one, poly_pow(l1, k), F(-1)),
                    poly_pow(l2, k), F(-1))


def cayley_orthogonal(rng: random.Random, n: int) -> Matrix:
    """Rational orthogonal Q = (I - S)(I + S)^-1 for a random
    skew-symmetric S with a full off-diagonal band, so that Q is dense
    and the pencil built from it does not split into blocks."""
    s = [[F(0)] * n for _ in range(n)]
    for i in range(n - 1):
        v = F(rng.choice((-1, 1)), rng.choice((1, 2)))
        s[i][i + 1], s[i + 1][i] = v, -v
    eye = identity(n)
    minus = [[eye[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]
    return matmul(minus, inverse(plus))


def diagonal_pencil(rng: random.Random, n: int):
    """Q^T diag(1 + a_i x1 + b_i x2) Q with rational orthogonal Q.

    Returns (matrices, forms) with forms the (a_i, b_i): membership
    of a point is decided by the signs of the forms and the
    determinant is their product, both known exactly."""
    forms = []
    while len(forms) < n:
        a, b = F(rng.randint(-3, 3), rng.randint(1, 2)), \
            F(rng.randint(-3, 3), rng.randint(1, 2))
        if a or b:
            forms.append((a, b))
    q = cayley_orthogonal(rng, n)
    qt = transpose(q)
    mats = [identity(n)]
    for k in range(2):
        diag = [[F(0)] * n for _ in range(n)]
        for i, form in enumerate(forms):
            diag[i][i] = form[k]
        mats.append(matmul(matmul(qt, diag), q))
    return mats, forms


def forms_label(forms, x: Sequence[F]) -> str:
    values = [1 + a * x[0] + b * x[1] for a, b in forms]
    if all(v > 0 for v in values):
        return "Interior"
    if all(v >= 0 for v in values):
        return "Boundary"
    return "Outside"


def forms_product(forms) -> Poly:
    out: Poly = {(0, 0): F(1)}
    for a, b in forms:
        out = poly_mul(out, linear(1, a, b))
    return out


def membership_point(rng: random.Random, forms, label: str) -> Tuple[F, F]:
    """A point with the given membership label: along a random
    rational direction, the first zero of a form is a boundary point;
    half of it lies inside and twice it outside.  Directions that never
    leave the region are redrawn."""
    while True:
        v = (F(rng.randint(-5, 5), rng.randint(1, 3)),
             F(rng.randint(-5, 5), rng.randint(1, 3)))
        slopes = [a * v[0] + b * v[1] for a, b in forms]
        hits = [-1 / s for s in slopes if s < 0]
        if not hits:
            continue
        t = min(hits) * {"Interior": F(1, 2), "Boundary": F(1),
                         "Outside": F(2)}[label]
        return (t * v[0], t * v[1])


def ellipse(rng: random.Random) -> Poly:
    """1 - a^2 x1^2 - b^2 x2^2 with rational a, b: its axis intercepts
    are rational, so an exact pencil exists in closed form."""
    a, b = (F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(2))
    return {(0, 0): F(1), (2, 0): -a * a, (0, 2): -b * b}


def embedded_singular(rng: random.Random):
    """A monic r x r pencil embedded, with weights w, into a larger
    pencil with a zero block: reducing it to monic form must give rank
    r and det_scale prod(w_i^2)."""
    r = rng.randint(1, 3)
    n = r + rng.randint(1, 2)
    w = [F(rng.randint(1, 3)) for _ in range(r)]
    base = [identity(r)] + [[[F(0)] * r for _ in range(r)] for _ in range(2)]
    for k in (1, 2):
        for i in range(r):
            for j in range(i, r):
                base[k][i][j] = base[k][j][i] = F(rng.randint(-2, 2), 2)
    perm = list(range(n))
    rng.shuffle(perm)
    big = []
    for mat in base:
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(r):
            for j in range(r):
                rows[perm[i]][perm[j]] = w[i] * w[j] * mat[i][j]
        big.append(rows)
    scale = F(1)
    for v in w:
        scale *= v * v
    return base, big, scale, r


# -- named curves -------------------------------------------------------

_ONE: Poly = {(0, 0): F(1)}
_X1, _X2 = linear(0, 1, 0), linear(0, 0, 1)
_R2 = poly_add(poly_pow(_X1, 2), poly_pow(_X2, 2))

DISC = poly_add(_ONE, _R2, F(-1))
CONCENTRIC = poly_mul(DISC, poly_add({(0, 0): F(4)}, _R2, F(-1)))
ODD_CUBIC = poly_mul(linear(1, -1, 0), poly_add({(0, 0): F(4)}, _R2, F(-1)))
TANGENT_CIRCLES = poly_add(
    poly_mul(_R2, poly_add(_R2, linear(-1, 12, 0))),
    {(2, 0): F(36)})
# det(I + x1 A1 + x2 A2) for commuting A1, A2: two real lines with
# irrational intercepts
REDUCIBLE_CONIC = parse_poly("vars 2\n1 0 0\n-1/2 1 0\n-2 0 1\n"
                             "-1/4 2 0\n3 1 1\n-4 0 2\n")
LOBE = poly_add(poly_add(poly_pow(_X1, 3), {(1, 2): F(-3)}),
                poly_pow(_R2, 2), F(-1))
