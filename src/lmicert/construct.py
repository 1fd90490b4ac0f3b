"""Monic pencil representations of two-variable real-zero polynomials.

The target identity is det(I + x1 L1 + x2 L2) = p(x1, x2) / p(0, 0)
with symmetric d x d matrices, d = deg p.  The normalization used here
fixes L2 and the diagonal of L1 from the curve's intercepts with the
x2 axis: with p(0, c_i) = 0 and s_i the implicit slope dx2/dx1 at
(0, c_i),

    L2 = diag(-1/c_1, ..., -1/c_d),    [L1]_ii = s_i / c_i.

When the x2 axis does not meet the curve in d distinct real points,
the line of the first integer slope that the plane's slope cells decide
becomes the x2 axis (intercept_normalize, rzcheck.SlopeCells).

That pins everything except the off-diagonal of L1, which is found by
matching det coefficients numerically (degree 3 and up; its model
builds and factors a grid of pencils once per point) or by a one
unknown closed form (degree 2).  The numeric solve is the package's
only use of numpy, imported on its first call.  An intercept is made
exact when its one rounding is a root (_snap_root), and the matched L1
when one of its roundings has the target determinant (_try_promote).
Where c_i is not a root, -1/c_i and s_i/c_i are rounded to the 2^-64
grid (fixed_part): short entries keep every later integer short.  The
returned pencil is verified once, by the expansion the match already
made, before it is returned, so floating point can only cause
failures, never wrong answers: an exact identity det = c * p with c > 0
plus a positive definite L0 certifies the whole region, where c = det
L(0)/p(0) is the ExactMatch constant, and only an approximate match
falls back on sampled membership points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, isqrt
from typing import List, Optional, Sequence, Tuple

from .errors import (BasePointError, CertifiedNotRZError, ConstructionError,
                     DimensionMismatch)
from .pencil import (LinearPencil, Membership, SymmetricMatrix, _bareiss_det,
                     determinant_polynomial, direct_sum, is_psd, membership)
from .poly import Polynomial, UnivariatePolynomial, _exact_sqrt
from .realroots import count_real_roots, isolate_real_roots
from .rzcheck import RaySampler, RZVerdict, SlopeCells, rz_check

__all__ = ["InterceptData", "RepresentationResult", "VerifyOutcome",
           "intercept_normalize", "fixed_part", "match_offdiagonal",
           "represent", "verify_representation",
           "CLOSED_FORM", "DIRECT_SUM", "COEFFICIENT_MATCHING",
           "EXACT_MATCH", "APPROX_MATCH", "MISMATCH"]

CLOSED_FORM = "ClosedForm"
DIRECT_SUM = "DirectSum"
COEFFICIENT_MATCHING = "CoefficientMatching"

EXACT_MATCH = "ExactMatch"
APPROX_MATCH = "ApproxMatch"
MISMATCH = "Mismatch"

_MATCH_DEGREE_CAP = 6
_INTERCEPT_RESOLUTION = Fraction(1, 2 ** 64)

Matrix2 = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


@dataclass(frozen=True)
class InterceptData:
    """Axis intercepts (0, c_i) of the curve and the implicit slopes
    there.  Roots are exact rationals when the curve passes through
    one, otherwise rational approximations accurate to the working
    resolution; exact[i] says whether p(0, c_i) = 0."""
    roots: Tuple[Fraction, ...]
    slopes: Tuple[Fraction, ...]
    exact: Tuple[bool, ...]


@dataclass(frozen=True)
class VerifyOutcome:
    kind: str                        # EXACT_MATCH / APPROX_MATCH / MISMATCH
    constant: Optional[Fraction]     # det = constant * p, when exact
    residual: Optional[float]        # scaled coefficient deviation
    worst_monomial: Optional[Tuple[int, ...]]
    membership_points: int           # spot-check sample size (ApproxMatch)


@dataclass(frozen=True)
class RepresentationResult:
    pencil: LinearPencil
    residual: float
    method: str
    coordinate_change: Optional[Matrix2]
    outcome: Optional[VerifyOutcome]  # None until represent verifies


# -- intercept normalization ---------------------------------------------------


def _snap_root(g: UnivariatePolynomial, low: Fraction, high: Fraction,
               mid: Fraction) -> Fraction:
    """The root in the isolating interval if it is a fraction a/b with
    b <= 10^6, else the midpoint.  Such a root lies within 2^-64 of mid
    and every other such fraction 1/(b 10^6) >= 10^-12 from it, so it is
    the one candidate, the closest such fraction to mid."""
    if low == high:
        return low
    cand = mid.limit_denominator(10 ** 6)
    if low < cand < high and g.evaluate(cand) == 0:
        return cand
    return mid


def _intercepts(p: Polynomial) -> Optional[InterceptData]:
    """Intercept data if p(0, mu) has deg p distinct real roots, else
    None (a coordinate change is needed)."""
    d = int(p.degree())
    g = p.restrict((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
    if g.degree() != d:
        return None
    counts = count_real_roots(g)
    if not (counts.distinct_real == d and counts.real_with_multiplicity == d):
        return None
    found = []
    for iv in isolate_real_roots(g, _INTERCEPT_RESOLUTION):
        mid = iv.midpoint()
        c = _snap_root(g, iv.low, iv.high, mid)
        # g(c) = 0 when the isolation returned c exactly or the snap
        # found it; a midpoint is a 2^-64 approximation
        found.append((c, iv.low == iv.high or c != mid))
    # inner intercepts first, positive before negative on ties; this
    # fixes the representation among the diag-permutation equivalents
    found.sort(key=lambda ce: (abs(ce[0]), ce[0] < 0))
    roots = [c for c, _ in found]
    p1 = p.partial_derivative(1)
    p2 = p.partial_derivative(2)
    slopes: List[Fraction] = []
    for c in roots:
        at = (Fraction(0), c)
        denom = p2.evaluate(at)
        if denom == 0:
            # cannot happen at a simple root of p(0, mu) when c is
            # exact; approximate roots sit close enough that the
            # derivative stays away from zero, but guard anyway
            raise ConstructionError(
                f"the implicit slope at the axis intercept {c} is undefined")
        slopes.append(-p1.evaluate(at) / denom)
    return InterceptData(tuple(roots), tuple(slopes),
                         tuple(exact for _, exact in found))


def _apply_change(p: Polynomial, t: int) -> Polynomial:
    """p(y2, y1 + t y2), p in the coordinates y of x = R y, R = ((0, 1),
    (1, t)): x1^a x2^b becomes the sum over k of C(b, k) t^(b-k) y1^k
    y2^(a+b-k)."""
    out = {}
    for (a, b), coeff in p.terms.items():
        for k in range(b + 1):
            key = (k, a + b - k)
            out[key] = out.get(key, 0) + coeff * comb(b, k) * t ** (b - k)
    return Polynomial(2, out)


def intercept_normalize(p: Polynomial
                        ) -> Tuple[Polynomial, InterceptData, Optional[Matrix2]]:
    """Arrange d = deg p distinct real intercepts on the x2 axis.

    Returns (p, data, None) when p's restriction to the x2 axis has
    degree d and d distinct real roots.  Otherwise it returns (q, data,
    R) for x = R y, R = ((0, 1), (1, t)), t the first of 0, 1, -1, 2,
    -2, ... that the slope cells of p at the origin decide: q(0, y2) =
    p(y2, t y2) is p along (1, t).  A decided slope has D(t) h_d(1, t)
    != 0, so that line meets the curve in d distinct points; every
    |t| >= 2^e is decided.  Raises ConstructionError when D = 0 (p is
    not square-free), and CertifiedNotRZError, with the line (1, t) as
    the witness, when its roots are not all real.
    """
    _check_base_point(p)
    data = _intercepts(p)
    if data is not None:
        return p, data, None
    origin = (Fraction(0), Fraction(0))
    cells = SlopeCells.at(p, origin)
    if cells is None:
        raise ConstructionError(
            f"p is not square-free: its slope discriminant D vanishes, so "
            f"no line through the origin meets the curve in "
            f"{int(p.degree())} distinct points")
    t = next(t for n in count() for t in (n, -n)
             if cells.cell(t, 1) is not None)
    change = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(t)))
    q = _apply_change(p, t)
    data = _intercepts(q)
    if data is None:
        # degree d and simple roots along (1, t): some are not real
        raise _not_rz_along(p, (1, t))
    return q, data, change


def fixed_part(data: InterceptData
               ) -> Tuple[SymmetricMatrix, Tuple[Fraction, ...]]:
    """The pinned-down pencil entries, L2 and the diagonal of L1: the
    exact -1/c_i and s_i/c_i where c_i is a root of p(0, x2), which
    keeps _try_promote open, else both rounded to the 2^-64 grid.  That
    is sound: such a c_i is itself a 2^-64 approximation, and
    verification decides on the pencil as printed.  A value the grid
    would make 0 stays exact, so L2 stays invertible where |c_i| > 2^65."""
    if any(c == 0 for c in data.roots):
        raise ConstructionError("axis intercept at the origin; renormalize")
    l2 = SymmetricMatrix.diagonal([-1 / c if e else _on_grid(-1 / c)
                                   for c, e in zip(data.roots, data.exact)])
    diag1 = tuple(s / c if e else _on_grid(s / c)
                  for s, c, e in zip(data.slopes, data.roots, data.exact))
    return l2, diag1


def _on_grid(value: Fraction) -> Fraction:
    return (round(value / _INTERCEPT_RESOLUTION) * _INTERCEPT_RESOLUTION
            or value)


# -- coefficient matching ------------------------------------------------------


def _target_polynomial(p: Polynomial) -> Polynomial:
    return p * (1 / p.evaluate((Fraction(0), Fraction(0))))


def _pencil_from_entries(l2: SymmetricMatrix, diag1: Sequence[Fraction],
                         off: Sequence) -> LinearPencil:
    d = l2.size
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i, a in enumerate(diag1):
        rows[i][i] = a
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            rows[i][j] = rows[j][i] = Fraction(off[k])
            k += 1
    l1 = SymmetricMatrix(rows)
    return LinearPencil([SymmetricMatrix.identity(d), l1, l2])


def _coefficient_residual(pencil: LinearPencil, target: Polynomial) -> float:
    """Largest |coefficient| of det(pencil) - target."""
    diff = determinant_polynomial(pencil) - target
    return max((abs(float(c)) for c in diff.terms.values()), default=0.0)


def _grid(d: int) -> List[Tuple[Fraction, Fraction]]:
    # (d+1)^2 points determine a bidegree-(d,d) polynomial, so zero
    # grid residual means exact coefficient agreement; offsets dodge
    # symmetric root patterns
    ts = [Fraction(-45, 100) + Fraction(90, 100) * k / d + Fraction(371, 10000)
          for k in range(d + 1)]
    return [(a, b) for a in ts for b in ts]


def _lm_minimize(model, u0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt from u0, where model(u) gives the residual at
    u and a function for the Jacobian there; returns (u, r) at the stop."""
    import numpy as np
    u = u0.astype(float).copy()
    r, jacobian = model(u)
    norm = np.linalg.norm(r)
    lam = 1e-3
    for _ in range(80):
        if np.max(np.abs(r)) < 1e-15:
            break
        jac = jacobian()
        grad = jac.T @ r
        hess = jac.T @ jac
        for _ in range(10):
            try:
                step = np.linalg.solve(hess + lam * np.eye(len(u)), -grad)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            cand = u + step
            # a step below the rounding of u has nothing new to factor
            if not np.array_equal(cand, u):
                r_cand, jac_cand = model(cand)
                norm_cand = np.linalg.norm(r_cand)
                if norm_cand < norm:
                    u, r, jacobian, norm = cand, r_cand, jac_cand, norm_cand
                    lam = max(lam * 0.3, 1e-14)
                    break
            lam *= 10
        else:
            break
    return u, r


def _check_match_degree(d: int) -> None:
    if d > _MATCH_DEGREE_CAP:
        raise ConstructionError(
            f"degree {d} exceeds the matching cap {_MATCH_DEGREE_CAP}; "
            f"supply a factorization")


def match_offdiagonal(p: Polynomial,
                      fixed: Tuple[SymmetricMatrix, Tuple[Fraction, ...]],
                      tol: float = 1e-9, seed: int = 0
                      ) -> RepresentationResult:
    """Solve for the off-diagonal of L1 so the pencil determinant
    matches p / p(0,0).

    Damped Newton least squares on a value grid, multi-start (all-zero
    plus 16 seeded random starts).  The model is evaluated once per
    point: it builds and factors the grid's pencils once, and inverts
    them only where a step starts.  Each start that reaches the
    tolerance is re-checked by exact rational determinant expansion; an
    exact rounding of the winner replaces it if one has the target
    determinant (_try_promote, at most one more expansion).  The result
    carries no outcome: represent verifies the pencil it finally returns.
    """
    l2, diag1 = fixed
    d = l2.size
    if int(p.degree()) != d:
        raise DimensionMismatch("fixed part size differs from degree")
    _check_match_degree(d)
    target = _target_polynomial(p)
    n_unknowns = d * (d - 1) // 2
    if n_unknowns == 0:
        pencil = _pencil_from_entries(l2, diag1, [])
        residual = _coefficient_residual(pencil, target)
        return RepresentationResult(pencil, residual, CLOSED_FORM, None, None)

    import numpy as np
    points = _grid(d)
    tvals = np.array([float(target.evaluate(pt)) for pt in points])
    avals, bvals = np.array(points, dtype=float).T
    l2diag = np.array([l2[i, i] for i in range(d)], dtype=float)
    diag1f = np.array(diag1, dtype=float)
    # u fills the pairs i < j in _pencil_from_entries' row-major order
    base = np.zeros((len(points), d, d))
    base[:, range(d), range(d)] = (1.0 + np.outer(avals, diag1f)
                                   + np.outer(bvals, l2diag))
    rows, cols = np.triu_indices(d, 1)

    def model(u: np.ndarray):
        m = base.copy()
        m[:, rows, cols] = m[:, cols, rows] = np.outer(avals, u)
        dets = np.linalg.det(m)

        def jacobian() -> np.ndarray:
            # d det / d u_k = 2 a det [m^-1]_ij; C order, which the
            # fancy index does not give, keeps the rounding of jac.T @ r
            inv = np.linalg.inv(m)[:, rows, cols]
            return np.ascontiguousarray((2.0 * avals * dets)[:, None] * inv)

        return dets - tvals, jacobian

    rng = np.random.default_rng(seed)
    starts = [np.zeros(n_unknowns)]
    starts += [rng.normal(0.0, 0.4 + 0.2 * s, n_unknowns) for s in range(16)]
    best_residual = float("inf")
    best_pencil: Optional[LinearPencil] = None
    for u0 in starts:
        try:
            u, r = _lm_minimize(model, u0)
        except np.linalg.LinAlgError:
            # a grid point landed on the determinantal curve, so the
            # Jacobian's inverse is singular: the start is lost
            continue
        if np.max(np.abs(r)) > max(tol, 1e-6):
            continue
        pencil = _pencil_from_entries(l2, diag1, u.tolist())
        residual = _coefficient_residual(pencil, target)
        if residual < best_residual:
            best_residual, best_pencil = residual, pencil
            if residual <= tol * 1e-2:
                break
    if best_pencil is None or best_residual > tol:
        raise ConstructionError(
            "no start of the off-diagonal solve reached the tolerance; "
            "retry with a different seed",
            residual=None if best_pencil is None else best_residual)
    promoted = _try_promote(best_pencil, target)
    if promoted is not None:
        # det(promoted) == target exactly
        best_pencil, best_residual = promoted, 0.0
    return RepresentationResult(best_pencil, best_residual,
                                COEFFICIENT_MATCHING, None, None)


def _try_promote(pencil: LinearPencil, target: Polynomial
                 ) -> Optional[LinearPencil]:
    """The first rounding of L1 to denominators at most dmax, for dmax
    from 1 to 1000, whose determinant is the target.  The last rounding
    finds a rational solution whenever each winner entry lies within
    1/(2 b 1000) of its entry a/b, b <= 1000, since the Farey neighbours
    of a/b of order 1000 lie 1/(b 1000) away; the coarser ones also
    reach a rational solution near a winner that is another, nearby
    solution.  A rounding is expanded only if its determinant takes the
    target's value at (1, 1), which costs one integer determinant.

    Every rounding keeps L2 = diag(-1/c_i), and at x1 = 0 the target is
    p(0, x2)/p(0, 0) while det(I + x2 L2) = prod(1 - x2/c_i): the two
    agree only when every c_i is a root of p(0, x2).  So no rounding
    is tried when some intercept is not one, which d evaluations of
    the target show."""
    l1, l2 = pencil.matrices[1], pencil.matrices[2]
    d = l1.size
    if any(target.evaluate((Fraction(0), -1 / l2[i, i])) for i in range(d)):
        return None
    value = target.evaluate((Fraction(1), Fraction(1)))
    for dmax in (1, 2, 3, 4, 6, 8, 12, 16, 60, 1000):
        rows = [[l1[i, j].limit_denominator(dmax) for j in range(d)]
                for i in range(d)]
        cand = LinearPencil([pencil.matrices[0], SymmetricMatrix(rows),
                             pencil.matrices[2]])
        scale, upper = cand._scaled((1, 1))
        if (Fraction(_bareiss_det(upper), scale ** d) == value
                and determinant_polynomial(cand) == target):
            return cand
    return None


# -- top-level construction ----------------------------------------------------


def _degree_one(p: Polynomial) -> LinearPencil:
    p0 = p.evaluate((Fraction(0), Fraction(0)))
    a1 = p.coefficient((1, 0)) / p0
    a2 = p.coefficient((0, 1)) / p0
    return LinearPencil([SymmetricMatrix.identity(1),
                         SymmetricMatrix([[a1]]),
                         SymmetricMatrix([[a2]])])


def _sqrt_fraction(value: Fraction) -> Fraction:
    """Square root, exact when the value is a rational square, else a
    rational approximation good to ~2^-64."""
    root = _exact_sqrt(value)
    if root is None:
        root = Fraction(isqrt((value.numerator << 128) // value.denominator),
                        1 << 64)
    return root


def _degree_two(p: Polynomial, data: InterceptData) -> LinearPencil:
    l2, diag1 = fixed_part(data)
    t = _target_polynomial(p).coefficient
    # det = (1 + a1 x1 + b1 x2)(1 + a2 x1 + b2 x2) - l^2 x1^2, so the
    # x1^2 coefficient pins the single unknown.  a1 a2 is read from the
    # coefficients, not from the rounded intercepts: a1 + a2 = t10 and
    # a1 b2 + a2 b1 = t11 give (b2 - b1)^2 a1 a2 = t10 t01 t11 - t11^2
    # - t10^2 t02 (Vieta: b1 + b2 = t01, b1 b2 = t02), so l^2 is exact
    # and its sign is never a rounding artefact
    t10, t01, t11, t02 = t((1, 0)), t((0, 1)), t((1, 1)), t((0, 2))
    l_squared = ((t10 * t01 * t11 - t11 * t11 - t10 * t10 * t02)
                 / (t01 * t01 - 4 * t02) - t((2, 0)))
    if l_squared < 0:
        raise ConstructionError(
            "off-diagonal closed form needs a nonnegative square; the "
            "input is likely not rigidly convex")
    l_value = _sqrt_fraction(l_squared)
    return _pencil_from_entries(l2, diag1, [l_value])


def _undo_change(pencil: LinearPencil, change: Matrix2) -> LinearPencil:
    """The pencil in x from the one in y, for x = R y with R = ((0, 1),
    (1, t)): y = (x2 - t x1, x1), so y1 B1 + y2 B2 = x1 (B2 - t B1) +
    x2 B1."""
    unit, b1, b2 = pencil.matrices
    return LinearPencil([unit, b2 + b1.scale(-change[1][1]), b1])


def represent(p: Polynomial, tol: float = 1e-9,
              factors: Optional[Sequence[Polynomial]] = None,
              seed: int = 0,
              sampler: Optional[RaySampler] = None) -> RepresentationResult:
    """Monic pencil representation of the region of p around the origin.

    Dispatch: degree up to 1 in closed form; a supplied factorization
    as a direct sum of per-factor pencils; degree 2 by the one-unknown
    closed form; degrees 3 to 6 by coefficient matching.  Inputs
    failing the line test are rejected with the witness; the output is
    verified once, as a whole, before it is returned.
    """
    _check_base_point(p)
    verdict = rz_check(p, (Fraction(0), Fraction(0)), sampler)
    if verdict.certified_not_rz():
        raise _not_rz(verdict)

    if factors is None:
        pencil, method, change = _unverified_pencil(p, tol, seed)
        failure = "representation failed final verification"
    else:
        product = Polynomial.constant(1, 2)
        for f in factors:
            product = product * f
        if product != p:
            raise ConstructionError("supplied factors do not multiply to p")
        # every factor of p passes the line test on the rays p passed,
        # so the parts need no scan of their own; as p(0,0) > 0, the
        # factors negative there come in pairs, and each is negated
        origin = (Fraction(0), Fraction(0))
        try:
            pencil = direct_sum([
                _unverified_pencil(-f if f.evaluate(origin) < 0 else f,
                                   tol, seed)[0] for f in factors])
        except CertifiedNotRZError as err:
            # the factor's restriction to its witness line divides p's
            raise _not_rz_along(p, err.verdict.witness[0]) from None
        method, change = DIRECT_SUM, None
        failure = "direct sum failed verification"
    outcome = verify_representation(p, pencil, tol)
    if outcome.kind == MISMATCH:
        raise ConstructionError(failure, residual=outcome.residual)
    residual = 0.0 if outcome.kind == EXACT_MATCH else (outcome.residual or 0.0)
    return RepresentationResult(pencil, residual, method, change, outcome)


def _not_rz(verdict: RZVerdict) -> CertifiedNotRZError:
    """The error for a failed line test, naming its witness."""
    direction, counts = verdict.witness
    return CertifiedNotRZError(
        f"not a real-zero polynomial: direction "
        f"{tuple(str(c) for c in direction)} has only "
        f"{counts.real_with_multiplicity} real of {counts.total_degree} "
        f"roots", verdict=verdict)


def _not_rz_along(p: Polynomial, v: Sequence) -> CertifiedNotRZError:
    """The error for a line through the origin, along v, on which p has
    nonreal roots: the line test of p on that line alone."""
    return _not_rz(rz_check(p, (Fraction(0), Fraction(0)),
                            RaySampler(2, 1, 0, extra_directions=(v,))))


def _check_base_point(p: Polynomial) -> None:
    if p.num_vars != 2:
        raise DimensionMismatch("construction is two-variable only")
    if p.evaluate((Fraction(0), Fraction(0))) <= 0:
        raise BasePointError("p(0,0) must be positive")


def _unverified_pencil(p: Polynomial, tol: float, seed: int
                       ) -> Tuple[LinearPencil, str, Optional[Matrix2]]:
    """The pencil, method and coordinate change for one two-variable
    polynomial with p(0,0) > 0, not yet verified."""
    d = int(p.degree())
    if d <= 1:
        return _degree_one(p), CLOSED_FORM, None
    _check_match_degree(d)

    q, data, change = intercept_normalize(p)
    if d == 2:
        pencil = _degree_two(q, data)
        method = CLOSED_FORM
    else:
        matched = match_offdiagonal(q, fixed_part(data), tol=tol, seed=seed)
        pencil, method = matched.pencil, matched.method
    if change is not None:
        pencil = _undo_change(pencil, change)
    return pencil, method, change


# -- verification --------------------------------------------------------------


@lru_cache(maxsize=None)
def _spot_points(num_vars: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """The 100 seeded sample points in [-8, 8]^num_vars, drawn once."""
    rng = random.Random(987654321)
    return tuple(tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                       for _ in range(num_vars)) for _ in range(100))


def _membership_spot_check(p: Polynomial, pencil: LinearPencil,
                           band: Fraction) -> Tuple[bool, int]:
    """Interior points of the pencil must have p > -band, boundary
    points |p| <= band; band 0 asks for the signs an exact match has."""
    for checked, pt in enumerate(_spot_points(p.num_vars), start=1):
        kind = membership(pencil, pt)
        if kind is Membership.INTERIOR:
            ok = p.evaluate(pt) > -band
        elif kind is Membership.BOUNDARY:
            ok = abs(p.evaluate(pt)) <= band
        else:
            ok = True
        if not ok:
            return False, checked
    return True, 100


def verify_representation(p: Polynomial, pencil: LinearPencil,
                          tol: float = 1e-9) -> VerifyOutcome:
    """Compare det(pencil) with p through s = det(0)/p(0) and det - s p.

    Mismatch when p(0) = 0, det(0) = 0 or s <= 0, since a positive
    definite L0 = L(0) has det(0) > 0.  ExactMatch, with constant s, when
    det = s p coefficient for coefficient and L0 is positive definite.
    That is a complete certificate, so no point is sampled: the
    spectrahedron {L >= 0} is then the closure of the component of
    {p > 0} containing the origin (Helton-Vinnikov, CPAM 60 (2007),
    section 2), whose interior has p > 0 and whose boundary has p = 0.
    ApproxMatch when every coefficient of det - s p is within tol, L0 is
    positive definite and 100 seeded sample points agree in sign up to
    the coefficient error.  Mismatch otherwise.
    """
    if pencil.num_vars != p.num_vars:
        raise DimensionMismatch("pencil and polynomial dimensions differ")
    det = determinant_polynomial(pencil)
    zero = (0,) * p.num_vars
    det0, p0 = det.coefficient(zero), p.coefficient(zero)
    if p0 == 0 or det0 == 0 or det0 / p0 <= 0:
        return VerifyOutcome(MISMATCH, None, None, None, 0)
    scale = det0 / p0
    diff = det - p * scale
    base_pd = is_psd(pencil.matrices[0]).is_pd
    if diff.is_zero():
        if not base_pd:
            return VerifyOutcome(MISMATCH, None, None, None, 0)
        return VerifyOutcome(EXACT_MATCH, scale, None, None, 0)
    worst, worst_mono, bound = 0.0, None, Fraction(0)
    for expo, coeff in diff.sorted_terms():
        dev = abs(float(coeff))
        if dev > worst:
            worst, worst_mono = dev, expo
        bound = max(bound, abs(coeff))
    if worst <= tol and base_pd:
        # |diff| at the sample points is at most the largest exact
        # coefficient times the monomial mass on the sampling box
        # [-8, 8]^2; the float worst may round below that coefficient
        band = bound * 17 ** max(int(p.degree()), 1) / scale
        ok, points = _membership_spot_check(p, pencil, band)
        if not ok:
            return VerifyOutcome(MISMATCH, None, worst, worst_mono,
                                 points)
        return VerifyOutcome(APPROX_MATCH, None, worst, None, points)
    return VerifyOutcome(MISMATCH, None, worst, worst_mono, 0)
