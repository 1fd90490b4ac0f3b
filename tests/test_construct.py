"""Monic pencil construction and exact verification of the results."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lmicert import construct
from lmicert import pencil as pencil_module
from lmicert.cli import main
from lmicert.construct import (APPROX_MATCH, CLOSED_FORM,
                               COEFFICIENT_MATCHING, DIRECT_SUM, EXACT_MATCH,
                               MISMATCH, InterceptData, VerifyOutcome,
                               fixed_part, intercept_normalize,
                               match_offdiagonal, represent,
                               verify_representation)
from lmicert.errors import (BasePointError, CertifiedNotRZError,
                            ConstructionError, DimensionMismatch)
from lmicert.pencil import (LinearPencil, Membership, SymmetricMatrix,
                            determinant_polynomial, format_pencil, is_psd,
                            membership, parse_pencil)
from lmicert.poly import (Polynomial, UnivariatePolynomial,
                          format_polynomial, parse_polynomial)
from lmicert.realroots import isolate_real_roots
from lmicert.rzcheck import RaySampler, SlopeCells

F = Fraction
x1 = Polynomial.variable(1, 2)
x2 = Polynomial.variable(2, 2)
one = Polynomial.constant(1, 2)

DISC = one - x1 ** 2 - x2 ** 2
SMALL = RaySampler(2, deterministic_count=31, random_count=8)


def sym(rows):
    return SymmetricMatrix([[F(v) for v in row] for row in rows])


# === intercept normalization ===

def test_disc_intercepts_are_exact():
    q, data, change = intercept_normalize(DISC)
    assert q == DISC
    assert change is None
    assert data.roots == (F(1), F(-1))
    assert data.slopes == (F(0), F(0))


def test_intercept_sort_prefers_small_then_positive():
    p = DISC * (4 * one - x1 ** 2 - x2 ** 2)
    _, data, _ = intercept_normalize(p)
    assert data.roots == (F(1), F(-1), F(2), F(-2))


def test_degenerate_axis_triggers_coordinate_change():
    # restriction to the x2 axis is constant; the x1 axis, slope 0,
    # meets the strip at -1 and 1, so the axes swap
    p = one - x1 ** 2
    q, data, change = intercept_normalize(p)
    assert change == ((0, 1), (1, 0))
    assert q == one - x2 ** 2
    assert set(data.roots) == {F(1), F(-1)}


def test_intercept_normalize_needs_positive_origin():
    with pytest.raises(BasePointError):
        intercept_normalize(DISC.shift((2, 0)))


ORIGIN = (F(0), F(0))


def _slope_order(t):
    """The integer slopes 0, 1, -1, 2, -2, ... before t."""
    order = [0] + [s for n in range(1, abs(t) + 1) for s in (n, -n)]
    return order[:order.index(t)]


def test_three_lines_take_the_first_slope_the_cells_decide():
    # (1 - x1)(1 + x1)(1 + x2): along slope 0 the degree drops, and the
    # lines of slope 1 and -1 pass through the nodes (-1, -1) and (1, -1)
    p = (one - x1) * (one + x1) * (one + x2)
    cells = SlopeCells.at(p, ORIGIN)
    assert [cells.cell(t, 1) for t in (0, 1, -1)] == [None] * 3
    assert cells.cell(2, 1) is not None
    q, data, change = intercept_normalize(p)
    assert change == ((0, 1), (1, 2))
    assert sorted(data.roots) == [F(-1), F(-1, 2), F(1)]


def _axis_degenerate_input(k):
    """det(I + x1 L1 + x2 L2) of size d = 2 + k % 3 whose x2 axis fails:
    L2 diagonal with one zero entry (odd k) or two equal entries (even
    k), and L1 with entries n/q, |n| <= 3, q <= 4."""
    rng = random.Random(9000 + k)
    d = 2 + k % 3

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 4))

    diag = [entry() for _ in range(d)]
    i, j = rng.sample(range(d), 2)
    if k % 2:
        diag[i] = F(0)
    else:
        diag[j] = diag[i]
    rows = [[F(0)] * d for _ in range(d)]
    for a in range(d):
        for b in range(a, d):
            rows[a][b] = rows[b][a] = entry()
    return determinant_polynomial(LinearPencil([
        SymmetricMatrix.identity(d), SymmetricMatrix(rows),
        SymmetricMatrix.diagonal(diag)]))


@pytest.mark.parametrize("k", range(12))
def test_axis_degenerate_determinants_get_a_decided_integer_slope(k):
    p = _axis_degenerate_input(k)
    cells = SlopeCells.at(p, ORIGIN)
    if cells is None:
        # k = 0 draws L1 = 0, so p = (1 + c x2)^2
        with pytest.raises(ConstructionError, match="not square-free"):
            intercept_normalize(p)
        return
    q, data, change = intercept_normalize(p)
    t = change[1][1]
    assert change == ((0, 1), (1, t)) and t.denominator == 1
    t = int(t)
    assert cells.cell(t, 1) is not None
    assert all(cells.cell(s, 1) is None for s in _slope_order(t))
    # q on its x2 axis is p along (1, t), with deg p distinct real roots
    assert len(set(data.roots)) == int(p.degree())
    for s in (F(1, 3), F(-2), F(5, 7)):
        assert q.evaluate((F(0), s)) == p.evaluate((s, t * s))
    try:
        result = represent(p, sampler=SMALL)
    except ConstructionError:
        return
    assert result.coordinate_change == change
    assert result.outcome.kind in (EXACT_MATCH, APPROX_MATCH)
    if result.outcome.kind == EXACT_MATCH:
        assert determinant_polynomial(result.pencil) == \
            p * result.outcome.constant


def _sturm_distinct_real_roots(coeffs):
    """Distinct real roots of a polynomial with Fraction coefficients,
    lowest degree first, from its Sturm chain in Fraction arithmetic."""
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i in range(len(b)):
                a[len(a) - len(b) + i] -= q * b[i]
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    chain = [list(coeffs), [k * c for k, c in enumerate(coeffs)][1:]]
    while True:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(signs):
        signs = [s for s in signs if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_minus = [(1 if c[-1] > 0 else -1) * (-1) ** (len(c) - 1)
                for c in chain]
    at_plus = [1 if c[-1] > 0 else -1 for c in chain]
    return variations(at_minus) - variations(at_plus)


@pytest.mark.parametrize("p, witness", [
    # the x2 axis gives 1 - mu^4, and slope 0 is decided
    (one - x1 ** 4 - x2 ** 4, (F(1), F(0))),
    # the x2 axis has degree 0, slope 0 is a zero of P, and slope 1 is
    # decided, along which p is 1 - mu^4
    (one - x1 ** 2 * x2 ** 2, (F(1), F(1))),
])
def test_a_decided_line_with_nonreal_roots_is_the_witness(p, witness):
    with pytest.raises(CertifiedNotRZError) as err:
        intercept_normalize(p)
    verdict = err.value.verdict
    assert verdict.certified_not_rz()
    v, counts = verdict.witness
    assert v == witness
    coeffs = p.restrict(ORIGIN, v).coeffs
    assert len(coeffs) == 5
    assert _sturm_distinct_real_roots(coeffs) == \
        counts.real_with_multiplicity == 2


def test_a_factor_failing_its_line_reports_the_counts_of_p():
    # the one ray (1, 0) passes p = (1 - x1^2 x2^2)(1 + x1); its first
    # factor fails on the line (1, 1), where p has 3 real of 5 roots
    f = one - x1 ** 2 * x2 ** 2
    p = f * (one + x1)
    with pytest.raises(CertifiedNotRZError) as err:
        represent(p, factors=[f, one + x1], sampler=RaySampler(2, 1, 0))
    v, counts = err.value.verdict.witness
    assert v == (F(1), F(1))
    assert (counts.real_with_multiplicity, counts.total_degree) == (3, 5)
    assert "3 real of 5 roots" in str(err.value)


def test_fixed_part_from_disc():
    _, data, _ = intercept_normalize(DISC)
    l2, diag1 = fixed_part(data)
    assert l2 == SymmetricMatrix.diagonal([F(-1), F(1)])
    assert diag1 == (F(0), F(0))


def test_fixed_part_rejects_origin_intercept():
    data = InterceptData((F(0), F(1)), (F(0), F(0)), (True, True))
    with pytest.raises(ConstructionError):
        fixed_part(data)


def _exact_fixed_part(data):
    return ([-1 / c for c in data.roots],
            [s / c for s, c in zip(data.slopes, data.roots)])


def test_fixed_part_rounds_inexact_intercepts_to_the_dyadic_grid():
    # seed 7 has one exact intercept, seeds 9 to 11 none
    for seed in (7, 9, 10, 11):
        p = determinant_polynomial(_half_integer_pencil(seed, 3))
        _, data, change = intercept_normalize(p)
        assert change is None
        assert data.exact.count(True) == (1 if seed == 7 else 0)
        l2, diag1 = fixed_part(data)
        got = ([l2[i, i] for i in range(3)], list(diag1))
        for values, exact_values in zip(got, _exact_fixed_part(data)):
            for value, exact_value, exact in zip(values, exact_values,
                                                 data.exact):
                if exact:
                    assert value == exact_value
                    continue
                den = value.denominator
                assert den & (den - 1) == 0 and den <= 2 ** 64
                assert abs(value - exact_value) <= F(1, 2 ** 65)


def test_fixed_part_keeps_exact_intercepts_exact():
    odd_cubic = parse_polynomial((GOLDEN / "odd_cubic.poly").read_text())
    concentric = DISC * (4 * one - x1 ** 2 - x2 ** 2)
    rational = determinant_polynomial(_rational_pencil(5009, 3))
    for p in (odd_cubic, concentric, rational):
        _, data, _ = intercept_normalize(p)
        assert all(data.exact)
        l2, diag1 = fixed_part(data)
        assert (l2, list(diag1)) == (
            SymmetricMatrix.diagonal(_exact_fixed_part(data)[0]),
            _exact_fixed_part(data)[1])


def test_exact_dyadic_intercept_beyond_the_snap_bound_stays_exact():
    # 3/2^21 has a denominator above 10^6, so _snap_root would not find
    # it, but the isolation returns it exactly: p(0, c) = 0 decides, not
    # the size of the denominator
    c = F(3, 2 ** 21)
    p = (one - x2 * (1 / c)) * (one + x2) * (one + x1 + 2 * x2)
    _, data, change = intercept_normalize(p)
    assert change is None
    assert c in data.roots and all(data.exact)
    l2, _ = fixed_part(data)
    assert l2[data.roots.index(c), data.roots.index(c)] == F(-2 ** 21, 3)


def test_far_inexact_intercepts_keep_a_nonzero_fixed_part():
    # the intercepts +-10^20/sqrt(2) lie beyond 2^65, where -1/c rounds
    # to 0 on the 2^-64 grid: L2 would lose its inverse, and promotion
    # its d evaluations of the target at -1/L2[i, i]
    p = (one + x1 - x2) * (one - x1 ** 2 - F(2, 10 ** 40) * x2 ** 2)
    _, data, change = intercept_normalize(p)
    assert change is None and data.exact == (True, False, False)
    l2, _ = fixed_part(data)
    assert [l2[i, i] for i in range(3)] == _exact_fixed_part(data)[0]
    result = represent(p, sampler=SMALL)
    assert result.outcome.kind == APPROX_MATCH


# === closed forms ===

@pytest.mark.parametrize("p", [2 * one + 4 * x1 - 6 * x2, 3 * one - x1])
def test_match_offdiagonal_closes_degree_one(p):
    # no off-diagonal entry to solve for; 3 - x1 is constant on the x2
    # axis, so its normal form is 3 - y2
    q, data, _ = intercept_normalize(p)
    result = match_offdiagonal(q, fixed_part(data))
    assert result.method == CLOSED_FORM
    assert result.residual == 0
    assert determinant_polynomial(result.pencil) == \
        q * (1 / q.evaluate(ORIGIN))


def test_degree_zero():
    result = represent(5 * one, sampler=SMALL)
    assert result.method == CLOSED_FORM
    assert result.outcome.kind == EXACT_MATCH
    assert result.pencil.size == 1


def test_degree_one_is_exact():
    p = one - x1 + 2 * x2
    result = represent(p, sampler=SMALL)
    assert result.method == CLOSED_FORM
    assert result.pencil.size == 1
    assert determinant_polynomial(result.pencil) == p
    assert result.outcome.kind == EXACT_MATCH
    assert result.residual == 0.0


def test_disc_representation_exact():
    result = represent(DISC, sampler=SMALL)
    assert result.method == CLOSED_FORM
    assert result.outcome.kind == EXACT_MATCH
    pencil = result.pencil
    assert pencil.size == 2
    assert pencil.matrices[2] == SymmetricMatrix.diagonal([F(-1), F(1)])
    assert abs(pencil.matrices[1][0, 1]) == 1
    assert determinant_polynomial(pencil) == DISC
    assert membership(pencil, (0, 0)) is Membership.INTERIOR
    assert membership(pencil, (1, 0)) is Membership.BOUNDARY
    assert membership(pencil, (2, 0)) is Membership.OUTSIDE


def test_irrational_intercepts_give_approx_match():
    p = one - x1 ** 2 - 2 * x2 ** 2
    result = represent(p, sampler=SMALL)
    assert result.outcome.kind == APPROX_MATCH
    assert result.residual < 1e-15
    assert result.outcome.membership_points == 100


# det(I + x1 A1 + x2 A2) for commuting A1, A2: two real lines with
# irrational intercepts, so the off-diagonal entry is exactly 0
COMMUTING_CONIC = "vars 2\n1 0 0\n-1/2 1 0\n-2 0 1\n-1/4 2 0\n3 1 1\n-4 0 2\n"


def test_degree_two_reads_l_squared_exactly():
    # read from the intercepts rounded at 2^-64, l^2 = 0 came out with
    # the sign of the rounding error, and a negative one rejected this
    # input as not rigidly convex
    result = represent(parse_polynomial(COMMUTING_CONIC), sampler=SMALL)
    assert result.method == CLOSED_FORM
    assert result.outcome.kind == APPROX_MATCH
    assert result.pencil.matrices[1][0, 1] == 0


@pytest.mark.parametrize("text", [
    COMMUTING_CONIC, "vars 2\n1 0 0\n-1 2 0\n-2 0 2\n1/3 1 1\n1/2 0 1\n"])
def test_degree_two_off_diagonal_ignores_intercept_rounding(text):
    p = parse_polynomial(text)
    _, data, _ = intercept_normalize(p)
    shifted = InterceptData(tuple(c + F(1, 2 ** 40) for c in data.roots),
                            data.slopes, data.exact)
    assert construct._degree_two(p, shifted).matrices[1][0, 1] == \
        construct._degree_two(p, data).matrices[1][0, 1]


# === coefficient matching ===

def test_product_of_lines_matches_exactly():
    p = (one - x2) * (one + x2) * (one + x1 + 2 * x2)
    result = represent(p, sampler=SMALL)
    assert result.method == COEFFICIENT_MATCHING
    assert result.outcome.kind == EXACT_MATCH
    assert determinant_polynomial(result.pencil) == p
    # pinned entries survive the solve
    assert result.pencil.matrices[2] == \
        SymmetricMatrix.diagonal([F(2), F(-1), F(1)])


def test_concentric_quartic_recovers_block_structure():
    p = DISC * (4 * one - x1 ** 2 - x2 ** 2)
    result = represent(p, sampler=SMALL)
    assert result.pencil.size == 4
    assert result.pencil.matrices[2] == \
        SymmetricMatrix.diagonal([F(-1), F(1), F(-1, 2), F(1, 2)])
    assert result.outcome.kind in (EXACT_MATCH, APPROX_MATCH)
    assert result.residual <= 1e-9


def test_matching_requires_consistent_fixed_part():
    _, data, _ = intercept_normalize(DISC)
    with pytest.raises(DimensionMismatch):
        match_offdiagonal(DISC * DISC, fixed_part(data))


def test_degree_cap_gives_one_message_and_yields_to_factors(tmp_path,
                                                             capsys):
    # a determinantal cubic times a determinantal quartic: degree 7, one
    # above the matching cap unless --factors splits it
    cubic = determinant_polynomial(_rational_pencil(5000, 3))
    quartic = determinant_polynomial(_rational_pencil(5001, 4))
    p = cubic * quartic
    message = "degree 7 exceeds the matching cap 6; supply a factorization"
    q, data, _ = intercept_normalize(p)
    with pytest.raises(ConstructionError) as err:
        match_offdiagonal(q, fixed_part(data))
    assert str(err.value) == message
    ppath = tmp_path / "product.poly"
    ppath.write_text(format_polynomial(p))
    fast = ["--rays", "31", "--random", "8"]
    assert main(["represent", str(ppath), *fast]) == 3
    assert json.loads(capsys.readouterr().out) == \
        {"error": message, "kind": "ConstructionError"}
    fpath = tmp_path / "factors.txt"
    fpath.write_text(format_polynomial(cubic) + "\n"
                     + format_polynomial(quartic))
    target = tmp_path / "sum.pencil"
    assert main(["represent", str(ppath), "--factors", str(fpath),
                 "--out", str(target), *fast]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["method"], doc["size"]) == (DIRECT_SUM, 7)
    assert main(["verify", str(ppath), str(target)]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == doc["kind"]


def test_seeded_cubic_determinants_round_trip():
    rng = random.Random(2024)
    done = 0
    while done < 6:
        mats = []
        for _ in range(2):
            rows = [[F(0)] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    rows[i][j] = rows[j][i] = F(rng.randint(-2, 2), 2)
            mats.append(SymmetricMatrix(rows))
        p = determinant_polynomial(
            LinearPencil([SymmetricMatrix.identity(3)] + mats))
        if p.degree() != 3:
            continue
        result = represent(p, tol=1e-9, sampler=SMALL)
        assert result.outcome.kind in (EXACT_MATCH, APPROX_MATCH)
        assert result.residual <= 1e-8
        done += 1


def _half_integer_pencil(seed, d):
    rng = random.Random(seed)
    mats = [SymmetricMatrix.identity(d)]
    for _ in range(2):
        rows = [[F(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = F(rng.randint(-2, 2), 2)
        mats.append(SymmetricMatrix(rows))
    return LinearPencil(mats)


def _rational_pencil(seed, d):
    """I + x1 L1 + x2 L2 with small-denominator entries and a diagonal
    L2 of distinct entries, so the intercepts and [L1]_ii are exact."""
    rng = random.Random(seed)
    while True:
        diag = [F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
                for _ in range(d)]
        if len(set(diag)) == d:
            break
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = F(rng.randint(-4, 4),
                                        rng.choice([1, 2, 3, 4, 5, 6, 8, 12]))
    return LinearPencil([SymmetricMatrix.identity(d), SymmetricMatrix(rows),
                         SymmetricMatrix.diagonal(diag)])


def _matching_expansions(monkeypatch, pencil):
    """match_offdiagonal on det(pencil), with its expansions split into
    those of the promotion and the others, and the count of starts
    that reached the tolerance."""
    q, data, change = intercept_normalize(determinant_polynomial(pencil))
    assert change is None
    expansions, reached, promoting = [], [], [False]
    expand, minimize = construct.determinant_polynomial, construct._lm_minimize
    promote = construct._try_promote

    def counted_expand(pencil):
        expansions.append(promoting[0])
        return expand(pencil)

    def counted_minimize(model, u0):
        u, r = minimize(model, u0)
        reached.append(max(abs(r)) <= 1e-6)
        return u, r

    def counted_promote(pencil, target):
        promoting[0] = True
        try:
            return promote(pencil, target)
        finally:
            promoting[0] = False

    monkeypatch.setattr(construct, "determinant_polynomial", counted_expand)
    monkeypatch.setattr(construct, "_lm_minimize", counted_minimize)
    monkeypatch.setattr(construct, "_try_promote", counted_promote)
    result = match_offdiagonal(q, fixed_part(data))
    assert result.residual <= 1e-9
    return (result, expansions.count(True), expansions.count(False),
            sum(reached))


def test_singular_jacobian_ends_only_its_start(monkeypatch):
    # a grid point on the determinantal curve makes the Jacobian's
    # inverse singular; that start is lost and the next ones run
    np = pytest.importorskip("numpy")
    inv, calls = np.linalg.inv, []

    def singular_first(m):
        calls.append(len(calls))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(m)

    monkeypatch.setattr(np.linalg, "inv", singular_first)
    q, data, change = intercept_normalize(
        determinant_polynomial(_half_integer_pencil(7, 3)))
    assert change is None
    assert match_offdiagonal(q, fixed_part(data)).residual <= 1e-9
    assert len(calls) > 1


def test_matching_expands_each_pencil_once(monkeypatch):
    # one expansion per start that reached the tolerance, none for the
    # winner again, and none for a promotion whose candidates all
    # differ from the target at (1, 1)
    result, promoting, others, reached = _matching_expansions(
        monkeypatch, _half_integer_pencil(7, 3))
    assert result.residual > 0
    assert promoting == 0
    assert others == reached >= 1


def test_matching_factors_each_pencil_stack_once(monkeypatch):
    # the solve builds the grid of pencils once per point: no stack is
    # factored by det twice (the stopping point included), and inv runs
    # at most once per stack, at the points the LM steps from
    np = pytest.importorskip("numpy")
    det, inv = np.linalg.det, np.linalg.inv
    dets, invs = [], []

    def recorded(fn, calls):
        def wrapped(m):
            calls.append(m.tobytes())
            return fn(m)
        return wrapped

    monkeypatch.setattr(np.linalg, "det", recorded(det, dets))
    monkeypatch.setattr(np.linalg, "inv", recorded(inv, invs))
    q, data, change = intercept_normalize(
        determinant_polynomial(_half_integer_pencil(7, 3)))
    assert change is None
    assert match_offdiagonal(q, fixed_part(data)).residual <= 1e-9
    assert len(dets) > len(invs) >= 1
    assert len(set(dets)) == len(dets)
    assert len(set(invs)) == len(invs) and set(invs) <= set(dets)


# seed 5009 promotes with every bound from 8 up; seed 5012 only with the
# bounds 6 to 60, since its solve ends at another real solution about
# 1e-3 from the rational one
@pytest.mark.parametrize("seed", [5009, 5012])
def test_promotion_expands_one_candidate(monkeypatch, seed):
    result, promoting, others, reached = _matching_expansions(
        monkeypatch, _rational_pencil(seed, 3))
    assert result.residual == 0
    assert promoting == 1
    assert others == reached >= 1


def test_inexact_intercepts_make_no_promotion_screen(monkeypatch):
    # an intercept that is not a root keeps det(I + x2 L2) away from
    # p(0, x2) / p(0, 0) for every rounding of L1, so represent screens
    # none; with exact intercepts the promotion still runs
    screens = []
    screen = construct._bareiss_det
    monkeypatch.setattr(construct, "_bareiss_det",
                        lambda rows: screens.append(rows) or screen(rows))
    generic = determinant_polynomial(_half_integer_pencil(7, 3))
    result = represent(generic, sampler=SMALL)
    assert result.method == COEFFICIENT_MATCHING
    assert result.outcome.kind == APPROX_MATCH
    assert screens == []
    rational = determinant_polynomial(_rational_pencil(5009, 3))
    result = represent(rational, sampler=SMALL)
    assert result.outcome.kind == EXACT_MATCH
    assert len(screens) >= 1


def _ladder_promote(pencil, target):
    """Reference for _try_promote: every rounding of L1, dmax = 1 up to
    1000, is expanded until one has the target determinant."""
    l1 = pencil.matrices[1]
    d = l1.size
    for dmax in (1, 2, 3, 4, 6, 8, 12, 16, 60, 1000):
        rows = [[l1[i, j].limit_denominator(dmax) for j in range(d)]
                for i in range(d)]
        cand = LinearPencil([pencil.matrices[0], SymmetricMatrix(rows),
                             pencil.matrices[2]])
        if determinant_polynomial(cand) == target:
            return cand
    return None


def _promotion_inputs():
    for k in range(13):
        yield determinant_polynomial(_rational_pencil(5000 + k, 3 + k % 3))
    rng = random.Random(77)
    for d in (3, 3, 4, 4, 5):
        while True:
            pencil = _half_integer_pencil(rng.randrange(10 ** 6), d)
            p = determinant_polynomial(pencil)
            if p.degree() == d:
                break
        yield p


def test_promotion_matches_the_expanding_ladder(monkeypatch):
    # the winners of the solve, rounded by _try_promote and by the
    # reference, on rational-entry pencils with diagonal L2 and on
    # generic determinantal inputs
    winners = []
    promote = construct._try_promote

    def kept(pencil, target):
        winners.append((pencil, target))
        return promote(pencil, target)

    monkeypatch.setattr(construct, "_try_promote", kept)
    for p in _promotion_inputs():
        q, data, _ = intercept_normalize(p)
        match_offdiagonal(q, fixed_part(data))
    assert len(winners) == 18
    promoted = 0
    for pencil, target in winners:
        got = promote(pencil, target)
        assert got == _ladder_promote(pencil, target)
        promoted += got is not None
    assert promoted >= 3


def _ladder_snap(g, low, high, mid):
    """Reference for _snap_root: candidates for denominator bounds 1 up
    to 10^6, in turn."""
    if low == high:
        return low
    for dmax in (1, 2, 3, 4, 6, 8, 12, 16, 24, 60, 1000, 10 ** 6):
        cand = mid.limit_denominator(dmax)
        if low < cand < high and g.evaluate(cand) == 0:
            return cand
    return mid


def _snap_polynomials():
    """Seeded polynomials with rational roots a/b, b from 1 to 10^6 and
    one just above, each times an irreducible quadratic (irrational
    roots); yields (g, rational roots)."""
    rng = random.Random(11)
    for k in range(8):
        dens = [1, 10 ** 6, 10 ** 6 + 1] if k == 0 else [
            rng.randint(1, 10 ** rng.randint(1, 6)) for _ in range(3)]
        roots = {F(rng.randint(-3 * b, 3 * b), b) for b in dens}
        g = UnivariatePolynomial([-rng.choice([2, 3, 5, 7]), 0, 1])
        for r in roots:
            g = g * UnivariatePolynomial([-r, 1])
        yield g, roots


def test_snap_root_matches_the_ladder_with_one_evaluation(monkeypatch):
    evaluated = []
    evaluate = UnivariatePolynomial.evaluate

    def counted(f, x):
        evaluated.append(x)
        return evaluate(f, x)

    resolution = construct._INTERCEPT_RESOLUTION
    snapped = 0
    for g, roots in _snap_polynomials():
        for iv in isolate_real_roots(g, resolution):
            mid = iv.midpoint()
            expected = _ladder_snap(g, iv.low, iv.high, mid)
            monkeypatch.setattr(UnivariatePolynomial, "evaluate", counted)
            evaluated.clear()
            got = construct._snap_root(g, iv.low, iv.high, mid)
            monkeypatch.undo()
            assert got == expected
            assert len(evaluated) <= 1
            exact = [r for r in roots if iv.low <= r <= iv.high]
            if exact and exact[0].denominator <= 10 ** 6:
                assert got == exact[0]
                snapped += 1
            else:
                assert got == mid
    assert snapped >= 15


def test_coordinate_change_is_undone():
    # the seed draws the random rays and the solve's starts, not the
    # change
    p = (one - x1) * (one + x1) * (one + x2)
    for seed in (0, 5):
        result = represent(p, seed=seed,
                           sampler=RaySampler(2, 31, 8, seed=seed))
        assert result.coordinate_change == ((0, 1), (1, 2))
        assert result.outcome.kind == EXACT_MATCH
        c = result.outcome.constant
        assert determinant_polynomial(result.pencil) == p * c


def _compose_by_products(p, t):
    """p(y2, y1 + t y2) by Polynomial products, one factor at a time."""
    y2 = Polynomial.variable(2, 2)
    images = (y2, Polynomial.variable(1, 2) + y2 * t)
    out = Polynomial.zero(2)
    for expo, coeff in p.sorted_terms():
        term = Polynomial.constant(coeff, 2)
        for image, e in zip(images, expo):
            for _ in range(e):
                term = term * image
        out = out + term
    return out


def test_coordinate_change_is_the_composition_by_products():
    rng = random.Random(17)
    for _ in range(300):
        deg = rng.randint(1, 8)
        p = Polynomial(2, {(a, k - a): F(rng.randint(-9, 9), rng.randint(1, 4))
                           for k in range(deg + 1) for a in range(k + 1)
                           if rng.random() < 0.6})
        t = rng.randint(-5, 5)
        assert (construct._apply_change(p, t).sorted_terms()
                == _compose_by_products(p, t).sorted_terms())


# === factored inputs ===

def test_factors_build_direct_sum():
    p = (one - x1) * DISC
    result = represent(p, factors=[one - x1, DISC], sampler=SMALL)
    assert result.method == DIRECT_SUM
    assert result.pencil.size == 3
    assert determinant_polynomial(result.pencil) == p
    assert result.outcome.kind == EXACT_MATCH


def test_factors_must_multiply_back():
    with pytest.raises(ConstructionError):
        represent(DISC, factors=[one - x1, one + x1], sampler=SMALL)


def test_high_degree_needs_factors():
    lines = [one - x1, one + x1, one - x2, one + x2,
             one + x1 + x2, one - x1 + x2, one + x1 - x2]
    p = one
    for f in lines:
        p = p * f
    assert p.degree() == 7
    with pytest.raises(ConstructionError) as err:
        represent(p, sampler=SMALL)
    assert "cap" in str(err.value)
    result = represent(p, factors=lines, sampler=SMALL)
    assert result.method == DIRECT_SUM
    assert result.pencil.size == 7
    assert result.outcome.kind == EXACT_MATCH


# === rejection paths ===

def test_non_rz_input_rejected_with_witness():
    fermat = one - x1 ** 4 - x2 ** 4
    with pytest.raises(CertifiedNotRZError) as err:
        represent(fermat, sampler=SMALL)
    assert err.value.verdict.certified_not_rz()


def test_degree_two_refuses_a_negative_square(tmp_path, capsys):
    # the conic is not real-zero, but the single ray (1, 0) misses the
    # cone of failing lines, and the closed form gives l^2 = -2
    conic = one + x1 - x2 ** 2 + 3 * x1 * x2
    message = ("off-diagonal closed form needs a nonnegative square; the "
               "input is likely not rigidly convex")
    with pytest.raises(ConstructionError, match=message):
        represent(conic, sampler=RaySampler(2, 1, 0))
    path = tmp_path / "conic.poly"
    path.write_text(format_polynomial(conic))
    assert main(["represent", str(path), "--rays", "1", "--random", "0"]) == 3
    assert json.loads(capsys.readouterr().out) == \
        {"error": message, "kind": "ConstructionError"}
    # the default sampler meets the cone and names the witness
    assert main(["represent", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "CertifiedNotRZ"
    assert report["witness_direction"] == ["1", "16/181"]


def test_origin_must_be_interior():
    with pytest.raises(BasePointError):
        represent(DISC.shift((2, 0)), sampler=SMALL)


def test_two_variables_only():
    p3 = Polynomial.constant(1, 3) - Polynomial.variable(1, 3) ** 2
    with pytest.raises(DimensionMismatch):
        represent(p3)


# === verification ===

def disc_pencil():
    return LinearPencil([SymmetricMatrix.identity(2),
                         sym([[1, 0], [0, -1]]),
                         sym([[0, 1], [1, 0]])])


def test_verify_exact_match_constant():
    out = verify_representation(DISC, disc_pencil())
    assert out.kind == EXACT_MATCH
    assert out.constant == 1
    assert out.membership_points == 0


def test_verify_scaled_exact_match():
    scaled = LinearPencil([m.scale(2) for m in disc_pencil().matrices])
    out = verify_representation(DISC, scaled)
    assert out.kind == EXACT_MATCH
    assert out.constant == 4


def test_verify_small_perturbation_is_approx():
    eps = F(1, 10 ** 12)
    p = LinearPencil([SymmetricMatrix.identity(2),
                      sym([[1 + eps, 0], [0, -1]]),
                      sym([[0, 1], [1, 0]])])
    out = verify_representation(DISC, p)
    assert out.kind == APPROX_MATCH
    assert out.residual is not None and out.residual <= 1e-11


def test_verify_wrong_region_is_mismatch():
    out = verify_representation(4 * one - x1 ** 2 - x2 ** 2, disc_pencil())
    assert out.kind == MISMATCH
    assert out.residual == pytest.approx(0.75)
    assert out.worst_monomial in ((2, 0), (0, 2))


def test_verify_negative_scale_is_mismatch():
    p = one - x1 - x2
    flipped = LinearPencil([sym([[-1]]), sym([[1]]), sym([[1]])])
    out = verify_representation(p, flipped)
    assert out.kind == MISMATCH


@pytest.mark.parametrize("eps", [F(0), F(1, 10 ** 12)])
def test_verify_needs_positive_definite_base(eps):
    # det(-M) = det(M) for 2x2 M: the identity (eps = 0) or the
    # approximate match holds, but the spectrahedron of -M is empty
    m = LinearPencil([SymmetricMatrix.identity(2),
                      sym([[1 + eps, 0], [0, -1]]),
                      sym([[0, 1], [1, 0]])])
    out = verify_representation(
        DISC, LinearPencil([a.scale(-1) for a in m.matrices]))
    assert out.kind == MISMATCH
    assert out.membership_points == 0


NO_RESIDUAL = VerifyOutcome(MISMATCH, None, None, None, 0)


def _singular_base_pencil():
    # L0 = diag(1, 0) is PSD and singular: det = x1 + x1^2 - x2^2
    return LinearPencil([sym([[1, 0], [0, 0]]), SymmetricMatrix.identity(2),
                         sym([[0, 1], [1, 0]])])


@pytest.mark.parametrize("p, pencil", [
    # p = 0, so p(0) = 0
    (Polynomial.zero(2), disc_pencil()),
    # det = p / 2 with p(0) = 0: the identity holds, but a singular L0
    # is never positive definite
    (2 * (x1 + x1 ** 2 - x2 ** 2), _singular_base_pencil()),
    # det(0) = 0 while p(0) = 1
    (DISC, _singular_base_pencil()),
    # det = -p, so det(0)/p(0) = -1
    (one - x1 - x2, LinearPencil([sym([[-1]]), sym([[1]]), sym([[1]])])),
])
def test_verify_mismatch_with_no_residual(p, pencil):
    assert verify_representation(p, pencil) == NO_RESIDUAL


def _exact_by_leading_term(p, pencil):
    """(c, L0 is PD) when det = c p with c > 0, c read off p's leading
    graded-lex term, and None otherwise: the exact identity found
    without det(0)/p(0)."""
    terms = p.sorted_terms()
    if not terms:
        return None
    expo, coeff = terms[-1]
    det = determinant_polynomial(pencil)
    c = det.coefficient(expo) / coeff
    if c > 0 and det == p * c:
        return c, is_psd(pencil.matrices[0]).is_pd
    return None


def _verify_cases():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 3)
        mats = []
        for _ in range(3):
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = F(rng.randint(-3, 3), 2)
            mats.append(rows)
        base = rng.choice(["identity", "negated", "singular", "random"])
        if base != "random":
            mats[0] = [[F(int(i == j)) for j in range(n)] for i in range(n)]
            if base == "negated":
                mats[0] = [[-v for v in row] for row in mats[0]]
            elif base == "singular":
                mats[0][n - 1][n - 1] = F(0)
        pencil = LinearPencil([SymmetricMatrix(rows) for rows in mats])
        det = determinant_polynomial(pencil)
        for c in (F(1), F(3), F(1, 2), F(-2), F(0)):
            yield det * c, pencil
        yield det - det.coefficient((0, 0)), pencil
        yield det + F(1, 10 ** 12) * x1 ** 2, pencil


def test_verify_exact_decision_agrees_with_the_leading_term():
    seen = set()
    for p, pencil in _verify_cases():
        out = verify_representation(p, pencil)
        exact = _exact_by_leading_term(p, pencil)
        if exact is None:
            assert out.kind != EXACT_MATCH
        elif exact[1]:
            assert out == VerifyOutcome(EXACT_MATCH, exact[0], None, None, 0)
        else:
            assert out == NO_RESIDUAL
        seen.add(out.kind if exact is None else (out.kind, "identity"))
    assert seen >= {(EXACT_MATCH, "identity"), (MISMATCH, "identity"),
                    APPROX_MATCH, MISMATCH}


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _func=getattr(construct, name),
                    **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)
        monkeypatch.setattr(construct, name, counted)
    return calls


def test_exact_match_expands_once_and_samples_nothing(monkeypatch):
    calls = _count_calls(monkeypatch, "membership", "determinant_polynomial")
    assert verify_representation(DISC, disc_pencil()).kind == EXACT_MATCH
    assert calls == {"membership": 0, "determinant_polynomial": 1}


@pytest.mark.parametrize("factors", [None, [one - x1, DISC]])
def test_represent_verifies_once(monkeypatch, factors):
    # degree 3, so the unfactored input runs match_offdiagonal
    calls = _count_calls(monkeypatch, "verify_representation")
    result = represent((one - x1) * DISC, factors=factors, sampler=SMALL)
    assert result.outcome.kind in (EXACT_MATCH, APPROX_MATCH)
    assert calls["verify_representation"] == 1


def test_represent_expands_the_returned_pencil_once(monkeypatch):
    # verify_representation reads the determinant that the winner's
    # residual already expanded: one expansion fewer than with every
    # pencil expanded afresh
    p = determinant_polynomial(_half_integer_pencil(7, 3))
    expanded = []
    component_det = pencil_module._component_det
    monkeypatch.setattr(pencil_module, "_component_det",
                        lambda pencil, comp: expanded.append(pencil)
                        or component_det(pencil, comp))
    result = represent(p, sampler=SMALL)
    assert (result.outcome.kind, result.coordinate_change) == \
        (APPROX_MATCH, None)
    assert [e is result.pencil for e in expanded].count(True) == 1
    cached = len(expanded)
    expand = construct.determinant_polynomial

    def afresh(pencil):
        pencil._det = None
        return expand(pencil)
    monkeypatch.setattr(construct, "determinant_polynomial", afresh)
    expanded.clear()
    assert represent(p, sampler=SMALL).pencil == result.pencil
    assert len(expanded) == cached + 1
    # a freshly parsed copy, with nothing cached, verifies alike
    copy = parse_pencil(format_pencil(result.pencil))
    assert verify_representation(p, copy) == result.outcome


GOLDEN = Path(__file__).resolve().parent / "golden"


def _exact_cases():
    for stem in ("disc", "concentric", "forms7"):
        yield (parse_polynomial((GOLDEN / f"{stem}.poly").read_text()),
               parse_pencil((GOLDEN / f"{stem}.pencil").read_text()))
    rng = random.Random(31)
    for n in (2, 3, 3, 4, 4, 5):
        mats = [SymmetricMatrix.identity(n)]
        for _ in range(2):
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = F(rng.randint(-3, 3), 2)
            mats.append(SymmetricMatrix(rows))
        pencil = LinearPencil(mats)
        yield determinant_polynomial(pencil), pencil


@pytest.mark.parametrize("case", list(_exact_cases()))
def test_exact_match_would_pass_the_sampled_check(case):
    # an ExactMatch no longer samples; the 100 points it used to check
    # still satisfy Interior => p > 0 and Boundary => p = 0
    p, pencil = case
    assert verify_representation(p, pencil).kind == EXACT_MATCH
    assert construct._membership_spot_check(p, pencil, F(0)) == (True, 100)


def test_verify_dimension_mismatch():
    p3 = Polynomial.constant(1, 3)
    with pytest.raises(DimensionMismatch):
        verify_representation(p3, disc_pencil())



def test_approx_band_covers_the_exact_largest_coefficient(monkeypatch):
    # 1/10^12 is not a float and its nearest float lies below it, so a
    # band taken from the float would not cover the coefficient
    eps = F(1, 10 ** 12)
    assert F(float(eps)) < eps
    bands = []
    spot = construct._membership_spot_check

    def watched(p, pencil, band):
        bands.append(band)
        return spot(p, pencil, band)
    monkeypatch.setattr(construct, "_membership_spot_check", watched)
    pencil = LinearPencil([SymmetricMatrix.identity(2),
                           sym([[1 + eps, 0], [0, -1]]),
                           sym([[0, 1], [1, 0]])])
    assert verify_representation(DISC, pencil).kind == APPROX_MATCH
    # det - p = eps x1 - eps x1^2 at scale 1 and degree 2
    assert bands == [eps * 17 ** 2]


def test_spot_check_builds_no_checked_matrix(monkeypatch):
    p = parse_polynomial((GOLDEN / "approx.poly").read_text())
    pencil = parse_pencil((GOLDEN / "approx.pencil").read_text())
    inits = [0]
    init = SymmetricMatrix.__init__

    def counted(self, rows):
        inits[0] += 1
        init(self, rows)
    inside = []
    spot = construct._membership_spot_check

    def watched(*args):
        before = inits[0]
        result = spot(*args)
        inside.append(inits[0] - before)
        return result
    monkeypatch.setattr(SymmetricMatrix, "__init__", counted)
    monkeypatch.setattr(construct, "_membership_spot_check", watched)
    out = verify_representation(p, pencil)
    assert (out.kind, out.membership_points) == (APPROX_MATCH, 100)
    assert inside == [0]
