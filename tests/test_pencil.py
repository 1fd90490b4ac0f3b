"""Symmetric pencils: exact PSD tests, determinants, monic reduction."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmicert import pencil as pencil_module
from lmicert.errors import DimensionMismatch, ParseError, ReductionError
from lmicert.pencil import (LinearPencil, Membership, SymmetricMatrix,
                            _eliminate, _integer_rows, _ldl,
                            _range_compression,
                            determinant_polynomial, direct_sum, format_pencil,
                            is_psd, membership, parse_pencil, reduce_to_monic,
                            shift_pencil)
from lmicert.poly import Polynomial

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"


def sym(rows):
    return SymmetricMatrix([[F(v) for v in row] for row in rows])


def eliminate(mat):
    """_eliminate on the integer multiple of mat that is_psd takes."""
    return _eliminate(_integer_rows(mat)[1])


def ldl_steps(mat):
    """The Fraction steps (p, d, mults) of eliminating mat."""
    den, rows = _integer_rows(mat)
    return _ldl(_eliminate(rows)[1], den)


def sum_of_squares(squares, n):
    """sum d v v' over a PSD certificate, entry by entry."""
    return tuple(tuple(sum((d * v[i] * v[j] for d, v in squares), F(0))
                       for j in range(n)) for i in range(n))


def disc_pencil():
    """det = 1 - x1^2 - x2^2."""
    return LinearPencil([
        SymmetricMatrix.identity(2),
        sym([[1, 0], [0, -1]]),
        sym([[0, 1], [1, 0]]),
    ])


# === SymmetricMatrix basics ===

def test_symmetry_enforced():
    with pytest.raises(ValueError):
        SymmetricMatrix([[F(0), F(1)], [F(2), F(0)]])


def test_matrix_algebra():
    a = sym([[1, 2], [2, 0]])
    b = sym([[0, 1], [1, 1]])
    assert (a + b)[0, 1] == 3
    assert (a - b)[1, 1] == -1
    assert a.scale(F(1, 2))[0, 0] == F(1, 2)
    assert SymmetricMatrix.identity(3).is_identity()
    assert SymmetricMatrix.zero(2).is_zero()
    assert SymmetricMatrix.diagonal([1, -2])[1, 1] == -2


def test_pencil_needs_consistent_sizes():
    with pytest.raises(DimensionMismatch):
        LinearPencil([SymmetricMatrix.identity(2), SymmetricMatrix.identity(3)])
    with pytest.raises(DimensionMismatch):
        LinearPencil([SymmetricMatrix.identity(2)])


def test_matrix_shape_checks():
    with pytest.raises(DimensionMismatch):
        SymmetricMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        SymmetricMatrix.identity(2) + SymmetricMatrix.identity(3)


def test_direct_sum_checks():
    with pytest.raises(DimensionMismatch):
        direct_sum([])
    line = LinearPencil([SymmetricMatrix.identity(1), sym([[1]])])
    with pytest.raises(DimensionMismatch):
        direct_sum([disc_pencil(), line])


def test_pencil_evaluate():
    m = disc_pencil().evaluate((F(1, 2), F(1, 3)))
    assert m[0, 0] == F(3, 2)
    assert m[0, 1] == F(1, 3)
    assert m[1, 1] == F(1, 2)


# === exact PSD / PD decisions ===

def test_pd_matrix():
    rep = is_psd(sym([[2, 1], [1, 2]]))
    assert rep.is_psd and rep.is_pd
    # M = 2 (1, 1/2)(1, 1/2)' + 3/2 e_2 e_2'
    assert rep.squares == ((F(2), (F(1), F(1, 2))), (F(3, 2), (F(0), F(1))))


def test_psd_rank_deficient():
    rep = is_psd(sym([[1, 1], [1, 1]]))
    assert rep.is_psd and not rep.is_pd
    # one square: the zero complement row drops out
    assert rep.squares == ((F(1), (F(1), F(1))),)


def test_indefinite_gets_witness():
    m = sym([[1, 2], [2, 1]])
    rep = is_psd(m)
    assert not rep.is_psd
    w = rep.witness
    value = sum(w[i] * m[i, j] * w[j] for i in range(2) for j in range(2))
    assert value < 0


def test_zero_diagonal_indefinite():
    rep = is_psd(sym([[0, 1], [1, 0]]))
    assert not rep.is_psd


@pytest.mark.parametrize("rows, psd, pd", [
    ([[2, 1], [1, 2]], True, True), ([[1, 1], [1, 1]], True, False),
    ([[1, 2], [2, 1]], False, False),
    ([[4, 2, 0], [2, 1, 0], [0, 0, 0]], True, False), ([], True, True)],
    ids=["pd", "singular-psd", "indefinite", "zero-row", "empty"])
def test_is_psd_makes_no_determinant_expansion(monkeypatch, rows, psd, pd):
    expanded = []
    component_det = pencil_module._component_det
    monkeypatch.setattr(pencil_module, "_component_det",
                        lambda pencil, comp: expanded.append(pencil)
                        or component_det(pencil, comp))
    m = sym(rows)
    rep = is_psd(m)
    assert expanded == []
    assert (rep.is_psd, rep.is_pd) == (psd, pd)
    if psd:
        assert sum_of_squares(rep.squares, m.size) == m.entries
        assert pd is (len(rep.squares) == m.size)


@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                         min_size=3, max_size=3),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_gram_matrices_always_psd(rows):
    # G^t G is PSD for any G; adding I makes it PD
    n = 3
    gram = [[sum(F(r[i]) * F(r[j]) for r in rows) for j in range(n)]
            for i in range(n)]
    rep = is_psd(SymmetricMatrix(gram))
    assert rep.is_psd
    shifted = SymmetricMatrix(gram) + SymmetricMatrix.identity(n)
    assert is_psd(shifted).is_pd


@given(st.lists(st.integers(min_value=-5, max_value=5),
                min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_witness_certificate_is_sound(vals):
    m = sym([[vals[0], vals[1], vals[2]],
             [vals[1], vals[3], vals[4]],
             [vals[2], vals[4], vals[5]]])
    rep = is_psd(m)
    if rep.is_psd:
        assert all(d > 0 for d, _ in rep.squares)
        assert sum_of_squares(rep.squares, 3) == m.entries
    else:
        w = rep.witness
        value = sum(w[i] * m[i, j] * w[j] for i in range(3) for j in range(3))
        assert value < 0


# === membership ===

def test_disc_membership():
    p = disc_pencil()
    assert membership(p, (0, 0)) is Membership.INTERIOR
    assert membership(p, (1, 0)) is Membership.BOUNDARY
    assert membership(p, (F(3, 5), F(4, 5))) is Membership.BOUNDARY
    assert membership(p, (2, 0)) is Membership.OUTSIDE


def test_membership_singular_l0_uses_compression():
    # all matrices supported on the first coordinate; the zero block
    # must not force every point to Boundary
    p = LinearPencil([sym([[4, 0], [0, 0]]),
                      sym([[1, 0], [0, 0]]),
                      sym([[-1, 0], [0, 0]])])
    assert membership(p, (0, 0)) is Membership.INTERIOR
    assert membership(p, (-4, 0)) is Membership.BOUNDARY
    assert membership(p, (-5, 0)) is Membership.OUTSIDE


def test_membership_rejects_indefinite_l0():
    p = LinearPencil([sym([[-1, 0], [0, 1]]),
                      sym([[1, 0], [0, 0]]),
                      sym([[0, 0], [0, 1]])])
    with pytest.raises(ReductionError):
        membership(p, (0, 0))


# === determinants ===

def test_disc_determinant():
    x1 = Polynomial.variable(1, 2)
    x2 = Polynomial.variable(2, 2)
    one = Polynomial.constant(1, 2)
    assert determinant_polynomial(disc_pencil()) == one - x1 ** 2 - x2 ** 2


def test_diagonal_determinant_is_product_of_linear_forms():
    p = LinearPencil([SymmetricMatrix.identity(2),
                      SymmetricMatrix.diagonal([1, -1]),
                      SymmetricMatrix.diagonal([2, 3])])
    x1 = Polynomial.variable(1, 2)
    x2 = Polynomial.variable(2, 2)
    one = Polynomial.constant(1, 2)
    expected = (one + x1 + 2 * x2) * (one - x1 + 3 * x2)
    assert determinant_polynomial(p) == expected


def test_determinant_splits_over_blocks():
    a = disc_pencil()
    b = LinearPencil([SymmetricMatrix.identity(1),
                      sym([[2]]), sym([[-1]])])
    s = direct_sum([a, b])
    assert s.size == 3
    assert determinant_polynomial(s) == (
        determinant_polynomial(a) * determinant_polynomial(b))


def test_shift_pencil_translates_determinant():
    p = disc_pencil()
    q = shift_pencil(p, (F(1, 2), F(1, 4)))
    dq = determinant_polynomial(q)
    dp = determinant_polynomial(p)
    for pt in [(0, 0), (F(1, 3), F(-2, 5)), (1, 1)]:
        x, y = F(pt[0]), F(pt[1])
        assert dq.evaluate((x, y)) == dp.evaluate((x + F(1, 2), y + F(1, 4)))


def _random_pencil(rng, n, m):
    mats = [SymmetricMatrix.identity(n)]
    for _ in range(m):
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = F(rng.randint(-3, 3))
                rows[i][j] = rows[j][i] = v
        mats.append(SymmetricMatrix(rows))
    return LinearPencil(mats)


def test_determinant_matches_cofactor_expansion_at_points():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        p = _random_pencil(rng, n, 2)
        d = determinant_polynomial(p)
        for _ in range(4):
            pt = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
            assert d.evaluate(pt) == _det_exact(p.evaluate(pt))


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def pencils_and_points(draw):
    """A pencil with m = 1..3 variables, size 1..6, sparse or dense
    rational entries (a matrix may be zero), and rational points."""
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(F(0)), _rationals)
    mats = []
    for _ in range(m + 1):
        values = iter(draw(st.lists(entry, min_size=n * (n + 1) // 2,
                                    max_size=n * (n + 1) // 2)))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(values)
        mats.append(SymmetricMatrix(rows))
    points = draw(st.lists(st.tuples(*[_rationals] * m), min_size=1,
                           max_size=3))
    return LinearPencil(mats), points


@given(pencils_and_points())
@settings(max_examples=150, deadline=None)
def test_determinant_agrees_with_elimination_at_rational_points(case):
    # oracle: Gaussian elimination over Fraction on the evaluated matrix
    pencil, points = case
    d = determinant_polynomial(pencil)
    assert d.degree() <= pencil.size
    for pt in points:
        assert d.evaluate(pt) == _det_exact(pencil.evaluate(pt))


def _det_exact(mat):
    rows = [list(r) for r in mat.entries]
    n = mat.size
    det = F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            for k in range(c, n):
                rows[r][k] -= f * rows[c][k]
    return det


@st.composite
def symmetric_matrices(draw):
    """Size 1..6, entries possibly zero: a Gram matrix of rank 0..n,
    optionally minus a rank-one term, or a random symmetric matrix."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(F(0)), _rationals)
    vector = st.lists(entry, min_size=n, max_size=n)
    if draw(st.booleans()):
        rank = draw(st.integers(min_value=0, max_value=n))
        vecs = draw(st.lists(st.lists(_rationals, min_size=n, max_size=n),
                             min_size=rank, max_size=rank))
        rows = [[sum((v[i] * v[j] for v in vecs), F(0)) for j in range(n)]
                for i in range(n)]
        if draw(st.booleans()):
            w = draw(vector)
            c = draw(st.fractions(min_value=0, max_value=2,
                                  max_denominator=4))
            rows = [[rows[i][j] - c * w[i] * w[j] for j in range(n)]
                    for i in range(n)]
    else:
        values = iter(draw(st.lists(entry, min_size=n * (n + 1) // 2,
                                    max_size=n * (n + 1) // 2)))
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(values)
    return SymmetricMatrix(rows)


def _principal_minor(mat, idx):
    return _det_exact(SymmetricMatrix([[mat[i, j] for j in idx]
                                       for i in idx]))


@given(symmetric_matrices())
@settings(max_examples=200, deadline=None)
def test_classify_agrees_with_principal_minors(mat):
    # oracle independent of any elimination order: PD iff every leading
    # principal minor is > 0, PSD iff every principal minor is >= 0; a
    # PSD certificate has one positive square per unit of rank, which
    # is the largest k with a nonzero k x k principal minor
    n = mat.size
    minors = [[_principal_minor(mat, idx)
               for idx in combinations(range(n), k)]
              for k in range(1, n + 1)]
    pd = all(_principal_minor(mat, range(k)) > 0 for k in range(1, n + 1))
    psd = all(m >= 0 for row in minors for m in row)
    expected = (Membership.INTERIOR if pd else
                Membership.BOUNDARY if psd else Membership.OUTSIDE)
    assert eliminate(mat)[0] is expected
    if psd:
        rep = is_psd(mat)
        rank = max((k for k, row in enumerate(minors, 1) if any(row)),
                   default=0)
        assert len(rep.squares) == rank
        assert rep.is_pd is (rank == n) is pd
        assert all(d > 0 for d, _ in rep.squares)
        assert sum_of_squares(rep.squares, n) == mat.entries
    else:
        w = is_psd(mat).witness
        assert sum(w[i] * mat[i, j] * w[j]
                   for i in range(n) for j in range(n)) < 0
    if pd:
        # the elimination's steps are the LDL^T factorization: rebuild
        # T diag(d) T^t entry by entry
        steps = ldl_steps(mat)
        assert [p for p, _, _ in steps] == list(range(n))
        t = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for p, _, mults in steps:
            for i, f in mults:
                t[i][p] = f
        d = [piv for _, piv, _ in steps]
        assert [[sum(t[i][k] * d[k] * t[j][k] for k in range(n))
                 for j in range(n)] for i in range(n)] == \
            [list(row) for row in mat.entries]


# === monic reduction ===

def test_reduce_monic_passthrough():
    red = reduce_to_monic(disc_pencil())
    assert red.pencil is disc_pencil() or red.pencil == disc_pencil()
    assert red.det_scale == 1
    assert red.rank == 2


def test_reduce_monic_drops_zero_block():
    p = LinearPencil([sym([[4, 0], [0, 0]]),
                      sym([[1, 0], [0, 0]]),
                      sym([[-1, 0], [0, 0]])])
    red = reduce_to_monic(p)
    assert red.rank == 1
    assert red.det_scale == 4
    assert red.pencil.size == 1
    assert red.pencil.matrices[1][0, 0] == F(1, 4)
    assert red.pencil.matrices[2][0, 0] == F(-1, 4)
    # det(compressed) = det_scale * det(monic)
    lhs = Polynomial.constant(4, 2) \
        + Polynomial.variable(1, 2) - Polynomial.variable(2, 2)
    assert lhs == determinant_polynomial(red.pencil) * 4


def test_reduce_monic_uniform_rescale_fixes_square_classes():
    # pivots [2, 2] are not squares; scaling by 1/2 makes them so
    p = LinearPencil([sym([[2, 0], [0, 2]]),
                      sym([[0, 1], [1, 0]]),
                      sym([[1, 0], [0, -1]])])
    red = reduce_to_monic(p)
    assert red.det_scale == 4
    assert red.rank == 2
    assert determinant_polynomial(p) == \
        determinant_polynomial(red.pencil) * 4


def test_reduce_monic_rejects_bad_square_classes():
    p = LinearPencil([sym([[2, 0], [0, 3]]),
                      sym([[1, 0], [0, 1]]),
                      sym([[0, 1], [1, 0]])])
    with pytest.raises(ReductionError) as err:
        reduce_to_monic(p)
    assert "rational squares" in str(err.value)


def test_reduce_monic_rejects_noninterior_origin():
    p = LinearPencil([sym([[1, 0], [0, 0]]),
                      sym([[0, 0], [0, 1]]),
                      sym([[1, 0], [0, 0]])])
    with pytest.raises(ReductionError) as err:
        reduce_to_monic(p)
    assert "interior" in str(err.value)


def test_reduce_monic_decides_interior_exactly():
    # L0 +- eps*L1 is PSD only for eps <= 2^-30, but ker L0 lies in the
    # kernel of every L_j, so 0 is interior however thin the margin
    l0 = sym([[1, 0], [0, 0]])
    p = LinearPencil([l0, sym([[2 ** 30, 0], [0, 0]]), sym([[0, 0], [0, 0]])])
    red = reduce_to_monic(p)
    assert red.rank == 1
    assert red.det_scale == 1
    assert red.pencil.matrices[1][0, 0] == 2 ** 30
    for pt in [(0, 5), (F(-1, 2 ** 30), 1), (F(-1, 2 ** 29), 0),
               (F(1, 3), -7)]:
        assert membership(p, pt) is membership(red.pencil, pt)
    # a rank-one term on ker L0 breaks the range condition
    bump = LinearPencil([l0, sym([[2 ** 30, 0], [0, 0]]),
                         sym([[0, 0], [0, 1]])])
    with pytest.raises(ReductionError) as err:
        reduce_to_monic(bump)
    assert "interior" in str(err.value)
    assert "L2" in str(err.value)


def test_reduce_monic_names_the_first_matrix_that_breaks_the_range_condition():
    # ker L0 = span(e1, e2): L2 fails on e1 and L1 on e2, so the error
    # names L1 although the first kernel vector fails only in L2
    p = LinearPencil([sym([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
                      sym([[1, 0, 0], [0, 0, 0], [0, 0, 1]]),
                      sym([[0, 0, 0], [0, 1, 0], [0, 0, 0]])])
    with pytest.raises(ReductionError) as err:
        reduce_to_monic(p)
    assert "L1 does not vanish on ker L0" in str(err.value)


def test_reduce_monic_rejects_indefinite_l0():
    p = LinearPencil([sym([[-1, 0], [0, 1]]),
                      sym([[1, 0], [0, 1]]),
                      sym([[0, 1], [1, 0]])])
    with pytest.raises(ReductionError):
        reduce_to_monic(p)


def test_reduce_monic_congruence_preserves_membership():
    rng = random.Random(11)
    lift = [[F(1), F(0)], [F(0), F(0)], [F(2), F(1)]]   # rank-2 embedding
    base = disc_pencil()
    mats = []
    for mat in base.matrices:
        rows = [[sum(lift[i][a] * mat[a, b] * lift[j][b]
                     for a in range(2) for b in range(2))
                 for j in range(3)] for i in range(3)]
        mats.append(SymmetricMatrix(rows))
    p = LinearPencil(mats)
    red = reduce_to_monic(p)
    assert red.rank == 2
    for _ in range(30):
        pt = (F(rng.randint(-6, 6), 3), F(rng.randint(-6, 6), 3))
        assert membership(red.pencil, pt) is membership(base, pt)


@pytest.mark.parametrize("name", ["kernel2.pencil", "embedded.pencil"])
def test_reduce_monic_eliminates_l0_twice(monkeypatch, name):
    # once in is_psd and once in _range_compression, whose steps are
    # also the LDL^T of the compressed L0
    p = parse_pencil((GOLDEN / name).read_text())
    calls = []
    monkeypatch.setattr(pencil_module, "_eliminate",
                        lambda mat: calls.append(mat) or _eliminate(mat))
    _range_compression.cache_clear()
    reduce_to_monic(p)
    assert len(calls) == 2


# === text format ===

def test_pencil_round_trip():
    p = disc_pencil()
    assert parse_pencil(format_pencil(p)) == p


def test_parse_pencil_errors_carry_lines():
    with pytest.raises(ParseError) as err:
        parse_pencil("pencil 2 1\nL 0\n1 0\n0 1\nL 1\n1 0\n")
    assert "line" in str(err.value)
    with pytest.raises(ParseError):
        parse_pencil("pencil 2 1\nL 1\n1 0\n0 1\nL 0\n1 0\n0 1\n")
    with pytest.raises(ParseError):
        parse_pencil("")


def test_parse_pencil_accepts_comments_and_blank_lines():
    text = "# disc\npencil 2 1\n\nL 0\n1 0\n0 1\nL 1  # slope block\n0 1\n1 0\n"
    p = parse_pencil(text)
    assert p.size == 2 and p.num_vars == 1


# === point evaluation against the entry sum ===

def naive_at(mats, pt):
    """Oracle: L0 + sum x_i L_i entry by entry, in Fraction."""
    n = mats[0].size
    return SymmetricMatrix(
        [[mats[0][i, j] + sum(x * m[i, j] for x, m in zip(pt, mats[1:]))
          for j in range(n)] for i in range(n)])


def congruent(q, rows):
    """q^t rows q for square row lists."""
    rq = [[sum(a * b for a, b in zip(row, col)) for col in zip(*q)]
          for row in rows]
    return SymmetricMatrix(
        [[sum(a * b for a, b in zip(qcol, col)) for col in zip(*rq)]
         for qcol in zip(*q)])


entry_st = st.fractions(min_value=-3, max_value=3, max_denominator=6)
coord_st = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
    st.fractions(min_value=-2, max_value=2, max_denominator=2 ** 60))


@st.composite
def hidden_pencil_st(draw):
    """(pencil, hidden block, literal) for the pencil q^t diag(P, K) q.

    P has a PD diagonal L0 (the identity when monic), K is 0 in L0 and in
    every L_j unless literal, q is unit upper triangular.  With K = 0 and
    a zero block present, L0 is singular PSD with the range condition, so
    membership takes the compressed path and must agree with P; with K
    nonzero somewhere the condition fails and the literal test runs."""
    monic = draw(st.booleans())
    r = draw(st.integers(min_value=1, max_value=3))
    k = 0 if monic else draw(st.integers(min_value=0, max_value=2))
    m = draw(st.integers(min_value=1, max_value=3))
    n = r + k

    def symmetric(size):
        rows = [[F(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                rows[i][j] = rows[j][i] = draw(entry_st)
        return rows

    pos_st = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6)
    blocks = [[[F(int(i == j)) if monic else
                (draw(pos_st) if i == j else F(0)) for j in range(r)]
               for i in range(r)]]
    blocks += [symmetric(r) for _ in range(m)]
    kernels = [[[F(0)] * k for _ in range(k)] for _ in range(m + 1)]
    if k and draw(st.booleans()):
        kernels[draw(st.integers(min_value=1, max_value=m))] = symmetric(k)
    literal = any(v for kern in kernels for row in kern for v in row)
    q = [[F(int(i == j)) if i >= j or monic else draw(entry_st)
          for j in range(n)] for i in range(n)]
    mats = []
    for block, kern in zip(blocks, kernels):
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(r):
            rows[i][:r] = block[i]
        for i in range(k):
            rows[r + i][r:] = kern[i]
        mats.append(congruent(q, rows))
    hidden = [SymmetricMatrix(b) for b in blocks]
    return LinearPencil(mats), hidden, literal


@given(hidden_pencil_st(), st.data())
@settings(max_examples=80, deadline=None)
def test_evaluate_and_membership_agree_with_the_entry_sum(case, data):
    pencil, hidden, literal = case
    for _ in range(3):
        pt = data.draw(st.tuples(*[coord_st] * pencil.num_vars))
        naive = naive_at(pencil.matrices, pt)
        assert pencil.evaluate(pt) == naive
        if literal or hidden[0].size == pencil.size:
            assert membership(pencil, pt) is eliminate(naive)[0]
        if not literal:
            # the compression is congruent to the hidden block, whose
            # verdict is the verdict of the point (Sylvester's inertia)
            assert membership(pencil, pt) is eliminate(
                naive_at(hidden, pt))[0]


def _membership_by_elimination(pencil, pt):
    """membership with no diagonal exit: the compression when L0 is
    singular PSD with the range condition, then _eliminate at pt."""
    if not pencil.matrices[0].is_identity():
        _, compressed, _, _ = _range_compression(pencil)
        if compressed is not None:
            pencil = compressed
    return eliminate(pencil.evaluate(pt))[0]


def _zero_diagonal_points(pencil):
    """The points on a coordinate axis where a diagonal entry of L(x)
    is 0."""
    for j, mat in enumerate(pencil.matrices[1:]):
        for i in range(pencil.size):
            if mat[i, i]:
                pt = [F(0)] * pencil.num_vars
                pt[j] = -pencil.matrices[0][i, i] / mat[i, i]
                yield tuple(pt)


@given(hidden_pencil_st(), st.data())
@settings(max_examples=80, deadline=None)
def test_membership_diagonal_exit_keeps_every_verdict(case, data):
    # monic, PD and compressed singular L0 alike; a compression keeps
    # the diagonal entries on L0's pivots, so the zero-diagonal points
    # reach it too
    pencil, _, _ = case
    points = list(_zero_diagonal_points(pencil))
    points += data.draw(st.lists(st.tuples(*[coord_st] * pencil.num_vars),
                                 min_size=1, max_size=4))
    for pt in points:
        assert membership(pencil, pt) is \
            _membership_by_elimination(pencil, pt)


def test_membership_decides_a_negative_diagonal_without_elimination(
        monkeypatch):
    pencil = LinearPencil([sym([[2, 0], [0, 3]]), sym([[1, 0], [0, 0]]),
                           sym([[0, 1], [1, 0]])])
    # eliminate L0 (cached per pencil) first, so that only points count
    _range_compression(pencil)
    classified = []
    monkeypatch.setattr(pencil_module, "_eliminate",
                        lambda mat: classified.append(mat) or _eliminate(mat))
    # diagonal (-1, 3): Outside on the diagonal alone
    assert membership(pencil, (-3, 0)) is Membership.OUTSIDE
    assert classified == []
    # diagonal (0, 3) with a nonzero row, and diagonal (2, 3) with
    # det -10: both Outside, and both eliminated (the upper rows of
    # s L(x), here with s = 1)
    for pt in ((-2, 1), (0, 4)):
        assert membership(pencil, pt) is Membership.OUTSIDE
    assert len(classified) == 2
    assert [min(row[0] for row in m) for m in classified] == [0, 2]


def test_monic_reads_l0_once(monkeypatch):
    reads = []
    is_identity = SymmetricMatrix.is_identity
    monkeypatch.setattr(SymmetricMatrix, "is_identity",
                        lambda mat: reads.append(mat) or is_identity(mat))
    pencil = disc_pencil()
    for pt in ((0, 0), (1, 0), (2, 0), (F(1, 2), F(-1, 3))):
        membership(pencil, pt)
    assert pencil.monic()
    assert len(reads) == 1


@given(pencils_and_points())
@settings(max_examples=60, deadline=None)
def test_cached_determinant_is_that_of_an_equal_pencil(case):
    pencil, _ = case
    det = determinant_polynomial(pencil)
    assert determinant_polynomial(pencil) is det
    twin = LinearPencil([SymmetricMatrix(mat.entries)
                         for mat in pencil.matrices])
    assert twin == pencil and twin is not pencil
    assert determinant_polynomial(twin) == det


@given(hidden_pencil_st())
@settings(max_examples=60, deadline=None)
def test_range_compression_is_the_hidden_block_up_to_a_positive_constant(
        case):
    pencil, hidden, literal = case
    assume(not literal and not pencil.monic())
    _, compressed, steps, bad = _range_compression(pencil)
    assert bad is None
    # its steps are those of eliminating the compressed L0 afresh
    assert steps == ldl_steps(compressed.matrices[0])
    # rank(L0) is the size of the hidden PD block
    assert compressed.size == hidden[0].size
    det = determinant_polynomial(compressed)
    hidden_det = determinant_polynomial(LinearPencil(hidden))
    origin = (0,) * pencil.num_vars
    scale = det.coefficient(origin) / hidden_det.coefficient(origin)
    assert scale > 0
    assert det == hidden_det * scale
