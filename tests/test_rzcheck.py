"""Line-test verdicts, ray sampling, and boundary extraction."""

import random
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmicert import realroots, rzcheck
from lmicert.errors import (BasePointError, DimensionMismatch,
                            ZeroPolynomialError)
from lmicert.poly import Polynomial, UnivariatePolynomial, parse_polynomial
from lmicert.realroots import (RootCount, count_real_roots,
                               isolate_real_roots, side_counts)
from lmicert.rzcheck import (CERTIFIED_NOT_RZ, PROBABLY_RZ, RaySampler,
                             _grid_index, _integer_vector,
                             _reduce_direction, _square_ray,
                             boundary_samples, hyperbolicity_check,
                             rigid_convexity_check, rz_check)

F = Fraction
x1 = Polynomial.variable(1, 2)
x2 = Polynomial.variable(2, 2)
one = Polynomial.constant(1, 2)

DISC = one - x1 ** 2 - x2 ** 2
FERMAT = one - x1 ** 4 - x2 ** 4
LOBE_CUBIC = x1 ** 3 - 3 * x2 ** 2 * x1 - (x1 ** 2 + x2 ** 2) ** 2
TOUCHING = (x1 ** 2 + x2 ** 2) * (x1 ** 2 + x2 ** 2 + 12 * x1 - one) \
    + 36 * x1 ** 2
ODD_CUBIC = (one - x1) * (4 * one - x1 ** 2 - x2 ** 2)

SMALL = RaySampler(2, deterministic_count=31, random_count=8)


def _square_direction(j, k):
    return _square_ray(j, k)[1]


# === ray sampling ===

def _pseudo_angle(v):
    """Position of a max-norm 1 direction on the upper half of the unit
    square, counter-clockwise from (1, 0)."""
    x, y = v
    if x == 1:
        return y
    if y == 1:
        return 2 - x
    assert x == -1
    return 4 - y


def _canonical(v):
    return (max(map(abs, v)) == 1
            and next(c for c in reversed(v) if c != 0) > 0)


def test_directions_are_the_exact_square_family():
    for k in range(1, 401):
        dirs = RaySampler(2, k, 0).directions()
        assert len(dirs) == k
        assert dirs[0] == (F(1), F(0))
        assert all(_canonical(v) for v in dirs)
        angles = [_pseudo_angle(v) for v in dirs]
        assert angles == [F(4 * j, k) for j in range(k)]
        assert all(a < b for a, b in zip(angles, angles[1:]))


def test_random_directions_are_canonical_on_the_drawn_lines():
    # the seeded draws are scaled to max-norm 1, signed, and kept on
    # their lines
    rng = random.Random(1)
    drawn = []
    while len(drawn) < 15:
        coords = [F(rng.randint(-64, 64), rng.randint(1, 16))
                  for _ in range(3)]
        if any(coords):
            drawn.append(coords)
    dirs = RaySampler(3, 10, 5, seed=1).directions()
    assert len(dirs) == 15
    for v, raw in zip(dirs, drawn):
        assert _canonical(v)
        scale = next(c / r for c, r in zip(v, raw) if r != 0)
        assert list(v) == [scale * r for r in raw]


def test_directions_canonical_sign_upper_half_plane():
    for v in RaySampler(2, 61, 32, seed=9).directions():
        last = next(c for c in reversed(v) if c != 0)
        assert last > 0


def test_first_deterministic_ray_is_horizontal():
    assert RaySampler(2, 10, 0).directions()[0] == (F(1), F(0))


def test_extra_directions_come_first_and_are_normalized():
    s = RaySampler(2, 5, 0, extra_directions=((0, -3), (2, 2)))
    dirs = s.directions()
    assert dirs[0] == (F(0), F(1))
    assert dirs[1] == (F(1), F(1))


def test_zero_extra_direction_rejected():
    with pytest.raises(DimensionMismatch):
        RaySampler(2, 5, 0, extra_directions=((0, 0),)).directions()


def test_sampler_deterministic_per_seed():
    a = RaySampler(2, 11, 20, seed=3).directions()
    b = RaySampler(2, 11, 20, seed=3).directions()
    c = RaySampler(2, 11, 20, seed=4).directions()
    assert a == b
    assert a != c


def test_sampler_deduplicates():
    dirs = RaySampler(2, 7, 0, extra_directions=((1, 0), (2, 0))).directions()
    assert dirs.count((F(1), F(0))) == 1


def test_three_variable_sampler_is_all_random():
    dirs = RaySampler(3, 10, 5, seed=1).directions()
    assert len(dirs) <= 15
    assert all(len(v) == 3 for v in dirs)


def _eager_rays(m, k, randoms, seed, extras):
    """The eager construction the lazy family must reproduce: every ray
    built up front, random draws canonicalised by Fraction division in
    _reduce_direction, repeats dropped by dict.fromkeys."""
    out = [_reduce_direction(c) for c in extras]
    if m == 2:
        out += [_square_direction(j, k) for j in range(k)]
    else:
        randoms += k
    rng = random.Random(seed)
    for _ in range(randoms):
        while True:
            coords = [F(rng.randint(-64, 64), rng.randint(1, 16))
                      for _ in range(m)]
            if any(coords):
                break
        out.append(_reduce_direction(coords))
    return list(dict.fromkeys(out)), len(out)


def _extras(m, k):
    # repeats of one another and of grid ray 0, and in the plane of grid
    # ray 1 for k >= 4 and of grid ray 2 for k = 4
    if m == 2:
        return ((3, 0), (-2, 0), (k, 4), (0, -7))
    return ((1, 0, 0), (-2, 0, 0), (0, 0, 5), (1, -1, 3))


def test_lazy_directions_match_the_eager_family():
    dropped = 0
    for m in (2, 3):
        for k in (1, 4, 7, 31, 181):
            for randoms in (0, 8, 64):
                for seed in (0, 1, 5, 17):
                    for extras in ((), _extras(m, k)):
                        expected, total = _eager_rays(m, k, randoms, seed,
                                                      extras)
                        dropped += total - len(expected)
                        sampler = RaySampler(m, k, randoms, seed, extras)
                        dirs = sampler.directions()
                        assert isinstance(dirs, Sequence)
                        assert list(dirs) == expected
                        # len, indexing and count build the same rays
                        assert len(sampler.directions()) == len(expected)
                        fresh = sampler.directions()
                        assert ([fresh[i] for i in range(len(expected))]
                                == expected)
                        assert fresh[-1] == expected[-1]
                        fresh = sampler.directions()
                        assert all(fresh.count(v) == 1 for v in expected)
                        assert fresh.count((F(5),) * m) == 0
    # the repeats above, and repeated random lines, were dropped
    assert dropped > 200


def _reference_grid(k):
    """The k grid rays from their pseudo-angles s = 4j/k alone."""
    out = []
    for j in range(k):
        s = F(4 * j, k)
        out.append((F(1), s) if s <= 1 else (2 - s, F(1)) if s <= 3
                   else (F(-1), 4 - s))
    return out


def _reference_draws(m, seed, count):
    """The first count random rays of a seed, drawn with randint as
    Fractions n/q, redrawn while all are zero, in canonical form."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        coords = [F(rng.randint(-64, 64), rng.randint(1, 16))
                  for _ in range(m)]
        if any(coords):
            out.append(_reduce_direction(coords))
    return out


def test_ray_family_matches_a_plain_reference():
    # the grid rays in the plane, then the seeded random rays; a random
    # ray on a grid line is skipped and a repeat is kept only at its
    # first occurrence
    skipped = {"grid": 0, "repeat": 0}
    for m in (2, 3):
        for seed in range(50):
            draws = _reference_draws(m, seed, 181 + 300)
            for k in (1, 4, 7, 31, 181):
                grid = _reference_grid(k) if m == 2 else []
                on_grid = set(grid)
                expected, seen, done = list(grid), set(grid), 0
                for randoms in (0, 8, 64, 300):
                    stop = randoms if m == 2 else k + randoms
                    for v in draws[done:stop]:
                        if v not in seen:
                            seen.add(v)
                            expected.append(v)
                        else:
                            skipped["grid" if v in on_grid
                                    else "repeat"] += 1
                    done = stop
                    rays = RaySampler(m, k, randoms, seed).directions()
                    assert list(rays) == expected
                if seed % 10:
                    continue
                assert all(type(c) is F for v in rays for c in v)
                # each ray's integer vector is a positive multiple of it
                for w, v in rays.pairs():
                    assert all(type(c) is int for c in w)
                    top = max(map(abs, w))
                    assert tuple(F(c, top) for c in w) == v
    assert skipped["grid"] > 100 and skipped["repeat"] > 100


def test_grid_index_finds_exactly_the_grid_rays():
    # rays of other grids cover all three sides of the square; the
    # index reads any positive multiple of the direction
    for k in range(1, 41):
        grid = {_square_direction(j, k): j for j in range(k)}
        for other in range(1, 41):
            for i in range(other):
                w, v = _square_ray(i, other)
                assert w == tuple(other * c for c in v)
                assert _grid_index(w, k) == grid.get(v)
                assert _grid_index(_integer_vector(v), k) == grid.get(v)


def test_partial_reads_interleave():
    sampler = RaySampler(2, 31, 8, seed=3, extra_directions=((1, 0),))
    expected = list(sampler.directions())
    dirs = sampler.directions()
    first, second = iter(dirs), iter(dirs)
    head = [next(first) for _ in range(5)]
    assert [next(second) for _ in range(7)] == expected[:7]
    assert head + list(first) == expected
    assert len(dirs) == len(expected) and list(second) == expected[7:]
    assert dirs == sampler.directions()
    with pytest.raises(TypeError):
        dirs[0] = (F(0), F(1))


@pytest.mark.parametrize("sampler, error", [
    (RaySampler(2, 5, 0, extra_directions=((1, 2, 3),)), DimensionMismatch),
    (RaySampler(2, 5, 0, extra_directions=((1, 0), (0, 0))),
     DimensionMismatch),
    (RaySampler(2, 5, -1), ValueError),
    (RaySampler(3, 0, 4), ValueError),
    (RaySampler(0, 5, 4), DimensionMismatch),
])
def test_bad_sampler_raises_before_reading(sampler, error):
    # directions() itself raises; no ray has to be read first
    with pytest.raises(error):
        sampler.directions()


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_rejecting_scan_builds_only_the_rays_it_reads(monkeypatch):
    built = {"grid": 0, "random": 0}

    def counted(key, build):
        def wrapper(*args):
            built[key] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(rzcheck, "_square_ray",
                        counted("grid", _square_ray))
    monkeypatch.setattr(rzcheck, "_random_vector",
                        counted("random", rzcheck._random_vector))
    fermat = parse_polynomial((GOLDEN / "fermat.poly").read_text())
    verdict = rigid_convexity_check(fermat, (0, 0))
    assert verdict.certified_not_rz() and verdict.rays_checked == 1
    assert built == {"grid": 1, "random": 0}

    built.update(grid=0, random=0)
    lobe = parse_polynomial((GOLDEN / "lobe.poly").read_text())
    verdict = rigid_convexity_check(lobe, (F(7, 10), 0))
    assert verdict.certified_not_rz() and verdict.rays_checked > 1
    assert built == {"grid": verdict.rays_checked, "random": 0}


# === rz_check ===

def test_disc_probably_rz():
    verdict = rz_check(DISC, (0, 0), SMALL)
    assert verdict.kind == PROBABLY_RZ
    assert not verdict.certified_not_rz()
    assert verdict.witness is None
    assert all(r.passed and r.degree == 2 and r.with_multiplicity == 2
               and r.at_infinity == 0 for r in verdict.per_ray)


def test_fermat_fails_on_first_ray():
    verdict = rz_check(FERMAT, (0, 0))
    assert verdict.certified_not_rz()
    assert verdict.rays_checked == 1
    direction, counts = verdict.witness
    assert direction == (F(1), F(0))
    # 1 - mu^4 has two real roots out of four
    assert counts.total_degree == 4
    assert counts.real_with_multiplicity == 2


def test_lobe_cubic_not_rz_at_interior_point():
    assert LOBE_CUBIC.evaluate((F(7, 10), 0)) == F(1029, 10000)
    verdict = rz_check(LOBE_CUBIC, (F(7, 10), 0))
    assert verdict.certified_not_rz()
    _, counts = verdict.witness
    # witness ray has nonreal roots even after crediting infinity
    assert counts.real_with_multiplicity + (4 - counts.total_degree) < 4


def test_degree_drop_counts_at_infinity():
    s = RaySampler(2, 9, 0, extra_directions=((0, 1),))
    verdict = rz_check(ODD_CUBIC, (0, 0), s)
    assert verdict.kind == PROBABLY_RZ
    vertical = verdict.per_ray[0]
    assert vertical.direction == (F(0), F(1))
    assert vertical.degree == 2
    assert vertical.at_infinity == 1
    assert vertical.passed


def test_touching_quartic_passes_with_multiplicity():
    s = RaySampler(2, 15, 4, extra_directions=((1, 0),))
    verdict = rz_check(TOUCHING, (-4, 0), s)
    assert verdict.kind == PROBABLY_RZ
    axis = verdict.per_ray[0]
    # restriction factors as (mu - 4)^2 (mu + 1) (mu + 3)
    assert axis.distinct == 3
    assert axis.with_multiplicity == 4
    assert axis.passed


def test_base_point_must_be_interior():
    with pytest.raises(BasePointError):
        rz_check(DISC, (1, 0), SMALL)
    with pytest.raises(BasePointError):
        rz_check(DISC, (2, 0), SMALL)
    with pytest.raises(ZeroPolynomialError):
        rz_check(Polynomial.zero(2), (0, 0), SMALL)


def test_sampler_dimension_must_match():
    with pytest.raises(DimensionMismatch):
        rz_check(DISC, (0, 0), RaySampler(3, 5, 0))


# === rigid_convexity_check ===

def test_rigid_convexity_statistics_on_disc():
    verdict = rigid_convexity_check(DISC, (0, 0), SMALL)
    assert verdict.kind == PROBABLY_RZ
    assert verdict.distinct_fraction == 1
    assert verdict.degenerate is False


def test_squared_polynomial_flagged_degenerate():
    verdict = rigid_convexity_check(DISC * DISC, (0, 0), SMALL)
    assert verdict.kind == PROBABLY_RZ
    assert verdict.distinct_fraction == 0
    assert verdict.degenerate is True


def test_multiplicity_ray_lowers_distinct_fraction():
    s = RaySampler(2, 15, 0, extra_directions=((1, 0),))
    verdict = rigid_convexity_check(TOUCHING, (-4, 0), s)
    assert verdict.kind == PROBABLY_RZ
    assert 0 < verdict.distinct_fraction < 1
    assert verdict.degenerate is False


def test_rigid_convexity_failure_has_no_statistics():
    verdict = rigid_convexity_check(FERMAT, (0, 0), SMALL)
    assert verdict.certified_not_rz()
    assert verdict.distinct_fraction is None
    assert verdict.degenerate is None


# === hyperbolicity_check ===

def test_hyperbolicity_matches_affine_verdict():
    for p, x0 in [(DISC, (0, 0)), (ODD_CUBIC, (0, 0)),
                  (FERMAT, (0, 0)), (TOUCHING, ((-4), 0))]:
        affine = rz_check(p, x0, SMALL) if p.evaluate(x0) > 0 else None
        proj = hyperbolicity_check(p, x0, SMALL)
        if affine is not None:
            assert proj.kind == affine.kind


def test_hyperbolicity_accepts_negative_base_value():
    p = x1 ** 2 + x2 ** 2 - one
    assert p.evaluate((0, 0)) == -1
    verdict = hyperbolicity_check(p, (0, 0), SMALL)
    assert verdict.kind == PROBABLY_RZ


def test_hyperbolicity_rejects_zero_base_value():
    with pytest.raises(BasePointError):
        hyperbolicity_check(DISC, (1, 0), SMALL)


def test_hyperbolicity_counts_infinity_as_root_at_zero():
    s = RaySampler(2, 5, 0, extra_directions=((0, 1),))
    verdict = hyperbolicity_check(ODD_CUBIC, (0, 0), s)
    vertical = verdict.per_ray[0]
    # reversal of 4 - mu^2 padded to degree 3: full degree, root at 0
    assert vertical.degree == 3
    assert vertical.with_multiplicity == 3
    assert vertical.at_infinity == 0


# the vertical ray has deg f < deg p on both: 4 - mu^2 on the odd cubic,
# which passes, and 1 + mu^2 on 1 + x2^2 - x1^3, whose reversal
# mu + mu^3 has only the real root 0 and is the witness
@pytest.mark.parametrize("p, kind", [
    (ODD_CUBIC, PROBABLY_RZ), (one + x2 ** 2 - x1 ** 3, CERTIFIED_NOT_RZ)])
def test_hyperbolicity_degree_drops_match_fraction_reversal(p, kind):
    sampler = RaySampler(2, extra_directions=((0, 1),))
    verdict = hyperbolicity_check(p, (0, 0), sampler)
    assert verdict.kind == kind
    vertical = verdict.per_ray[0]
    assert vertical.direction == (0, 1)
    assert int(p.restrict((0, 0), (0, 1)).degree()) == 2
    assert (vertical.degree, vertical.at_infinity) == (3, 0)
    expected = _direct_verdict(p, (0, 0), sampler, reverse=True)
    assert (verdict.kind, verdict.witness, verdict.per_ray) == expected
    if kind == CERTIFIED_NOT_RZ:
        f = p.restrict((0, 0), (0, 1))
        reversal = UnivariatePolynomial((f.coeffs + (F(0),))[::-1])
        assert verdict.witness == ((0, 1), count_real_roots(reversal))
        assert verdict.witness[1] == RootCount(1, 1, 3)


small_q = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def hyperbolic_case_st(draw):
    """(p, x0, v) with p(x0) != 0, p of degree <= 4."""
    p = Polynomial.zero(2)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=4))
        j = draw(st.integers(min_value=0, max_value=4 - i))
        p = p + Polynomial.constant(draw(small_q), 2) * x1 ** i * x2 ** j
    x0 = (draw(small_q), draw(small_q))
    v = draw(st.tuples(small_q, small_q).filter(lambda w: any(w)))
    return p, x0, v


@given(hyperbolic_case_st())
@settings(max_examples=60, deadline=None)
def test_hyperbolicity_counts_match_fraction_reversal(case):
    p, x0, v = case
    if p.is_zero() or p.evaluate(x0) == 0:
        return
    sampler = RaySampler(2, 7, 2, extra_directions=(v,))
    verdict = hyperbolicity_check(p, x0, sampler)
    d = int(p.degree())
    shifted = p.shift(x0).terms
    for record in verdict.per_ray:
        # p(x0 + mu w) by substitution, padded to degree d and reversed
        coeffs = [Fraction(0)] * (d + 1)
        for exps, c in shifted.items():
            coeffs[sum(exps)] += (c * record.direction[0] ** exps[0]
                                  * record.direction[1] ** exps[1])
        counts = count_real_roots(UnivariatePolynomial(coeffs[::-1]))
        assert (record.degree, record.distinct, record.with_multiplicity) \
            == (d, counts.distinct_real, counts.real_with_multiplicity)
        assert record.passed == (counts.real_with_multiplicity == d)


# === boundary extraction ===

def test_disc_boundary_lies_on_unit_circle():
    data = boundary_samples(DISC, (0, 0), rays=16)
    assert len(data.samples) == 32
    assert data.unbounded_angles == ()
    for s in data.samples:
        r2 = float(s.point[0]) ** 2 + float(s.point[1]) ** 2
        assert abs(r2 - 1.0) < 1e-5


def test_boundary_angles_sorted_and_cover_full_turn():
    data = boundary_samples(DISC, (0, 0), rays=16)
    # pseudo-angles: 4j/16 on the positive side of ray j, 4 + 4j/16 on
    # its negative side
    angles = [s.angle for s in data.samples]
    assert angles == [F(j, 4) for j in range(16)] + \
        [4 + F(j, 4) for j in range(16)]


def test_off_center_base_point_same_circle():
    data = boundary_samples(DISC, (F(1, 2), 0), rays=12)
    for s in data.samples:
        r2 = float(s.point[0]) ** 2 + float(s.point[1]) ** 2
        assert abs(r2 - 1.0) < 1e-5


def test_off_origin_scans_shift_once_per_base_point(monkeypatch):
    # restrictions are read off the forms of p at the base point, which
    # are shifted once (_build_forms off the origin) and kept while the
    # base point stays
    shifts = []
    build = Polynomial._build_forms
    monkeypatch.setattr(
        Polynomial, "_build_forms",
        lambda p, x0: (any(x0) and shifts.append(x0)) or build(p, x0))
    p = one - x1 ** 2 - x2 ** 2
    base = (F(1, 2), F(-1, 3))
    assert rz_check(p, base, SMALL).rays_checked > 1
    assert boundary_samples(p, base, rays=12).samples
    assert shifts == [base]
    rz_check(p, (0, 0), SMALL)
    assert shifts == [base]


def test_strip_records_unbounded_directions():
    strip = one - x1 ** 2
    data = boundary_samples(strip, (0, 0), rays=16)
    # the vertical scan line meets no boundary; both of its angles are
    # reported unbounded and every other ray exits through x1 = +-1
    assert data.unbounded_angles == (2, 6)
    assert len(data.samples) == 30
    for s in data.samples:
        assert abs(abs(float(s.point[0])) - 1.0) < 1e-5


def test_boundary_requires_interior_base():
    with pytest.raises(BasePointError):
        boundary_samples(DISC, (3, 0))


def test_boundary_is_two_variable_only():
    p3 = Polynomial.constant(1, 3) - Polynomial.variable(1, 3) ** 2
    with pytest.raises(DimensionMismatch):
        boundary_samples(p3, (0, 0, 0))


@given(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8),
       st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8))
@settings(max_examples=25, deadline=None)
def test_ellipse_boundary_points_near_zero_set(a, b):
    p = one - a * x1 ** 2 - b * x2 ** 2
    data = boundary_samples(p, (0, 0), rays=9)
    assert data.unbounded_angles == ()
    for s in data.samples:
        assert abs(float(p.evaluate(s.point))) < 1e-4


def _walked_boundary(p, x0, rays, resolution=F(1, 2 ** 20)):
    """boundary_samples' data with every ray isolated afresh by
    isolate_real_roots(f, resolution, nearest=True): no guess and no
    slope polynomial."""
    x = tuple(F(c) for c in x0)
    samples, unbounded = ([], []), ([], [])
    for j in range(rays):
        v = _square_direction(j, rays)
        f = p.restrict(x, v)
        near = [None, None]
        if f.degree() > 0:
            for iv in isolate_real_roots(f, resolution, nearest=True):
                near[iv.low < 0] = iv.midpoint()
        for side, angle in enumerate((F(4 * j, rays), 4 + F(4 * j, rays))):
            mu = near[side]
            if mu is None:
                unbounded[side].append(angle)
            else:
                point = tuple(c + mu * w for c, w in zip(x, v))
                samples[side].append(
                    rzcheck.BoundarySample(angle, v, mu, point))
    return rzcheck.BoundaryData(tuple(samples[0] + samples[1]),
                                tuple(unbounded[0] + unbounded[1]))


def _slope_sign(p, x0, v):
    """The sign of the slope polynomial P at the slope of direction v."""
    x = tuple(F(c) for c in x0)
    w = _integer_vector(v)
    return realroots._int_sign_at(rzcheck.SlopeCells.polynomial(p, x),
                                  *(w[1], w[0]) if w[0] > 0
                                  else (-w[1], -w[0]))


@pytest.mark.parametrize("resolution", [F(1, 2 ** 20), F(3, 2 ** 40)])
def test_boundary_rays_the_slope_polynomial_cannot_prove_give_the_walk(
        resolution):
    # the disc squared has D = 0, so no ray is proved square-free by P;
    # the tangent circles touch on the first ray from (-4, 0), a zero
    # of P; 64 rays have a vertical one, ray 32, which has no slope
    square = _golden("disc_squared")
    assert rzcheck.SlopeCells.polynomial(square, (F(0), F(0))) == []
    tangent = _golden("tangent")
    assert _slope_sign(tangent, (-4, 0), _square_direction(0, 181)) == 0
    assert _square_direction(32, 64) == (0, 1)
    for p, x0, rays in ((square, (0, 0), 31), (tangent, (-4, 0), 181),
                        (DISC, (0, 0), 64)):
        assert boundary_samples(p, x0, rays, resolution) == \
            _walked_boundary(p, x0, rays, resolution)


def test_boundary_builds_sturm_chains_only_on_fallback_rays(monkeypatch):
    # det6 at 181 rays: P proves every ray's restriction square-free, so
    # only the rays sent to isolate_real_roots (the first, which has no
    # guess, and any whose cell is refused) build a Sturm chain, where
    # each of the 181 rays built one before P was read
    chains, fallbacks = [], []
    chain = realroots._int_sturm_chain
    monkeypatch.setattr(realroots, "_int_sturm_chain",
                        lambda g: chains.append(1) or chain(g))
    isolate = rzcheck.isolate_real_roots
    monkeypatch.setattr(rzcheck, "isolate_real_roots",
                        lambda *args, **kw: fallbacks.append(1) or
                        isolate(*args, **kw))
    data = boundary_samples(_golden("det6"), (0, 0))
    assert len(data.samples) == 2 * 181
    assert 1 <= len(chains) == len(fallbacks) <= 11


def test_boundary_with_few_rays_reads_no_slope_polynomial(monkeypatch):
    # P is built only for more than 2 d^2 rays, where it pays for itself
    built = []
    polynomial = rzcheck.SlopeCells.polynomial
    monkeypatch.setattr(rzcheck.SlopeCells, "polynomial",
                        lambda q, x: built.append(1) or polynomial(q, x))
    det6 = _golden("det6")
    assert boundary_samples(det6, (0, 0), 72) == _walked_boundary(det6,
                                                                  (0, 0), 72)
    assert built == []
    boundary_samples(det6, (0, 0), 73)
    assert built == [1]


@pytest.mark.parametrize("resolution", [float("nan"), float("inf"),
                                        float("-inf"), 0, -1, F(-1, 2)])
def test_boundary_refuses_a_resolution_that_is_not_positive(resolution):
    with pytest.raises(ValueError, match="resolution must be positive"):
        boundary_samples(DISC, (0, 0), 4, resolution)


def test_boundary_reads_the_resolution_once_as_a_fraction():
    # every crossing of the max-norm unit square is at mu = +-1, exact
    # at these three resolutions; the disc's are not, and each width
    # gives what its Fraction gives
    square = (one - x1 ** 2) * (one - x2 ** 2)
    data = [boundary_samples(square, (0, 0), 9, r)
            for r in (0.25, 1, F(1, 4))]
    assert data[0] == data[1] == data[2]
    assert {s.parameter for s in data[0].samples} == {1, -1}
    for r in (0.25, 1, F(1, 4)):
        assert boundary_samples(DISC, (0, 0), 9, r) == \
            boundary_samples(DISC, (0, 0), 9, F(r))


# === slope cells ===
#
# A plane scan builds the cells of the zeros of D(t) h_d(1, t) after
# rzcheck._CELLS_AFTER rays and takes the RootCount of a later ray from
# an earlier ray of its cell.  The oracle below restricts p and counts
# every ray, so the verdicts must agree record for record.

def _direct_verdict(p, x0, sampler, reverse=False):
    """The line test with every ray counted: p restricted along the ray
    and, with reverse, the Fraction reversal padded to deg p."""
    x0 = tuple(F(c) for c in x0)
    q = -p if p.evaluate(x0) < 0 else p
    d = int(q.degree())
    per_ray = []
    for v in sampler.directions():
        f = q.restrict(x0, v)
        if reverse:
            coeffs = f.coeffs + (F(0),) * (d + 1 - len(f.coeffs))
            f = UnivariatePolynomial(coeffs[::-1])
        counts = count_real_roots(f)
        deg, real = counts.total_degree, counts.real_with_multiplicity
        per_ray.append(rzcheck.RayRecord(v, deg, counts.distinct_real, real,
                                         d - deg, real == deg))
        if real != deg:
            return CERTIFIED_NOT_RZ, (v, counts), tuple(per_ray)
    return PROBABLY_RZ, None, tuple(per_ray)


def _assert_cells_agree(p, x0, sampler=None):
    sampler = sampler or RaySampler(2)
    for check, reverse in ((rigid_convexity_check, False),
                           (hyperbolicity_check, True)):
        if not reverse and p.evaluate(x0) <= 0:
            continue
        verdict = check(p, x0, sampler)
        kind, witness, per_ray = _direct_verdict(p, x0, sampler, reverse)
        assert (verdict.kind, verdict.witness) == (kind, witness)
        assert verdict.rays_checked == len(per_ray)
        assert verdict.per_ray == per_ray


def _golden(name):
    return parse_polynomial((GOLDEN / f"{name}.poly").read_text())


def _determinantal(rng, d):
    """det(I + x1 A1 + x2 A2) for random symmetric integer A1, A2: real
    zero at the origin."""
    from lmicert.pencil import (LinearPencil, SymmetricMatrix,
                                determinant_polynomial)
    mats = [SymmetricMatrix.identity(d)]
    for _ in range(2):
        rows = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        mats.append(SymmetricMatrix(rows))
    return determinant_polynomial(LinearPencil(mats))


# every golden curve at its golden point, the lobe at the six
# benchmark points and at (1/2, 0), where P has a sixfold zero at t = 0,
# and at (1/10, 0), where the witness is ray 75
SLOPE_CASES = [
    ("disc", (0, 0)), ("fermat", (0, 0)), ("odd_cubic", (0, 0)),
    ("concentric", (0, 0)), ("tangent", (-4, 0)), ("forms7", (0, 0)),
    ("approx", (0, 0)), ("lobe", (F(7, 10), 0)), ("lobe", (F(1, 2), 0)),
    ("lobe", (F(3, 5), 0)), ("lobe", (F(4, 5), 0)),
    ("lobe", (F(3, 5), F(1, 10))), ("lobe", (F(7, 10), F(-1, 10))),
    ("lobe", (F(1, 10), 0)),
]


@pytest.mark.parametrize("name, x0", SLOPE_CASES)
def test_slope_cells_keep_the_verdict_of_golden_curves(name, x0):
    _assert_cells_agree(_golden(name), x0)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_slope_cells_keep_the_verdict_of_determinantal_curves(d):
    _assert_cells_agree(_determinantal(random.Random(40 + d), d), (0, 0))


def test_slope_cells_keep_the_verdict_of_fermat_curves():
    for k in (4, 6):
        _assert_cells_agree(one - x1 ** k - x2 ** k, (0, 0))
        # under a rational shear
        shear = one - (x1 + 3 * x2) ** k - x2 ** k
        _assert_cells_agree(shear, (0, 0))


def test_slope_cells_are_skipped_when_p_is_not_square_free():
    # (1 - x1^2 - x2^2)^2: every g_t has double roots, so D = 0
    square = DISC * DISC
    q, x = square, (F(0), F(0))
    heads = rzcheck.SlopeCells._heads(q._build_forms(x)[2])
    assert rzcheck.SlopeCells._discriminant(heads) == []
    assert rzcheck.SlopeCells.at(q, x) is None
    _assert_cells_agree(square, (0, 0))


def test_slope_cells_rebuild_the_forms_at_their_base_point():
    # restrict caches p's forms at its own base point; the cells at the
    # origin must build them again, not read those
    p = _determinantal(random.Random(44), 4)
    x0 = (F(0), F(0))
    p.restrict((F(1, 3), F(-1, 5)), (F(1), F(1, 2)))
    assert p._forms[0] != x0
    cells = rzcheck.SlopeCells.at(p, x0)
    fresh = rzcheck.SlopeCells.at(Polynomial(2, p.terms), x0)
    assert cells.c == fresh.c
    slopes = [F(n, 8) for n in range(-200, 201)]
    assert [cells.cell(t.numerator, t.denominator) for t in slopes] == \
        [fresh.cell(t.numerator, t.denominator) for t in slopes]
    assert p._forms[0] == x0


def test_slope_cells_handle_degree_drops_on_grid_slopes():
    # the top form x1 x2 (181 x2 - 4 x1) vanishes at slope 0, at the
    # vertical and at slope 4/181, the slope of grid ray 1 of 181
    cubic = (one - x1) * (one + x2) * (one - (181 * x2 - 4 * x1) * F(1, 200))
    verdict = rz_check(cubic, (0, 0))
    assert {r.at_infinity for r in verdict.per_ray[:2]} == {1}
    _assert_cells_agree(cubic, (0, 0))


def _random_plane_polynomial(data, constant):
    terms = {(0, 0): F(constant)}
    degree = data.draw(st.integers(min_value=2, max_value=4))
    for total in range(1, degree + 1):
        for i in range(total + 1):
            terms[(i, total - i)] = F(data.draw(
                st.integers(min_value=-4, max_value=4)))
    terms[(degree, 0)] = terms[(degree, 0)] or F(1)
    return Polynomial(2, terms)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_slope_cells_keep_the_verdict_of_random_polynomials(data):
    constant = data.draw(st.sampled_from([-3, -1, 1, 2, 5]))
    p = _random_plane_polynomial(data, constant)
    _assert_cells_agree(p, (0, 0))


def test_slope_cells_replace_most_restrictions(monkeypatch):
    calls = []
    restrict = Polynomial.restrict

    def counted(self, x, v):
        calls.append(v)
        return restrict(self, x, v)

    monkeypatch.setattr(Polynomial, "restrict", counted)
    for name, x0 in (("disc", (0, 0)), ("tangent", (-4, 0))):
        verdict = rigid_convexity_check(_golden(name), x0)
        assert verdict.kind == PROBABLY_RZ and verdict.rays_checked == 243
        # the rays before the build, and a few first rays of cells
        assert rzcheck._CELLS_AFTER <= len(calls) <= rzcheck._CELLS_AFTER + 8
        calls.clear()
    # the scan also names, per ray, its restriction or the ray it took
    # its counts from: it restricts the rays before the build and the
    # first ray of each cell
    for name, x0 in (("disc", (F(0), F(0))), ("tangent", (F(-4), F(0)))):
        p = _golden(name)
        verdict, kept = rzcheck._scan(p, x0, RaySampler(2))
        assert len(kept) == verdict.rays_checked == 243
        assert len(calls) == sum(not isinstance(f, int) for f in kept)
        cells = rzcheck.SlopeCells.at(p, x0)
        pairs = list(RaySampler(2).directions().pairs())
        keys = [cells.cell(w[1], w[0])
                for w, _ in pairs[rzcheck._CELLS_AFTER:]]
        assert len(calls) <= (rzcheck._CELLS_AFTER + keys.count(None)
                              + len(set(keys) - {None})) < 100
        calls.clear()


def test_scan_with_a_late_witness_builds_only_the_rays_it_reads(monkeypatch):
    built = {"grid": 0, "random": 0}

    def counted(key, build):
        def wrapper(*args):
            built[key] += 1
            return build(*args)
        return wrapper

    monkeypatch.setattr(rzcheck, "_square_ray",
                        counted("grid", _square_ray))
    monkeypatch.setattr(rzcheck, "_random_vector",
                        counted("random", rzcheck._random_vector))
    verdict = rigid_convexity_check(_golden("lobe"), (F(1, 20), 0))
    assert verdict.certified_not_rz()
    assert verdict.rays_checked > rzcheck._CELLS_AFTER
    assert built == {"grid": verdict.rays_checked, "random": 0}


def _assert_borrowed_side_counts_agree(p, x0, sampler):
    """The verdict and records of counting every ray, and a ray that
    took its counts from an earlier ray of its slope cell has that
    ray's side counts, swapped when the signs of v1 differ: checked
    against side_counts of the ray's own restriction."""
    x0 = tuple(F(c) for c in x0)
    verdict, kept = rzcheck._scan(p, x0, sampler)
    kind, witness, per_ray = _direct_verdict(p, x0, sampler)
    assert (verdict.kind, verdict.witness) == (kind, witness)
    assert verdict.per_ray == per_ray and len(kept) == len(per_ray)
    for f, record in zip(kept, per_ray):
        if isinstance(f, int):
            source = per_ray[f].direction
            assert not isinstance(kept[f], int) and record.at_infinity == 0
            neg, pos = side_counts(kept[f])
            if (record.direction[0] > 0) != (source[0] > 0):
                neg, pos = pos, neg
            assert side_counts(p.restrict(x0, record.direction)) == \
                (neg, pos)


# samplers shorter and longer than the prefix rzcheck._CELLS_AFTER
PREFIX_SAMPLERS = [RaySampler(2, 3, 2), RaySampler(2, 7, 0),
                   RaySampler(2, 9, 3, seed=4), SMALL,
                   RaySampler(2, extra_directions=((1, 0), (0, 1))),
                   RaySampler(2)]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_slope_prefix_keeps_every_record(data):
    # determinantal curves of degree 2..6 pass every ray; the lobe cubic
    # at a point of its right lobe fails on a default ray after the
    # prefix (rays 29-64), also times lines that miss the base point
    # (d = 4..6)
    sampler = data.draw(st.sampled_from(PREFIX_SAMPLERS))
    if data.draw(st.booleans()):
        d = data.draw(st.integers(min_value=2, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=10 ** 6))
        p = _determinantal(random.Random(seed), d)
        x0 = (F(0), F(0))
    else:
        x0 = (F(data.draw(st.integers(min_value=3, max_value=9)), 10),
              F(data.draw(st.integers(min_value=-2, max_value=2)), 20))
        p = LOBE_CUBIC
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            a, b = (data.draw(st.integers(min_value=-3, max_value=3))
                    for _ in range(2))
            if 3 - a * x0[0] - b * x0[1]:
                # a line through x0 would make p(x0) = 0
                p = p * (3 * one - a * x1 - b * x2)
        if sampler == RaySampler(2):
            assert rz_check(p, x0).rays_checked > rzcheck._CELLS_AFTER
    _assert_cells_agree(p, x0, sampler)
    _assert_borrowed_side_counts_agree(p, x0, sampler)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_slope_discriminant_is_a_fraction_sylvester_determinant(data):
    p = _random_plane_polynomial(data, data.draw(st.sampled_from([1, 3])))
    x0 = tuple(data.draw(st.fractions(min_value=-2, max_value=2,
                                      max_denominator=5)) for _ in range(2))
    if p.evaluate(x0) == 0:
        return
    _, den, forms = p._build_forms(x0)
    disc = rzcheck.SlopeCells._discriminant(
        rzcheck.SlopeCells._heads(forms))
    d = int(p.degree())
    shifted = p.shift(x0)
    t = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=9))
    # g_t(s) = sum_k h_k(1, t) s^(d - k), highest power first
    g = [sum((c * t ** e[1] for e, c in shifted.terms.items()
              if sum(e) == k), F(0)) for k in range(d + 1)]
    dg = [(d - k) * c for k, c in enumerate(g[:-1])]
    rows = [[F(0)] * r + g + [F(0)] * (d - 2 - r) for r in range(d - 1)]
    rows += [[F(0)] * r + dg + [F(0)] * (d - 1 - r) for r in range(d)]
    value = sum((c * t ** k for k, c in enumerate(disc)), F(0))
    assert value == den ** (2 * d - 1) * _fraction_det(rows)


def _fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions."""
    rows = [row[:] for row in rows]
    n = len(rows)
    det = F(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            for j in range(k, n):
                rows[i][j] -= factor * rows[k][j]
    return det
