"""Oval counting from 1-D root orderings along scan lines."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmicert import realroots, topology
from lmicert.cli import main
from lmicert.errors import CertifiedNotRZError, DimensionMismatch
from lmicert.pencil import (LinearPencil, SymmetricMatrix,
                            determinant_polynomial)
from lmicert.poly import Polynomial, UnivariatePolynomial, parse_polynomial
from lmicert.rzcheck import RaySampler
from lmicert.topology import (OvalProfile, nesting_consistency_report,
                              oval_profile)

F = Fraction
x1 = Polynomial.variable(1, 2)
x2 = Polynomial.variable(2, 2)
one = Polynomial.constant(1, 2)
GOLDEN = Path(__file__).resolve().parent / "golden"

SAMPLER = RaySampler(2, deterministic_count=31, random_count=8,
                     extra_directions=((1, 0), (0, 1)))


def circle(r):
    return r * r * one - x1 ** 2 - x2 ** 2


@pytest.fixture
def isolations(monkeypatch):
    """Counts calls of isolate_real_roots made through the topology
    module's binding; returns the list of counted restrictions."""
    calls = []
    isolate = topology.isolate_real_roots

    def counted(f, *args, **kwargs):
        calls.append(f)
        return isolate(f, *args, **kwargs)

    monkeypatch.setattr(topology, "isolate_real_roots", counted)
    return calls


# === single oval ===

def test_disc_is_one_oval():
    prof = oval_profile(circle(1), (0, 0), SAMPLER)
    assert isinstance(prof, OvalProfile)
    assert (prof.ovals, prof.pseudo_line) == (1, False)
    assert prof.degree == 2
    assert prof.consistent
    assert nesting_consistency_report(prof) == []


def test_ray_profiles_record_ordered_parameters():
    prof = oval_profile(circle(2), (0, 0), SAMPLER)
    for ray in prof.rays:
        params = [t for t, _ in ray.parameters]
        assert params == sorted(params)
        assert ray.negative_count == ray.positive_count == 1
        assert ray.vote == (1, False)
        assert not ray.has_multiple_root


# === nested ovals ===

def test_concentric_circles_count_nesting_depth():
    p = circle(1) * circle(2)
    prof = oval_profile(p, (0, 0), SAMPLER)
    assert (prof.ovals, prof.pseudo_line) == (2, False)
    assert prof.consistent
    # every scan line sees -2 < -1 < 0 < 1 < 2
    for ray in prof.rays:
        assert (ray.negative_count, ray.positive_count) == (2, 2)


def test_triple_nesting():
    p = circle(1) * circle(2) * circle(3)
    prof = oval_profile(p, (0, 0), SAMPLER)
    assert (prof.ovals, prof.pseudo_line) == (3, False)
    assert prof.consistent


# === odd degree: pseudo-line component ===

def test_odd_cubic_has_oval_plus_pseudo_line():
    p = (one - x1) * (4 * one - x1 ** 2 - x2 ** 2)
    prof = oval_profile(p, (0, 0), SAMPLER)
    assert (prof.ovals, prof.pseudo_line) == (1, True)
    assert prof.consistent
    # the vertical ray only meets the circle; the line x1 = 1 escapes to
    # infinity, so that ray votes through the at-infinity channel
    vertical = next(r for r in prof.rays if r.direction == (F(0), F(1)))
    assert vertical.at_infinity == 1
    assert (vertical.negative_count, vertical.positive_count) == (1, 1)
    assert vertical.vote == (1, True)


def test_single_line_is_pure_pseudo_line():
    prof = oval_profile(one - x1, (0, 0), SAMPLER)
    assert (prof.ovals, prof.pseudo_line) == (0, True)
    assert prof.consistent


# === failure and edge behavior ===

def test_not_rigidly_convex_aborts_with_witness():
    fermat = one - x1 ** 4 - x2 ** 4
    with pytest.raises(CertifiedNotRZError) as err:
        oval_profile(fermat, (0, 0), SAMPLER)
    verdict = err.value.verdict
    assert verdict.certified_not_rz()
    assert verdict.witness is not None
    # the verdict is the line scan's own: one record per scanned ray,
    # ending at the witness
    assert len(verdict.per_ray) == verdict.rays_checked
    assert verdict.per_ray[-1].direction == verdict.witness[0]
    assert not verdict.per_ray[-1].passed


def test_three_variables_rejected():
    p3 = Polynomial.constant(1, 3) - Polynomial.variable(1, 3) ** 2
    with pytest.raises(DimensionMismatch):
        oval_profile(p3, (0, 0, 0))


def test_touching_ovals_flagged_by_consistency_report():
    # two circles tangent from inside at (4, 0), base point between them:
    # the tangency ray carries a double root
    p = (x1 ** 2 + x2 ** 2) * (x1 ** 2 + x2 ** 2 + 12 * x1 - one) \
        + 36 * x1 ** 2
    prof = oval_profile(p.shift((-4, 0)), (0, 0), SAMPLER)
    assert (prof.ovals, prof.pseudo_line) == (2, False)
    flagged = nesting_consistency_report(prof)
    assert any(r.has_multiple_root for r in flagged)
    axis = next(r for r in prof.rays if r.direction == (F(1), F(0)))
    assert axis.has_multiple_root
    assert max(m for _, m in axis.parameters) == 2


def test_default_sampler_pins_axes():
    p = (one - x1) * (4 * one - x1 ** 2 - x2 ** 2)
    prof = oval_profile(p, (0, 0))
    dirs = {r.direction for r in prof.rays}
    assert (F(0), F(1)) in dirs
    assert (F(1), F(0)) in dirs


def test_parameters_are_midpoints_near_roots():
    prof = oval_profile(circle(1), (0, 0), RaySampler(
        2, deterministic_count=7, random_count=0,
        extra_directions=((1, 0),)))
    axis = next(r for r in prof.rays if r.direction == (F(1), F(0)))
    assert len(axis.parameters) == 2
    assert abs(float(axis.parameters[0][0]) + 1.0) < 1e-5
    assert abs(float(axis.parameters[1][0]) - 1.0) < 1e-5


@given(st.integers(min_value=1, max_value=3),
       st.fractions(min_value=F(1, 2), max_value=2, max_denominator=4))
@settings(max_examples=12, deadline=None)
def test_nested_ellipse_families(depth, squeeze):
    p = one
    for k in range(1, depth + 1):
        p = p * (k * k * one - squeeze * x1 ** 2 - x2 ** 2)
    prof = oval_profile(p, (0, 0), RaySampler(2, 15, 4,
                                              extra_directions=((1, 0),)))
    assert (prof.ovals, prof.pseudo_line) == (depth, False)
    assert prof.consistent


# === lazy parameters ===

def test_json_topology_isolates_no_roots(isolations, capsys):
    assert main(["topology", str(GOLDEN / "disc.poly"),
                 "--rays", "31", "--random", "8"]) == 0
    assert capsys.readouterr().out
    assert isolations == []


def test_parameters_isolate_once_per_ray_on_first_read(isolations):
    # the line x1 = 1 restricts to a constant along the vertical ray
    prof = oval_profile(one - x1, (0, 0), SAMPLER)
    assert isolations == []
    first = [ray.parameters for ray in prof.rays]
    positive = [r for r in prof.rays if r.at_infinity < prof.degree]
    assert len(isolations) == len(positive) < len(prof.rays)
    assert [ray.parameters for ray in prof.rays] == first
    assert len(isolations) == len(positive)


def test_each_ray_is_analysed_once(monkeypatch):
    # the line test's count, the side counts and the isolation share one
    # root analysis per ray; the cubic's restrictions are square-free, so
    # that analysis is one Sturm chain on each ray of positive degree
    chains = []
    build = realroots._int_sturm_chain
    monkeypatch.setattr(realroots, "_int_sturm_chain",
                        lambda g: chains.append(g) or build(g))
    p = (one - x1) * (4 * one - x1 ** 2 - x2 ** 2)
    prof = oval_profile(p, (0, 0), SAMPLER)
    assert not any(ray.has_multiple_root for ray in prof.rays)
    # the scan builds its slope cells after a few rays; a ray that took
    # its counts from its cell is restricted and analysed only when its
    # parameters are read
    scanned = [ray for ray in prof.rays if ray.scanned is not None]
    assert 0 < len(scanned) < len(prof.rays)
    assert len(chains) == sum(1 for ray in scanned
                              if ray.scanned.degree() > 0)
    positive = sum(1 for ray in prof.rays if ray.restriction.degree() > 0)
    assert positive == len(prof.rays)
    assert all(ray.parameters for ray in prof.rays)
    assert len(chains) == positive
    assert all(ray.parameters for ray in prof.rays)
    assert len(chains) == positive


def test_concentric_parameters_need_no_clash_refinement(monkeypatch):
    # max-norm directions keep the crossings at geometric scale, far
    # apart at the isolation resolution, so isolate_real_roots refines
    # each one-root piece of the Descartes bisection once and never
    # again to separate two factors
    pieces, refined = [0], [0]
    descartes_pieces, refine = realroots._descartes_pieces, realroots._refine

    def counted_pieces(*args):
        leaves, zeros = descartes_pieces(*args)
        pieces[0] += sum(1 for leaf in leaves if leaf[2] == 1)
        return leaves, zeros

    def counted_refine(*args):
        refined[0] += 1
        return refine(*args)

    monkeypatch.setattr(realroots, "_descartes_pieces", counted_pieces)
    monkeypatch.setattr(realroots, "_refine", counted_refine)
    p = parse_polynomial((GOLDEN / "concentric.poly").read_text())
    prof = oval_profile(p, (0, 0), SAMPLER)
    assert all(len(ray.parameters) == 4 for ray in prof.rays)
    assert refined[0] == pieces[0] > 0


def _assert_multiple_root_flags(prof):
    for ray in prof.rays:
        assert ray.has_multiple_root == any(m > 1 for _, m in ray.parameters)


@pytest.mark.parametrize("curve, point", [
    ("disc", (0, 0)), ("concentric", (0, 0)), ("tangent", (-4, 0)),
    ("odd_cubic", (0, 0))])
def test_multiple_root_flag_matches_parameters_on_golden_curves(curve,
                                                               point):
    p = parse_polynomial((GOLDEN / f"{curve}.poly").read_text())
    _assert_multiple_root_flags(oval_profile(p, point, SAMPLER))


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(1, 3)).filter(lambda t: t[:2] != (0, 0)),
                min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_multiple_root_flag_matches_parameters_on_line_products(factors):
    # every line 1 - a x1 - b x2 misses the origin, so a product of
    # their powers is rigidly convex there, singular where a factor
    # repeats or two lines cross
    p = one
    for a, b, mult in factors:
        p = p * (one - a * x1 - b * x2) ** mult
    prof = oval_profile(p, (0, 0), RaySampler(2, 7, 2,
                                              extra_directions=((1, 0),)))
    _assert_multiple_root_flags(prof)


# === side counts read from the slope cells ===

def _determinantal(rng, d):
    """det(I + x1 A1 + x2 A2) of degree d for random symmetric A1, A2
    with entries in [-3, 3]: rigidly convex where |x1| + |x2| < 1/(3d)."""
    while True:
        mats = [SymmetricMatrix.identity(d)]
        for _ in range(2):
            rows = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            mats.append(SymmetricMatrix(rows))
        p = determinant_polynomial(LinearPencil(mats))
        if p.degree() == d:
            return p


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_side_counts_from_slope_cells_match_each_ray(d):
    # the default sampler passes the point where the scan builds its
    # cells; every ray's side counts, also those taken from the first
    # ray of its cell, are those of its own restriction
    p = _determinantal(random.Random(70 + d), d)
    for x0 in ((F(0), F(0)), (F(1, 8 * d), F(-1, 10 * d))):
        prof = oval_profile(p, x0)
        assert len(prof.rays) == 244
        reused = [ray for ray in prof.rays if ray.scanned is None]
        assert len(reused) > 100
        for ray in prof.rays:
            f = UnivariatePolynomial(p.restrict(x0, ray.direction).coeffs)
            expected = realroots.side_counts(f) if f.degree() > 0 else (0, 0)
            assert (ray.negative_count, ray.positive_count) == expected
        for ray in reused[:3]:
            assert ray.restriction == p.restrict(x0, ray.direction)
            assert ray.parameters == tuple(
                (iv.midpoint(), iv.multiplicity)
                for iv in realroots.isolate_real_roots(ray.restriction))
