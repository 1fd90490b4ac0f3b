"""Nested-ovaloid profiles of rigidly convex plane curves.

For a two-variable polynomial of degree d whose region contains the
base point, every line through the base point meets the curve in d
points counted with multiplicity and at infinity.  The real points
split by the sign of the line parameter: k crossings on each side bound
k nested ovals, and odd degree contributes one extra crossing (a curve
branch that behaves like a line), possibly at infinity.  Nesting is
read off 1-D root orderings only; no curve tracing is involved.

The side counts and votes come from Sturm counts on the rays the line
test restricts.  Once the scan has built its slope cells
(rzcheck._scan), a later ray takes the side counts of the first ray in
its cell, swapped when the two rays' v1 have opposite signs.  On the
cell, the line of slope t meets the curve at the real roots s of g_t,
which are simple and nonzero (rzcheck, slope cells), so the number of
each sign cannot change across the cell; a ray v = (v1, v2) meets them
at mu = 1/(v1 s), of the sign of s for v1 > 0 and the other for
v1 < 0.  Such a ray is restricted, and its roots isolated, only when
its parameters are first read.  The line test's count, the side counts
and the isolation read one root analysis per ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .errors import CertifiedNotRZError, DimensionMismatch
from .poly import Polynomial, UnivariatePolynomial, as_point
# count_real_roots is not called here (rzcheck._scan runs the line
# test); perfbench's tracer self-test expects this module to bind it
from .realroots import (count_real_roots,  # noqa: F401
                        isolate_real_roots, side_counts)
from .rzcheck import Direction, RaySampler, _scan

__all__ = ["RayProfile", "OvalProfile", "oval_profile",
           "nesting_consistency_report"]


@dataclass(frozen=True)
class RayProfile:
    direction: Direction
    negative_count: int          # roots below 0, with multiplicity
    positive_count: int          # roots above 0, with multiplicity
    at_infinity: int
    # (ovals, pseudo_line) this ray supports, None if the split fits
    # no nested-oval picture
    vote: Optional[Tuple[int, bool]]
    has_multiple_root: bool
    # what `parameters` isolates on first read: the scan's restriction,
    # or None to restrict the polynomial at the base point of `line`
    scanned: Optional[UnivariatePolynomial] = field(compare=False,
                                                    repr=False)
    line: Tuple[Polynomial, Tuple[Fraction, ...]] = field(compare=False,
                                                          repr=False)
    resolution: Fraction = field(compare=False, repr=False)

    @cached_property
    def restriction(self) -> UnivariatePolynomial:
        """p(x0 + mu v) for this ray's direction v, built on first read
        when the scan took the ray's counts from its slope cell."""
        if self.scanned is not None:
            return self.scanned
        p, x = self.line
        return p.restrict(x, self.direction)

    @cached_property
    def parameters(self) -> Tuple[Tuple[Fraction, int], ...]:
        """(parameter, multiplicity) pairs sorted by parameter.  A
        root that is a dyadic rational with denominator at most
        1/resolution is exact; any other is the midpoint of an
        isolating interval no wider than the resolution."""
        if self.restriction.degree() <= 0:
            return ()
        return tuple((iv.midpoint(), iv.multiplicity)
                     for iv in isolate_real_roots(self.restriction,
                                                  self.resolution))


@dataclass(frozen=True)
class OvalProfile:
    degree: int
    ovals: int
    pseudo_line: bool
    rays: Tuple[RayProfile, ...]
    consistent: bool


def _ray_vote(neg: int, pos: int, at_inf: int) -> Optional[Tuple[int, bool]]:
    if at_inf == 0:
        if neg == pos:
            return (pos, False)
        if abs(neg - pos) == 1:
            return (min(neg, pos), True)
        return None
    if at_inf == 1 and neg == pos:
        return (pos, True)
    return None


def oval_profile(p: Polynomial, x0: Sequence,
                 sampler: Optional[RaySampler] = None,
                 resolution: Fraction = Fraction(1, 2 ** 20)) -> OvalProfile:
    """Scan lines through x0 and classify the region's oval structure.

    The line test runs first: a ray whose restriction has nonreal roots
    aborts the scan with the witness, whose verdict lists every ray
    scanned up to it.  The default sampler pins both axis directions so
    degree drops along them are always observed.  `resolution` must be
    positive; it is the interval width to which a ray's `parameters`
    are isolated when first read.
    """
    if p.num_vars != 2:
        raise DimensionMismatch("oval profiles are two-variable only")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    verdict, kept = _scan(
        p, x0, sampler or RaySampler(2, extra_directions=((1, 0), (0, 1))))
    if verdict.certified_not_rz():
        v, counts = verdict.witness
        raise CertifiedNotRZError(
            f"not rigidly convex at the base point: direction "
            f"{tuple(str(c) for c in v)} meets the curve in only "
            f"{counts.real_with_multiplicity} of {counts.total_degree} "
            f"affine points", verdict=verdict)
    x = as_point(x0, 2)
    rays: List[RayProfile] = []
    for record, f in zip(verdict.per_ray, kept):
        if isinstance(f, int):
            # the side counts of ray f of the same slope cell, swapped
            # when the signs of v1 differ, as mu = 1/(v1 s)
            source, f = rays[f], None
            neg, pos = source.negative_count, source.positive_count
            if record.direction[0].numerator * \
                    source.direction[0].numerator < 0:
                neg, pos = pos, neg
        else:
            neg, pos = side_counts(f) if record.degree > 0 else (0, 0)
        rays.append(RayProfile(
            direction=record.direction,
            negative_count=neg,
            positive_count=pos,
            at_infinity=record.at_infinity,
            vote=_ray_vote(neg, pos, record.at_infinity),
            # some real root has multiplicity > 1
            has_multiple_root=record.with_multiplicity > record.distinct,
            scanned=f,
            line=(p, x),
            resolution=resolution,
        ))
    votes = {r.vote for r in rays}
    consistent = len(votes) == 1 and None not in votes
    if consistent:
        ovals, pseudo_line = votes.pop()
    else:
        # majority vote among rays that fit the picture at all
        tally: dict = {}
        for r in rays:
            if r.vote is not None:
                tally[r.vote] = tally.get(r.vote, 0) + 1
        if tally:
            ovals, pseudo_line = max(tally, key=lambda k: (tally[k], k))
        else:
            ovals, pseudo_line = 0, False
    return OvalProfile(int(p.degree()), ovals, pseudo_line, tuple(rays),
                       consistent)


def nesting_consistency_report(profile: OvalProfile) -> List[RayProfile]:
    """Rays worth a second look: multiple roots (curve singular along
    the ray) or a side split disagreeing with the profile's oval count."""
    expected = (profile.ovals, profile.pseudo_line)
    return [r for r in profile.rays
            if r.has_multiple_root or r.vote != expected]
