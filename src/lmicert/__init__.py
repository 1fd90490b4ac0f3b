"""Certification and construction of linear matrix inequality
representations for convex plane regions bounded by algebraic curves.

The library answers two questions about a polynomial inequality
p(x) >= 0 around a base point: whether the region can possibly be the
feasible set of a monic linear matrix inequality (the line test, exact
in the negative direction), and, for two variables at desk scale, what
a concrete representation looks like (verified construction).
"""

from .construct import (InterceptData, RepresentationResult, VerifyOutcome,
                        intercept_normalize, match_offdiagonal, represent,
                        verify_representation)
from .errors import (BasePointError, CertifiedNotRZError, ConstructionError,
                     DimensionMismatch, LmicertError, ParseError,
                     ReductionError, ZeroPolynomialError)
from .pencil import (LinearPencil, Membership, MonicReduction, PsdReport,
                     SymmetricMatrix, determinant_polynomial, direct_sum,
                     format_pencil, is_psd, membership, parse_pencil,
                     reduce_to_monic, shift_pencil)
from .poly import (Polynomial, UnivariatePolynomial, format_polynomial,
                   format_rational, parse_polynomial, parse_rational)
from .realroots import (RootCount, RootInterval, count_real_roots,
                        count_roots_in_open_interval, isolate_real_roots,
                        side_counts, square_free_decompose)
from .rzcheck import (BoundaryData, BoundarySample, RaySampler, RayRecord,
                      RZVerdict, boundary_samples, hyperbolicity_check,
                      rigid_convexity_check, rz_check)
from .topology import (OvalProfile, RayProfile, nesting_consistency_report,
                       oval_profile)

__version__ = "0.1.0"

__all__ = [
    "BasePointError", "BoundaryData", "BoundarySample", "CertifiedNotRZError",
    "ConstructionError", "DimensionMismatch", "InterceptData", "LinearPencil",
    "LmicertError", "Membership", "MonicReduction", "OvalProfile",
    "ParseError", "Polynomial", "PsdReport", "RZVerdict", "RayRecord",
    "RayProfile", "RaySampler", "ReductionError", "RepresentationResult",
    "RootCount", "RootInterval", "SymmetricMatrix", "UnivariatePolynomial",
    "VerifyOutcome", "ZeroPolynomialError", "boundary_samples",
    "count_real_roots", "count_roots_in_open_interval",
    "determinant_polynomial", "direct_sum", "format_pencil",
    "format_polynomial", "format_rational",
    "hyperbolicity_check", "intercept_normalize", "isolate_real_roots",
    "is_psd", "match_offdiagonal", "membership", "nesting_consistency_report",
    "oval_profile", "parse_pencil", "parse_polynomial", "parse_rational",
    "reduce_to_monic", "represent", "rigid_convexity_check", "rz_check",
    "shift_pencil", "side_counts", "square_free_decompose",
    "verify_representation",
]
