"""Closedness certificates for sums of subspaces of a Hilbert space.

Finite-dimensional analysis of subspace systems: canonical pair
decomposition, Friedrichs angles, spectral-gap margins, independence
constants, constructive reductions to independent systems, operator-range
criteria, and a block-sequence model emulating infinite direct sums.
"""

__version__ = "0.1.0"

from .numerics import Tolerances, DEFAULT_TOL, eig_hermitian, hermitian_eigenvalues, svd
from .reports import MarginEntry, MarginReport
from .subspaces import (Subspace, SubspaceSystem, complement, contains, from_spanning,
                        full_space, intersect, subspace_from_json, subspace_to_json,
                        sum_span, system_from_json, system_to_json, zero_subspace)
from .pairs import (PairDecomposition, friedrichs_angle, halmos_decompose, pair_criteria,
                    pair_report)
from .paircalc import ScalarFunction, build_b, calculus_report, spectrum_of_b
from .systems import (WeightedGraph, complement_graph_margin, dilation,
                      linear_combination_check, sum_gap)
from .reduction import (IndependenceCertificate, ReductionResult, c_constant,
                        combine_with_spectrum, independence_certificate,
                        oblique_projections, reduce_pair, reduce_preserving_sum,
                        reduce_system)
from .images import (BetaMatrix, OperatorFamily, build_beta, cycle_alpha,
                     douglas_factor, m_membership_identity, p_radius,
                     quadratic_projector_criterion, sum_of_images)
from .blockmodel import (BlockSystem, ClosednessVerdict, certify,
                         paper_families, sum_as_two)
