"""Canonical decomposition of a pair of subspaces and pair-closedness margins.

Any pair splits the ambient space into the four intersection components

    H1&H2, H1&H2', H1'&H2, H1'&H2'   (' = orthocomplement)

plus a generic part of the form K + K on which

    P1 = [[I, 0], [0, 0]],
    P2 = [[c^2, cs], [cs, s^2]],

with c, s the cosines and sines of the generic principal angles: the
compression a of P2 to the first K copy is c^2, 0 < a < I.  One kernel,
``subspaces.principal_pairs``, gives the pairs (cosines from an SVD of B1*B2,
sines below pi/4 from an SVD of (I - P1)Y2).  Sine <= rank_tol puts a pair in
H1&H2 and cosine <= rank_tol in H1&H2' and H1'&H2; the rest is generic.  The
cutoffs are absolute, as the bases are orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (DEFAULT_TOL, Tolerances, hermitian_eigenvalues,
                       independence_epsilon, operator_norm, singular_values,
                       smallest_nonzero_singular_value)
from .reports import MarginReport
from .subspaces import PrincipalPairs, Subspace, complement, principal_pairs


@dataclass
class PairDecomposition:
    """Frames of H1&H2, H1&H2', H1'&H2 and K + K, dim(H1'&H2') and the angles.

    The K-basis runs through the generic pairs by ascending cosine, unique up
    to per-vector phases.  ``k_basis_1`` lies inside H1, ``k_basis_2`` is the
    matching second copy; ``cosines`` and ``sines`` lie strictly inside (0, 1).
    """

    ambient_dim: int
    both: Subspace          # H1 & H2
    first_only: Subspace    # H1 & H2'
    second_only: Subspace   # H1' & H2
    neither_dim: int        # dim(H1' & H2')
    k_basis_1: np.ndarray   # d x r, inside H1
    k_basis_2: np.ndarray   # d x r, orthogonal second copy
    cosines: np.ndarray     # ascending
    sines: np.ndarray       # descending, sines^2 + cosines^2 = 1

    @property
    def k_dim(self) -> int:
        return len(self.cosines)

    @property
    def a_eigenvalues(self) -> np.ndarray:
        """Ascending spectrum of a, the cosines squared."""
        return self.cosines ** 2

    def reconstruct_p1(self) -> np.ndarray:
        P = self.both.projector() + self.first_only.projector()
        return P + self.k_basis_1 @ self.k_basis_1.conj().T

    def reconstruct_p2(self) -> np.ndarray:
        P = self.both.projector() + self.second_only.projector()
        Y = self.k_basis_1 * self.cosines + self.k_basis_2 * self.sines
        return P + Y @ Y.conj().T


def halmos_decompose(H1: Subspace, H2: Subspace,
                     tol: Tolerances = DEFAULT_TOL) -> PairDecomposition:
    """Canonical decomposition of (H1, H2) from its classified principal
    pairs: a generic pair (x, y) with sine s has second copy (I - P1) y / s;
    H1'&H2' is what H1, H1'&H2 and the second copy leave, kept as a dimension."""
    d = H1.ambient_dim
    pairs = principal_pairs(H1, H2)
    meet, orth, generic = pairs.classify(tol)
    generic = np.flatnonzero(generic)[::-1]  # ascending cosines
    both = Subspace(d, pairs.in_a[:, meet])
    first_only = Subspace(d, np.hstack([pairs.a_rest, pairs.in_a[:, orth]]))
    second_only = Subspace(d, np.hstack([pairs.b_rest, pairs.in_b[:, orth]]))
    c, s = pairs.cos[generic], pairs.sin[generic]
    Q1, Y = pairs.in_a[:, generic], pairs.in_b[:, generic]
    Q2 = (Y - H1.basis @ (H1.basis.conj().T @ Y)) / s
    # a rank_tol below rounding leaves the meet generic, so it is counted twice
    neither_dim = max(d - H1.dim - second_only.dim - len(c), 0)
    return PairDecomposition(d, both, first_only, second_only, neither_dim, Q1, Q2, c, s)


def _smallest_generic(pairs: PrincipalPairs, tol: Tolerances):
    """(cos, sin) of the smallest generic principal angle; (0, 1) if none."""
    generic = np.flatnonzero(pairs.classify(tol)[2])
    return (pairs.cos[generic[0]], pairs.sin[generic[0]]) if len(generic) else (0.0, 1.0)


def friedrichs_angle(H1: Subspace, H2: Subspace,
                     tol: Tolerances = DEFAULT_TOL) -> float:
    """Angle between the pair after removing the intersection: the smallest
    generic principal angle; pi/2 when there is none (which covers
    containment, following the definition literally)."""
    c, s = _smallest_generic(principal_pairs(H1, H2), tol)
    return float(np.arctan2(s, c))


def pair_criteria(H1: Subspace, H2: Subspace,
                  tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Margins for the equivalent closedness criteria of a pair.

    c1: 1 - max sigma(a) = s^2 of the smallest generic angle; c2: gap of
    sigma(P1 P2) below 1 (the dim(H1&H2) eigenvalues 1 excluded); c3:
    1 - ||P1 P2 - P_{H1&H2}||; c4: c1 computed for the complement pair; c5:
    smallest nonzero singular value of (I-P1)P2; c6: smallest singular value
    of I - P1 P2 after the dim(H1&H2) zero ones.
    """
    d = H1.ambient_dim
    pairs = principal_pairs(H1, H2)
    meet, _, generic = pairs.classify(tol)
    M = pairs.in_a[:, meet]
    P1, P2 = H1.projector(), H2.projector()
    report = MarginReport()
    report.add("c1_one_minus_max_a", float(_smallest_generic(pairs, tol)[1] ** 2),
               tol.margin_tol)

    # the top dim(H1 & H2) eigenvalues of P1 P2 P1 are the eigenvalue 1
    below_one = hermitian_eigenvalues(P1 @ P2 @ P1, tol)[:d - M.shape[1]]
    report.add("c2_product_spectrum_gap",
               1.0 - float(below_one[-1]) if len(below_one) else 1.0, tol.margin_tol)

    report.add("c3_product_minus_meet_norm",
               1.0 - operator_norm(P1 @ P2 - M @ M.conj().T), tol.margin_tol)

    pairs_c = principal_pairs(complement(H1), complement(H2))
    report.add("c4_complement_pair", float(_smallest_generic(pairs_c, tol)[1] ** 2),
               tol.margin_tol)

    sv5 = smallest_nonzero_singular_value((np.eye(d) - P1) @ P2, tol)
    report.add("c5_image_closedness", sv5, tol.margin_tol,
               vacuous=np.isinf(sv5))
    # the kernel of I - P1 P2 is H1 & H2: drop exactly that many zeros
    sv6 = singular_values(np.eye(d) - P1 @ P2)[:d - M.shape[1]]
    report.add("c6_one_minus_product", float(sv6[-1]) if len(sv6) else 1.0,
               tol.margin_tol, vacuous=len(sv6) == 0)
    report.extras["k_dim"] = int(generic.sum())
    return report


def independent_pair_constants(H1: Subspace, H2: Subspace,
                               tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Constants quantifying linear independence of the pair.

    Reports ||P1 P2||, the best quadratic-form constant in
    ||x + y||^2 >= eps (||x||^2 + ||y||^2) (smallest eigenvalue of the
    2-block Gram operator), and the best eps in ||(I-P1) x|| >= eps ||x||
    on H2.  The pair is independent with closed sum iff ||P1 P2|| < 1.
    """
    P1, P2 = H1.projector(), H2.projector()
    norm_prod = operator_norm(P1 @ P2)
    report = MarginReport()
    report.add("product_norm_margin", 1.0 - norm_prod, tol.margin_tol)
    report.extras["product_norm"] = norm_prod

    eps = independence_epsilon(np.hstack([H1.basis, H2.basis]))
    report.add("gram_epsilon", eps, tol.margin_tol, vacuous=H1.dim + H2.dim == 0)

    if H2.dim == 0:
        report.add("embedding_epsilon", 1.0, tol.margin_tol, vacuous=True)
    else:
        resid = (np.eye(H1.ambient_dim) - P1) @ H2.basis
        report.add("embedding_epsilon", float(singular_values(resid)[-1]),
                   tol.margin_tol)

    verdict = "satisfied" if norm_prod < 1.0 - tol.margin_tol else "violated"
    report.extras["independent_closed"] = verdict == "satisfied"
    return report
