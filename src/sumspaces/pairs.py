"""Canonical decomposition of a pair of subspaces and pair-closedness margins.

Any pair splits the ambient space into the four intersection components

    H1&H2, H1&H2', H1'&H2, H1'&H2'   (' = orthocomplement)

plus a generic part of the form K + K on which

    P1 = [[I, 0], [0, 0]],
    P2 = [[a, s], [s, I-a]],   s = sqrt(a(I-a)),

where a is the compression of P2 to the first K copy, with 0 < a < I.
Everything quantitative about the pair (angles, gaps, closedness margins of
the infinite-dimensional analogues) is a function of the spectrum of a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (DEFAULT_TOL, Tolerances, eig_hermitian, hermitian_eigenvalues,
                       independence_epsilon, operator_norm, singular_values,
                       smallest_nonzero_singular_value)
from .reports import MarginReport
from .subspaces import Subspace, complement, from_spanning, intersect


@dataclass
class PairDecomposition:
    """Five canonical components of a pair plus the generic-part operator a.

    The K-basis is the eigenbasis of a with ascending eigenvalues, so the
    decomposition is reproducible up to per-vector phases.  ``k_basis_1`` are
    the first-copy directions (inside H1), ``k_basis_2`` the matching second
    copy; ``a_eigenvalues`` all lie strictly inside (0, 1).
    """

    ambient_dim: int
    both: Subspace          # H1 & H2
    first_only: Subspace    # H1 & H2'
    second_only: Subspace   # H1' & H2
    neither: Subspace       # H1' & H2'
    k_basis_1: np.ndarray   # d x r, inside H1
    k_basis_2: np.ndarray   # d x r, orthogonal second copy
    a_eigenvalues: np.ndarray  # ascending, in (0, 1)

    @property
    def k_dim(self) -> int:
        return len(self.a_eigenvalues)

    @property
    def a(self) -> np.ndarray:
        """The operator a in the chosen K-basis (diagonal)."""
        return np.diag(self.a_eigenvalues).astype(complex)

    def generic_frame(self) -> np.ndarray:
        """d x 2r isometry [K-copy-1, K-copy-2]."""
        return np.hstack([self.k_basis_1, self.k_basis_2])

    def reconstruct_p1(self) -> np.ndarray:
        P = self.both.projector() + self.first_only.projector()
        return P + self.k_basis_1 @ self.k_basis_1.conj().T

    def reconstruct_p2(self) -> np.ndarray:
        P = self.both.projector() + self.second_only.projector()
        x = self.a_eigenvalues
        s = np.sqrt(x * (1.0 - x))
        Q1, Q2 = self.k_basis_1, self.k_basis_2
        block = (Q1 * x) @ Q1.conj().T + (Q2 * (1.0 - x)) @ Q2.conj().T \
            + (Q1 * s) @ Q2.conj().T + (Q2 * s) @ Q1.conj().T
        return P + block


def halmos_decompose(H1: Subspace, H2: Subspace,
                     tol: Tolerances = DEFAULT_TOL) -> PairDecomposition:
    """Compute the canonical decomposition of (H1, H2).

    Compression eigenvalues within rank_tol of 0 or 1 are reassigned to the
    intersection components, enforcing 0 < a < I on the generic part.
    """
    d = H1.ambient_dim
    H1c, H2c = complement(H1, tol), complement(H2, tol)
    both = intersect(H1, H2, tol)
    first_only = intersect(H1, H2c, tol)
    second_only = intersect(H1c, H2, tol)
    neither = intersect(H1c, H2c, tol)

    P_flat = (both.projector() + first_only.projector()
              + second_only.projector() + neither.projector())
    P_gen = np.eye(d) - P_flat
    # generic part of H1 = first K copy
    G1 = from_spanning(P_gen @ H1.basis, d, tol, scale=1.0)
    P2 = H2.projector()

    if G1.dim == 0:
        return PairDecomposition(d, both, first_only, second_only, neither,
                                 np.zeros((d, 0), dtype=complex),
                                 np.zeros((d, 0), dtype=complex), np.zeros(0))

    a = G1.basis.conj().T @ P2 @ G1.basis
    spec = eig_hermitian(a, tol)
    x, V = spec.eigenvalues, spec.eigenvectors
    directions = G1.basis @ V

    near_one = x >= 1.0 - tol.rank_tol
    near_zero = x <= tol.rank_tol
    mid = ~(near_one | near_zero)
    if np.any(near_one):
        both = from_spanning(np.hstack([both.basis, directions[:, near_one]]), d, tol)
    if np.any(near_zero):
        first_only = from_spanning(
            np.hstack([first_only.basis, directions[:, near_zero]]), d, tol)

    x = x[mid]
    Q1 = directions[:, mid]
    # second K copy: unit vectors (P2 - x) u / sqrt(x(1-x)), orthogonal to K
    s = np.sqrt(x * (1.0 - x))
    Q2 = (P2 @ Q1 - Q1 * x) / s
    return PairDecomposition(d, both, first_only, second_only, neither, Q1, Q2, x)


def friedrichs_angle(H1: Subspace, H2: Subspace,
                     tol: Tolerances = DEFAULT_TOL) -> float:
    """Angle between the pair after removing the intersection.

    gamma = arccos(sqrt(max sigma(a))); pi/2 when the generic part is empty
    (which covers containment, following the definition literally).
    """
    dec = halmos_decompose(H1, H2, tol)
    if dec.k_dim == 0:
        return float(np.pi / 2)
    c = float(np.sqrt(np.clip(dec.a_eigenvalues[-1], 0.0, 1.0)))
    return float(np.arccos(c))


def pair_criteria(H1: Subspace, H2: Subspace,
                  tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Margins for the equivalent closedness criteria of a pair.

    c1: 1 - max sigma(a); c2: gap of sigma(P1 P2) below 1 (eigenvalue 1
    excluded); c3: 1 - ||P1 P2 - P_{H1&H2}||; c4: c1 computed for the
    complement pair; c5: smallest nonzero singular value of (I-P1)P2;
    c6: smallest nonzero singular value of I - P1 P2.
    """
    d = H1.ambient_dim
    dec = halmos_decompose(H1, H2, tol)
    P1, P2 = H1.projector(), H2.projector()
    report = MarginReport()

    if dec.k_dim == 0:
        report.add("c1_one_minus_max_a", 1.0, tol.margin_tol)
    else:
        report.add("c1_one_minus_max_a", 1.0 - dec.a_eigenvalues[-1], tol.margin_tol)

    prod_spec = hermitian_eigenvalues(P1 @ P2 @ P1, tol)
    below_one = prod_spec[prod_spec < 1.0 - 100 * tol.eig_tol]
    if len(below_one) == 0:
        report.add("c2_product_spectrum_gap", 1.0, tol.margin_tol)
    else:
        report.add("c2_product_spectrum_gap", 1.0 - float(below_one[-1]), tol.margin_tol)

    P_meet = dec.both.projector()
    report.add("c3_product_minus_meet_norm",
               1.0 - operator_norm(P1 @ P2 - P_meet), tol.margin_tol)

    dec_c = halmos_decompose(complement(H1, tol), complement(H2, tol), tol)
    if dec_c.k_dim == 0:
        report.add("c4_complement_pair", 1.0, tol.margin_tol)
    else:
        report.add("c4_complement_pair", 1.0 - dec_c.a_eigenvalues[-1], tol.margin_tol)

    sv5 = smallest_nonzero_singular_value((np.eye(d) - P1) @ P2, tol)
    report.add("c5_image_closedness", sv5, tol.margin_tol,
               vacuous=np.isinf(sv5))
    sv6 = smallest_nonzero_singular_value(np.eye(d) - P1 @ P2, tol)
    report.add("c6_one_minus_product", sv6, tol.margin_tol,
               vacuous=np.isinf(sv6))
    report.extras["k_dim"] = dec.k_dim
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
