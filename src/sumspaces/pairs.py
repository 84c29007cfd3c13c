"""Canonical decomposition of a pair of subspaces and pair-closedness margins.

Any pair splits the ambient space into the four intersection components

    H1&H2, H1&H2', H1'&H2, H1'&H2'   (' = orthocomplement)

plus a generic part of the form K + K on which

    P1 = [[I, 0], [0, 0]],
    P2 = [[c^2, cs], [cs, s^2]],

with c, s the cosines and sines of the generic principal angles: the
compression a of P2 to the first K copy is c^2, 0 < a < I.  The
decomposition takes its frames from ``subspaces.principal_pairs`` (cosines
from an SVD of B1*B2, sines below pi/4 from an SVD of (I - P1)Y2).  Sine <=
rank_tol puts a pair in H1&H2 and cosine <= rank_tol in H1&H2' and H1'&H2;
the rest is generic.  The cutoffs are absolute, as the bases are orthonormal.

Every operator in the pair criteria and the independence constants is a
direct sum of these 2x2 blocks and of 0s and 1s on the intersection
components (Halmos, Trans. AMS 144 (1969)), so each margin is a closed form
of the classified sines and cosines: ``pair_report`` takes them from one
``subspaces.principal_values`` run, singular values only, and forms no
d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DEFAULT_TOL, Tolerances
from .reports import MarginReport
# complement is not used here: perfbench's tracer patches and checks this copy
from .subspaces import Subspace, complement, principal_pairs, principal_values  # noqa: F401


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


def _block_sigma_min(s: np.ndarray) -> np.ndarray:
    """Smaller singular value of I - P1 P2 on a generic 2x2 block with sine s:
    sigma^2 = 2 s^4 / (t + sqrt(t^2 - 4 s^4)), t = 1 + s^2, where
    t^2 - 4 s^4 = (1 - s^2)(1 + 3 s^2) is evaluated factored, so never < 0."""
    s2 = s * s
    return np.sqrt(2.0 * s2 * s2 / (1.0 + s2 + np.sqrt((1.0 - s2) * (1.0 + 3.0 * s2))))


def pair_report(H1: Subspace, H2: Subspace,
                tol: Tolerances) -> tuple[float, MarginReport, MarginReport]:
    """The Friedrichs angle, ``pair_criteria`` and the independence constants of
    (H1, H2), all closed forms of one ``principal_values`` run.

    The constants are ||P1 P2|| (the largest cosine), the best eps in
    ||x + y||^2 >= eps (||x||^2 + ||y||^2) (the 2-block Gram operator's smallest
    eigenvalue 1 - c = s^2 / (1 + c)) and the best eps in ||(I-P1) y|| >= eps ||y||
    on H2 (the smallest sine, 1 if none); the pair is independent with closed
    sum iff ||P1 P2|| < 1."""
    values = principal_values(H1, H2)
    cos, sin = values.cos, values.sin
    meet, _, generic = values.classify(tol)
    first = np.flatnonzero(generic)[:1]
    c_g, s_g = (cos[first[0]], sin[first[0]]) if len(first) else (0.0, 1.0)
    angle = float(np.arctan2(s_g, c_g))

    c, s = cos[~meet], sin[~meet]
    s_g2 = float(s_g ** 2)
    criteria = MarginReport()
    criteria.add("c1_one_minus_max_a", s_g2, tol.margin_tol)
    criteria.add("c2_product_spectrum_gap", s_g2, tol.margin_tol)
    criteria.add("c3_product_minus_meet_norm", np.min(s * s / (1.0 + c), initial=1.0),
                 tol.margin_tol)
    criteria.add("c4_complement_pair", s_g2, tol.margin_tol)
    criteria.add("c5_image_closedness", np.min(s, initial=1.0), tol.margin_tol,
                 vacuous=len(s) + values.b_rest_dim == 0)
    criteria.add("c6_one_minus_product", np.min(_block_sigma_min(s), initial=1.0),
                 tol.margin_tol, vacuous=meet.sum() == H1.ambient_dim)
    criteria.extras["k_dim"] = int(generic.sum())

    norm_prod = float(np.max(cos, initial=0.0))
    independent = MarginReport()
    independent.add("product_norm_margin", 1.0 - norm_prod, tol.margin_tol)
    independent.extras["product_norm"] = norm_prod
    sin = np.where(meet, 0.0, sin)  # the meet's sines are 0, not their round-off
    independent.add("gram_epsilon", np.min(sin ** 2 / (1.0 + cos), initial=1.0),
                    tol.margin_tol, vacuous=H1.dim + H2.dim == 0)
    independent.add("embedding_epsilon", np.min(sin, initial=1.0), tol.margin_tol,
                    vacuous=H2.dim == 0)
    independent.extras["independent_closed"] = norm_prod < 1.0 - tol.margin_tol
    return angle, criteria, independent


def friedrichs_angle(H1: Subspace, H2: Subspace,
                     tol: Tolerances = DEFAULT_TOL) -> float:
    """Angle between the pair after removing the intersection: the smallest
    generic principal angle; pi/2 when there is none (which covers
    containment, following the definition literally)."""
    return pair_report(H1, H2, tol)[0]


def pair_criteria(H1: Subspace, H2: Subspace,
                  tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Margins for the equivalent closedness criteria of a pair, each a closed
    form of the classified principal values.

    With s_g the sine of the smallest generic angle (1 if none) and "off" the
    pairs outside the meet (orthogonal ones included):
    c1: 1 - max sigma(a) = s_g^2;
    c2: gap of sigma(P1 P2) below 1, the dim(H1&H2) eigenvalues 1 excluded, = s_g^2;
    c3: 1 - ||P1 P2 - P_{H1&H2}|| = min over off pairs of 1 - c = s^2 / (1 + c);
    c4: c1 of the complement pair, which has the same generic angles, = s_g^2;
    c5: smallest nonzero singular value of (I-P1)P2: the off sines and a 1 per
        dimension of the rest of H2 (in H1'&H2), vacuous when there are none
        (absolute cutoff);
    c6: smallest singular value of I - P1 P2 after the dim(H1&H2) zeros:
        min(1, sigma(s) over the off pairs), vacuous when H1&H2 is everything.
    """
    return pair_report(H1, H2, tol)[1]

