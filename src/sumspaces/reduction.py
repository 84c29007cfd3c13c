"""Linear-independence constants and constructive reductions.

A system H1..Hn with a spectral gap eps (sum of projectors bounded below by
eps on the sum) can be shrunk, touching only H2..Hn, to a linearly
independent system M-subspaces with an explicit operator certificate

    P_H1 + P_M2 + w3 P_M3 + ... + wn P_Mn >= c_n eps^{n-1} I,

where the constants follow the recursion c_2 = 1/2,
c_n = c_{n-1} / (16 * 24^{n-2}).  A companion construction performs the
shrink inside the direct-sum dilation so the sum is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EigenvalueOnBoundary, GapTooSmall, NotIndependent, SumNotFull
from .numerics import (DEFAULT_TOL, Tolerances, gram_gap, hermitian_eigenvalues,
                       independence_sigma, numerical_rank, singular_values, svd, thin_svd)
from .reports import MarginReport
from .subspaces import (Subspace, SubspaceSystem, equal, from_spanning, full_space,
                        principal_pairs, sum_span)


@dataclass
class IndependenceCertificate:
    """Best quadratic-form constant in ||sum x_i||^2 >= eps sum ||x_i||^2."""

    epsilon: float
    independent: bool


@dataclass
class ReductionResult:
    """Shrunk system plus the operator-inequality certificate.

    ``reduced`` lists (H1, M2, ..., Mn); ``certificate_slack`` is lambda_min(sum w_k P_k)
    - rhs on the sum for ``weights`` and ``rhs`` = c_n * eps^(n-1); in preserve-sum
    mode, on the coordinate system (G1, E_2, ..., E_n) of ``reduce_preserving_sum``.
    """

    reduced: SubspaceSystem
    weights: list
    c_n: Fraction
    epsilon: float
    rhs: float
    certificate_slack: float
    sum_preserved: bool
    numerically_vacuous: bool
    report: MarginReport


def independence_certificate(S: SubspaceSystem,
                             tol: Tolerances = DEFAULT_TOL) -> IndependenceCertificate:
    """Smallest eigenvalue of the block Gram of the concatenated bases."""
    eps = independence_sigma(np.hstack([m.basis for m in S.members])) ** 2
    return IndependenceCertificate(eps, eps > tol.margin_tol)


def oblique_projections(S: SubspaceSystem, tol: Tolerances = DEFAULT_TOL):
    """The idempotents Q1..Qn of the direct-sum decomposition H = +Hk.

    Requires an independent system with full sum; then every x splits
    uniquely as x = x_1 + ... + x_n with x_k in H_k and Q_k x = x_k.
    """
    stacked = np.hstack([m.basis for m in S.members])
    U, s, V = thin_svd(stacked)  # serves the independence test and the inverse
    if not independence_sigma(stacked, s) ** 2 > tol.margin_tol:
        raise NotIndependent("system is not linearly independent")
    if stacked.shape[1] != S.ambient_dim:
        raise SumNotFull("sum of the members must be the whole space")
    inverse = (V / s) @ U.conj().T  # square, and sigma_min^2 > margin_tol: invertible
    out = []
    offset = 0
    for m in S.members:
        rows = inverse[offset:offset + m.dim, :]
        out.append(m.basis @ rows)
        offset += m.dim
    return out


def _shrink(H1: Subspace, H2: Subspace, delta: float, tol: Tolerances):
    """(M2, delta) of the shrink in ``reduce_pair`` at cutoff delta, without its report.
    M2 is spanned by the principal vectors of H2 against H1 that lie in H1-perp and
    the generic ones with x = cos^2 < delta (ascending), orthonormal as they stand;
    so it keeps no part of H2 & H1, and at delta = inf it is H2 minus H1 & H2."""
    pairs = principal_pairs(H2, H1)
    _, orth, generic = pairs.classify(tol)
    generic = np.flatnonzero(generic)[::-1]  # ascending cosines
    x = pairs.cos[generic] ** 2
    if np.any(np.abs(x - delta) <= tol.eig_tol):
        delta += 10 * tol.eig_tol
        if np.any(np.abs(x - delta) <= tol.eig_tol):
            raise EigenvalueOnBoundary("delta collides with sigma(a) twice")
    pieces = [pairs.a_rest, pairs.in_a[:, orth], pairs.in_a[:, generic[x < delta]]]
    return Subspace(H1.ambient_dim, np.hstack(pieces)), delta


def reduce_pair(H1: Subspace, H2: Subspace, eps: float,
                tol: Tolerances = DEFAULT_TOL):
    """Shrink H2 to M2 so that H1 + M2 is closed with explicit inequalities.

    In the canonical coordinates of the pair with H2 flat, M2 keeps the
    non-generic part of H2 outside H1 & H2 plus the spectral slice of the
    generic part with compression eigenvalue below delta = 1 - eps/2.
    Conclusions (verified as operator inequalities):
      3 (P_H1 + P_M2) + eps I >= P_H1 + P_H2
      P_H1 + P_M2 >= (eps/4) P_{H1+M2}
    The second is read from sigma of C = [H1 | M2]: P_H1 + P_M2 = CC* has its
    range H1 + M2 and the gap ``closed_margin`` there, and 0 on its kernel.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    d = H1.ambient_dim
    M2, delta = _shrink(H1, H2, 1.0 - eps / 2.0, tol)
    P1, P2, PM2 = H1.projector(), H2.projector(), M2.projector()
    report = MarginReport()
    report.extras["delta"] = delta
    closed_gap, kernel_dim = gram_gap(np.hstack([H1.basis, M2.basis]), tol)
    report.add("closed_margin", closed_gap, tol.margin_tol,
               vacuous=np.isinf(closed_gap))
    dom = 3 * (P1 + PM2) + eps * np.eye(d) - P1 - P2
    report.add("domination_slack",
               float(hermitian_eigenvalues(dom, tol)[0]), tol.margin_tol)
    report.add("lower_bound_slack", min(closed_gap - eps / 4.0, 0.0 if kernel_dim else np.inf),
               tol.margin_tol)
    return M2, report


def _reduce_recursive(members, eps, tol):
    """Recursion of the reduction theorem: H2 shrinks at delta = 1 - eps/8, and
    the last pair at delta = inf, which drops only H1 & H2.

    Returns (reduced members, weights, rhs) with
    sum_i w_i P_reduced_i >= rhs I on the sum of the originals.
    """
    n = len(members)
    if n == 1:
        return [members[0]], [1.0], eps
    H1 = members[0]
    M2, _ = _shrink(H1, members[1], np.inf if n == 2 else 1.0 - eps / 8.0, tol)
    if n == 2:
        return [H1, M2], [1.0, 1.0], eps / 2.0
    inner_members = [sum_span([H1, M2], tol)] + list(members[2:])
    inner_red, inner_w, inner_rhs = _reduce_recursive(inner_members, eps / 24.0, tol)
    scale = eps / 16.0
    reduced = [H1, M2] + inner_red[1:]
    weights = [1.0, 1.0] + [scale * w for w in inner_w[1:]]
    return reduced, weights, scale * inner_rhs


def c_constant(n: int) -> Fraction:
    """The exact rational chain c_2 = 1/2, c_n = c_{n-1} / (16 * 24^(n-2))."""
    if n < 2:
        return Fraction(1)
    c = Fraction(1, 2)
    for k in range(3, n + 1):
        c /= 16 * 24 ** (k - 2)
    return c


def _certified_core(S: SubspaceSystem, span: Subspace, eps: float, tol: Tolerances):
    """The reduction theorem on S at the gap eps of sum P_k, capped to 1 - 10 eig_tol:
    the recursion and the certificate slack on ``span``, the sum of S, not {0}.

    The slack is lambda_min(B*(sum w_k P_k)B) - rhs for B = span.basis, k columns;
    B*(sum w_k P_k)B = (B*C_w)(B*C_w)* for C_w = [sqrt(w_k) M_k], so it is
    sigma_k(B*C_w)^2 - rhs, and -rhs when B*C_w has fewer than k values.
    Returns (reduced members, weights, eps, rhs, slack).
    """
    eps = min(eps, 1.0 - 10 * tol.eig_tol)
    reduced, weights, rhs = _reduce_recursive(list(S.members), eps, tol)
    B, C_w = span.basis, np.hstack([np.sqrt(w) * m.basis for w, m in zip(weights, reduced)])
    s, k = singular_values(B.conj().T @ C_w), B.shape[1]
    slack = float((s[k - 1] ** 2 if len(s) == k else 0.0) - rhs)
    return reduced, weights, eps, rhs, slack


def _assemble(reduced, weights, eps, rhs, slack, original_sum: Subspace,
              tol: Tolerances) -> ReductionResult:
    """ReductionResult of ``_certified_core``'s output and the one report of both
    modes: ``certificate_slack``, and ``independence_epsilon`` and ``sum_preserved``
    against ``original_sum``, both from one thin SVD of the stacked reduced bases."""
    d = original_sum.ambient_dim
    stacked = np.hstack([m.basis for m in reduced])
    U, s, _ = thin_svd(stacked)
    sum_preserved = equal(Subspace(d, U[:, :numerical_rank(s, tol)]), original_sum, tol)
    report = MarginReport()
    report.add("certificate_slack", slack, tol.margin_tol)
    report.add("independence_epsilon", independence_sigma(stacked, s) ** 2, tol.margin_tol)
    report.extras["sum_preserved"] = sum_preserved
    return ReductionResult(
        reduced=SubspaceSystem(d, reduced), weights=weights, c_n=c_constant(len(reduced)),
        epsilon=eps, rhs=rhs, certificate_slack=slack, sum_preserved=sum_preserved,
        numerically_vacuous=rhs < tol.margin_tol, report=report)


def reduce_system(S: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> ReductionResult:
    """Shrink H2..Hn to an independent system with a certificate.

    eps is ``sum_gap``'s gap of sum P_k, which must exceed margin_tol; the
    certificate inequality is evaluated on the sum span when the sum is not
    the whole space.
    """
    span = sum_span(S.members, tol)
    eps, _ = gram_gap(np.hstack([m.basis for m in S.members]), tol)
    if not tol.margin_tol < eps < np.inf:
        raise GapTooSmall(f"gap {eps} below margin_tol" if eps < np.inf
                          else "the members span {0}")
    return _assemble(*_certified_core(S, span, eps, tol), span, tol)


def reduce_preserving_sum(S: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> ReductionResult:
    """Shrink H2..Hn to an independent system with the same sum.

    The theorem is applied inside the dilation space, to (Delta0 + Htilde_1,
    Htilde_2, ..., Htilde_n), where Htilde_k is the copy of H_k in the k-th
    block of C^{nd} and Delta0 the kernel of the summation map.  All of these
    lie in the range of the isometry diag(B_1, ..., B_n) from C^{r_1 + ... + r_n},
    so the reduction runs in those coordinates c = (c_1, ..., c_n): Htilde_k is
    the k-th block E_k of coordinate columns, and with C = [B_1 ... B_n],
    Delta0 + Htilde_1 = {c : sum B_k c_k in H_1} = G1 = ker((I - P_1) C).  G1
    holds E_1, so the system sums to all of C^{r_1 + ... + r_n} with gap 1.
    Block k of a reduced member pulls back to H_k as B_k times its k-th rows.
    The weights, rhs and slack certify (G1, E_2, ..., E_n) there; in C^d only
    ``sum_preserved`` and ``independence_epsilon`` are certified.
    """
    summap = np.hstack([m.basis for m in S.members])
    total = summap.shape[1]
    if total == 0:
        raise GapTooSmall("the members span {0}")
    offs = np.cumsum([0] + [m.dim for m in S.members])
    B1 = S.members[0].basis
    _, s, V = svd(summap - B1 @ (B1.conj().T @ summap))  # (I - P_1) C
    # columns are projections of unit vectors: rank cutoff on absolute scale
    G1 = Subspace(total, V[:, numerical_rank(s, tol, scale=1.0):])
    whole = full_space(total)
    E = [G1] + [Subspace(total, whole.basis[:, offs[k]:offs[k + 1]]) for k in range(1, len(S))]
    # E_1 lies in G1, so P_G1 + sum_{k >= 2} P_{E_k} = P_G1 + I - P_{E_1} >= I: the gap is 1
    inner, weights, eps, rhs, slack = _certified_core(SubspaceSystem(total, E), whole, 1.0, tol)
    reduced = [S.members[0]] + [
        from_spanning(S.members[k].basis @ M.basis[offs[k]:offs[k + 1]], tol=tol, scale=1.0)
        for k, M in enumerate(inner[1:], start=1)]
    return _assemble(reduced, weights, eps, rhs, slack, sum_span(S.members, tol), tol)
