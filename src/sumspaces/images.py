"""Operator-range machinery: Douglas factorization, sums of images, the
p-radius certificate, and quadratic projector combinations with the
beta-matrix criteria."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExceeded, DiagonalNotPositive, DimensionMismatch,
                     MalformedInput, NotInvertible, RangeNotIncluded)
from .numerics import (DEFAULT_TOL, Tolerances, ambient_dim_from_json, complex_from_json,
                       complex_to_json, eig_hermitian, hermitian_eigenvalues, numerical_rank,
                       operator_norm, range_residual, singular_values, spanning_forest, thin_svd)
from .reports import MarginReport
from .subspaces import Subspace, SubspaceSystem, complement, from_spanning, sum_span


@dataclass
class OperatorFamily:
    """A finite list of d x d operators with a nonnegativity flag each."""

    ambient_dim: int
    members: list = field(default_factory=list)
    kinds: list = field(default_factory=list)  # "nonnegative" | "general"

    def __post_init__(self):
        self.members = [np.asarray(M, dtype=complex) for M in self.members]
        for M in self.members:
            if M.shape != (self.ambient_dim, self.ambient_dim):
                raise DimensionMismatch("operator shape mismatch")
        if not self.kinds:
            self.kinds = ["general"] * len(self.members)

    def all_nonnegative(self) -> bool:
        return all(k == "nonnegative" for k in self.kinds)

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim,
                "matrices": [complex_to_json(M) for M in self.members],
                "kind": list(self.kinds)}

    @classmethod
    def from_json(cls, data: dict) -> "OperatorFamily":
        matrices = data["matrices"]
        if not isinstance(matrices, list):
            raise MalformedInput("operator matrices must be a list")
        if not matrices:
            raise MalformedInput('operator family is empty: "matrices" is []')
        kinds = data.get("kind", ["general"] * len(matrices))
        if not (isinstance(kinds, list) and len(kinds) == len(matrices)
                and all(k in ("nonnegative", "general") for k in kinds)):
            raise MalformedInput('kind must give "nonnegative" or "general" per matrix')
        members = [complex_from_json(rows) for rows in matrices]
        return cls(ambient_dim_from_json(data), members, kinds)


def douglas_factor(A: np.ndarray, B: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Factor A = B C when Im(A) is contained in Im(B).

    Returns (C, inclusion_margin) with C = pinv(B) A, so that ker C = ker A
    and Im C lies in the orthocomplement of ker B.  The inclusion margin is
    the smallest lambda with A A* <= lambda B B*, which is ||C||^2 by
    Douglas's range-inclusion lemma (Proc. AMS 17 (1966) 413-415).  One thin
    SVD B = U s V* serves throughout: with r its numerical rank, U_r spans Im(B),
    which must hold Im(A) by ``range_residual``, and C = V_r s_r^{-1} U_r* A.
    """
    A = np.asarray(A, dtype=complex)
    U, s, V = thin_svd(B)
    r = numerical_rank(s, tol)
    resid, inside = range_residual(U[:, :r], A, tol)
    if not inside:
        raise RangeNotIncluded(f"Im(A) outside Im(B) by {resid:.3e}")
    C = V[:, :r] @ ((U[:, :r].conj().T @ A) / s[:r, None])
    return C, operator_norm(C) ** 2


def sum_of_images(F: OperatorFamily, tol: Tolerances = DEFAULT_TOL):
    """Sum of the operator ranges as Im(sqrt(sum a_k a_k*)) (Fillmore and
    Williams, Adv. Math. 7 (1971)), spanned by the eigenvectors of
    S2 = sum a_k a_k* whose sqrt(max(eigenvalue, 0)) passes the rank cutoff.

    Returns the subspace and a report: the range equality against the column
    space of the concatenation, and for nonnegative families the gap of
    sigma(sum a_k) above zero, the least eigenvalue ``numerical_rank`` keeps (else +inf).
    """
    d = F.ambient_dim
    w, V = eig_hermitian(sum(M @ M.conj().T for M in F.members), tol)
    root = np.sqrt(np.maximum(w[::-1], 0.0))
    image = Subspace(d, V[:, ::-1][:, :numerical_rank(root, tol)])
    concat = from_spanning(np.hstack(F.members), d, tol)
    report = MarginReport()
    dist = operator_norm(image.projector() - concat.projector())
    report.extras["range_equality_residual"] = dist
    if F.all_nonnegative():
        w = np.append(np.inf, hermitian_eigenvalues(sum(F.members), tol)[::-1])
        gap = float(w[numerical_rank(w[1:], tol)])  # w[r]: the r-th largest, inf when r = 0
        report.add("nonnegative_sum_gap", gap, tol.margin_tol, vacuous=np.isinf(gap))
        report.extras["sum_image_dim"] = image.dim
    return image, report


PRODUCT_BUDGET = 10 ** 6  # most words of I - T_i that ``p_radius`` enumerates


def p_radius(F: OperatorFamily, p: float = 2.0, depth: int = 4,
             tol: Tolerances = DEFAULT_TOL):
    """Averaged p-radius certificate for sum Im(T_k) = H.

    Enumerates all products of A_i = I - T_i up to the given depth, at most
    PRODUCT_BUDGET of them, and returns the sequence a_{k,p}^{1/k}; some value
    below 1 certifies that the images of T_1..T_n sum to the whole space.
    """
    if not p >= 1:  # also rejects NaN
        raise ValueError("p must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = len(F.members)
    d = F.ambient_dim
    A = np.eye(d) - np.stack(F.members)
    total = 0
    for k in range(1, depth + 1):  # stops past the budget, before the count grows huge
        total += n ** k
        if total > PRODUCT_BUDGET:
            raise BudgetExceeded(f"the words up to depth {k} already exceed "
                                 f"the budget of {PRODUCT_BUDGET} products")
    sequence = []
    current = np.eye(d, dtype=complex)[None]
    for k in range(1, depth + 1):
        # word j * n + i of level k is A_i times word j of level k - 1
        current = (A[None] @ current[:, None]).reshape(-1, d, d)
        # powers of norm / top <= 1 cannot overflow or lose the top term; p = inf gives the max
        norms = singular_values(current)[:, 0]
        top = norms.max()
        sequence.append(float(top ** (1.0 / k) * np.mean((norms / top) ** p) ** (1.0 / (p * k)))
                        if top else 0.0)
    certified = any(v < 1.0 - tol.margin_tol for v in sequence)
    if certified:
        verdict = "certified"
    else:
        sv = singular_values(np.hstack(F.members))  # the images' sum is its column space
        deficient_sum = numerical_rank(sv, tol) < d
        stationary = abs(sequence[-1] - 1.0) <= tol.margin_tol
        verdict = "deficient" if (stationary and deficient_sum) else "inconclusive"
    return sequence, verdict


def m_membership_identity(F: OperatorFamily, tol: Tolerances = DEFAULT_TOL) -> float:
    """Residual of the membership identity for nonnegative a_k.

    With S = sum a_k^2 invertible:
    S^{1/2} = sum_{i,j} a_i^2 S^{-3/2} a_j^2 = S S^{-3/2} S.
    The identity is exact for every invertible S, so the residual measures
    the round-off of S^{1/2} and S^{-3/2}, both taken from one
    eigendecomposition of S.
    """
    S = sum(M @ M for M in F.members)
    w, V = eig_hermitian(S, tol)
    if w[0] <= tol.margin_tol:
        raise NotInvertible(f"sum of squares has min eigenvalue {w[0]:.3e}")
    half = (V * np.sqrt(w)) @ V.conj().T
    inv32 = (V * w ** -1.5) @ V.conj().T
    return float(operator_norm(half - S @ inv32 @ S))


@dataclass
class BetaMatrix:
    """Real symmetric comparison matrix for A = sum alpha_ij P_i P_j."""

    alpha: np.ndarray
    beta: np.ndarray
    classification: str  # positive_definite | B1B2 | borderline | neither
    graph_connected: bool
    kernel_vector: np.ndarray | None = None


def build_beta(alpha: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> BetaMatrix:
    """Beta matrix: beta_ii = alpha_ii,
    beta_ij = -(1/2) sqrt((Re a_ij + Re a_ji)^2 + (Im a_ij - Im a_ji)^2)."""
    alpha = np.asarray(alpha, dtype=complex)
    n = alpha.shape[0]
    diag = np.real(np.diag(alpha))
    if np.any(diag <= 0) or np.any(np.abs(np.imag(np.diag(alpha))) > tol.eig_tol):
        raise DiagonalNotPositive("alpha diagonal must be positive real")
    beta = -0.5 * np.abs(alpha + alpha.conj().T)  # |a_ij + conj(a_ji)|
    np.fill_diagonal(beta, diag)

    w, v = eig_hermitian(beta, tol)
    zero_count = n - numerical_rank(np.sort(np.abs(w))[::-1], tol)
    support = np.argwhere(np.triu(np.abs(beta) > tol.eig_tol, 1))  # edges i < j
    connected = len(spanning_forest(n, support)) >= n - 1

    kernel_vector = None
    if w[0] > tol.margin_tol:
        classification = "positive_definite"
    elif w[0] >= -tol.margin_tol:
        if zero_count == 1 and connected:
            classification = "B1B2"
            vec = v[:, 0]
            anchor = vec[np.argmax(np.abs(vec))]
            kernel_vector = np.real(vec * np.conj(anchor) / abs(anchor))
        else:
            classification = "borderline"
    else:
        classification = "neither"
    return BetaMatrix(alpha, beta, classification, connected, kernel_vector)


def cycle_alpha(n: int) -> np.ndarray:
    """Coefficients of A = sum P_i - sum P_i P_{i+1} (cyclic, xi = 1)."""
    alpha = np.eye(n, dtype=complex)
    for i in range(n):
        alpha[i, (i + 1) % n] = -1.0
    return alpha


def quadratic_projector_criterion(S: SubspaceSystem, alpha,
                                  tol: Tolerances = DEFAULT_TOL):
    """Criteria for A = sum alpha_ij P_i P_j via the beta matrix.

    When B is positive definite, closedness of the sum, Im(A) = sum H_k and
    closedness of Im(A) are all equivalent; under (B1)(B2) the kernel of B
    has a strictly positive eigenvector s and one-sided implications hold.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (len(S), len(S)):
        raise DimensionMismatch("alpha must be n x n")
    beta = build_beta(alpha, tol)
    P = S.projectors()
    d = S.ambient_dim
    A = np.zeros((d, d), dtype=complex)
    for i in range(len(S)):
        for j in range(len(S)):
            A += alpha[i, j] * (P[i] @ P[j])

    report = MarginReport()
    U, s, _ = thin_svd(A)
    r = numerical_rank(s, tol)
    report.add("closed_range_margin", s[r - 1] if r else np.inf, tol.margin_tol,
               vacuous=r == 0)
    total = sum_span(S.members, tol)  # Im(A) lies in the sum
    report.extras["range_equality_residual"], inside = range_residual(U[:, :r], total.basis, tol)
    report.extras["range_equals_sum"] = r == total.dim and bool(inside)
    report.extras["beta_classification"] = beta.classification
    report.extras["beta_graph_connected"] = beta.graph_connected

    comp_total = sum_span([complement(m) for m in S.members], tol)
    if total.dim == d and comp_total.dim == d:
        report.add("invertibility_margin", s[-1], tol.margin_tol)
    return beta, report

