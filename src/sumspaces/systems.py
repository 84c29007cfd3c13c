"""n-tuple analysis: spectral-gap criterion, dilation to a pair, and
graph-weighted complement certificates.

The sum of H1..Hn is closed iff sigma(P1+...+Pn) has a gap above 0; the
dilation P_delta, P_Htilde on C^{nd} turns the n-tuple question into a pair
question through sigma(P_delta P_Htilde P_delta) = {0} U sigma((P1+...+Pn)/n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GraphDisconnected, MalformedInput
from .numerics import (DEFAULT_TOL, Tolerances, dimension_from_json,
                       eig_hermitian, gram_gap, hermitian_eigenvalues, independence_sigma,
                       numerical_rank, operator_norm, real_from_json, spanning_forest)
from .reports import MarginReport
from .subspaces import SubspaceSystem, complement

# modulus-form descent: random starts besides theta = 0, Newton iterations
# per start, step halvings per line search
DESCENT_STARTS, DESCENT_ITERATIONS, DESCENT_HALVINGS = 3, 40, 10


@dataclass
class WeightedGraph:
    """Simple undirected graph with positive edge weights, 1-based vertices."""

    n: int
    edges: list = field(default_factory=list)  # (i, j, weight)

    def __post_init__(self):
        seen = set()
        cleaned = []
        for i, j, w in self.edges:
            i, j, w = int(i), int(j), float(w)
            if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
                raise DimensionMismatch(f"bad edge ({i},{j})")
            if not 0 < w < np.inf:  # NaN fails
                raise ValueError(f"edge weights must be positive and finite, got {w}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            cleaned.append((key[0], key[1], w))
        self.edges = cleaned

    def rho(self) -> np.ndarray:
        """Weighted degrees rho_i = sum of gamma over edges at i."""
        out = np.zeros(self.n)
        for i, j, w in self.edges:
            out[i - 1] += w
            out[j - 1] += w
        return out

    def is_connected(self) -> bool:
        edges = [(i - 1, j - 1) for i, j, _ in self.edges]
        return len(spanning_forest(self.n, edges)) >= self.n - 1

    @classmethod
    def complete(cls, n: int) -> "WeightedGraph":
        edges = [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return cls(n, edges)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[i, j, w] for i, j, w in self.edges]}

    @classmethod
    def from_json(cls, data: dict) -> "WeightedGraph":
        edges = data["edges"]
        if not (isinstance(edges, list) and all(isinstance(e, list) and len(e) == 3
                                                for e in edges)):
            raise MalformedInput("graph edges must be a list of [i, j, w] triples")
        return cls(dimension_from_json(data["n"]),
                   [(dimension_from_json(i), dimension_from_json(j), real_from_json(w))
                    for i, j, w in edges])


def sum_gap(S: SubspaceSystem, tol: Tolerances = DEFAULT_TOL,
            s: np.ndarray | None = None) -> MarginReport:
    """Smallest nonzero eigenvalue of P1+...+Pn = CC*, C = [B1 ... Bn], from sigma(C)
    (``numerics.gram_gap``; ``s`` when given), plus the full-sum flag."""
    gap, kernel_dim = gram_gap(np.hstack([m.basis for m in S.members]), tol, s)
    report = MarginReport()
    report.add("sum_gap", gap, tol.margin_tol, vacuous=np.isinf(gap))
    report.extras["sum_dim"] = S.ambient_dim - kernel_dim
    report.extras["kernel_dim"] = kernel_dim
    report.extras["full_sum"] = kernel_dim == 0
    return report


def dilation(S: SubspaceSystem):
    """The pair (P_delta, P_Htilde) on C^{nd}.

    P_delta has every d x d block equal to I/n; P_Htilde = diag(P1,...,Pn).
    """
    n, d = len(S), S.ambient_dim
    eye = np.eye(d, dtype=complex)
    P_delta = np.tile(eye / n, (n, n))
    P_H = np.zeros((n * d, n * d), dtype=complex)
    for k, P in enumerate(S.projectors()):
        P_H[k * d:(k + 1) * d, k * d:(k + 1) * d] = P
    return P_delta, P_H


def _complement_quadratic(S: SubspaceSystem, G: WeightedGraph):
    """Difference-form operator on +Hk-perp (None if 0) and the offsets of
    its member blocks; the block of edge (a, b) is -gamma_ab B_a* B_b."""
    comps = [complement(m) for m in S.members]
    dims = [c.dim for c in comps]
    total = sum(dims)
    if total == 0:
        return None, None
    offs = np.cumsum([0] + dims)
    Q = np.zeros((total, total), dtype=complex)
    for i, rho in enumerate(G.rho()):
        Q[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = rho * np.eye(dims[i])
    for (i, j, w), (rows, cols) in zip(G.edges, _edge_blocks(G, offs)):
        block = -w * (comps[i - 1].basis.conj().T @ comps[j - 1].basis)
        Q[rows, cols] = block
        Q[cols, rows] = block.conj().T
    return Q, offs


def _edge_blocks(G: WeightedGraph, offs) -> list:
    """(rows, cols) slices of each edge's block in the operator."""
    return [(slice(offs[i - 1], offs[i]), slice(offs[j - 1], offs[j]))
            for i, j, _ in G.edges]


def _free_edges(G: WeightedGraph, support) -> list:
    """The edges of support (indices into G.edges) off its breadth-first
    spanning forest (``numerics.spanning_forest``)."""
    tree = spanning_forest(G.n, [(G.edges[e][0] - 1, G.edges[e][1] - 1) for e in support])
    return [e for k, e in enumerate(support) if k not in tree]


def _modulus_lower_bound(Q, offs, G: WeightedGraph, tol: Tolerances) -> float:
    """lambda_min of the matrix with rho_i on the diagonal and
    -gamma_ij ||B_i* B_j|| off it, over the members with a nonzero complement:
    |(x_i, x_j)| <= ||B_i* B_j|| ||x_i|| ||x_j|| makes it a lower bound."""
    M = np.diag(G.rho())
    for (i, j, _), (rows, cols) in zip(G.edges, _edge_blocks(G, offs)):
        M[i - 1, j - 1] = M[j - 1, i - 1] = -operator_norm(Q[rows, cols])
    live = np.flatnonzero(np.diff(offs))
    return float(hermitian_eigenvalues(M[np.ix_(live, live)], tol)[0])


def _modulus_evaluate(Q, blocks, theta, tol: Tolerances, scale: float, eig=None):
    """lambda_min of Q(theta), which twists each given block by e^{i theta_e},
    with its gradient and Hessian in theta, all from one eigendecomposition (``eig``
    when given) by perturbation theory.  Eigenvalues that ``numerical_rank`` at ``scale``
    cannot tell from lambda_min are partners; the Hessian drops them when their couplings
    u_j* Q_e v vanish at that scale, and is None (a crossing) when they do not."""
    twists = np.exp(1j * theta)
    Qt = Q.copy()
    for (rows, cols), t in zip(blocks, twists):
        Qt[rows, cols] *= t
        Qt[cols, rows] *= t.conjugate()
    lam, U = eig or eig_hermitian(Qt, tol)
    v = U[:, 0]
    # p_e = t_e v_r* C_e v_c: v* Q_e v = -2 Im p_e and v* Q_ee v = -2 Re p_e
    p = np.array([t * (v[rows].conj() @ Q[rows, cols] @ v[cols])
                  for (rows, cols), t in zip(blocks, twists)])
    W = np.zeros((len(v), len(blocks)), dtype=complex)  # columns w_e = Q_e v
    for e, (rows, cols) in enumerate(blocks):
        W[rows, e], W[cols, e] = 1j * Qt[rows, cols] @ v[cols], -1j * Qt[cols, rows] @ v[rows]
    A = U[:, 1:].conj().T @ W
    k = len(lam) - 1 - numerical_rank((lam[1:] - lam[0])[::-1], tol, scale)  # partners
    if k and numerical_rank([np.abs(A[:k]).max(initial=0.0)], tol, scale):
        return float(lam[0]), -2.0 * p.imag, None
    # H_ef = v* Q_ef v + 2 Re sum_{j>k} conj(u_j* w_e) (u_j* w_f) / (lambda_0 - lambda_j)
    A, gaps = A[k:], lam[0] - lam[k + 1:]
    hess = np.diag(-2.0 * p.real) + 2.0 * (A.conj().T @ (A / gaps[:, None])).real
    return float(lam[0]), -2.0 * p.imag, hess


def _modulus_descent(Q, blocks, theta, tol: Tolerances, scale: float, eig=None) -> float:
    """Lowest lambda_min(Q(theta)) reached from theta (``eig``: Q(theta)'s eigenpairs,
    if known) by Newton steps with Armijo backtracking, or by unit downhill steps where
    there is no Hessian or ``numerical_rank`` at ``scale`` finds it not positive definite;
    it stops once the Newton decrement or the drop is at most eig_tol * scale."""
    lam, grad, hess = _modulus_evaluate(Q, blocks, theta, tol, scale, eig)
    for _ in range(DESCENT_ITERATIONS):
        w, V = (None, None) if hess is None else eig_hermitian(hess, tol)
        if w is not None and numerical_rank(w[::-1], tol, scale) == len(grad):
            step = -(V @ (V.conj().T @ grad / w)).real
            if -(grad @ step) / 2 <= tol.eig_tol * scale:  # the Newton decrement
                break
        else:  # one radian: the natural scale of a phase, whatever the gradient
            size = np.linalg.norm(grad)
            if not size > 0:
                break
            step = -grad / size
        slope = grad @ step
        for _ in range(DESCENT_HALVINGS + 1):
            lam_new, grad_new, hess_new = _modulus_evaluate(Q, blocks, theta + step, tol, scale)
            if lam_new <= lam + 1e-4 * slope:
                break
            step, slope = step / 2, slope / 2
        else:
            break
        drop = lam - lam_new
        theta, lam, grad, hess = theta + step, lam_new, grad_new, hess_new
        if drop <= tol.eig_tol * scale:
            break
    return lam


def complement_graph_margin(S: SubspaceSystem, G: WeightedGraph,
                            tol: Tolerances = DEFAULT_TOL,
                            modulus: bool = False, seed: int = 0) -> MarginReport:
    """Best constant eps in the graph criterion on the complements.

    Difference form (exact): the quadratic form
    sum_edges gamma_ij ||x_i - x_j||^2 - eps sum rho-normalized is analyzed as
    the smallest eigenvalue of a Hermitian block operator Q on +Hk-perp.

    Modulus form 2 sum gamma |(x_i,x_j)| <= sum (rho_i - eps) ||x_i||^2: since
    min over theta of -Re e^{i theta}(x_i, x_j) is -|(x_i, x_j)|, its best eps
    is min over edge phases theta of lambda_min(Q(theta)), where Q(theta)
    multiplies the block of edge e by e^{i theta_e}.  The phase of an edge with
    a zero (or empty) block does not move Q(theta), and the gauge
    x_i -> e^{i phi_i} x_i shifts theta_ij by phi_j - phi_i, so the phases of a
    spanning forest of the other edges can be fixed at 0, leaving one free
    phase per independent cycle; on a tree (every connected graph with n = 2
    is one) the constant is the difference form exactly.  The bracket:
    ``modulus_form_lower_bound`` (certified) is lambda_min of the n x n matrix with
    rho_i on the diagonal and -gamma_ij ||B_i* B_j|| off it; ``modulus_form_epsilon``
    (an estimate, never above the difference form) is the lowest value that Newton
    steps on the exact Hessian of lambda_min over the free phases reach from theta = 0,
    where Q(0) = Q has the one eigendecomposition of both forms, and from DESCENT_STARTS
    random phases drawn with ``seed``.  Its zero tests use the largest edge weight as
    scale: each entry of Q(theta) is a weight times one of an isometry product.
    """
    if G.n != len(S):
        raise DimensionMismatch("graph order must match member count")
    if not G.is_connected():
        raise GraphDisconnected("criterion requires a connected graph")
    report = MarginReport()
    Q, offs = _complement_quadratic(S, G)
    if Q is None:
        report.add("difference_form_epsilon", 1.0, tol.margin_tol, vacuous=True)
        if modulus:
            report.add("modulus_form_epsilon", 1.0, tol.margin_tol, vacuous=True)
            report.add("modulus_form_lower_bound", 1.0, tol.margin_tol, vacuous=True)
        return report
    lam, U = eig_hermitian(Q, tol)
    report.add("difference_form_epsilon", float(lam[0]), tol.margin_tol)

    if modulus:
        upper = float(lam[0])
        edge_blocks = _edge_blocks(G, offs)
        free = _free_edges(G, [e for e, block in enumerate(edge_blocks) if Q[block].any()])
        if free:
            blocks = [edge_blocks[e] for e in free]
            scale = max(w for _, _, w in G.edges)
            starts = np.random.default_rng(seed).uniform(
                0.0, 2 * np.pi, size=(DESCENT_STARTS, len(free)))
            upper = _modulus_descent(Q, blocks, np.zeros(len(free)), tol, scale, (lam, U))
            for theta in starts:
                upper = min(upper, _modulus_descent(Q, blocks, theta, tol, scale))
        report.add("modulus_form_epsilon", upper, tol.margin_tol, estimate=True)
        report.add("modulus_form_lower_bound",
                   _modulus_lower_bound(Q, offs, G, tol), tol.margin_tol)
    return report


def linear_combination_check(S: SubspaceSystem, alpha, tol: Tolerances = DEFAULT_TOL,
                             s: np.ndarray | None = None) -> MarginReport:
    """Spectral bound for positive combinations of the projectors.

    With eps = min eig(sum alpha_i P_i) > 0 and the system independent,
    lambda_max(sum alpha_i P_i) <= sum alpha_i - (n-1) eps.  Reports the
    slack of that bound; ``s``, when given, is sigma of the stacked member bases.
    """
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != len(S) or not np.all((alpha > 0) & (alpha < np.inf)):  # NaN fails
        raise DimensionMismatch(f"alpha must be finite and positive, one per member: {alpha}")
    A = sum(a * P for a, P in zip(alpha, S.projectors()))
    w = hermitian_eigenvalues(A, tol)
    eps, lam_max = float(w[0]), float(w[-1])
    slack = (float(alpha.sum()) - (len(S) - 1) * eps) - lam_max
    report = MarginReport()
    report.add("combination_bound_slack", slack, tol.margin_tol)
    report.extras["epsilon"] = eps
    report.extras["lambda_max"] = lam_max
    gram_eps = independence_sigma(np.hstack([m.basis for m in S.members]), s) ** 2
    report.extras["independence_epsilon"] = gram_eps
    report.extras["applicable"] = bool(eps > tol.margin_tol and gram_eps > tol.margin_tol)
    return report
