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
                       hermitian_eigenvalues, independence_epsilon, psd_gap,
                       real_from_json, support_connected)
from .reports import MarginReport
from .subspaces import SubspaceSystem, complement

MODULUS_SAMPLES = 1024  # random phase vectors in the modulus-form search


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
            if w <= 0:
                raise ValueError("edge weights must be positive")
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
        adj = np.zeros((self.n, self.n))
        for i, j, w in self.edges:
            adj[i - 1, j - 1] = adj[j - 1, i - 1] = w
        return support_connected(adj)

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


def sum_gap(S: SubspaceSystem, tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Smallest nonzero eigenvalue of P1+...+Pn, plus the full-sum flag."""
    gap, kernel_dim = psd_gap(sum(S.projectors()), tol)
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
    """Difference-form operator on +Hk-perp (None if 0) and its phase twist."""
    comps = [complement(m) for m in S.members]
    dims = [c.dim for c in comps]
    total = sum(dims)
    if total == 0:
        return None, None
    offs = np.cumsum([0] + dims)
    rho = G.rho()
    crosses = [comps[i - 1].basis.conj().T @ comps[j - 1].basis for i, j, _ in G.edges]

    def twisted(phases):
        Q = np.zeros((total, total), dtype=complex)
        for i in range(len(S)):
            Q[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = rho[i] * np.eye(dims[i])
        for idx, (i, j, w) in enumerate(G.edges):
            a, b = i - 1, j - 1
            factor = w if phases is None else w * np.exp(1j * phases[idx])
            block = -factor * crosses[idx]
            Q[offs[a]:offs[a + 1], offs[b]:offs[b + 1]] = block
            Q[offs[b]:offs[b + 1], offs[a]:offs[a + 1]] = block.conj().T
        return Q

    return twisted(None), twisted


def complement_graph_margin(S: SubspaceSystem, G: WeightedGraph,
                            tol: Tolerances = DEFAULT_TOL,
                            modulus: bool = False, seed: int = 0) -> MarginReport:
    """Best constant eps in the graph criterion on the complements.

    Difference form (exact): the quadratic form
    sum_edges gamma_ij ||x_i - x_j||^2 - eps sum rho-normalized is analyzed as
    the smallest eigenvalue of a Hermitian block operator on +Hk-perp.
    The modulus form 2 sum gamma |(x_i,x_j)| <= sum (rho_i - eps) ||x_i||^2 is
    not quadratic; its best eps is estimated by a search over MODULUS_SAMPLES
    random phase vectors and flagged as an estimate.
    """
    if G.n != len(S):
        raise DimensionMismatch("graph order must match member count")
    if not G.is_connected():
        raise GraphDisconnected("criterion requires a connected graph")
    report = MarginReport()
    Q, twisted = _complement_quadratic(S, G)
    if Q is None:
        report.add("difference_form_epsilon", 1.0, tol.margin_tol, vacuous=True)
        if modulus:
            report.add("modulus_form_epsilon", 1.0, tol.margin_tol, vacuous=True)
        return report
    exact = float(hermitian_eigenvalues(Q, tol)[0])
    report.add("difference_form_epsilon", exact, tol.margin_tol)

    if modulus:
        rng = np.random.default_rng(seed)
        best = exact
        m = len(G.edges)
        for _ in range(MODULUS_SAMPLES):
            phases = rng.uniform(0.0, 2 * np.pi, size=m)
            Qp = twisted(phases)
            best = min(best, float(hermitian_eigenvalues(Qp, tol)[0]))
        report.add("modulus_form_epsilon", best, tol.margin_tol, estimate=True)
    return report


def linear_combination_check(S: SubspaceSystem, alpha,
                             tol: Tolerances = DEFAULT_TOL) -> MarginReport:
    """Spectral bound for positive combinations of the projectors.

    With eps = min eig(sum alpha_i P_i) > 0 and the system independent,
    lambda_max(sum alpha_i P_i) <= sum alpha_i - (n-1) eps.  Reports the
    slack of that bound.
    """
    alpha = np.asarray(alpha, dtype=float)
    if len(alpha) != len(S) or np.any(alpha <= 0):
        raise DimensionMismatch("alpha must be positive, one weight per member")
    A = sum(a * P for a, P in zip(alpha, S.projectors()))
    w = hermitian_eigenvalues(A, tol)
    eps, lam_max = float(w[0]), float(w[-1])
    slack = (float(alpha.sum()) - (len(S) - 1) * eps) - lam_max
    report = MarginReport()
    report.add("combination_bound_slack", slack, tol.margin_tol)
    report.extras["epsilon"] = eps
    report.extras["lambda_max"] = lam_max
    # independence via the block Gram of the concatenated bases
    gram_eps = independence_epsilon(np.hstack([m.basis for m in S.members]))
    report.extras["independence_epsilon"] = gram_eps
    report.extras["applicable"] = bool(eps > tol.margin_tol and gram_eps > tol.margin_tol)
    return report
