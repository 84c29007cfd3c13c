"""Block-sequence model of infinite direct sums.

Infinite-dimensional systems are emulated as H = +_k (block k), each block a
finite subspace system produced by a deterministic generator.  The sum over
the infinite object is closed iff the per-block spectral gaps stay uniformly
bounded below, so verdicts are driven by the inf and the decay trend of the
gap sequence over a finite horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnknownFamily
from .numerics import (DEFAULT_TOL, Tolerances, line_fit, numerical_rank, psd_gap,
                       thin_svd)
from .reports import MarginReport
from .subspaces import (Subspace, SubspaceSystem, equal, from_spanning, sum_span,
                        zero_subspace)


@dataclass
class BlockSystem:
    """Deterministic generator k -> SubspaceSystem; each call builds block k
    afresh, so a walk over k = 1..K keeps one block alive at a time."""

    generator: object  # callable k >= 1 -> SubspaceSystem
    n_members: int
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def block(self, k: int) -> SubspaceSystem:
        return self.generator(k)


@dataclass
class ClosednessVerdict:
    """Horizon-relative closedness verdict for a block system subset."""

    status: str  # closed_on_horizon | gap_vanishing | inconclusive
    inf_gap: float
    gaps: list
    trend_slope: float
    trend_residual: float
    horizon: int


def _block_gap(system: SubspaceSystem, subset, tol: Tolerances) -> float:
    total = sum(system.members[j - 1].projector() for j in subset)
    return psd_gap(total, tol)[0]


def certify(BS: BlockSystem, subset, K: int,
            tol: Tolerances = DEFAULT_TOL) -> ClosednessVerdict:
    """Per-block gaps of the subset sum over blocks 1..K, with a trend fit.

    The trend is a least-squares slope of log gap vs log k over the top half
    of the horizon; "closed_on_horizon" never claims closedness of the true
    infinite object.
    """
    if K < 1:
        raise ValueError(f"horizon must be at least 1, got {K}")
    subset = sorted(set(int(j) for j in subset))
    if not subset or subset[0] < 1 or subset[-1] > BS.n_members:
        raise ValueError("subset must be a nonempty subset of 1..n")
    gaps = [_block_gap(BS.block(k), subset, tol) for k in range(1, K + 1)]
    finite = [g for g in gaps if np.isfinite(g)]
    inf_gap = min(finite) if finite else float("inf")

    ks = np.arange(max(1, K // 2), K + 1)
    ys = np.array([gaps[k - 1] for k in ks])
    mask = np.isfinite(ys) & (ys > 0)
    if mask.sum() >= 2:
        lx, ly = np.log(ks[mask].astype(float)), np.log(ys[mask])
        coeffs = line_fit(lx, ly)
        slope = float(coeffs[0])
        residual = float(np.sqrt(np.mean((np.polyval(coeffs, lx) - ly) ** 2)))
    else:
        slope, residual = 0.0, 0.0

    decreasing = len(finite) >= 2 and finite[-1] < 0.9 * finite[0]
    if slope <= -0.5 and decreasing:
        status = "gap_vanishing"
    elif inf_gap > 100 * tol.margin_tol and slope >= -0.2:
        status = "closed_on_horizon"
    else:
        status = "inconclusive"
    return ClosednessVerdict(status, inf_gap, gaps, slope, residual, K)


def _one_over_k_block(n: int, k: int) -> SubspaceSystem:
    """Block k: coordinate lines e_1..e_{n-1} plus the tilted line
    e_1 + ... + e_{n-1} + (1/k) e_n in C^n."""
    eye = np.eye(n, dtype=complex)
    members = [Subspace(n, eye[:, [j]]) for j in range(n - 1)]
    v = np.ones((n, 1), dtype=complex)
    v[-1, 0] = 1.0 / k
    members.append(from_spanning(v, n))
    return SubspaceSystem(n, members)


def _halmos_block(rate, k: int) -> SubspaceSystem:
    """Block k: a pair of lines in C^2 with compression eigenvalue 1 - rate(k)."""
    r = float(rate(k))
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"halmos_accumulating rate({k}) = {r} is outside [0, 1]")
    x = 1.0 - r
    H1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    v = np.array([[np.sqrt(x)], [np.sqrt(1.0 - x)]], dtype=complex)
    return SubspaceSystem(2, [H1, from_spanning(v, 2)])


def _compact_triple_block(k: int) -> SubspaceSystem:
    """Block k: three lines in C^2 whose pairwise products decay like 1/k."""
    a = 1.0 / (k + 1)
    H1 = Subspace(2, np.array([[0.0], [1.0]], dtype=complex))
    H2 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    v = np.array([[np.sqrt(1.0 - a * a)], [a]], dtype=complex)
    return SubspaceSystem(2, [H1, H2, from_spanning(v, 2)])


def paper_families(name: str, params: dict | None = None) -> BlockSystem:
    """Built-in block families exhibiting non-closed infinite sums; one_over_k
    takes the parameter n, halmos_accumulating the parameter rate."""
    params = dict(params or {})
    if name not in ("one_over_k", "halmos_accumulating", "compact_triple"):
        raise UnknownFamily(name)
    for key in params:
        if key != {"one_over_k": "n", "halmos_accumulating": "rate"}.get(name):
            raise ValueError(f"{name} takes no parameter {key!r}")
    if name == "one_over_k":
        n = int(params.get("n", 3))
        if n < 1:
            raise ValueError(f"one_over_k needs n >= 1, got {n}")
        return BlockSystem(lambda k: _one_over_k_block(n, k), n,
                           "one_over_k", {"n": n})
    if name == "halmos_accumulating":
        rate = params.get("rate", lambda k: 1.0 / k)
        if isinstance(rate, (int, float)):
            c = float(rate)
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"halmos_accumulating rate {rate} is outside [0, 1]")
            rate = lambda k: c / k
        return BlockSystem(lambda k: _halmos_block(rate, k), 2,
                           "halmos_accumulating", params)
    return BlockSystem(_compact_triple_block, 3, "compact_triple", {})


def _sum_as_two_block(system: SubspaceSystem, tol: Tolerances):
    """Split the block sum into two subspaces via the graph construction.

    Let A = sqrt(sum P_k) with nonzero eigenpairs (lam_i, u_i) ascending and
    eps the median nonzero eigenvalue.  The big part (lam >= eps) forms M1;
    each small direction is paired with a distinct big direction and
    contributes a graph vector B u + (I - B) w to M2, where B is the
    normalized compression of A to the small part.  Then M1 + M2 = sum H_j.
    As sum P_k = CC* for the stacked member bases C, the lam_i, u_i and the
    rank come from one SVD of C, never from square roots of eigenvalues.
    """
    d = system.ambient_dim
    U, s, _ = thin_svd(np.hstack([m.basis for m in system.members]))
    r = numerical_rank(s, tol)
    if r == 0:
        return zero_subspace(d), zero_subspace(d), 0.0
    lam, U = s[r - 1::-1], U[:, r - 1::-1]
    eps = float(lam[(r + 1) // 2 - 1])  # median nonzero eigenvalue
    small = lam < eps - tol.rank_tol * lam[-1]  # a value tied with eps is big
    big = ~small
    n_small = int(small.sum())
    U_small, U_big = U[:, small], U[:, big]
    lam_small = lam[small]
    M1 = Subspace(d, U_big)
    if n_small == 0:
        return M1, zero_subspace(d), eps
    # pair small directions with the first big directions
    W = U_big[:, :n_small]
    bvals = lam_small / lam_small.max()
    graph = U_small * bvals + W * (1.0 - bvals)
    M2 = from_spanning(graph, d, tol)
    return M1, M2, eps


def sum_as_two(BS: BlockSystem, K: int, tol: Tolerances = DEFAULT_TOL):
    """Per-block pair (M1, M2) with M1 + M2 = sum of the block members."""
    if K < 1:
        raise ValueError(f"horizon must be at least 1, got {K}")
    m1_blocks, m2_blocks = [], []
    report = MarginReport()
    eps_used = []
    rank_ok = True
    for k in range(1, K + 1):
        system = BS.block(k)
        M1, M2, eps = _sum_as_two_block(system, tol)
        m1_blocks.append(M1)
        m2_blocks.append(M2)
        eps_used.append(eps)
        rank_ok = rank_ok and equal(sum_span([M1, M2], tol),
                                    sum_span(system.members, tol), tol)
    report.extras["epsilons"] = eps_used
    report.extras["rank_equality_all_blocks"] = rank_ok
    return m1_blocks, m2_blocks, report
