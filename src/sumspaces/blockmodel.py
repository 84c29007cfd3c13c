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
from .numerics import (DEFAULT_TOL, Tolerances, gram_gap, line_fit, numerical_rank,
                       range_residual, thin_svd)
from .reports import MarginReport
from .subspaces import Subspace, SubspaceSystem, from_spanning


@dataclass
class BlockSystem:
    """Deterministic generator k -> SubspaceSystem; each call builds block k
    afresh.  ``certify`` keeps the stacked member bases of one slab of blocks
    alive at a time; ``sum_as_two`` those of every block of its horizon."""

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
    subset: list  # the members analysed: ascending, without repeats


SLAB = 64  # blocks per stacked SVD in certify; bounds its transient memory


def certify(BS: BlockSystem, subset, K: int,
            tol: Tolerances = DEFAULT_TOL) -> ClosednessVerdict:
    """Per-block gaps of the subset sum over blocks 1..K, with a trend fit.
    The subset, member numbers 1..n as ints or their strings, is read as a set.

    The trend is a least-squares slope of log gap vs log k over the top half
    of the horizon; "closed_on_horizon" never claims closedness of the true
    infinite object.  A block's gap is ``gram_gap`` of its subset's member
    bases side by side; the factors are collected SLAB blocks at a time, and
    each shape within a slab takes one stacked SVD.
    """
    if K < 1:
        raise ValueError(f"horizon must be at least 1, got {K}")
    subset = sorted(set(int(j) for j in subset))
    if not subset or subset[0] < 1 or subset[-1] > BS.n_members:
        raise ValueError("subset must be a nonempty subset of 1..n")
    gaps = []
    for start in range(1, K + 1, SLAB):
        blocks = map(BS.block, range(start, min(start + SLAB, K + 1)))
        factors = [np.hstack([block.members[j - 1].basis for j in subset]) for block in blocks]
        slab = np.empty(len(factors))
        for _, rows in _groups(C.shape for C in factors):
            slab[rows] = gram_gap(np.stack([factors[i] for i in rows]), tol)[0]
        gaps += slab.tolist()
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
    return ClosednessVerdict(status, inf_gap, gaps, slope, residual, subset)


def _one_over_k_block(eye: np.ndarray, k: int) -> SubspaceSystem:
    """Block k: coordinate lines e_1..e_{n-1}, the columns of the n x n
    identity ``eye``, plus the tilted line e_1 + ... + e_{n-1} + (1/k) e_n in C^n."""
    n = len(eye)
    members = [Subspace(n, eye[:, [j]]) for j in range(n - 1)]
    v = np.ones((n, 1), dtype=complex)
    v[-1, 0] = 1.0 / k
    members.append(from_spanning(v, n))
    return SubspaceSystem(n, members)


def _halmos_block(rate: float, k: int) -> SubspaceSystem:
    """Block k: a pair of lines in C^2 with compression eigenvalue 1 - rate/k."""
    x = 1.0 - rate / k
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
    takes the parameter n, halmos_accumulating the number rate c in [0, 1]
    (block k uses c/k; default 1)."""
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
        eye = np.eye(n, dtype=complex)  # one per family, so a huge n fails here
        return BlockSystem(lambda k: _one_over_k_block(eye, k), n, "one_over_k", {"n": n})
    if name == "halmos_accumulating":
        rate = params.get("rate", 1.0)
        if not 0.0 <= rate <= 1.0:  # also refuses NaN
            raise ValueError(f"halmos_accumulating rate {rate} is outside [0, 1]")
        return BlockSystem(lambda k: _halmos_block(rate, k), 2,
                           "halmos_accumulating", {"rate": rate})
    return BlockSystem(_compact_triple_block, 3, "compact_triple", {})


def _groups(keys):
    """Positions of an iterable of hashable keys, grouped by key."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups.items()


def sum_as_two(BS: BlockSystem, K: int, tol: Tolerances = DEFAULT_TOL):
    """Per-block pair (M1, M2) with M1 + M2 = sum of the block members.

    Let A = sqrt(sum P_j) with nonzero eigenpairs (lam_i, u_i) ascending and
    eps the median nonzero eigenvalue.  The big part (lam >= eps) forms M1;
    each small direction is paired with a distinct big direction and
    contributes a graph vector B u + (I - B) w to M2, where B is the
    normalized compression of A to the small part.  Then M1 + M2 = sum H_j.
    As sum P_j = CC* for the stacked member bases C, the lam_i, u_i and the
    rank come from one SVD of C.  The horizon is factored in stacked calls:
    one SVD of the C of each shape, then per (rank, number of small
    directions) one of the graph vectors, one of [M1 M2] and the two norms of
    ``range_residual`` of span C in span [M1 M2].
    """
    if K < 1:
        raise ValueError(f"horizon must be at least 1, got {K}")
    stacks = [np.hstack([m.basis for m in BS.block(k).members]) for k in range(1, K + 1)]
    m1_blocks, m2_blocks, eps_used, rank_ok = [None] * K, [None] * K, [0.0] * K, True
    for (d, _), rows in _groups(C.shape for C in stacks):
        U, s, _ = thin_svd(np.stack([stacks[i] for i in rows]))
        s = np.pad(s, ((0, 0), (0, 1)))  # every row gets an s[:, 0], 0 when C has no columns
        r = numerical_rank(s, tol)
        eps = s[np.arange(len(rows)), r // 2]  # the median nonzero value; 0 when r = 0
        cut = eps - tol.rank_tol * s[:, 0]  # a value tied with eps is big
        small = (s < cut[:, None]) & (np.arange(s.shape[1]) < r[:, None])
        for (rk, ns), sub in _groups(zip(r.tolist(), small.sum(axis=1).tolist())):
            C = U[sub][:, :, :rk]  # basis of the span of the members
            lam, Us = s[sub, :rk][:, ::-1], C[:, :, ::-1]  # ascending
            big, G, r2 = Us[:, :, ns:], Us[:, :, :0], np.zeros(len(sub), dtype=int)
            if ns:  # pair the small directions with the first big directions
                b = (lam[:, :ns] / lam[:, ns - 1:ns])[:, None, :]
                G, s2, _ = thin_svd(Us[:, :, :ns] * b + big[:, :, :ns] * (1.0 - b))
                r2 = numerical_rank(s2, tol)
            A, sA, _ = thin_svd(np.concatenate([big, G[:, :, :ns]], axis=2))
            ok = (r2 == ns) & (numerical_rank(sA, tol) == rk) & range_residual(A, C, tol)[1]
            rank_ok = rank_ok and bool(ok.all())
            for j, i in enumerate(sub):
                m1_blocks[rows[i]] = Subspace(d, big[j])
                m2_blocks[rows[i]] = Subspace(d, G[j, :, :r2[j]])
                eps_used[rows[i]] = float(eps[i])
    report = MarginReport()
    report.extras["epsilons"] = eps_used
    report.extras["rank_equality_all_blocks"] = rank_ok
    return m1_blocks, m2_blocks, report
