"""Subspaces of C^d: construction, projectors, complements, intersections,
sums and principal angles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MalformedInput
from .numerics import (DEFAULT_TOL, Tolerances, ambient_dim_from_json, complex_from_json,
                       complex_to_json, numerical_rank, qr, range_residual, singular_values,
                       svd, thin_svd)

# QR + sigma(R) time over thin-SVD time, one thread: 8x4 2.03, 16x8 1.19, 32x16 0.71,
# 64x32 0.57, 256x128 0.62, 256x200 0.70; from_spanning takes the QR above this side
QR_MIN_SIDE = 16


@dataclass
class Subspace:
    """A subspace of C^d stored as d x r orthonormal basis columns.

    The zero subspace (r = 0) is a first-class value, so degenerate canonical
    components never need special cases downstream.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex).reshape(self.ambient_dim, -1)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass
class SubspaceSystem:
    """Ordered tuple of subspaces over one ambient space."""

    ambient_dim: int
    members: list[Subspace] = field(default_factory=list)

    def __post_init__(self):
        if not self.members:
            raise DimensionMismatch("system needs at least one member")
        for s in self.members:
            if s.ambient_dim != self.ambient_dim:
                raise DimensionMismatch("ambient dimensions differ")

    def __len__(self) -> int:
        return len(self.members)

    def projectors(self) -> list[np.ndarray]:
        return [s.projector() for s in self.members]


def zero_subspace(d: int) -> Subspace:
    return Subspace(d, np.zeros((d, 0), dtype=complex))


def full_space(d: int) -> Subspace:
    return Subspace(d, np.eye(d, dtype=complex))


def from_spanning(vectors: np.ndarray, d: int | None = None,
                  tol: Tolerances = DEFAULT_TOL,
                  scale: float | None = None) -> Subspace:
    """Subspace spanned by the columns of ``vectors``: a thin SVD's U, or past
    QR_MIN_SIDE the QR's Q (times R's leading left singular vectors if rank-deficient).

    The rank cutoff is relative to the largest singular value; pass ``scale``
    when the columns carry a known natural scale (e.g. projections of unit
    vectors) so that uniformly tiny inputs collapse to the zero subspace.
    """
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim == 1:
        vectors = vectors.reshape(-1, 1)
    if d is not None and vectors.shape[0] != d:
        raise DimensionMismatch(f"expected ambient dim {d}, got {vectors.shape[0]}")
    d = vectors.shape[0]
    if vectors.shape[1] == 0 or not np.any(vectors):
        return zero_subspace(d)
    if min(vectors.shape) > QR_MIN_SIDE:
        Q, R = qr(vectors)
        r = numerical_rank(singular_values(R), tol, scale)
        return Subspace(d, Q if r == len(R) else Q @ thin_svd(R)[0][:, :r])
    U, s, _ = thin_svd(vectors)
    return Subspace(d, U[:, :numerical_rank(s, tol, scale)])


def complement(S: Subspace) -> Subspace:
    """Orthogonal complement: kernel of the projector."""
    U, _, _ = svd(S.basis)
    return Subspace(S.ambient_dim, U[:, S.dim:])


def _check_ambient(A: Subspace, B: Subspace):
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")


def intersect(A: Subspace, B: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection: the principal vectors of A whose sine is at most rank_tol."""
    pairs = principal_pairs(A, B)
    return Subspace(A.ambient_dim, pairs.in_a[:, pairs.classify(tol)[0]])


def sum_span(subspaces, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Column space of the concatenated bases."""
    subspaces = list(subspaces)
    d = subspaces[0].ambient_dim
    for s in subspaces:
        if s.ambient_dim != d:
            raise DimensionMismatch("ambient dimensions differ")
    stacked = np.hstack([s.basis for s in subspaces])
    return from_spanning(stacked, d, tol)


def contains(A: Subspace, B: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether B is contained in A, by ``range_residual`` of B's basis."""
    _check_ambient(A, B)
    return bool(range_residual(A.basis, B.basis, tol)[1])


def equal(A: Subspace, B: Subspace, tol: Tolerances) -> bool:
    """Whether A = B within margin_tol; for equal dimensions
    ||P_A - P_B|| = ||(I - P_A) P_B||, so one containment decides."""
    return A.dim == B.dim and contains(A, B, tol)


@dataclass
class PrincipalValues:
    """Principal cosines and sines of (A, B) by ascending angle, k = min(dim A,
    dim B) of each, and b_rest_dim = dim B - k, the dimension of the rest of
    B, which lies in A-perp."""

    cos: np.ndarray
    sin: np.ndarray
    b_rest_dim: int

    def classify(self, tol: Tolerances):
        """Masks of the meet (sin <= rank_tol), the orthogonal pairs (cos <=
        rank_tol) and the generic rest; absolute, as the bases are orthonormal."""
        meet, orth = self.sin <= tol.rank_tol, self.cos <= tol.rank_tol
        return meet, orth, ~(meet | orth)


@dataclass
class PrincipalPairs(PrincipalValues):
    """The principal values with d x k vectors in_a, in_b, in_a* in_b =
    diag(cos); a_rest and b_rest span the rest of A & B-perp and of A-perp & B."""

    in_a: np.ndarray
    in_b: np.ndarray
    a_rest: np.ndarray
    b_rest: np.ndarray


def principal_pairs(A: Subspace, B: Subspace) -> PrincipalPairs:
    """Cosines from an SVD of A*B.  Below pi/4, where cos = 1 - theta^2/2
    loses theta, sines from an SVD of (I - P_A) Y, whose right singular
    vectors re-rotate those pairs (Bjorck & Golub, Math. Comp. 27 (1973);
    Knyazev & Argentati, SIAM J. Sci. Comput. 23 (2002))."""
    _check_ambient(A, B)
    k = min(A.dim, B.dim)
    U, cos, V = svd(A.basis.conj().T @ B.basis)
    X, Y = A.basis @ U, B.basis @ V
    cos = np.clip(cos, 0.0, 1.0)
    sin = np.sqrt(1.0 - cos * cos)
    m = int(np.sum(cos * cos >= 0.5))
    if m:
        W = Y[:, :m] - A.basis @ (A.basis.conj().T @ Y[:, :m])
        _, s, R = thin_svd(W)
        R = R[:, ::-1]  # ascending sines
        X[:, :m], Y[:, :m] = X[:, :m] @ R, Y[:, :m] @ R
        sin[:m] = np.clip(s[::-1], 0.0, 1.0)
        cos[:m] = np.sqrt(1.0 - sin[:m] * sin[:m])
    return PrincipalPairs(cos, sin, B.dim - k, X[:, :k], Y[:, :k], X[:, k:], Y[:, k:])


def principal_values(A: Subspace, B: Subspace) -> PrincipalValues:
    """``principal_pairs`` without the vectors, from singular values alone:
    cosines from sigma(A*B), and below pi/4 the m smallest sines from
    sigma((I - P_A) B), which are the k sines and a 1 per rest dimension."""
    _check_ambient(A, B)
    k = min(A.dim, B.dim)
    M = A.basis.conj().T @ B.basis
    cos = np.clip(singular_values(M), 0.0, 1.0)
    sin = np.sqrt(1.0 - cos * cos)
    m = int(np.sum(cos * cos >= 0.5))
    if m:
        sin[:m] = np.clip(singular_values(B.basis - A.basis @ M)[::-1][:m], 0.0, 1.0)
        cos[:m] = np.sqrt(1.0 - sin[:m] * sin[:m])
    return PrincipalValues(cos, sin, B.dim - k)


def subspace_to_json(S: Subspace) -> dict:
    """JSON encoding: vectors are columns, complex entries as [re, im]."""
    return {"ambient_dim": S.ambient_dim, "vectors": complex_to_json(S.basis.T)}


def subspace_from_json(data: dict, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Decode and re-orthonormalize a JSON subspace; ``"vectors": []`` is the
    zero subspace, a missing or non-list ``vectors`` is refused."""
    d = ambient_dim_from_json(data)
    cols = data.get("vectors")
    if not isinstance(cols, list):
        raise MalformedInput('a subspace needs a "vectors" list of columns')
    if not cols:
        return zero_subspace(d)
    return from_spanning(complex_from_json(cols).T, d, tol)


def system_to_json(S: SubspaceSystem) -> dict:
    return {"ambient_dim": S.ambient_dim,
            "members": [subspace_to_json(m) for m in S.members]}


def system_from_json(data: dict, tol: Tolerances = DEFAULT_TOL) -> SubspaceSystem:
    d = ambient_dim_from_json(data)
    members = data["members"]
    if not (isinstance(members, list) and all(isinstance(m, dict) for m in members)):
        raise MalformedInput("system members must be a list of subspace objects")
    return SubspaceSystem(d, [subspace_from_json(m, tol) for m in members])
