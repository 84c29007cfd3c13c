"""Subspaces of C^d: construction, projectors, complements, intersections,
sums and principal angles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .numerics import (DEFAULT_TOL, Tolerances, complex_from_json, complex_to_json,
                       eig_hermitian, operator_norm, singular_values, svd)


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
    """Subspace spanned by the columns of ``vectors`` (orthonormalized by SVD).

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
    U, s, _ = svd(vectors, tol)
    reference = s[0] if scale is None else max(s[0], scale)
    r = int(np.sum(s > tol.rank_tol * reference)) if reference > 0 else 0
    return Subspace(d, U[:, :r])


def projector(S: Subspace) -> np.ndarray:
    return S.projector()


def complement(S: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement: kernel of the projector."""
    d, r = S.ambient_dim, S.dim
    if r == 0:
        return full_space(d)
    U, _, _ = svd(S.basis, tol)
    return Subspace(d, U[:, r:])


def _check_ambient(A: Subspace, B: Subspace):
    if A.ambient_dim != B.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")


def intersect(A: Subspace, B: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection computed spectrally: eigenspace of P_A + P_B at eigenvalue 2."""
    _check_ambient(A, B)
    d = A.ambient_dim
    if A.dim == 0 or B.dim == 0:
        return zero_subspace(d)
    spec = eig_hermitian(A.projector() + B.projector(), tol)
    mask = spec.eigenvalues >= 2.0 - 100 * tol.eig_tol
    cols = spec.eigenvectors[:, mask]
    return Subspace(d, cols)


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
    """Whether B is contained in A (within margin_tol)."""
    _check_ambient(A, B)
    if B.dim == 0:
        return True
    resid = B.basis - A.basis @ (A.basis.conj().T @ B.basis)
    return operator_norm(resid) <= tol.margin_tol


def equal(A: Subspace, B: Subspace, tol: Tolerances) -> bool:
    """Whether A = B within margin_tol; for equal dimensions
    ||P_A - P_B|| = ||(I - P_A) P_B||, so one containment decides."""
    return A.dim == B.dim and contains(A, B, tol)


def subtract(A: Subspace, B: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Orthogonal difference A minus (A intersect B-closure): span of (I - P_B) A."""
    _check_ambient(A, B)
    P = np.eye(A.ambient_dim) - B.projector()
    return from_spanning(P @ A.basis, A.ambient_dim, tol, scale=1.0)


def principal_angles(A: Subspace, B: Subspace, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Ascending principal angles in [0, pi/2]."""
    _check_ambient(A, B)
    k = min(A.dim, B.dim)
    if k == 0:
        return np.zeros(0)
    s = singular_values(A.basis.conj().T @ B.basis)
    cosines = np.clip(s, 0.0, 1.0)
    return np.sort(np.arccos(cosines))


def subspace_to_json(S: Subspace) -> dict:
    """JSON encoding: vectors are columns, complex entries as [re, im]."""
    return {"ambient_dim": S.ambient_dim, "vectors": complex_to_json(S.basis.T)}


def subspace_from_json(data: dict, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Decode and re-orthonormalize a JSON subspace."""
    d = int(data["ambient_dim"])
    cols = data.get("vectors", [])
    if not cols:
        return zero_subspace(d)
    return from_spanning(complex_from_json(cols, 2).T, d, tol)


def system_to_json(S: SubspaceSystem) -> dict:
    return {"ambient_dim": S.ambient_dim,
            "members": [subspace_to_json(m) for m in S.members]}


def system_from_json(data: dict, tol: Tolerances = DEFAULT_TOL) -> SubspaceSystem:
    d = int(data["ambient_dim"])
    members = [subspace_from_json(m, tol) for m in data["members"]]
    return SubspaceSystem(d, members)
