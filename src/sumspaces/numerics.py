"""Dense complex linear algebra kernel and the global tolerance policy.

This is the only module that calls LAPACK, and the only home of the
numerical policy wrapped around each decomposition:

- tolerances: strictly positive and finite;
- Hermitian input: square shape, asymmetry ||M - M*||_F at most
  eig_tol * max(1, ||M||_F), explicit symmetrization, ascending eigenvalues
  with (``eig_hermitian``) or without (``hermitian_eigenvalues``) vectors;
  a (..., n, n) stack is checked matrix by matrix and factored in one call;
- rank: singular values above rank_tol times the largest one (or a larger scale);
- zero: eigenvalues of a positive semidefinite matrix at or below
  ``Tolerances.zero_cutoff`` = 100 * eig_tol;
- independence: sigma_min of stacked bases, 1 with no columns, 0 when wide;
- graphs: connectivity and spanning forests from one breadth-first search;
- errors: a LAPACK failure surfaces as ComputationFailed, an inf as an overflow;
- the JSON forms: [re, im] pairs and reals, all finite, no booleans; non-negative
  dimensions, positive ambient dimensions.

Functions of a matrix, inverses, spectral projectors, range bases and smallest
nonzero singular values are not wrapped here: each caller forms them from its
own single ``eig_hermitian`` or ``thin_svd`` and the shared ``numerical_rank``
cutoff, so a matrix is factored once per analysis.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ComputationFailed, MalformedInput, NonSquare, NotHermitian


@dataclass(frozen=True)
class Tolerances:
    """Global numerical policy.

    rank_tol is relative to the largest singular value; eig_tol bounds
    decomposition residuals; margin_tol is the decision threshold that turns
    a raw margin into a verdict.
    """

    rank_tol: float = 1e-10
    eig_tol: float = 1e-10
    margin_tol: float = 1e-8

    def __post_init__(self):
        if not all(0 < t < np.inf for t in (self.rank_tol, self.eig_tol, self.margin_tol)):
            raise ValueError("tolerances must be strictly positive and finite")

    @property
    def zero_cutoff(self) -> float:
        """Eigenvalues of a positive semidefinite matrix at or below this are zero."""
        return 100 * self.eig_tol


DEFAULT_TOL = Tolerances()


@dataclass
class HermitianSpectrum:
    """Eigenvalues (ascending) and a unitary of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _refuse_overflow(M: np.ndarray, what: str) -> None:
    """ComputationFailed when M holds an inf, which finite inputs reach only by overflow."""
    if np.isinf(M).any():
        raise ComputationFailed(f"overflow: entries too large for double precision "
                                f"made the {what} input infinite")


def _lapack(routine, *args, **kwargs):
    """Call a numpy.linalg routine; a LinAlgError becomes ComputationFailed."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        _refuse_overflow(args[0], routine.__name__)
        raise ComputationFailed(str(exc)) from exc


def hermitize(M: np.ndarray) -> np.ndarray:
    """Explicit symmetrization (M + M*)/2, of each matrix of a (..., n, n)
    stack; stops drift accumulation."""
    return (M + M.conj().swapaxes(-1, -2)) / 2.0


def operator_norm(M: np.ndarray):
    """Spectral norm, one per matrix of a (..., m, n) stack; 0 for empty matrices."""
    norms = _lapack(np.linalg.norm, M, 2, axis=(-2, -1)) if M.size else np.zeros(M.shape[:-2])
    return norms if M.ndim > 2 else float(norms)


def _hermitian(M: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Validated, symmetrized copy of a square, numerically Hermitian matrix,
    or of a (..., n, n) stack of them, each matrix checked on its own."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-2] != M.shape[-1]:
        raise NonSquare(f"expected square matrix, got shape {M.shape}")
    if M.ndim == 2:  # one matrix: plain norms, cheaper than the axis= form
        asym = np.linalg.norm(M - M.conj().T)
        failed = [] if asym <= tol.eig_tol * max(1.0, np.linalg.norm(M)) else [asym]
    else:
        asym = np.linalg.norm(M - M.conj().swapaxes(-1, -2), axis=(-2, -1))
        size = np.maximum(1.0, np.linalg.norm(M, axis=(-2, -1)))
        failed = asym[~(asym <= tol.eig_tol * size)]
    if len(failed):
        _refuse_overflow(M, "Hermitian eigensolver")
        raise NotHermitian(f"asymmetry {failed[0]:.3e} exceeds tolerance")
    return hermitize(M)


def eig_hermitian(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues."""
    return HermitianSpectrum(*_lapack(np.linalg.eigh, _hermitian(M, tol)))


def hermitian_eigenvalues(M: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors; one
    row per matrix of a (..., n, n) stack."""
    return _lapack(np.linalg.eigvalsh, _hermitian(M, tol))


def psd_gap(M: np.ndarray, tol: Tolerances):
    """Smallest eigenvalue above ``tol.zero_cutoff`` (+inf when there is none)
    and the number of eigenvalues at or below it: a (float, int) for a matrix,
    two arrays for a (..., n, n) stack."""
    w = hermitian_eigenvalues(M, tol)
    kernel = w <= tol.zero_cutoff
    if w.ndim == 1:
        kernel_dim = int(np.sum(kernel))
        gap = float(w[kernel_dim]) if kernel_dim < len(w) else float("inf")
        return gap, kernel_dim
    return np.where(kernel, np.inf, w).min(axis=-1, initial=np.inf), kernel.sum(axis=-1)


def svd(M: np.ndarray):
    """Full SVD with descending singular values, plus V (not V*); M may be a
    (..., m, n) stack."""
    U, s, Vh = _lapack(np.linalg.svd, np.asarray(M, dtype=complex))
    return U, s, Vh.conj().swapaxes(-1, -2)


def thin_svd(M: np.ndarray):
    """Reduced SVD: U with min(m, n) columns, descending singular values, V;
    M may be a (..., m, n) stack."""
    U, s, Vh = _lapack(np.linalg.svd, np.asarray(M, dtype=complex), full_matrices=False)
    return U, s, Vh.conj().swapaxes(-1, -2)


def singular_values(M: np.ndarray) -> np.ndarray:
    """Descending singular values, min(m, n) of them per matrix of a (..., m, n) stack."""
    return _lapack(np.linalg.svd, M, compute_uv=False)


def numerical_rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL, scale: float | None = None):
    """Count of descending singular values above rank_tol times the largest, or
    times ``scale`` when that is larger; one count per row of a stack."""
    s = np.asarray(s)
    reference = s[..., :1] if scale is None else np.maximum(s[..., :1], scale)
    counts = (s > tol.rank_tol * reference).sum(axis=-1)
    return counts if s.ndim > 1 else int(counts)


def independence_sigma(stacked: np.ndarray) -> float:
    """Smallest singular value of the columns stacked side by side: 1 if there
    are none, 0 if there are more columns than rows.  For orthonormal member
    bases its square is the best eps in ||sum x_i||^2 >= eps sum ||x_i||^2
    (the block Gram's smallest eigenvalue)."""
    rows, cols = stacked.shape
    if cols == 0:
        return 1.0
    if cols > rows:
        return 0.0
    return float(singular_values(stacked)[-1])


def polynomial_roots(c: np.ndarray) -> np.ndarray:
    """Roots of a polynomial (ascending coefficients), none for a constant.  Top
    coefficients at round-off level are dropped, and the companion matrix is
    normalized by the larger end coefficient (the reversed polynomial's roots,
    inverted, when that is the constant term): huge roots spoil the small ones."""
    c = np.polynomial.polynomial.polytrim(c, 1e-16 * np.abs(c).max())
    if abs(c[0]) <= abs(c[-1]):
        return _lapack(np.polynomial.polynomial.polyroots, c)
    with np.errstate(divide="ignore", invalid="ignore"):  # a root 0 there is one at inf
        return 1.0 / _lapack(np.polynomial.polynomial.polyroots, c[::-1])


def line_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[slope, intercept] of the least-squares line through the points (x, y)."""
    return _lapack(np.polyfit, x, y, 1)


def spanning_forest(n: int, edges) -> list:
    """Indices of the edges (i, j) between vertices 0..n-1 that a breadth-first
    search takes into a spanning forest: each tree is rooted at its lowest
    vertex, and each vertex's edges are scanned in list order.  The graph is
    connected iff the forest has n - 1 edges (n <= 1 counts as connected)."""
    adjacent = [[] for _ in range(n)]
    for e, (i, j) in enumerate(edges):
        adjacent[i].append((e, j))
        adjacent[j].append((e, i))
    tree, seen = [], [False] * n
    for root in range(n):
        queue = [] if seen[root] else [root]
        seen[root] = True
        for u in queue:
            for e, v in adjacent[u]:
                if not seen[v]:
                    seen[v] = True
                    tree.append(e)
                    queue.append(v)
    return tree


def complex_to_json(M) -> list:
    """Complex array (or scalar) as nested [re, im] lists of floats."""
    M = np.asarray(M)
    return np.stack([M.real, M.imag], axis=-1).astype(float, copy=False).tolist()


def complex_from_json(data, ndim: int) -> np.ndarray:
    """Decode an ndim-deep nesting of [re, im] pairs, each level a list of non-empty
    lists of one length, into a complex array; MalformedInput unless every
    leaf is a finite float or int (not a bool)."""
    shape, level = [], [data]
    for depth in range(ndim + 1):
        widths = set(map(len, level)) if set(map(type, level)) == {list} else set()
        if len(widths) != 1:
            raise MalformedInput(f"expected {ndim}-deep [re, im] pairs: the entries at "
                                 f"depth {depth} are not non-empty lists of one length")
        shape.append(widths.pop())
        level = list(itertools.chain.from_iterable(level))
    if shape[-1] != 2 or not set(map(type, level)) <= {float, int}:
        raise MalformedInput(f"expected {ndim}-deep [re, im] pairs of real numbers")
    try:
        arr = np.array(level, dtype=float)
    except OverflowError as exc:  # an int past the float range
        raise MalformedInput(f"[re, im] entry past the float range: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise MalformedInput("expected [re, im] pairs of finite numbers")
    return arr.view(complex).reshape(shape[:-1])


def real_from_json(value):
    """A finite int or float read from JSON, unchanged; else MalformedInput."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:  # NaN, inf, ints past float
        raise MalformedInput(f"expected a finite real number, got {value!r}")
    return value


def dimension_from_json(value) -> int:
    """A dimension read from JSON; MalformedInput unless a non-negative int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MalformedInput(f"expected a non-negative integer dimension, got {value!r}")
    return value


def ambient_dim_from_json(data: dict) -> int:
    """The ``ambient_dim`` of a subspace, system or operator file; MalformedInput
    unless a positive int."""
    d = dimension_from_json(data["ambient_dim"])
    if d == 0:
        raise MalformedInput("ambient_dim must be positive, got 0")
    return d
