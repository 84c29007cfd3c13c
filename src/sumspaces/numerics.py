"""Dense complex linear algebra kernel and the global tolerance policy.

This is the only module that calls LAPACK, and the only home of the
numerical policy wrapped around each decomposition:

- tolerances: strictly positive and finite, rank_tol < 1/sqrt(2), eig_tol < 0.1;
- Hermitian input: one square matrix, asymmetry ||M - M*||_F at most
  eig_tol * max(1, ||M||_F), explicit symmetrization, ascending eigenvalues
  with (``eig_hermitian``) or without (``hermitian_eigenvalues``) vectors;
- rank: singular values above rank_tol times the largest one (or a larger scale);
- sums of ranges: the gap of CC* (P_1 + ... + P_n for C = [B_1 ... B_n]) is sigma_r(C)^2,
  r = numerical_rank(sigma, scale=1.0) (``gram_gap``): a cutoff at rank_tol, not its root;
- zero: the rank rule on one operator's descending values, at its own scale: ``images``'
  sum gap and ``build_beta``'s zero count (none), ``paircalc``'s punctured disk (||b||),
  the modulus descent's simplicity, coupling and curvature tests (largest edge weight);
- range inclusion: ||X - QQ*X|| <= margin_tol ||X|| (``range_residual``) for ``contains``
  (so ``equal`` and ``reduce``), ``douglas_factor`` and ``sum_as_two``;
- independence: sigma_min of stacked bases, 1 with no columns, 0 when wide;
- graphs: connectivity and spanning forests from one breadth-first search;
- orthonormal bases: ``qr`` once both sides exceed 16, else ``thin_svd`` (``from_spanning``);
- errors: a LAPACK failure surfaces as ComputationFailed, an inf as an overflow, and so
  do a non-finite QR factor R, singular value (never read as rank 0) or spectral norm,
  and a non-finite input to ``svd``, ``thin_svd`` or ``operator_norm`` (before LAPACK);
- the JSON forms: [re, im] pairs and reals, all finite, no booleans; non-negative
  dimensions, positive ambient dimensions.

Functions of a matrix, inverses, spectral projectors, range bases and smallest
nonzero singular values are not wrapped here: each caller forms them from its
own single ``eig_hermitian``, ``thin_svd`` or ``qr`` and the shared ``numerical_rank``
cutoff, so a matrix is factored once per analysis.  Two are factored twice: the stacked
bases of ``reduce_system`` (for the sum span, and values only for eps, which must equal
``sum_gap``'s) and the Q(0) of ``graph --modulus`` (``eigvalsh`` for its epsilon and
``eigh`` to start the phase descent).
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
    a raw margin into a verdict.  All three are positive and finite.  rank_tol
    is below 1/sqrt(2), where an angle's sine and cosine could both be <= rank_tol
    and put one pair in the meet and in the orthogonal parts at once; eig_tol is
    below 0.1, where the reduction's gap cap 1 - 10 eig_tol would be <= 0.
    """

    rank_tol: float = 1e-10
    eig_tol: float = 1e-10
    margin_tol: float = 1e-8

    def __post_init__(self):
        for name, top in (("rank_tol", 0.5 ** 0.5), ("eig_tol", 0.1), ("margin_tol", np.inf)):
            if not 0 < getattr(self, name) < top:  # also refuses NaN
                raise ValueError(f"{name} must be strictly positive, finite and below "
                                 f"{top}, got {getattr(self, name)}")


DEFAULT_TOL = Tolerances()


def _refuse_overflow(M: np.ndarray, what: str, nan_too: bool = False) -> None:
    """ComputationFailed when M holds an inf (or with ``nan_too`` a NaN): an overflow."""
    if (not np.isfinite(M).all()) if nan_too else np.isinf(M).any():
        raise ComputationFailed(f"overflow: entries too large for double precision "
                                f"made the {what} non-finite")


def _lapack(routine, *args, **kwargs):
    """Call a numpy.linalg routine; a LinAlgError becomes ComputationFailed."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        _refuse_overflow(args[0], f"{routine.__name__} input")
        raise ComputationFailed(str(exc)) from exc


def operator_norm(M: np.ndarray):
    """Spectral norm, one per matrix of a (..., m, n) stack; 0 for empty matrices.
    A non-finite entry or norm is refused as an overflow (an inf gives a NaN norm)."""
    _refuse_overflow(M, "operator norm input", nan_too=True)
    norms = _lapack(np.linalg.norm, M, 2, axis=(-2, -1)) if M.size else np.zeros(M.shape[:-2])
    _refuse_overflow(norms, "operator norm")  # finite entries near the double range
    return norms if M.ndim > 2 else float(norms)


def range_residual(Q: np.ndarray, X: np.ndarray, tol: Tolerances):
    """(||X - QQ*X||, whether Im X lies in the span of orthonormal columns Q: that
    residual is at most margin_tol ||X||), per matrix of a (..., d, m) stack; m = 0: (0, True)."""
    resid = operator_norm(X - Q @ (Q.conj().swapaxes(-1, -2) @ X))
    return resid, resid <= tol.margin_tol * operator_norm(X)


def _hermitian(M: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Validated copy of a square, numerically Hermitian matrix, explicitly
    symmetrized to stop drift accumulation."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquare(f"expected square matrix, got shape {M.shape}")
    asym = np.linalg.norm(M - M.conj().T)
    if not asym <= tol.eig_tol * max(1.0, np.linalg.norm(M)):  # NaN fails
        _refuse_overflow(M, "Hermitian eigensolver input")
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance")
    return (M + M.conj().T) / 2.0


def eig_hermitian(M: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """(w, V): ascending eigenvalues and a unitary of eigenvectors of a Hermitian matrix."""
    return _lapack(np.linalg.eigh, _hermitian(M, tol))


def hermitian_eigenvalues(M: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors."""
    return _lapack(np.linalg.eigvalsh, _hermitian(M, tol))


def svd(M: np.ndarray):
    """Full SVD with descending singular values, plus V (not V*); M may be a
    (..., m, n) stack."""
    M = np.asarray(M, dtype=complex)
    _refuse_overflow(M, "SVD input", nan_too=True)  # an inf may hang LAPACK or give NaNs
    U, s, Vh = _lapack(np.linalg.svd, M)
    return U, s, Vh.conj().swapaxes(-1, -2)


def thin_svd(M: np.ndarray):
    """Reduced SVD: U with min(m, n) columns, descending singular values, V;
    M may be a (..., m, n) stack."""
    M = np.asarray(M, dtype=complex)
    _refuse_overflow(M, "SVD input", nan_too=True)
    U, s, Vh = _lapack(np.linalg.svd, M, full_matrices=False)
    return U, s, Vh.conj().swapaxes(-1, -2)


def qr(M: np.ndarray):
    """Reduced QR of an m x n matrix: Q with min(m, n) orthonormal columns, and R."""
    Q, R = _lapack(np.linalg.qr, M)
    _refuse_overflow(R, "QR factor R", nan_too=True)
    return Q, R


def singular_values(M: np.ndarray) -> np.ndarray:
    """Descending singular values, min(m, n) of them per matrix of a (..., m, n) stack."""
    s = _lapack(np.linalg.svd, M, compute_uv=False)
    _refuse_overflow(s, "singular values", nan_too=True)  # only an overflow makes one non-finite
    return s


def numerical_rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL, scale: float | None = None):
    """Count of descending singular values above rank_tol times the largest, or
    times ``scale`` when that is larger; one count per row of a stack.  A
    non-finite value, which only an overflow gives, is refused, not read as rank 0."""
    s = np.asarray(s)
    reference = s[..., :1] if scale is None else np.maximum(s[..., :1], scale)
    counts = (s > tol.rank_tol * reference).sum(axis=-1)
    if s.ndim > 1 or counts < s.shape[-1]:  # all counted: no NaN and a finite top
        _refuse_overflow(s, "singular values", nan_too=True)
    return counts if s.ndim > 1 else int(counts)


def gram_gap(C: np.ndarray, tol: Tolerances, s: np.ndarray | None = None):
    """Gap of CC* above 0 and its kernel dimension, for a d x m factor C or each
    of a (..., d, m) stack, from one values-only SVD (none when the caller passes
    sigma(C) as ``s``): sigma_r^2 with r = numerical_rank(sigma, tol, scale=1.0),
    +inf when r = 0, and d - r.  A (float, int) for a factor, two arrays for a stack."""
    s = singular_values(C) if s is None else s
    r = numerical_rank(s, tol, scale=1.0)
    s = np.concatenate([np.full(s.shape[:-1] + (1,), np.inf), s], axis=-1)  # s[r] = sigma_r
    gap = np.take_along_axis(s, np.expand_dims(r, -1), axis=-1)[..., 0] ** 2
    return (float(gap), C.shape[-2] - r) if s.ndim == 1 else (gap, C.shape[-2] - r)


def independence_sigma(stacked: np.ndarray, s: np.ndarray | None = None) -> float:
    """Smallest singular value of the columns stacked side by side (from ``s``,
    when given): 1 if there are none, 0 if there are more columns than rows.
    For orthonormal member bases its square is the best eps in
    ||sum x_i||^2 >= eps sum ||x_i||^2 (the block Gram's smallest eigenvalue)."""
    rows, cols = stacked.shape
    if cols == 0:
        return 1.0
    if cols > rows:
        return 0.0
    return float((singular_values(stacked) if s is None else s)[-1])


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
