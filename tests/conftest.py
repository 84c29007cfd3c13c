"""Shared generators and oracles for the test suite."""

import collections
import importlib
import pathlib

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import sumspaces as ss


def random_subspace(rng, d, r):
    """Haar-ish random r-dimensional subspace of C^d."""
    if r == 0:
        return ss.zero_subspace(d)
    M = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    return ss.from_spanning(M)


def random_pair(rng, dmin=2, dmax=12):
    d = int(rng.integers(dmin, dmax + 1))
    H1 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
    H2 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
    return H1, H2


def random_system(rng, d, n, rmax=None):
    rmax = rmax or d
    return ss.SubspaceSystem(
        d, [random_subspace(rng, d, int(rng.integers(1, rmax + 1)))
            for _ in range(n)])


def random_independent_full_system(rng, d, n):
    """Random independent system whose members sum to C^d."""
    cuts = sorted(rng.choice(np.arange(1, d), size=n - 1, replace=False)) if n > 1 else []
    dims = np.diff([0] + list(cuts) + [d])
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    X += 0.3 * d * np.eye(d)  # keep well-conditioned
    members, offset = [], 0
    for r in dims:
        members.append(ss.from_spanning(X[:, offset:offset + r]))
        offset += r
    return ss.SubspaceSystem(d, members)


def simplex_lines(n):
    """n equiangular lines in C^{n-1}: projections of the simplex vertices.

    The sum of the n line projectors is n/(n-1) times the identity.
    """
    E = np.eye(n) - np.ones((n, n)) / n
    U, s, _ = np.linalg.svd(E)
    pts = (U[:, :n - 1] * s[:n - 1]).T
    return ss.SubspaceSystem(n - 1, [ss.from_spanning(pts[:, [k]]) for k in range(n)])


def multiset_distance(a, b):
    """Minimal-cost matching distance between two complex multisets."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if len(a) != len(b):
        return np.inf
    if len(a) == 0:
        return 0.0
    C = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].max())


def random_search_min(f, dim, rng, samples=10 ** 5):
    """Random minimization of f over unit vectors in C^dim.

    Half the budget samples uniformly; the other half perturbs the incumbent
    with a shrinking step, which is enough to localize smallest Rayleigh-type
    quotients without any eigensolver.
    """
    def unit(v):
        return v / np.linalg.norm(v)

    best_x = unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    best = f(best_x)
    n_uniform = samples // 2
    for _ in range(n_uniform):
        x = unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        v = f(x)
        if v < best:
            best, best_x = v, x
    n_local = samples - n_uniform
    for i in range(n_local):
        step = 0.5 * (1.0 - i / n_local) ** 2 + 1e-3
        x = unit(best_x + step * (rng.normal(size=dim) + 1j * rng.normal(size=dim)))
        v = f(x)
        if v < best:
            best, best_x = v, x
    return best


def _count_lapack(monkeypatch, fn, *args):
    """Calls of fn into np.linalg: full SVDs ("svd"), reduced ones
    (full_matrices=False, "svd_thin"), singular-value-only SVDs ("svdvals"),
    "qr", "eigh", "eigvalsh", "eigvals" (as ``polyroots`` calls it), "norm",
    "lstsq" and "pinv" (whose own SVD is not seen as "svd")."""
    calls = collections.Counter()

    def counting(name, routine):
        def counted(a, *rest, **kwargs):
            label = name
            if name == "svd":
                options = dict(zip(("full_matrices", "compute_uv"), rest), **kwargs)
                if not options.get("compute_uv", True):
                    label = "svdvals"
                elif not options.get("full_matrices", True):
                    label = "svd_thin"
            calls[label] += 1
            return routine(a, *rest, **kwargs)
        return counted

    with monkeypatch.context() as patch:
        for name in ("svd", "qr", "eigh", "eigvalsh", "eigvals", "norm", "lstsq", "pinv"):
            patch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        fn(*args)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_collection_finish(session):
    """Import every test module, and so every local module they import, before
    the first test runs.  Hypothesis draws some examples from the literals of
    the local modules imported so far, so without this a property run with its
    file alone draws other examples than in the full run.  A module that fails
    to import still fails only its own collection."""
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        try:
            importlib.import_module(path.stem)
        except (Exception, pytest.skip.Exception):
            pass
