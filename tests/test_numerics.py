import pathlib
import re

import numpy as np
import pytest

from sumspaces import numerics
from sumspaces.errors import EigenvalueOnBoundary, NonSquare, NotHermitian

# both Hermitian eigen entry points share one validation and symmetrization
EIGEN_PATHS = pytest.mark.parametrize(
    "path", [numerics.eig_hermitian, numerics.hermitian_eigenvalues],
    ids=["eig_hermitian", "hermitian_eigenvalues"])


def _eigenvalues(path, M):
    out = path(M, numerics.DEFAULT_TOL)
    return getattr(out, "eigenvalues", out)


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        numerics.Tolerances(rank_tol=0.0)
    with pytest.raises(ValueError):
        numerics.Tolerances(margin_tol=-1e-8)


@EIGEN_PATHS
def test_eig_hermitian_ascending_and_unitary(rng, path):
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    M = M + M.conj().T
    w = _eigenvalues(path, M)
    assert np.all(np.diff(w) >= 0)
    V = numerics.eig_hermitian(M).eigenvectors
    assert np.allclose(V.conj().T @ V, np.eye(6), atol=1e-12)
    recon = (V * w) @ V.conj().T
    assert np.linalg.norm(recon - M, 2) <= 1e-10


@EIGEN_PATHS
def test_eig_hermitian_rejects_bad_input(path):
    with pytest.raises(NonSquare):
        _eigenvalues(path, np.zeros((2, 3)))
    with pytest.raises(NotHermitian):
        _eigenvalues(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        _eigenvalues(path, np.full((2, 2), np.nan))


@EIGEN_PATHS
def test_eig_hermitian_empty(path):
    assert _eigenvalues(path, np.zeros((0, 0))).shape == (0,)


def test_numerical_rank_and_smallest_nonzero_sv():
    s = np.array([1.0, 1e-3, 1e-14])
    assert numerics.numerical_rank(s) == 2
    M = np.diag([2.0, 1e-3, 0.0])
    assert abs(numerics.smallest_nonzero_singular_value(M) - 1e-3) < 1e-15
    assert np.isinf(numerics.smallest_nonzero_singular_value(np.zeros((3, 3))))


def test_pinv_matches_numpy(rng):
    M = rng.normal(size=(4, 3))
    assert np.allclose(numerics.pinv(M) @ M, np.eye(3), atol=1e-10)


def test_spectral_projector_selects_halfopen_interval():
    M = np.diag([0.0, 0.5, 1.0])
    P = numerics.spectral_projector(M, (0.25, 0.75))
    assert np.allclose(P, np.diag([0.0, 1.0, 0.0]))
    with pytest.raises(EigenvalueOnBoundary):
        numerics.spectral_projector(M, (0.5, 2.0))


def test_matrix_function_square_root():
    M = np.diag([4.0, 9.0]).astype(complex)
    R = numerics.matrix_function(M, np.sqrt)
    assert np.allclose(R, np.diag([2.0, 3.0]))


LAPACK_CALL = re.compile(r"np\.linalg\.(eigh?|eigvalsh?|svd|pinv|inv)\b|np\.roots\b"
                         r"|np\.linalg\.norm\([^)]*,\s*2\)|scipy")


def test_only_numerics_calls_lapack():
    package = pathlib.Path(numerics.__file__).parent
    calling = sorted(path.name for path in package.glob("*.py")
                     if LAPACK_CALL.search(path.read_text(encoding="utf-8")))
    assert calling == ["numerics.py"]


@pytest.mark.parametrize("call", ["np.roots([1.0, -T, D])", "np.linalg.eig(M)",
                                  "np.linalg.eigvals(M)", "np.linalg.eigh(M)",
                                  "np.linalg.eigvalsh(M)", "np.linalg.norm(M, 2)"])
def test_lapack_call_pattern_matches(call):
    assert LAPACK_CALL.search(call)
