import ast
import pathlib
import re

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import _count_lapack
from sumspaces import numerics
from sumspaces.errors import ComputationFailed, NonSquare, NotHermitian

# both Hermitian eigen entry points share one validation and symmetrization
EIGEN_PATHS = pytest.mark.parametrize(
    "path", [numerics.eig_hermitian, numerics.hermitian_eigenvalues],
    ids=["eig_hermitian", "hermitian_eigenvalues"])


def _eigenvalues(path, M):
    out = path(M, numerics.DEFAULT_TOL)
    return out[0] if path is numerics.eig_hermitian else out


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        numerics.Tolerances(rank_tol=0.0)
    with pytest.raises(ValueError):
        numerics.Tolerances(margin_tol=-1e-8)
    for field in ("rank_tol", "eig_tol", "margin_tol"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                numerics.Tolerances(**{field: value})
    # from 1/sqrt(2) on, sine and cosine can both be <= rank_tol; from 0.1 on the
    # reduction's gap cap 1 - 10 eig_tol is <= 0
    for field, value in (("rank_tol", np.sqrt(0.5)), ("rank_tol", 1.0), ("eig_tol", 0.1)):
        with pytest.raises(ValueError, match=field):
            numerics.Tolerances(**{field: value})
    assert numerics.Tolerances(rank_tol=0.5, eig_tol=0.09).rank_tol == 0.5
    # three settings and no derived cutoff, so ``provenance`` lists three fields
    tol = numerics.Tolerances(eig_tol=3e-9)
    assert vars(tol) == {"rank_tol": 1e-10, "eig_tol": 3e-9, "margin_tol": 1e-8}
    assert [name for name in dir(tol) if not name.startswith("_")] \
        == ["eig_tol", "margin_tol", "rank_tol"]


@EIGEN_PATHS
def test_eig_hermitian_ascending_and_unitary(rng, path):
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    M = M + M.conj().T
    w = _eigenvalues(path, M)
    assert np.all(np.diff(w) >= 0)
    _, V = numerics.eig_hermitian(M)
    assert np.allclose(V.conj().T @ V, np.eye(6), atol=1e-12)
    recon = (V * w) @ V.conj().T
    assert np.linalg.norm(recon - M, 2) <= 1e-10


@EIGEN_PATHS
def test_eig_hermitian_rejects_bad_input(path):
    for shape in ((2, 3), (4, 2, 3), (2, 3, 1, 2), (3,), (3, 2, 2)):  # stacks too, square ones
        with pytest.raises(NonSquare):
            _eigenvalues(path, np.zeros(shape))
    with pytest.raises(NotHermitian):
        _eigenvalues(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        _eigenvalues(path, np.full((2, 2), np.nan))


@EIGEN_PATHS
def test_eig_hermitian_empty(path):
    assert _eigenvalues(path, np.zeros((0, 0))).shape == (0,)


def test_gram_gap_of_a_factor_and_of_a_stack_takes_one_values_only_svd(rng, monkeypatch):
    """A factor and a stack each take one values-only SVD, and none when the
    caller passes sigma; a factor with no columns gives (inf, d)."""
    C = rng.normal(size=(6, 4, 3)) + 1j * rng.normal(size=(6, 4, 3))
    for X in (C[0], C):
        counts = _count_lapack(monkeypatch, numerics.gram_gap, X, numerics.DEFAULT_TOL)
        assert counts == {"svdvals": 1}
    s = numerics.singular_values(C[0])
    assert _count_lapack(monkeypatch, numerics.gram_gap, C[0], numerics.DEFAULT_TOL, s) == {}
    gap, kernel_dim = numerics.gram_gap(C[0], numerics.DEFAULT_TOL)
    assert type(gap) is float and type(kernel_dim) is int
    assert (gap, kernel_dim) == (float(s[-1] ** 2), 1)
    assert numerics.gram_gap(C[0], numerics.DEFAULT_TOL, s) == (gap, kernel_dim)
    gaps, kernel_dims = numerics.gram_gap(C, numerics.DEFAULT_TOL)
    assert gaps.shape == kernel_dims.shape == (6,)
    assert numerics.gram_gap(np.zeros((4, 0)), numerics.DEFAULT_TOL) == (np.inf, 4)
    gaps, kernel_dims = numerics.gram_gap(np.zeros((3, 4, 0)), numerics.DEFAULT_TOL)
    assert gaps.tolist() == [np.inf] * 3 and kernel_dims.tolist() == [4] * 3


def test_gram_gap_cuts_sigma_at_rank_tol_not_its_square_root():
    """Two lines at angle theta: CC* has the eigenvalues 1 +- cos(theta), and
    the gap 1 - cos(theta) = 2 sin^2(theta/2) stays a gap down to sigma = rank_tol,
    where an eigenvalue cutoff of 1e-8 would drop it below theta = 1.4e-4."""
    tol = numerics.DEFAULT_TOL
    for theta in (1e-4, 1e-6, 1e-9):
        C = np.array([[1.0, np.cos(theta)], [0.0, np.sin(theta)]], dtype=complex)
        gap, kernel_dim = numerics.gram_gap(C, tol)
        assert kernel_dim == 0 and abs(gap - 2 * np.sin(theta / 2) ** 2) <= 1e-12 * gap
    C = np.array([[1.0, 1.0], [0.0, 1e-11]], dtype=complex)  # sigma_2 = 7e-12 < rank_tol
    assert numerics.gram_gap(C, tol) == (pytest.approx(2.0, rel=1e-15), 1)


def test_numerical_rank():
    s = np.array([1.0, 1e-3, 1e-14])
    assert numerics.numerical_rank(s) == 2
    assert numerics.numerical_rank(np.zeros(3)) == 0


def test_numerical_rank_scale_and_stacked_rows():
    s = np.array([1.0, 1e-3, 1e-14])
    assert numerics.numerical_rank(np.zeros(0)) == 0
    assert numerics.numerical_rank(1e-12 * s, scale=1.0) == 0  # below scale * rank_tol
    assert numerics.numerical_rank(s, scale=1e-3) == 2  # the larger reference wins
    s = np.array([[1.0, 1e-3, 1e-14], [0.0, 0.0, 0.0], [2.0, 2.0, 1e-9]])
    assert numerics.numerical_rank(s).tolist() == [2, 0, 3]
    assert numerics.numerical_rank(s, scale=1e8).tolist() == [1, 0, 2]
    assert numerics.numerical_rank(np.zeros((4, 0))).tolist() == [0] * 4


def test_numerical_rank_refuses_non_finite_values():
    # an overflowed sigma_1 = inf would otherwise count nothing above rank_tol * inf
    for s in ([np.inf, 1.0], [np.nan, 1.0], [1.0, np.nan], [[1.0, 0.5], [np.inf, 1.0]]):
        with pytest.raises(ComputationFailed, match="overflow"):
            numerics.numerical_rank(np.array(s))
        with pytest.raises(ComputationFailed, match="overflow"):
            numerics.numerical_rank(np.array(s), scale=1.0)


# each LAPACK entry of the kernel and the numpy.linalg routine it calls
KERNEL_ENTRIES = pytest.mark.parametrize("entry, routine", [
    (numerics.svd, "svd"), (numerics.thin_svd, "svd"), (numerics.singular_values, "svd"),
    (numerics.qr, "qr"), (numerics.eig_hermitian, "eigh"),
    (lambda M: numerics.hermitian_eigenvalues(M, numerics.DEFAULT_TOL), "eigvalsh"),
    (numerics.operator_norm, "norm")],
    ids=["svd", "thin_svd", "singular_values", "qr", "eig_hermitian",
         "hermitian_eigenvalues", "operator_norm"])


@KERNEL_ENTRIES
@pytest.mark.parametrize("overflowed", [False, True], ids=["finite", "inf"])
def test_a_lapack_failure_is_computation_failed(entry, routine, overflowed, monkeypatch):
    """A LinAlgError becomes ComputationFailed with LAPACK's message, or one
    that names the overflow when the input holds an inf (as LAPACK itself
    may never return on one, the failure is planted)."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, routine, fail)
    M = np.eye(3, dtype=complex)
    M[0, 0] = np.inf if overflowed else 2.0
    with np.errstate(invalid="ignore"), \
            pytest.raises(ComputationFailed, match="overflow" if overflowed else "did not converge"):
        entry(M)


def test_independence_sigma_of_no_columns_is_one():
    # an empty system is independent: every x_i is 0
    assert numerics.independence_sigma(np.zeros((3, 0), dtype=complex)) == 1.0
    assert numerics.independence_sigma(np.zeros((3, 0)), np.zeros(0)) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e170, 1e-170])
def test_independence_sigma_at_extreme_scales(scale):
    # sigma_min itself: its square would overflow at 1e170 and underflow at 1e-170
    assert numerics.independence_sigma(scale * np.eye(2)[:, [0]]) == scale


def test_singular_values_refuse_an_overflow():
    # finite entries whose sigma_1 = 3e308 is past the double range give inf, and
    # inf entries give NaN values with no LAPACK error: both are refused
    for M in (np.full((2, 2), 1.5e308, dtype=complex), np.full((2, 2), np.inf)):
        with np.errstate(all="ignore"), pytest.raises(ComputationFailed, match="overflow"):
            numerics.singular_values(M)
    assert numerics.singular_values(np.full((2, 2), 1e300))[0] == pytest.approx(2e300)


@pytest.mark.parametrize("path", [numerics.svd, numerics.thin_svd], ids=["svd", "thin_svd"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_svd_refuses_a_non_finite_input(path, entry, value):
    # LAPACK need not return on an inf on the diagonal of I, and one off it gives
    # NaN singular values with no error: the input is refused before LAPACK runs
    M = np.eye(3, dtype=complex)
    M[entry] = value
    with pytest.raises(ComputationFailed, match="overflow.*SVD input"):
        path(M)


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
def test_operator_norm_and_range_residual_refuse_an_inf(entry):
    # an inf gives a NaN norm with no LAPACK error, and X - QQ*X holds NaN
    # (inf - inf), on which LAPACK stops: both are refused as an overflow
    M = np.eye(3, dtype=complex)
    M[entry] = np.inf
    with pytest.raises(ComputationFailed, match="overflow.*operator norm input"):
        numerics.operator_norm(M)
    with np.errstate(all="ignore"), \
            pytest.raises(ComputationFailed, match="overflow.*operator norm input"):
        numerics.range_residual(np.eye(3, dtype=complex), M, numerics.DEFAULT_TOL)


def test_operator_norm_refuses_an_overflowed_norm():
    # finite entries whose norm 3e308 is past the double range
    with np.errstate(all="ignore"), pytest.raises(ComputationFailed, match="overflow"):
        numerics.operator_norm(np.full((2, 2), 1.5e308, dtype=complex))
    assert numerics.operator_norm(np.full((2, 2), 1e300)) == pytest.approx(2e300)


def test_qr_refuses_an_overflowed_r():
    # finite entries, but the column norm 2.1e308 is past the double range
    with np.errstate(all="ignore"), pytest.raises(ComputationFailed, match="overflow"):
        numerics.qr(np.full((2, 1), 1.5e308, dtype=complex))
    Q, R = numerics.qr(np.full((2, 1), 1e308, dtype=complex))
    assert np.isfinite(R).all() and abs(abs(R[0, 0]) - 2 ** 0.5 * 1e308) <= 1e293


@pytest.mark.parametrize("path", [numerics.svd, numerics.thin_svd], ids=["svd", "thin_svd"])
def test_svd_of_a_stack_rebuilds_every_slice(rng, path):
    M = rng.normal(size=(5, 4, 3)) + 1j * rng.normal(size=(5, 4, 3))
    U, s, V = path(M)
    assert U.shape == ((5, 4, 4) if path is numerics.svd else (5, 4, 3))
    assert s.shape == (5, 3) and V.shape == (5, 3, 3)
    for i in range(5):
        rebuilt = U[i, :, :3] * s[i] @ V[i].conj().T
        assert np.linalg.norm(rebuilt - M[i]) <= 1e-13
        # each slice matches its own 2-D factorization, which is numpy's, bit for bit
        U2, s2, V2 = path(M[i])
        Uref, sref, Vhref = np.linalg.svd(M[i], full_matrices=path is numerics.svd)
        for got, ref in ((U2, Uref), (s2, sref), (V2, Vhref.conj().T)):
            assert np.array_equal(got, ref)
        assert np.array_equal(U[i], U2) and np.array_equal(s[i], s2)
        assert np.array_equal(V[i], V2)


def test_operator_norm_of_a_stack(rng):
    M = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    norms = numerics.operator_norm(M)
    assert norms.shape == (3,)
    assert norms.tolist() == [numerics.operator_norm(X) for X in M]
    assert numerics.operator_norm(np.zeros((3, 4, 0))).tolist() == [0.0] * 3
    assert numerics.operator_norm(np.zeros((4, 0))) == 0.0


def _components(n, edges):
    """scipy's component labels of the graph on vertices 0..n-1."""
    i, j = np.array(edges, dtype=int).reshape(-1, 2).T
    return connected_components(coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n)),
                                directed=False)


def test_spanning_forest_matches_scipy_components(rng):
    for n in range(0, 9):
        for density in (0.0, 0.2, 0.5, 1.0):
            pairs = [(i, j) for i in range(n) for j in range(n)
                     if i != j and rng.random() < density / 2]  # both orientations, repeats
            forest = numerics.spanning_forest(n, pairs)
            count, labels = _components(n, pairs)
            assert len(forest) == n - count
            assert (len(forest) >= n - 1) == (count <= 1)
            _, forest_labels = _components(n, [pairs[e] for e in forest])
            assert np.array_equal(forest_labels, labels)  # it spans each component
    assert numerics.spanning_forest(0, []) == numerics.spanning_forest(1, []) == []


def test_polynomial_roots():
    assert numerics.polynomial_roots(np.array([5.0])).shape == (0,)
    roots = numerics.polynomial_roots(np.array([2.0, -3.0, 1.0]))
    assert np.allclose(np.sort(roots.real), [1.0, 2.0])
    # a double root at 0.9 beside one at -1e15: normalized by the top coefficient
    # 1e-9, the companion matrix places it 7e-7 off; by the constant term, 1e-8 off
    c = np.array([810000.0, -1799999.999999999, 999999.9999999983, 1e-09], dtype=complex)
    roots = numerics.polynomial_roots(c / np.abs(c).max())
    assert np.sum(np.abs(roots - 0.9) <= 1e-7) == 2


def test_line_fit_is_polyfit(rng):
    x, y = rng.normal(size=8), rng.normal(size=8)
    assert np.array_equal(numerics.line_fit(x, y), np.polyfit(x, y, 1))


# numpy's polynomial fits and root finders call lstsq and eigvals underneath
LAPACK_CALL = re.compile(r"np\.linalg\.(eigh?|eigvalsh?|svd|pinv|inv|solve|cholesky|qr|lstsq"
                         r"|det|slogdet|matrix_rank)\b|np\.roots\b"
                         r"|\b(poly|cheb|leg|lag|herm|herme)(fit|roots)\b|\.(fit|roots)\("
                         r"|np\.linalg\.norm\([^)]*,\s*2\)|scipy")


def test_only_numerics_calls_lapack():
    package = pathlib.Path(numerics.__file__).parent
    calling = sorted(path.name for path in package.glob("*.py")
                     if LAPACK_CALL.search(path.read_text(encoding="utf-8")))
    assert calling == ["numerics.py"]


# each decision cutoff is written once, in numerics (the one rank_tol rule kept
# outside it is sum_as_two's tie rule), and no module derives an absolute zero
# cutoff from eig_tol
ZERO_CUTOFF = re.compile(r"100 \* \w+\.eig_tol")
RANK_CUTOFF = re.compile(r"rank_tol \*")
MARGIN_PRODUCT = re.compile(r"margin_tol \*|\* \w+\.margin_tol")


def test_cutoffs_are_written_only_in_numerics():
    package = pathlib.Path(numerics.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert [name for name, text in sources.items() if ZERO_CUTOFF.search(text)] == []
    rank_lines = {name: [line.strip() for line in text.splitlines() if RANK_CUTOFF.search(line)]
                  for name, text in sources.items() if name != "numerics.py"}
    assert {name: lines for name, lines in rank_lines.items() if lines} == {
        "blockmodel.py": ["cut = eps - tol.rank_tol * s[:, 0]  # a value tied with eps is big"]}
    assert RANK_CUTOFF.search(sources["numerics.py"])
    # one range-inclusion rule: margin_tol scaled by anything only in range_residual,
    # and in the block model's closed_on_horizon threshold
    margin_lines = {name: [line.strip() for line in text.splitlines()
                           if MARGIN_PRODUCT.search(line)] for name, text in sources.items()}
    assert {name: lines for name, lines in margin_lines.items() if lines} == {
        "numerics.py": ["return resid, resid <= tol.margin_tol * operator_norm(X)"],
        "blockmodel.py": ["elif inf_gap > 100 * tol.margin_tol and slope >= -0.2:"]}


def test_range_residual_per_matrix_of_a_stack(rng):
    tol = numerics.DEFAULT_TOL

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    Q = np.stack([np.linalg.qr(cplx(6, 2))[0] for _ in range(4)])
    X = np.concatenate([Q[:2] @ cplx(2, 2, 3), cplx(2, 6, 3)])  # two inside, two not
    resid, inside = numerics.range_residual(Q, X, tol)
    assert inside.tolist() == [True, True, False, False]
    for i in range(4):
        one = numerics.range_residual(Q[i], X[i], tol)
        assert one[1] == inside[i] and one[0] == pytest.approx(resid[i], rel=1e-14, abs=1e-15)
        oracle = np.linalg.norm((np.eye(6) - Q[i] @ Q[i].conj().T) @ X[i], 2)
        assert abs(one[0] - oracle) <= 1e-14 * np.linalg.norm(X[i], 2)
        for k in (-30, 30):  # relative to ||X||: no scale moves the verdict
            assert numerics.range_residual(Q[i], 2.0 ** k * X[i], tol)[1] == inside[i]
    assert numerics.range_residual(Q[0], np.zeros((6, 0)), tol) == (0.0, True)
    resid, inside = numerics.range_residual(Q, np.zeros((4, 6, 0)), tol)
    assert resid.tolist() == [0.0] * 4 and inside.all()
    resid, inside = numerics.range_residual(np.zeros((6, 0)), X[2], tol)
    assert resid == pytest.approx(np.linalg.norm(X[2], 2), rel=1e-14) and not inside


def test_every_numerics_function_has_a_caller():
    # a kernel entry is kept only while src/ uses it; the __init__ re-export
    # and the definition itself do not count
    package = pathlib.Path(numerics.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for name, tree in trees.items() if name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    public = {node.name for node in trees["numerics.py"].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public and sorted(public - used) == []


@pytest.mark.parametrize("call", ["np.roots([1.0, -T, D])", "np.linalg.eig(M)",
                                  "np.linalg.eigvals(M)", "np.linalg.eigh(M)",
                                  "np.linalg.eigvalsh(M)", "np.linalg.norm(M, 2)",
                                  "np.linalg.solve(H, g)", "np.linalg.cholesky(H)",
                                  "np.linalg.qr(M)", "np.linalg.lstsq(M, b)",
                                  "np.linalg.det(M)", "np.linalg.slogdet(M)",
                                  "np.linalg.matrix_rank(M)", "np.polyfit(lx, ly, 1)",
                                  "np.polynomial.polynomial.polyroots(c)",
                                  "P.polyfit(x, y, 2)", "Polynomial(c).roots()",
                                  "Polynomial.fit(x, y, 1)"])
def test_lapack_call_pattern_matches(call):
    assert LAPACK_CALL.search(call)
