import time

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.errors import (BudgetExceeded, DiagonalNotPositive, DimensionMismatch,
                              NotInvertible, RangeNotIncluded)
from sumspaces.subspaces import equal

from conftest import (_count_lapack, random_independent_full_system, random_subspace,
                      random_system, simplex_lines)


def test_operator_family_round_trip(rng):
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    F = ss.OperatorFamily(3, [M], ["general"])
    back = ss.OperatorFamily.from_json(F.to_json())
    assert np.allclose(back.members[0], M)
    with pytest.raises(DimensionMismatch):
        ss.OperatorFamily(2, [np.eye(3)])


def test_douglas_factor_invertible_case(rng):
    B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    A = B @ (rng.normal(size=(4, 4)))
    C, lam = ss.douglas_factor(A, B)
    assert np.linalg.norm(A - B @ C, 2) <= 1e-9
    assert lam > 0


def test_douglas_factor_takes_one_thin_svd(monkeypatch, rng):
    # the basis of Im B, the residual and C = V_r s_r^-1 U_r* A come from one
    # thin SVD of B; the three norms are the residual, ||A|| (the residual's
    # scale) and ||C||; no pinv
    B = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5))
    A = B @ rng.normal(size=(5, 5))
    assert _count_lapack(monkeypatch, ss.douglas_factor, A, B) == {"svd_thin": 1, "norm": 3}


def test_douglas_factor_rejects_non_inclusion():
    with pytest.raises(RangeNotIncluded):
        ss.douglas_factor(np.eye(2), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("k", [-30, 0, 20, 30])
def test_douglas_factor_does_not_refuse_a_scaled_inclusion(k):
    # A = B X with B of rank 6 in C^12: an absolute residual bound of margin_tol
    # refused it at 2^20 and 2^30 (residuals 1.5e-7 and 1.5e-4)
    gen = np.random.default_rng(7)
    B, X, Y = (gen.normal(size=s) + 1j * gen.normal(size=s)
               for s in ((12, 6), (6, 12), (12, 12)))
    A = B @ X @ Y
    _, lam = ss.douglas_factor(2.0 ** k * A, 2.0 ** k * (B @ X))
    assert lam == pytest.approx(ss.douglas_factor(A, B @ X)[1], rel=1e-12)
    assert lam == pytest.approx(45.81375635452361, rel=1e-9)


@pytest.mark.parametrize("k", [-30, 0, 30])
def test_nonnegative_sum_gap_scales_with_the_operators(k):
    # two rank-2 nonnegative operators in C^6: an absolute zero cutoff of
    # 100 eig_tol read the gap as 16.4 at 2^-30 and as round-off (1.5e-15) at 2^30
    gen = np.random.default_rng(14)
    ops = []
    for _ in range(2):
        X = gen.normal(size=(6, 2)) + 1j * gen.normal(size=(6, 2))
        ops.append(2.0 ** k * X @ X.conj().T)
    image, rep = ss.sum_of_images(ss.OperatorFamily(6, ops, ["nonnegative"] * 2))
    assert image.dim == rep.extras["sum_image_dim"] == 4
    assert rep.margin("nonnegative_sum_gap") / 2.0 ** k \
        == pytest.approx(0.4764078923671721, rel=1e-12)


def test_sum_of_images_matches_column_space(rng):
    members = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
               for _ in range(2)]
    F = ss.OperatorFamily(4, members)
    image, rep = ss.sum_of_images(F)
    assert rep.extras["range_equality_residual"] <= 1e-8
    assert image.dim == 4


def test_sum_of_images_nonnegative_gap():
    P = np.diag([1.0, 0.0]).astype(complex)
    F = ss.OperatorFamily(2, [P, P], ["nonnegative", "nonnegative"])
    image, rep = ss.sum_of_images(F)
    assert image.dim == 1
    assert rep.margin("nonnegative_sum_gap") == pytest.approx(2.0)
    assert rep.extras["sum_image_dim"] == 1


def test_sum_of_images_factors_s2_once(monkeypatch, rng):
    # the image from one eigh of sum a_k a_k*, the concatenation's column space
    # from one thin SVD, the nonnegative gap from one eigvalsh; the five norms
    # are two Frobenius norms per asymmetry check and the range-equality residual
    X = [np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0]
         for _ in range(3)]
    F = ss.OperatorFamily(6, [x @ x.conj().T for x in X], ["nonnegative"] * 3)
    assert ss.sum_of_images(F)[0].dim == 6
    assert _count_lapack(monkeypatch, ss.sum_of_images, F) == {
        "eigh": 1, "svd_thin": 1, "eigvalsh": 1, "norm": 5}


def test_p_radius_simplex_and_budget():
    S = simplex_lines(3)
    F = ss.OperatorFamily(2, S.projectors(), ["nonnegative"] * 3)
    seq, verdict = ss.p_radius(F, depth=4)
    assert verdict == "certified"
    assert len(seq) == 4
    # 3 + 9 + ... + 3^13 = 2 391 483 words pass the budget of 10^6
    assert sum(3 ** k for k in range(1, 14)) == 2391483 > ss.images.PRODUCT_BUDGET
    with pytest.raises(BudgetExceeded, match="budget of 1000000 products"):
        ss.p_radius(F, depth=13)
    with pytest.raises(ValueError):
        ss.p_radius(F, p=0.5)


def test_p_radius_deficient_single_projector():
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0]).astype(complex)])
    seq, verdict = ss.p_radius(F, depth=3)
    assert verdict == "deficient"


def test_p_radius_is_not_deficient_when_the_images_span():
    # T1 and T2 share the kernel vector e2, yet Im T1 + Im T2 = C^2 (T2 e1 = 1e-9 e2):
    # the verdict reads the rank of [T1 T2], not that of the rows stacked
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1e-9, 0.0]])])
    seq, verdict = ss.p_radius(F, depth=4)
    assert seq == pytest.approx([1.0] * 4, abs=1e-9)  # stationary: the rank decides
    assert verdict == "inconclusive"


@pytest.mark.parametrize("p", [1e20, np.inf])
@pytest.mark.parametrize("line", [(1.0, 8.0), (1.0, 2.0)], ids=["norm_below_1", "norm_above_1"])
def test_p_radius_deficient_at_huge_p(line, p):
    # two copies of a line projector: the images span only the line, and
    # ||I - P|| evaluates to 1 -+ 2e-16, which a huge p must not under- or overflow
    v = np.array(line)[:, None] / np.linalg.norm(line)
    F = ss.OperatorFamily(2, [v @ v.T, v @ v.T])
    seq, verdict = ss.p_radius(F, p=p, depth=4)
    assert verdict == "deficient"
    assert seq == pytest.approx([1.0] * 4, abs=1e-15)


def test_p_radius_at_infinite_p_is_the_max_norm_limit():
    F = ss.OperatorFamily(2, [np.diag([0.5, 0.5]), np.diag([0.75, 0.25])])
    # the words in I - T_i are diag(0.5^a 0.25^b, 0.5^a 0.75^b), a + b = k: the
    # largest norm is 0.75^k, from the second member's powers
    seq, verdict = ss.p_radius(F, p=np.inf, depth=3)
    assert seq == pytest.approx([0.75] * 3, abs=1e-15)
    assert verdict == "certified"


def test_p_radius_takes_one_singular_value_call_per_depth(monkeypatch, rng):
    # each level's 3^k words are one stack: one values-only SVD call per depth
    mats = []
    for _ in range(3):
        Q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
        mats.append((Q * rng.uniform(0.2, 0.9, 6)) @ Q.conj().T)
    F = ss.OperatorFamily(6, mats, ["nonnegative"] * 3)
    assert ss.p_radius(F, depth=4)[1] == "certified"
    assert _count_lapack(monkeypatch, ss.p_radius, F, 2.0, 4) == {"svdvals": 4}


@pytest.mark.parametrize("depth", [10 ** 4, 10 ** 5])
def test_p_radius_refuses_a_huge_depth_quickly(depth):
    # the word count is summed only until it passes the budget, and the
    # message names the budget, not a count thousands of digits long
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2])
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as excinfo:
        ss.p_radius(F, depth=depth)
    assert time.perf_counter() - start < 1.0
    assert len(str(excinfo.value)) < 100


@pytest.mark.parametrize("depth", [0, -2])
def test_p_radius_rejects_depth_below_one(depth):
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0]).astype(complex)], ["nonnegative"])
    with pytest.raises(ValueError):
        ss.p_radius(F, depth=depth)


def test_membership_identity_requires_invertible_sum():
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0]).astype(complex)])
    with pytest.raises(NotInvertible):
        ss.m_membership_identity(F)
    G = ss.OperatorFamily(2, [np.eye(2, dtype=complex)])
    assert ss.m_membership_identity(G) <= 1e-10


def test_membership_identity_factors_s_once(monkeypatch, rng):
    # lambda_min, S^{1/2} and S^{-3/2} from one eigh; the norms are the two
    # Frobenius norms of the asymmetry check and the residual
    mats = []
    for _ in range(3):
        Q = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
        mats.append((Q * rng.uniform(0.5, 1.5, 5)) @ Q.conj().T)
    F = ss.OperatorFamily(5, mats, ["nonnegative"] * 3)
    assert ss.m_membership_identity(F) <= 1e-12
    assert _count_lapack(monkeypatch, ss.m_membership_identity, F) == {"eigh": 1, "norm": 3}


def test_build_beta_classifications():
    pd = np.eye(3, dtype=complex)
    assert ss.build_beta(pd).classification == "positive_definite"
    assert ss.build_beta(pd).graph_connected is False  # no off-diagonal support
    beta = ss.build_beta(ss.cycle_alpha(3))
    assert beta.classification == "B1B2"
    assert beta.graph_connected
    v = beta.kernel_vector
    assert np.allclose(v / np.linalg.norm(v), np.ones(3) / np.sqrt(3), atol=1e-10)
    neither = np.eye(2, dtype=complex)
    neither[0, 1] = neither[1, 0] = -3.0
    assert ss.build_beta(neither).classification == "neither"
    # a zero eigenvalue on a disconnected support: neither (B1)(B2) nor definite
    split = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    beta = ss.build_beta(split)
    assert beta.classification == "borderline"
    assert not beta.graph_connected and beta.kernel_vector is None
    with pytest.raises(DiagonalNotPositive):
        ss.build_beta(np.diag([1.0, -1.0]).astype(complex))


def test_quadratic_projector_criterion_shapes(rng):
    S = random_system(rng, 4, 3)
    with pytest.raises(DimensionMismatch):
        ss.quadratic_projector_criterion(S, np.eye(2))
    beta, rep = ss.quadratic_projector_criterion(S, ss.cycle_alpha(3))
    assert "range_equals_sum" in rep.extras
    assert rep.extras["beta_classification"] == "B1B2"


def test_quadratic_projector_criterion_needs_complements_to_sum(rng):
    # a full member has complement 0 and a line in C^3 a plane, so the sum of
    # the complements is not C^3 and the invertibility margin does not apply
    full = ss.from_spanning(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    line = ss.from_spanning(np.array([[1.0], [1.0], [0.0]]))
    _, rep = ss.quadratic_projector_criterion(ss.SubspaceSystem(3, [full, line]), np.eye(2))
    assert "invertibility_margin" not in {e.criterion for e in rep.entries}


def test_quadratic_projector_criterion_takes_one_svd_of_a(monkeypatch, rng):
    # closed_range_margin, invertibility_margin and Im A from one thin SVD of A
    S = random_independent_full_system(rng, 5, 3)
    _, rep = ss.quadratic_projector_criterion(S, ss.cycle_alpha(3))
    assert "invertibility_margin" in {e.criterion for e in rep.entries}
    calls = _count_lapack(monkeypatch, ss.quadratic_projector_criterion, S, ss.cycle_alpha(3))
    assert calls["svdvals"] == 0


def test_quadratic_projector_criterion_reads_the_range_equality_once(monkeypatch, rng):
    # both range extras come from one range_residual of the sum against Im A: its
    # two spectral norms plus the two of beta's Hermitian check
    S = random_system(rng, 6, 3)
    assert _count_lapack(monkeypatch, ss.quadratic_projector_criterion, S,
                         ss.cycle_alpha(3))["norm"] == 4
    # on H1 = H2, alpha = [[1, -1], [-1, 1]] gives A = (P1 - P2)^2 = 0, whose range
    # is not the sum
    H = random_subspace(rng, 6, 2)
    for S, alpha in ((S, ss.cycle_alpha(3)), (ss.SubspaceSystem(6, [H, H]), [[1, -1], [-1, 1]])):
        A = sum(a * P @ Q for row, P in zip(alpha, S.projectors())
                for a, Q in zip(row, S.projectors()))
        image, total = ss.from_spanning(A), ss.sum_span(S.members)
        extras = ss.quadratic_projector_criterion(S, alpha)[1].extras
        assert extras["range_equals_sum"] is equal(image, total, ss.DEFAULT_TOL)
        assert extras["range_equality_residual"] == pytest.approx(
            np.linalg.norm(total.basis - image.projector() @ total.basis, 2), abs=1e-12)
    assert extras["range_equals_sum"] is False
    assert extras["range_equality_residual"] == pytest.approx(1.0)

