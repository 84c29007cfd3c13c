import json
from fractions import Fraction

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.cli import main
from sumspaces.errors import EigenvalueOnBoundary, GapTooSmall, NotIndependent, SumNotFull

from conftest import _count_lapack, random_subspace, random_system, simplex_lines, subtract


def _lines(*vecs):
    d = len(vecs[0])
    return ss.SubspaceSystem(d, [ss.from_spanning(np.array(v, dtype=complex)
                                                  .reshape(-1, 1)) for v in vecs])


def test_independence_certificate_extremes():
    S = _lines([1, 0], [0, 1])
    cert = ss.independence_certificate(S)
    assert cert.independent and cert.epsilon == pytest.approx(1.0)
    dep = _lines([1, 0], [0, 1], [1, 1])
    cert = ss.independence_certificate(dep)
    assert not cert.independent and cert.epsilon == 0.0


def test_oblique_projections_properties(rng):
    e = np.eye(3)
    S = ss.SubspaceSystem(3, [ss.from_spanning(e[:, :2]),
                              ss.from_spanning(np.array([[1.0], [1.0], [1.0]]))])
    Q = ss.oblique_projections(S)
    assert np.linalg.norm(sum(Q) - np.eye(3), 2) <= 1e-10
    for Qk in Q:
        assert np.linalg.norm(Qk @ Qk - Qk, 2) <= 1e-10
    assert np.linalg.norm(Q[0] @ Q[1], 2) <= 1e-10
    A = 2.0 * Q[0] + 5.0 * Q[1]
    w = np.sort(np.linalg.eigvals(A).real)
    assert np.allclose(w, [2.0, 2.0, 5.0], atol=1e-8)


def test_oblique_projections_preconditions(rng):
    dep = _lines([1, 0], [1, 0])
    with pytest.raises(NotIndependent):
        ss.oblique_projections(dep)
    partial = ss.SubspaceSystem(3, [random_subspace(rng, 3, 1)])
    with pytest.raises(SumNotFull):
        ss.oblique_projections(partial)


def test_reduce_pair_validates_eps(rng):
    H1 = random_subspace(rng, 3, 1)
    H2 = random_subspace(rng, 3, 1)
    with pytest.raises(ValueError):
        ss.reduce_pair(H1, H2, 0.0)
    with pytest.raises(ValueError):
        ss.reduce_pair(H1, H2, 1.0)


def test_reduce_pair_drops_high_overlap_directions():
    # nearly parallel lines: M2 loses the direction with compression > delta
    H1 = ss.from_spanning(np.array([[1.0], [0.0]]))
    H2 = ss.from_spanning(np.array([[1.0], [0.05]]))
    M2, rep = ss.reduce_pair(H1, H2, 0.5)
    assert M2.dim == 0
    assert rep.extras["delta"] == pytest.approx(0.75)


def test_c_constant_chain():
    assert ss.c_constant(2) == Fraction(1, 2)
    assert ss.c_constant(3) == Fraction(1, 768)
    assert ss.c_constant(4) == Fraction(1, 768) / (16 * 24 ** 2)


@pytest.mark.parametrize("reduce", [ss.reduce_system, ss.reduce_preserving_sum],
                         ids=["system", "preserve_sum"])
def test_reduce_system_requires_gap(reduce):
    # all-zero system: members that span {0} have no gap and no certificate, in
    # either mode, and nothing comes back
    S = ss.SubspaceSystem(3, [ss.zero_subspace(3), ss.zero_subspace(3)])
    with pytest.raises(GapTooSmall, match=r"^the members span \{0\}$"):
        reduce(S)
    # two lines at angle 1e-5: the gap 1 - cos is below margin_tol in C^2, while
    # the dilated system of preserve-sum mode has the gap 1 by construction
    t = 1e-5
    S = _lines([1, 0], [np.cos(t), np.sin(t)])
    if reduce is ss.reduce_system:
        with pytest.raises(GapTooSmall, match="below margin_tol"):
            reduce(S)
    else:
        assert reduce(S).epsilon == 1.0 - 10 * ss.DEFAULT_TOL.eig_tol


def _planted_meet(rng, d, n):
    """n members of C^d; the first two share a random line."""
    line = random_subspace(rng, d, 1)
    pair = [ss.sum_span([line, random_subspace(rng, d, 2)]) for _ in range(2)]
    return ss.SubspaceSystem(d, pair + [random_subspace(rng, d, 2) for _ in range(n - 2)])


def test_reduce_system_certificate_holds(rng):
    S = random_system(rng, 5, 3, rmax=2)
    gap = ss.sum_gap(S).margin("sum_gap")
    if not np.isfinite(gap) or gap <= 1e-8:
        pytest.skip("random draw produced no usable gap")
    res = ss.reduce_system(S)
    assert res.reduced.members[0] is S.members[0]
    assert len(res.weights) == 3
    assert res.certificate_slack >= -1e-8
    assert res.c_n == Fraction(1, 768)
    assert res.rhs == pytest.approx(float(res.c_n) * res.epsilon ** 2)
    # a planted H1 & H2, which every shrink drops without intersecting
    for n in (2, 3, 4):
        S = _planted_meet(rng, 8, n)
        assert ss.intersect(S.members[0], S.members[1]).dim == 1
        res = ss.reduce_system(S)
        assert ss.independence_certificate(res.reduced).independent
        assert res.sum_preserved
        assert res.certificate_slack >= -1e-8
        assert res.c_n == ss.c_constant(n)


def _small_mix_shapes():
    """The reduce inputs of the benchmark's small_mix: three members of
    dimensions 3, 4, 3 in C^8, and a pair of dimensions 4, 5 in C^10."""
    gen = np.random.default_rng(7)
    S = ss.SubspaceSystem(8, [random_subspace(gen, 8, r) for r in (3, 4, 3)])
    return S, random_subspace(gen, 10, 4), random_subspace(gen, 10, 5)


@pytest.mark.parametrize("reduce, expected",
                         [(ss.reduce_system,
                           {"svd": 2, "svd_thin": 5, "svdvals": 2, "norm": 2}),
                          (ss.reduce_preserving_sum,
                           {"svd": 3, "svd_thin": 7, "svdvals": 1, "norm": 2})],
                         ids=["system", "preserve_sum"])
def test_reduction_factorization_counts(reduce, expected, monkeypatch):
    # each decomposition once: one values-only SVD each for the gap (system mode
    # only: preserve-sum's gap is 1 by construction) and the certificate slack,
    # one thin SVD of the reduced stack for the sum and the
    # independence epsilon (its two norms are the sum's range residual), no
    # Hermitian eigensolve, no discarded pair report, and no meet or second
    # rank cutoff at the last pair, which shrinks through the same principal
    # pairs as every other level
    S, _, _ = _small_mix_shapes()
    assert _count_lapack(monkeypatch, reduce, S) == expected


def test_reduce_pair_factorization_counts(monkeypatch):
    # the lower bound is read from the closed_margin's values-only SVD of [H1 | M2]:
    # no thin SVD for the span of H1 + M2 and no eigvalsh (with its two Frobenius
    # norms) of P_H1 + P_M2 - (eps/4) P_{H1+M2}, one of each fewer than before
    _, H1, H2 = _small_mix_shapes()
    assert _count_lapack(monkeypatch, ss.reduce_pair, H1, H2, 0.5) == {
        "svd": 1, "svd_thin": 1, "svdvals": 1, "eigvalsh": 1, "norm": 2}


@pytest.mark.parametrize("mode, expected", [("system", 0), ("preserve-sum", 0), ("pair", 3)])
def test_reduce_forms_no_projector_sum(mode, expected, tmp_path, monkeypatch, capsys):
    """Only domination_slack, which has no Gram factor, forms d x d projectors:
    P_H1, P_H2 and P_M2 in pair mode, none in the other modes."""
    S, H1, H2 = _small_mix_shapes()
    path = tmp_path / "members.json"
    path.write_text(json.dumps(ss.system_to_json(
        ss.SubspaceSystem(10, [H1, H2]) if mode == "pair" else S)))
    calls = []
    projector = ss.Subspace.projector
    monkeypatch.setattr(ss.Subspace, "projector", lambda self: calls.append(1) or projector(self))
    assert main(["reduce", "--members", str(path), "--mode", mode]) == 0
    capsys.readouterr()
    assert len(calls) == expected


def _dense_lower_bound(H1, M2, eps):
    """The lemma's lower-bound slack as the least eigenvalue of the d x d operator."""
    P = H1.projector() + M2.projector()
    span = ss.sum_span([H1, M2]).projector()
    return float(np.linalg.eigvalsh(P - eps / 4.0 * span)[0])


def test_lower_bound_slack_matches_the_projector_sum(rng):
    """min(closed_margin - eps/4, 0 when H1 + M2 is not all of C^d) is the least
    eigenvalue of P_H1 + P_M2 - (eps/4) P_{H1+M2}; pairs that span C^d, pairs
    that do not and an empty pair are all compared."""
    compared = set()
    for _ in range(60):
        d = int(rng.integers(2, 8))
        H1 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        H2 = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        eps = float(rng.uniform(0.05, 0.95))
        M2, rep = ss.reduce_pair(H1, H2, eps)
        assert rep.margin("lower_bound_slack") == pytest.approx(
            _dense_lower_bound(H1, M2, eps), abs=1e-12)
        compared.add(H1.dim + M2.dim == d)
    assert compared == {True, False}
    empty = ss.zero_subspace(3)
    assert ss.reduce_pair(empty, empty, 0.5)[1].margin("lower_bound_slack") == 0.0


def test_certificate_slack_matches_the_projector_sum(rng):
    """sigma_k(B* C_w)^2 - rhs equals the least eigenvalue of B*(sum w P - rhs I)B,
    also when the sum is not the whole space."""
    for d, dims in ((8, (3, 4, 3)), (9, (2, 2, 3)), (6, (1, 2)), (7, (2, 1, 1, 2))):
        S = ss.SubspaceSystem(d, [random_subspace(rng, d, r) for r in dims])
        res = ss.reduce_system(S)
        B = ss.sum_span(S.members).basis
        op = sum(w * m.projector() for w, m in zip(res.weights, res.reduced.members))
        dense = np.linalg.eigvalsh(B.conj().T @ (op - res.rhs * np.eye(d)) @ B)[0]
        assert res.certificate_slack == pytest.approx(dense, abs=1e-13)
    # on a span larger than the sum, B* C_w has fewer than k values: sigma_k is 0
    S = ss.SubspaceSystem(5, [random_subspace(rng, 5, 1), random_subspace(rng, 5, 2)])
    gap, _ = ss.numerics.gram_gap(np.hstack([m.basis for m in S.members]), ss.DEFAULT_TOL)
    _, _, eps, rhs, slack = ss.reduction._certified_core(S, ss.full_space(5), gap,
                                                          ss.DEFAULT_TOL)
    assert eps == min(gap, 1.0 - 10 * ss.DEFAULT_TOL.eig_tol)
    assert slack == -rhs < 0


def test_shrink_moves_delta_off_a_compression_eigenvalue():
    # cos^2 of the angle pi/6 is delta = 1 - eps/2 = 3/4: delta moves up by
    # 10 eig_tol, so the line is kept; a second eigenvalue at the moved delta
    # leaves no place for it
    t = np.pi / 6
    H1 = ss.from_spanning(np.array([[1.0], [0.0]]))
    H2 = ss.from_spanning(np.array([[np.cos(t)], [np.sin(t)]]))
    M2, rep = ss.reduce_pair(H1, H2, 0.5)
    assert rep.extras["delta"] == 0.75 + 10 * ss.DEFAULT_TOL.eig_tol
    assert M2.dim == 1
    b = np.arccos(np.sqrt(0.75 + 10 * ss.DEFAULT_TOL.eig_tol))
    e = np.eye(4)
    H1 = ss.from_spanning(e[:, [0, 2]])
    H2 = ss.from_spanning(np.column_stack([np.cos(t) * e[:, 0] + np.sin(t) * e[:, 1],
                                           np.cos(b) * e[:, 2] + np.sin(b) * e[:, 3]]))
    with pytest.raises(EigenvalueOnBoundary):
        ss.reduce_pair(H1, H2, 0.5)


def test_reduce_preserving_sum_pair_case(rng):
    H1 = random_subspace(rng, 4, 2)
    extra = random_subspace(rng, 4, 1)
    H2 = ss.sum_span([ss.from_spanning(H1.basis[:, :1]), extra])
    S = ss.SubspaceSystem(4, [H1, H2])
    res = ss.reduce_preserving_sum(S)
    assert res.sum_preserved
    cert = ss.independence_certificate(res.reduced)
    assert cert.independent
    # the pair shrink is exactly H2 minus the intersection with H1
    _assert_pair_shrink(S, res.reduced.members[1])


def _assert_pair_shrink(S, got):
    """got is H2 minus H1 & H2, with an orthonormal basis."""
    expected = subtract(S.members[1], ss.intersect(*S.members))
    assert got.dim == expected.dim
    assert np.linalg.norm(got.basis.conj().T @ got.basis - np.eye(got.dim), 2) <= 1e-12
    assert np.linalg.norm(got.projector() - expected.projector(), 2) <= 1e-12


@pytest.mark.parametrize("reduce", [ss.reduce_system, ss.reduce_preserving_sum],
                         ids=["system", "preserve_sum"])
def test_last_pair_shrink_drops_only_the_meet(reduce):
    # the base case n = 2 shrinks at delta = inf: every generic direction stays,
    # so M2 spans what subtracting the intersection leaves, with and without a meet
    for seed in range(40):
        gen = np.random.default_rng(seed)
        d, planted = int(gen.integers(6, 10)), seed % 2
        if planted:
            S = _planted_meet(gen, d, 2)
        else:
            r1 = int(gen.integers(1, d // 2 + 1))
            S = ss.SubspaceSystem(d, [random_subspace(gen, d, r1),
                                      random_subspace(gen, d, int(gen.integers(1, d - r1 + 1)))])
        assert ss.intersect(*S.members).dim == planted
        _assert_pair_shrink(S, reduce(S).reduced.members[1])


def test_reduce_preserving_sum_simplex(rng):
    S = simplex_lines(3)
    res = ss.reduce_preserving_sum(S)
    assert res.sum_preserved
    assert ss.independence_certificate(res.reduced).independent
    assert sum(m.dim for m in res.reduced.members) == 2
