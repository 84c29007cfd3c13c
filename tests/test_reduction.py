from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import sumspaces as ss
from sumspaces.errors import (GapTooSmall, IndexOutOfRange, NotIndependent,
                              SumNotFull)

from conftest import _count_lapack, random_subspace, random_system, simplex_lines


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
    A = ss.combine_with_spectrum(Q, [2.0, 5.0])
    w = np.sort(np.linalg.eigvals(A).real)
    assert np.allclose(w, [2.0, 2.0, 5.0], atol=1e-8)


def test_oblique_projections_preconditions(rng):
    dep = _lines([1, 0], [1, 0])
    with pytest.raises(NotIndependent):
        ss.oblique_projections(dep)
    partial = ss.SubspaceSystem(3, [random_subspace(rng, 3, 1)])
    with pytest.raises(SumNotFull):
        ss.oblique_projections(partial)


def test_rps_margin_examples():
    S = _lines([1, 0], [0, 1], [1, 1])
    with pytest.raises(IndexOutOfRange):
        ss.rps_margin(S, 0)
    rep = ss.rps_margin(S, 2)
    # every kernel vector has equal head and tail mass here
    assert rep.margin("rps_epsilon") == pytest.approx(1.0, abs=1e-10)
    indep = _lines([1, 0], [0, 1])
    rep = ss.rps_margin(indep, 1)
    assert rep.entry("rps_epsilon").note == "vacuous"


def _gaussian_system(rng, d, dims):
    return ss.SubspaceSystem(d, [ss.from_spanning(rng.normal(size=(d, r))
                                                  + 1j * rng.normal(size=(d, r)))
                                 for r in dims])


def test_rps_margin_is_zero_when_the_head_is_dependent(monkeypatch):
    # H1, H2 of dimension 3 in C^5 meet, so a kernel vector has no tail part and
    # the true eps is 0; a square root of the squared round-off of a Gram
    # product read about 1e-8 here and passed margin_tol on 9 of these seeds
    for seed in range(300):
        S = _gaussian_system(np.random.default_rng(seed), 5, (3, 3, 2))
        rep = ss.rps_margin(S, 2)
        assert rep.verdict("rps_epsilon") != "satisfied" and rep.margin("rps_epsilon") < 1e-12
    # read from the factors: no Hermitian eigensolve
    assert _count_lapack(monkeypatch, ss.rps_margin, S, 2) == {"svd": 1, "svdvals": 2}


def test_rps_margin_matches_a_generalized_eigenvalue_oracle():
    # the best eps^2 is the smallest mu in T c = mu H c, where H and T are the
    # Gram matrices of the head and tail rows of a kernel basis; a tail that
    # spans at most C^d keeps H positive definite
    rng, compared = np.random.default_rng(7), 0
    for _ in range(300):
        d, n = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        m, dims = int(rng.integers(1, n)), [int(rng.integers(1, d)) for _ in range(n)]
        if sum(dims[m:]) > d or sum(dims) <= d:
            continue
        S = _gaussian_system(rng, d, dims)
        eps = ss.rps_margin(S, m).margin("rps_epsilon")
        Z = scipy.linalg.null_space(np.hstack([member.basis for member in S.members]))
        head, tail = Z[:sum(dims[:m])], Z[sum(dims[:m]):]
        mu = scipy.linalg.eigh(tail.conj().T @ tail, head.conj().T @ head,
                               eigvals_only=True)[0]
        if eps > 1e-4:
            assert eps == pytest.approx(np.sqrt(mu), rel=1e-12)
            compared += 1
    assert compared >= 50


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


def test_reduce_system_requires_gap():
    # all-zero system: the sum has no spectrum above the cutoff
    S = ss.SubspaceSystem(2, [ss.zero_subspace(2), ss.zero_subspace(2)])
    with pytest.raises(GapTooSmall):
        ss.reduce_system(S)


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
    # a planted H1 & H2, which the shrink for n >= 3 drops without intersecting
    for n in (3, 4):
        S = _planted_meet(rng, 8, n)
        assert ss.intersect(S.members[0], S.members[1]).dim == 1
        res = ss.reduce_system(S)
        assert ss.independence_certificate(res.reduced).independent
        assert res.sum_preserved
        assert res.certificate_slack >= -1e-8
        assert res.c_n == ss.c_constant(n)


def _count_factorizations(monkeypatch):
    """Count full SVDs and eigvalsh calls made through np.linalg."""
    counts = {"svd": 0, "eigvalsh": 0}
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def counted_svd(*args, **kwargs):
        if kwargs.get("compute_uv", True):
            counts["svd"] += 1
        return svd(*args, **kwargs)

    def counted_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return counts


@pytest.mark.parametrize("reduce, expected",
                         [(ss.reduce_system, {"svd": 8, "eigvalsh": 2}),
                          (ss.reduce_preserving_sum, {"svd": 11, "eigvalsh": 2})],
                         ids=["system", "preserve_sum"])
def test_reduction_factorization_counts(reduce, expected, monkeypatch):
    # each decomposition once: one gap, one certificate slack, no discarded
    # pair report and no meet above the last recursion level
    gen = np.random.default_rng(7)
    S = ss.SubspaceSystem(8, [random_subspace(gen, 8, r) for r in (3, 4, 3)])
    counts = _count_factorizations(monkeypatch)
    reduce(S)
    assert counts == expected


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
    expected = ss.subtract(H2, ss.intersect(H1, H2))
    got = res.reduced.members[1]
    assert got.dim == expected.dim


def test_reduce_preserving_sum_simplex(rng):
    S = simplex_lines(3)
    res = ss.reduce_preserving_sum(S)
    assert res.sum_preserved
    assert ss.independence_certificate(res.reduced).independent
    assert sum(m.dim for m in res.reduced.members) == 2
