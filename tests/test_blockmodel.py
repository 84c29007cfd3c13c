import tracemalloc

import mpmath
import numpy as np
import pytest

import sumspaces as ss
from conftest import _count_lapack
from sumspaces.blockmodel import SLAB
from sumspaces.errors import UnknownFamily
from sumspaces.numerics import gram_gap


def test_paper_families_members_and_cache():
    BS = ss.paper_families("one_over_k", {"n": 4})
    assert BS.n_members == 4
    first = BS.block(1)
    assert first.ambient_dim == 4
    assert ss.paper_families("halmos_accumulating").n_members == 2
    assert ss.paper_families("compact_triple").n_members == 3
    with pytest.raises(UnknownFamily):
        ss.paper_families("no_such_family")


def test_certify_validates_subset():
    BS = ss.paper_families("one_over_k", {"n": 3})
    with pytest.raises(ValueError):
        ss.certify(BS, [], 10)
    with pytest.raises(ValueError):
        ss.certify(BS, [0, 1], 10)
    with pytest.raises(ValueError):
        ss.certify(BS, [4], 10)


@pytest.mark.parametrize("K", [0, -3])
def test_empty_horizon_is_rejected(K):
    BS = ss.paper_families("one_over_k", {"n": 3})
    with pytest.raises(ValueError):
        ss.certify(BS, [1, 2, 3], K)
    with pytest.raises(ValueError):
        ss.sum_as_two(BS, K)


def test_one_over_k_gap_decay_rate():
    BS = ss.paper_families("one_over_k", {"n": 3})
    v = ss.certify(BS, [1, 2, 3], 100)
    assert v.status == "gap_vanishing"
    # the block-k full-sum gap decays quadratically
    assert -2.2 <= v.trend_slope <= -1.8
    assert v.subset == [1, 2, 3] and len(v.gaps) == 100


def test_halmos_accumulating_pair_vanishes():
    BS = ss.paper_families("halmos_accumulating", {"rate": 1.0})
    v = ss.certify(BS, [1, 2], 80)
    assert v.status == "gap_vanishing"
    single = ss.certify(BS, [1], 80)
    assert single.status == "closed_on_horizon"
    assert single.inf_gap == pytest.approx(1.0)


def test_halmos_accumulating_refuses_rate_outside_unit_interval():
    with pytest.raises(ValueError, match="rate 1.5"):
        ss.paper_families("halmos_accumulating", {"rate": 1.5})


def test_compact_triple_subset_verdicts():
    BS = ss.paper_families("compact_triple")
    assert ss.certify(BS, [2, 3], 60).status == "gap_vanishing"
    assert ss.certify(BS, [1, 2], 60).status == "closed_on_horizon"


def test_custom_generator_block_system():
    gen = lambda k: ss.SubspaceSystem(2, [ss.full_space(2)])
    BS = ss.BlockSystem(gen, 1, "custom")
    v = ss.certify(BS, [1], 10)
    assert v.status == "closed_on_horizon"
    assert v.inf_gap == pytest.approx(1.0)


def test_sum_as_two_preserves_block_sums():
    BS = ss.paper_families("halmos_accumulating", {})
    m1, m2, rep = ss.sum_as_two(BS, 20)
    assert rep.extras["rank_equality_all_blocks"]
    assert len(m1) == len(m2) == 20
    for k in range(20):
        target = ss.sum_span(BS.block(k + 1).members)
        got = ss.sum_span([m1[k], m2[k]])
        assert np.linalg.norm(got.projector() - target.projector(), 2) <= 1e-8


@pytest.mark.parametrize("name, params", [("one_over_k", {"n": 3}), ("one_over_k", {"n": 6}),
                                          ("halmos_accumulating", {}), ("compact_triple", {})])
def test_sum_as_two_factors_the_horizon_in_stacked_calls(name, params, monkeypatch):
    """Blocks of one shape: one SVD of the stacked member bases, one of the
    graph vectors (when there are small directions), one of [M1 M2] and the
    two norms of ``range_residual`` (the residual and its scale ||C||),
    whatever the horizon."""
    family = ss.paper_families(name, params)
    blocks = [family.block(k) for k in range(1, 201)]
    BS = ss.BlockSystem(lambda k: blocks[k - 1], family.n_members)
    counts = [_count_lapack(monkeypatch, ss.sum_as_two, BS, K) for K in (1, 200)]
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"svd_thin", "norm"}
    assert counts[0]["svd_thin"] <= 3 and counts[0]["norm"] == 2


def _prebuilt(family, K):
    """The family's blocks 1..K built once, served by a BlockSystem."""
    blocks = [family.block(k) for k in range(1, K + 1)]
    return ss.BlockSystem(lambda k: blocks[k - 1], family.n_members)


FAMILIES = [("one_over_k", {"n": 3}), ("one_over_k", {"n": 4}),
            ("halmos_accumulating", {}), ("compact_triple", {})]


@pytest.mark.parametrize("name, params", FAMILIES)
def test_certify_takes_one_eigvalsh_per_slab(name, params, monkeypatch):
    """One stacked values-only SVD per slab of blocks of one shape, and no
    eigh or eigvalsh: an eigenvalue cutoff of 1e-8 on CC* sits at sigma = 1e-4."""
    BS = _prebuilt(ss.paper_families(name, params), 1000)
    for K in (1, 1000):
        counts = _count_lapack(monkeypatch, ss.certify, BS, range(1, BS.n_members + 1), K)
        assert counts == {"svdvals": -(-K // SLAB)}  # the number of slabs


def _gaps_block_by_block(BS, subset, K, tol=ss.DEFAULT_TOL):
    """The gaps of blocks 1..K, one gram_gap call on each block's factor."""
    return [gram_gap(np.hstack([BS.block(k).members[j - 1].basis for j in subset]), tol)[0]
            for k in range(1, K + 1)]


@pytest.mark.parametrize("name, params", FAMILIES)
@pytest.mark.parametrize("K", [1, SLAB - 1, SLAB, SLAB + 1, 1000])
def test_certify_gaps_are_the_per_block_gaps(name, params, K):
    BS = ss.paper_families(name, params)
    for subset in (range(1, BS.n_members + 1), [1], [BS.n_members - 1, BS.n_members]):
        assert ss.certify(BS, subset, K).gaps == _gaps_block_by_block(BS, sorted(set(subset)), K)


def _alternating_block(k):
    """Block k: three members of C^2 for odd k and of C^3 for even k; every
    fifth block has zero-dimensional members only, so its gap is inf."""
    d = 2 + (k % 2 == 0)
    rng = np.random.default_rng(k)
    dims = [0, 0, 0] if k % 5 == 0 else [1, 1, int(rng.integers(0, 3))]
    return ss.SubspaceSystem(d, [ss.from_spanning(rng.normal(size=(d, r)) + 0j, d)
                                 for r in dims])


@pytest.mark.parametrize("K", [7, 600])
def test_certify_gaps_with_alternating_block_shapes(K):
    BS = ss.BlockSystem(_alternating_block, 3)
    for subset in ([1, 2, 3], [2, 3]):
        gaps = ss.certify(BS, subset, K).gaps
        assert gaps == _gaps_block_by_block(BS, subset, K)
        assert np.isinf(gaps[4]) and np.isfinite(gaps[0])


def _oracle_gap(name, n, k):
    """The gap of block k's vanishing subset at 50 digits, from the family's
    definition: the smallest eigenvalue of the Gram matrix of its member
    vectors, which are independent (so the gap of CC* is that of C*C)."""
    with mpmath.workdps(50):
        if name == "one_over_k":  # e_1 .. e_{n-1} and (1, ..., 1, 1/k) normalized
            v = [mpmath.mpf(1)] * (n - 1) + [mpmath.mpf(1) / k]
            cols = [[mpmath.mpf(i == j) for i in range(n)] for j in range(n - 1)] + [v]
        else:  # compact_triple {2, 3}: e_1 and (sqrt(1 - a^2), a), a = 1/(k + 1)
            a = mpmath.mpf(1) / (k + 1)
            cols = [[mpmath.mpf(1), mpmath.mpf(0)], [mpmath.sqrt(1 - a * a), a]]
        cols = [[x / mpmath.sqrt(mpmath.fsum(y * y for y in c)) for x in c] for c in cols]
        gram = mpmath.matrix([[mpmath.fsum(x * y for x, y in zip(b, c)) for c in cols]
                              for b in cols])
        return float(min(mpmath.eigsy(gram, eigvals_only=True)))


@pytest.mark.parametrize("name, params, subset", [
    ("one_over_k", {"n": 3}, [1, 2, 3]), ("one_over_k", {"n": 4}, [1, 2, 3, 4]),
    ("compact_triple", {}, [2, 3])])
def test_vanishing_gaps_stay_vanishing_at_long_horizons(name, params, subset):
    """The gap 1/(6k^2) of one_over_k n = 4 falls under 1e-8 near k = 4000;
    read from sigma it stays a gap, so a longer horizon keeps the evidence,
    and each gap matches the 50-digit value within 1e-13 relative."""
    family = ss.paper_families(name, params)
    BS = _prebuilt(family, 20000)
    for K in (4000, 8000, 20000):
        verdict = ss.certify(BS, subset, K)
        assert verdict.status == "gap_vanishing" and verdict.trend_slope < -1.99
    for k in (1000, 10000, 20000):
        oracle = _oracle_gap(name, params.get("n"), k)
        assert abs(verdict.gaps[k - 1] - oracle) <= 1e-13 * oracle
    assert verdict.inf_gap == verdict.gaps[-1]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certify_transient_memory_is_one_slab():
    """Going from 4 to 16 slabs of 8 x 8 block factors adds no more than the
    O(K) gaps list: a pointer and a float, 32 B per extra block, bounded at
    64 B.  Stacking the whole horizon would add its 1 KB factor per block,
    held in the list and the stack."""
    S = ss.paper_families("one_over_k", {"n": 8}).block(3)
    BS = ss.BlockSystem(lambda k: S, len(S))
    peaks = [_peak_bytes(ss.certify, BS, range(1, 9), K) for K in (4 * SLAB, 16 * SLAB)]
    assert peaks[1] - peaks[0] <= 64 * 12 * SLAB
