import collections

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.errors import DimensionMismatch, GraphDisconnected

from conftest import multiset_distance, random_subspace, random_system


def test_weighted_graph_validation():
    with pytest.raises(DimensionMismatch):
        ss.WeightedGraph(2, [(1, 3, 1.0)])
    with pytest.raises(ValueError):
        ss.WeightedGraph(3, [(1, 2, 0.0)])
    with pytest.raises(ValueError):
        ss.WeightedGraph(3, [(1, 2, 1.0), (2, 1, 2.0)])


def test_weighted_graph_rho_and_connectivity():
    G = ss.WeightedGraph(3, [(1, 2, 2.0), (2, 3, 3.0)])
    assert np.allclose(G.rho(), [2.0, 5.0, 3.0])
    assert G.is_connected()
    assert not ss.WeightedGraph(3, [(1, 2, 1.0)]).is_connected()
    K4 = ss.WeightedGraph.complete(4)
    assert len(K4.edges) == 6
    back = ss.WeightedGraph.from_json(K4.to_json())
    assert back.edges == K4.edges


def test_sum_gap_full_space():
    e = np.eye(2)
    S = ss.SubspaceSystem(2, [ss.from_spanning(e[:, [0]]),
                              ss.from_spanning(e[:, [1]])])
    rep = ss.sum_gap(S)
    assert rep.margin("sum_gap") == pytest.approx(1.0)
    assert rep.extras["full_sum"]
    assert rep.extras["kernel_dim"] == 0


def test_dilation_shapes_and_spectrum(rng):
    S = random_system(rng, 3, 2)
    P_delta, P_H = ss.dilation(S)
    assert P_delta.shape == (6, 6) and P_H.shape == (6, 6)
    assert np.linalg.norm(P_delta @ P_delta - P_delta, 2) <= 1e-12
    prod = P_delta @ P_H @ P_delta
    w1 = np.linalg.eigvalsh((prod + prod.conj().T) / 2)
    w2 = np.linalg.eigvalsh(sum(S.projectors()) / 2)
    assert multiset_distance(w1[w1 > 1e-8], w2[w2 > 1e-8]) <= 1e-8


def test_complement_graph_margin_vacuous_for_full_members():
    S = ss.SubspaceSystem(2, [ss.full_space(2), ss.full_space(2)])
    rep = ss.complement_graph_margin(S, ss.WeightedGraph.complete(2))
    assert rep.entry("difference_form_epsilon").note == "vacuous"


def test_complement_graph_requires_connected_matching_graph(rng):
    S = random_system(rng, 3, 3)
    with pytest.raises(GraphDisconnected):
        ss.complement_graph_margin(S, ss.WeightedGraph(3, [(1, 2, 1.0)]))
    with pytest.raises(DimensionMismatch):
        ss.complement_graph_margin(S, ss.WeightedGraph.complete(2))


def test_modulus_form_never_exceeds_difference_form(rng):
    for _ in range(5):
        S = random_system(rng, 4, 3, rmax=3)
        rep = ss.complement_graph_margin(S, ss.WeightedGraph.complete(3),
                                         modulus=True, seed=1)
        assert (rep.margin("modulus_form_epsilon")
                <= rep.margin("difference_form_epsilon") + 1e-12)


def test_modulus_estimate_is_seed_deterministic(rng):
    S = random_system(rng, 4, 3, rmax=3)
    r1 = ss.complement_graph_margin(S, ss.WeightedGraph.complete(3),
                                    modulus=True, seed=11)
    r2 = ss.complement_graph_margin(S, ss.WeightedGraph.complete(3),
                                    modulus=True, seed=11)
    assert r1.margin("modulus_form_epsilon") == r2.margin("modulus_form_epsilon")
    assert "estimate" in r1.entry("modulus_form_epsilon").note


def test_modulus_bracket_factorization_counts(monkeypatch):
    # eigvalsh for the difference form and the lower bound only; the descent
    # takes one N x N eigh per evaluation of Q(theta) on the N = 32 dimensional
    # sum of the complements (a 1024-phase search made 1025 eigvalsh, BFGS 52
    # eigh) and one m x m eigh of the Hessian per Newton step, m = 3 free edges
    gen = np.random.default_rng(16)
    ranks = (5, 7, 9, 11)
    S = ss.SubspaceSystem(16, [random_subspace(gen, 16, r) for r in ranks])
    N = sum(16 - r for r in ranks)
    counts = collections.Counter()

    def counted(name, routine):
        def call(a, *args, **kwargs):
            counts[name, len(a)] += 1
            return routine(a, *args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    ss.complement_graph_margin(S, ss.WeightedGraph.complete(4), modulus=True, seed=1)
    assert sum(c for (name, _), c in counts.items() if name == "eigvalsh") <= 2, counts
    assert counts["eigh", N] <= 40, counts
    assert {size for name, size in counts if name == "eigh"} <= {N, 3}, counts


def test_modulus_phases_of_empty_blocks_are_not_free(monkeypatch):
    # member 4 is the whole space, so its complement is 0 and its three edges
    # leave Q(theta) unchanged: one free phase (the cycle 1-2-3) remains of the
    # three off the spanning tree of K4, and Newton steps run on a 1 x 1
    # Hessian (three phases made 40 eigh of the N = 9 operator)
    gen = np.random.default_rng(0)
    S = ss.SubspaceSystem(6, [random_subspace(gen, 6, r) for r in (2, 3, 4, 6)])
    sizes = collections.Counter()
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes[len(a)] += 1
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rep = ss.complement_graph_margin(S, ss.WeightedGraph.complete(4), modulus=True, seed=1)
    assert set(sizes) == {9, 1} and sizes[9] <= 20, sizes
    assert rep.margin("modulus_form_epsilon") < rep.margin("difference_form_epsilon")


def test_linear_combination_check_validation(rng):
    S = random_system(rng, 3, 2)
    with pytest.raises(DimensionMismatch):
        ss.linear_combination_check(S, [1.0])
    with pytest.raises(DimensionMismatch):
        ss.linear_combination_check(S, [1.0, -1.0])


def test_linear_combination_extras(rng):
    e = np.eye(3)
    S = ss.SubspaceSystem(3, [ss.from_spanning(e[:, :2]),
                              ss.from_spanning(e[:, [2]])])
    rep = ss.linear_combination_check(S, [1.0, 1.0])
    assert rep.extras["independence_epsilon"] == pytest.approx(1.0)
    assert rep.extras["applicable"] == (rep.extras["epsilon"] > 1e-8)
