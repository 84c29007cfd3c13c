import collections

import numpy as np
import pytest

import sumspaces as ss
from sumspaces import systems
from sumspaces.errors import DimensionMismatch, GraphDisconnected

from conftest import multiset_distance, random_subspace, random_system


def test_weighted_graph_validation():
    with pytest.raises(DimensionMismatch):
        ss.WeightedGraph(2, [(1, 3, 1.0)])
    with pytest.raises(ValueError):
        ss.WeightedGraph(3, [(1, 2, 0.0)])
    with pytest.raises(ValueError):
        ss.WeightedGraph(3, [(1, 2, 1.0), (2, 1, 2.0)])
    for w in (np.nan, np.inf, -np.inf):  # refused before they reach an eigensolver
        with pytest.raises(ValueError, match="positive and finite"):
            ss.WeightedGraph(3, [(1, 2, 1.0), (2, 3, w)])


def test_weighted_graph_rho_and_connectivity():
    G = ss.WeightedGraph(3, [(1, 2, 2.0), (2, 3, 3.0)])
    assert np.allclose(G.rho(), [2.0, 5.0, 3.0])
    assert G.is_connected()
    assert not ss.WeightedGraph(3, [(1, 2, 1.0)]).is_connected()
    K4 = ss.WeightedGraph.complete(4)
    assert len(K4.edges) == 6
    back = ss.WeightedGraph.from_json(K4.to_json())
    assert back.edges == K4.edges


def _free_edges_by_scan(G, support):
    """The edges of support off a breadth-first spanning forest that scans
    the whole support for each vertex it dequeues, roots lowest first."""
    tree, seen = set(), set()
    for root in range(1, G.n + 1):
        queue = [] if root in seen else [root]
        seen.add(root)
        for u in queue:
            for e in support:
                i, j, _ = G.edges[e]
                v = j if i == u else i if j == u else None
                if v is not None and v not in seen:
                    seen.add(v)
                    tree.add(e)
                    queue.append(v)
    return [e for e in support if e not in tree]


def test_free_edges_keep_the_scan_order(rng):
    for n in range(1, 8):
        for _ in range(20):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.random() < 0.6]
            G = ss.WeightedGraph(n, [(i, j, 1.0) for i, j in rng.permutation(pairs)]
                                 if pairs else [])
            support = sorted(rng.choice(len(pairs), size=rng.integers(len(pairs) + 1),
                                        replace=False).tolist())
            assert systems._free_edges(G, support) == _free_edges_by_scan(G, support)


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
    # one eigvalsh, for the n x n lower bound; the descent takes one N x N eigh
    # per evaluation of Q(theta) on the N = 32 dimensional sum of the complements,
    # the first, of Q(0) = Q, also giving the difference form (a 1024-phase search
    # made 1025 eigvalsh, BFGS 52 eigh), and one m x m eigh of the Hessian per
    # Newton step, m = 3 free edges
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
    assert {key: c for key, c in counts.items() if key[0] == "eigvalsh"} == {
        ("eigvalsh", 4): 1}, counts
    assert counts["eigh", N] <= 40, counts
    assert {size for name, size in counts if name == "eigh"} <= {N, 3}, counts


@pytest.mark.parametrize("k", [-30, 0, 30])
def test_modulus_bracket_scales_with_the_weights(k):
    # K4 in C^8 with weights 1.1-1.4: stops at an absolute eig_tol ended the
    # descent early at 2^-30, 1.4e-4 above the estimate at 2^0 and 2^30
    gen = np.random.default_rng(7)
    S = ss.SubspaceSystem(8, [random_subspace(gen, 8, r) for r in (3, 4, 5, 4)])
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    weights = (1.1, 1.2, 1.3, 1.4, 1.15, 1.25)
    G = ss.WeightedGraph(4, [(i, j, 2.0 ** k * w) for (i, j), w in zip(pairs, weights)])
    rep = ss.complement_graph_margin(S, G, modulus=True, seed=1)
    expected = {"modulus_form_epsilon": 0.5034548972191961,
                "modulus_form_lower_bound": 0.11130807153474634,
                "difference_form_epsilon": 0.5039481834850058}
    for name, value in expected.items():
        assert rep.margin(name) / 2.0 ** k == pytest.approx(value, rel=1e-12), name


def test_modulus_evaluate_has_no_hessian_at_a_crossing():
    # the triangle with unit blocks and flux theta: lambda_min(Q(theta)) is
    # 2 - 2 cos((theta - 2 pi k) / 3) minimized over k, two branches that cross
    # with slopes -+1/sqrt(3) at theta = pi, so the partner's coupling does not vanish
    Q = 2 * np.eye(3, dtype=complex) - (np.ones((3, 3)) - np.eye(3))
    blocks = [(slice(0, 1), slice(2, 3))]
    lam, _, hess = systems._modulus_evaluate(Q, blocks, np.array([np.pi]), ss.DEFAULT_TOL, 1.0)
    assert lam == pytest.approx(1.0, abs=1e-14) and hess is None
    for theta in (np.pi - 1e-3, np.pi + 1e-3):
        lam, _, hess = systems._modulus_evaluate(Q, blocks, np.array([theta]),
                                                 ss.DEFAULT_TOL, 1.0)
        angle = (theta - 2 * np.pi * (theta > np.pi)) / 3  # the lower branch
        assert lam == pytest.approx(2 - 2 * np.cos(angle), abs=1e-14)
        assert hess.shape == (1, 1) and hess[0, 0] == pytest.approx(2 / 9 * np.cos(angle))


def test_modulus_descent_stops_on_a_zero_gradient(monkeypatch):
    # a frustrated triangle (couplings -1, -1 and +0.5): on real Q, theta = 0 is a
    # critical point, here the maximum of lambda_min(Q(theta)) with a negative
    # Hessian, so the downhill step has no direction and the descent stops at
    # once with lambda_min(Q), above the value at theta = pi
    Q = np.array([[2, -1, 0.5], [-1, 2, -1], [0.5, -1, 2]], dtype=complex)
    blocks = [(slice(0, 1), slice(2, 3))]
    tol, evaluate = ss.DEFAULT_TOL, systems._modulus_evaluate
    lam0, grad, hess = evaluate(Q, blocks, np.zeros(1), tol, 1.0)
    assert grad.tolist() == [0.0] and hess[0, 0] < 0
    assert evaluate(Q, blocks, np.array([np.pi]), tol, 1.0)[0] < lam0 - 0.1
    calls = []
    monkeypatch.setattr(systems, "_modulus_evaluate",
                        lambda *args: calls.append(args[2]) or evaluate(*args))
    assert systems._modulus_descent(Q, blocks, np.zeros(1), tol, 1.0) == lam0
    assert len(calls) == 1


def _planted_lambda(monkeypatch, values, elsewhere):
    """Replace _modulus_evaluate by a planted lambda(theta) of one phase: ``values``
    maps theta to (lambda, gradient), any other theta gives ``elsewhere``; there
    is no Hessian, so each step is a unit downhill step.  Returns the thetas asked."""
    calls = []

    def evaluate(Q, blocks, theta, tol, scale, eig=None):
        calls.append(float(theta[0]))
        lam, grad = values.get(float(theta[0]), elsewhere)
        return lam, np.array([grad]), None

    monkeypatch.setattr(systems, "_modulus_evaluate", evaluate)
    return calls


def test_modulus_descent_stops_when_the_line_search_is_exhausted(monkeypatch):
    # theta = -1 is accepted; every step from there raises lambda, through all
    # the halvings, so the descent ends at the last accepted lambda
    calls = _planted_lambda(monkeypatch, {0.0: (1.0, 1.0), -1.0: (0.5, 1.0)}, (5.0, 1.0))
    assert systems._modulus_descent(None, [], np.zeros(1), ss.DEFAULT_TOL, 1.0) == 0.5
    assert calls == [0.0, -1.0] + [-1.0 - 2.0 ** -i for i in
                                   range(systems.DESCENT_HALVINGS + 1)]


def test_modulus_descent_stops_on_a_small_drop(monkeypatch):
    # the first step passes the Armijo test but drops lambda by 5e-11, at most
    # eig_tol * scale = 1e-10: the descent stops there, though lambda 0 lies further on
    lam1 = 1.0 - 5e-11
    calls = _planted_lambda(monkeypatch, {0.0: (1.0, 1e-8), -1.0: (lam1, 1e-8)}, (0.0, 1.0))
    assert systems._modulus_descent(None, [], np.zeros(1), ss.DEFAULT_TOL, 1.0) == lam1
    assert calls == [0.0, -1.0]


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
    for bad in (np.nan, np.inf):  # NaN passes "alpha <= 0"; inf overflows the sum
        with pytest.raises(DimensionMismatch, match="alpha"):
            ss.linear_combination_check(S, [bad, 1.0])


def test_linear_combination_extras(rng):
    e = np.eye(3)
    S = ss.SubspaceSystem(3, [ss.from_spanning(e[:, :2]),
                              ss.from_spanning(e[:, [2]])])
    rep = ss.linear_combination_check(S, [1.0, 1.0])
    assert rep.extras["independence_epsilon"] == pytest.approx(1.0)
    assert rep.extras["applicable"] == (rep.extras["epsilon"] > 1e-8)
