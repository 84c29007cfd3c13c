"""Property tests over hypothesis-drawn inputs (derandomized, fixed budget).

The modulus-form bracket of ``complement_graph_margin`` is compared with
oracles built here with plain numpy: complement bases from a full SVD of the
spanning vectors, the closed-form lower bound, and a sampled search over
random edge phases.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

import sumspaces as ss

SAMPLES = 1024  # random phase vectors in the sampled oracle


@st.composite
def graph_systems(draw):
    """Random members of C^d (full ones included) on a tree, cycle or
    complete graph with random positive weights."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(2, 6))
    ranks = draw(st.lists(st.integers(1, d), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["tree", "cycle", "complete"]))
    if kind == "tree" or n == 2:
        pairs = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    elif kind == "cycle":
        pairs = [(i, i % n + 1) for i in range(1, n + 1)]
    else:
        pairs = list(itertools.combinations(range(1, n + 1), 2))
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=len(pairs),
                            max_size=len(pairs)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spans = [rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)) for r in ranks]
    G = ss.WeightedGraph(n, [(i, j, w) for (i, j), w in zip(pairs, weights)])
    return spans, G, kind


def _complement_bases(spans):
    return [np.linalg.svd(X)[0][:, X.shape[1]:] for X in spans]


def _closed_form_lower_bound(comps, G):
    M = np.diag(G.rho())
    for i, j, w in G.edges:
        M[i - 1, j - 1] = M[j - 1, i - 1] = -w * np.linalg.norm(
            comps[i - 1].conj().T @ comps[j - 1], 2)
    live = [k for k, C in enumerate(comps) if C.shape[1]]
    return np.linalg.eigvalsh(M[np.ix_(live, live)])[0]


def _sampled_modulus_minimum(comps, G, rng):
    """min over SAMPLES random phase vectors of lambda_min(Q(theta))."""
    offs = np.cumsum([0] + [C.shape[1] for C in comps])
    theta = rng.uniform(0.0, 2 * np.pi, size=(SAMPLES, len(G.edges)))
    Q = np.zeros((SAMPLES, offs[-1], offs[-1]), dtype=complex)
    for k, rho in enumerate(G.rho()):
        Q[:, offs[k]:offs[k + 1], offs[k]:offs[k + 1]] = rho * np.eye(comps[k].shape[1])
    for e, (i, j, w) in enumerate(G.edges):
        block = -w * np.exp(1j * theta[:, e])[:, None, None] * (
            comps[i - 1].conj().T @ comps[j - 1])
        Q[:, offs[i - 1]:offs[i], offs[j - 1]:offs[j]] = block
        Q[:, offs[j - 1]:offs[j], offs[i - 1]:offs[i]] = block.conj().transpose(0, 2, 1)
    return np.linalg.eigvalsh(Q)[:, 0].min()


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(graph_systems(), st.integers(0, 2 ** 31 - 1))
def test_modulus_bracket(case, seed):
    spans, G, kind = case
    d = spans[0].shape[0]
    S = ss.SubspaceSystem(d, [ss.from_spanning(X) for X in spans])
    rep = ss.complement_graph_margin(S, G, modulus=True, seed=seed)
    comps = _complement_bases(spans)
    names = ("modulus_form_lower_bound", "modulus_form_epsilon", "difference_form_epsilon")
    if not any(C.shape[1] for C in comps):
        assert all(rep.entry(name).note == "vacuous" for name in names)
        return
    lower, upper, difference = (rep.margin(name) for name in names)
    assert rep.entry("modulus_form_lower_bound").note == ""
    assert "estimate" in rep.entry("modulus_form_epsilon").note
    assert lower <= upper + 1e-12 and upper <= difference
    if kind == "tree" or G.n == 2:
        assert upper == difference
    assert abs(lower - _closed_form_lower_bound(comps, G)) <= 1e-12
    assert upper <= _sampled_modulus_minimum(comps, G, np.random.default_rng(seed)) + 1e-12
