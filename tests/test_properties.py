"""Property tests over hypothesis-drawn inputs (derandomized, fixed budget).

The pair margins of ``pair_criteria`` and the independence constants of
``pair_report`` are compared with their d x d projector formulas, evaluated
here with plain numpy on pairs with a planted canonical decomposition; on the
same pairs the values-only kernel ``principal_values`` is compared with
``principal_pairs``, and ``halmos_decompose`` must give back P1, P2 and the
planted dimensions.
The modulus-form bracket of ``complement_graph_margin`` is compared with
oracles built here with plain numpy: complement bases from a full SVD of the
spanning vectors, the closed-form lower bound, and a sampled search over
random edge phases, and the gradient and Hessian that drive its descent
with central differences of lambda_min; on real and complex members its
estimate must lie between the minimum over all the descent's starts and the
difference form, and equal that minimum unless the lower bound is positive.  Scaling every operator, spanning
vector, coefficient, weight and alpha by 2^k must scale each margin of
``images``, ``calculus``, ``graph`` and ``system`` by 2^(jk), j its degree,
and move no dimension, rank, descent eigh count or refusal but the absolute ones.
The closed-form ``closed_range_margin`` of ``calculus_report`` is compared
with the SVD of ``build_b`` on the same pairs, and its exact F != 0 check
must refuse roots planted between the points of the 1001-point grid it
replaced.
``from_spanning`` on inputs whose both sides exceed ``QR_MIN_SIDE`` (its QR
path) is compared with a numpy SVD of the same vectors, with singular values
planted zero and on either side of the rank cutoff.
The array paths of ``spectrum_of_b`` and ``p_radius`` are compared with the
per-point and per-word loops they replaced, and the one-factorization
operator-range analyses with the formulas they replaced: ``pinv(B) A`` for
``douglas_factor``, the SVD of the matrix square root for ``sum_of_images``
and the n^2-product sum for ``m_membership_identity``.  ``reduce_system``
must keep the sum of systems with planted dependencies, ``reduce_preserving_sum``
must give what its construction in C^{nd} gave, the ``system`` command's
closed-form dilation spectrum must match the eigenvalues of the dense
P_delta P_Htilde P_delta on members that overlap inside a proper subspace,
and ``sum_as_two``
must split exactly the sum of a block whose members overlap inside a planted
subspace, with a tilted line down to 1e-7 outside it; on block systems whose
shape, rank and number of small directions change with k, the stacked
``sum_as_two`` must give what the per-block construction gave, exactly.  On
stacks of factors with singular values planted either side of the rank
cutoff the stacked ``gram_gap`` must give what the per-factor calls gave,
bit for bit, and on planted pairs ``sum_gap`` must be 1 - cos of the
Friedrichs angle, the eps of ``reduce_system`` and the codimension of the
sum span.  The ``images`` and
``calculus`` commands are fed mutated operator files and polynomial strings,
``pair``, ``system``, ``graph`` and ``reduce`` mutated subspace and
system files, and ``blocks`` and ``sum-as-two`` mutated family files; each
run must end in exit 0, 2 or 3, never in a traceback, and a subspace without
a ``vectors`` list in exit 3.
"""

import collections
import contextlib
import copy
import io
import itertools
import json
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sumspaces as ss
from sumspaces import numerics, reduction, systems
from sumspaces.cli import main
from sumspaces.errors import GapTooSmall, HypothesisViolated
from sumspaces.subspaces import QR_MIN_SIDE, equal, principal_pairs, principal_values

from conftest import family_to_json

SAMPLES = 1024  # random phase vectors in the sampled oracle
RANK_TOL = ss.DEFAULT_TOL.rank_tol


@st.composite
def planted_pairs(draw):
    """(B1, B2, X, neither): orthonormal bases of a pair in C^d, 2 <= d <= 12,
    built from the columns of a random unitary: an exact meet X, generic
    angles log-uniform in [1e-8, pi/2], orthogonal pairs, both rests and the
    dimension of H1'&H2'; each basis is then mixed by a random unitary."""
    d = draw(st.integers(2, 12))
    free = d
    counts = []
    for width in (1, 2, 2, 1, 1):  # meet, generic, orthogonal, a_rest, b_rest
        counts.append(draw(st.integers(0, min(3, free // width))))
        free -= width * counts[-1]
    meet, generic, orth, a_rest, b_rest = counts
    angles = [np.exp(draw(st.floats(np.log(1e-8), np.log(np.pi / 2))))
              for _ in range(generic)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def unitary(n):
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    Q = unitary(d)
    cols = iter(Q.T)
    shared = [next(cols) for _ in range(meet)]
    h1, h2 = list(shared), list(shared)
    for theta in angles:
        u, v = next(cols), next(cols)
        h1.append(u)
        h2.append(np.cos(theta) * u + np.sin(theta) * v)
    for _ in range(orth):
        h1.append(next(cols))
        h2.append(next(cols))
    h1 += [next(cols) for _ in range(a_rest)]
    h2 += [next(cols) for _ in range(b_rest)]
    B1, B2 = (np.array(h, dtype=complex).reshape(-1, d).T for h in (h1, h2))
    X = np.array(shared, dtype=complex).reshape(-1, d).T
    return B1 @ unitary(B1.shape[1]), B2 @ unitary(B2.shape[1]), X, free


def _gap_below_one(P, Q, ones):
    """1 - the largest eigenvalue of P Q P below its top ``ones``; 1 if none."""
    w = np.linalg.eigvalsh(P @ Q @ P)[:len(P) - ones]
    return 1.0 - w[-1] if len(w) else 1.0


def _projector_margins(B1, B2, X, neither):
    """The nine pair margins from d x d projector products (inf = vacuous)."""
    d, meet = X.shape
    I = np.eye(d)
    P1, P2 = B1 @ B1.conj().T, B2 @ B2.conj().T
    M = P1 @ P2
    sv5 = np.linalg.svd((I - P1) @ P2, compute_uv=False)
    sv5 = sv5[sv5 > RANK_TOL]  # absolute cutoff: P2 and I - P1 have norm <= 1
    sv6 = np.linalg.svd(I - M, compute_uv=False)[:d - meet]
    stacked = np.hstack([B1, B2])  # gram: sigma_min^2, 0 if wide, vacuous if empty
    if not stacked.size:
        gram = np.inf
    else:
        gram = 0.0 if stacked.shape[1] > d else np.linalg.svd(stacked, compute_uv=False)[-1] ** 2
    embed = np.linalg.svd((I - P1) @ B2, compute_uv=False)
    return {
        "c1_one_minus_max_a": _gap_below_one(P1, P2, meet),
        "c2_product_spectrum_gap": _gap_below_one(P1, P2, meet),
        "c3_product_minus_meet_norm": 1.0 - np.linalg.norm(M - X @ X.conj().T, 2),
        "c4_complement_pair": _gap_below_one(I - P1, I - P2, neither),
        "c5_image_closedness": sv5[-1] if len(sv5) else np.inf,
        "c6_one_minus_product": sv6[-1] if len(sv6) else np.inf,
        "product_norm_margin": 1.0 - np.linalg.norm(M, 2),
        "gram_epsilon": gram,
        "embedding_epsilon": embed[-1] if len(embed) else np.inf,
    }


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(planted_pairs())
def test_pair_margins_match_projector_formulas(case):
    B1, B2, X, neither = case
    d = len(B1)
    H1, H2 = ss.Subspace(d, B1), ss.Subspace(d, B2)
    reports = [ss.pair_criteria(H1, H2), ss.pair_report(H1, H2, ss.DEFAULT_TOL)[2]]
    got = {e.criterion: e.margin for rep in reports for e in rep.entries}
    expected = _projector_margins(B1, B2, X, neither)
    assert got.keys() == expected.keys()
    for name, value in expected.items():
        assert got[name] == value or abs(got[name] - value) <= 1e-12, name


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(planted_pairs())
def test_principal_values_match_principal_pairs(case):
    B1, B2 = case[:2]
    d = len(B1)
    H1, H2 = ss.Subspace(d, B1), ss.Subspace(d, B2)
    values, pairs = principal_values(H1, H2), principal_pairs(H1, H2)
    assert np.abs(values.cos - pairs.cos).max(initial=0.0) <= 1e-13
    assert np.abs(values.sin - pairs.sin).max(initial=0.0) <= 1e-13
    for got, expected in zip(values.classify(ss.DEFAULT_TOL), pairs.classify(ss.DEFAULT_TOL)):
        assert np.array_equal(got, expected)
    assert values.b_rest_dim == pairs.b_rest.shape[1]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(planted_pairs())
def test_halmos_decompose_reconstructs_near_degenerate_pairs(case):
    """P1 and P2 come back from the frames, with generic angles down to 1e-8
    and the planted dimensions of every component."""
    B1, B2, X, neither = case
    d = len(B1)
    dec = ss.halmos_decompose(ss.Subspace(d, B1), ss.Subspace(d, B2))
    for got, B in ((dec.reconstruct_p1(), B1), (dec.reconstruct_p2(), B2)):
        assert np.linalg.norm(got - B @ B.conj().T, 2) <= 1e-12
    assert dec.both.dim == X.shape[1] and dec.neither_dim == neither
    assert dec.both.dim + dec.first_only.dim + dec.k_dim == B1.shape[1]
    assert dec.both.dim + dec.second_only.dim + dec.k_dim == B2.shape[1]


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
    assert (ss.complement_graph_margin(S, G).margin("difference_form_epsilon")
            == rep.margin("difference_form_epsilon"))  # bit for bit, with or without modulus
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


def _modulus_problem(S, G):
    """Q (None if every complement is 0), the blocks of the free edges and their
    phase index."""
    Q, _, edge_blocks = systems._complement_quadratic(S, G)
    if Q is None:
        return None, [], None
    support = [e for e, block in enumerate(edge_blocks) if Q[block].any()]
    blocks = [edge_blocks[e] for e in systems._free_edges(G, support)]
    return Q, blocks, systems._phase_index(len(Q), blocks)


def _twisted(Q, blocks, theta):
    """Q(theta) with plain numpy: the block of free edge e times e^{i theta_e}."""
    Qt = Q.copy()
    for (rows, cols), t in zip(blocks, np.exp(1j * theta)):
        Qt[rows, cols] *= t
        Qt[cols, rows] *= np.conj(t)
    return Qt


@contextlib.contextmanager
def _counting_eigh(sizes):
    """Count np.linalg.eigh calls by matrix size into ``sizes`` (a Counter)."""
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        sizes[len(a)] += 1
        return eigh(a, *args, **kwargs)

    np.linalg.eigh = counted
    try:
        yield sizes
    finally:
        np.linalg.eigh = eigh


def _central_differences(Q, blocks, theta, h=1e-4):
    """Gradient and Hessian of lambda_min(Q(theta)) by central differences at
    steps h and h/2, Richardson-extrapolated so the error is O(h^4), not O(h^2)."""
    def lam_min(t):
        return np.linalg.eigvalsh(_twisted(Q, blocks, t))[0]

    def differences(h):
        steps = h * np.eye(len(theta))
        grad = np.array([(lam_min(theta + s) - lam_min(theta - s)) / (2 * h) for s in steps])
        hess = np.array([[(lam_min(theta + s + t) - lam_min(theta + s - t)
                           - lam_min(theta - s + t) + lam_min(theta - s - t)) / (4 * h * h)
                          for t in steps] for s in steps])
        return grad, hess

    (grad, hess), (half_grad, half_hess) = differences(h), differences(h / 2)
    return (4 * half_grad - grad) / 3, (4 * half_hess - hess) / 3


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(graph_systems().filter(lambda case: case[2] != "tree" and case[1].n > 2),
       st.integers(0, 2 ** 32 - 1))
def test_modulus_gradient_and_hessian_match_central_differences(case, seed):
    spans, G, _ = case
    S = ss.SubspaceSystem(spans[0].shape[0], [ss.from_spanning(X) for X in spans])
    Q, blocks, index = _modulus_problem(S, G)
    assume(Q is not None and len(Q) > 1 and blocks)
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=len(blocks))
    spectrum = np.linalg.eigvalsh(_twisted(Q, blocks, theta))
    assume(spectrum[1] - spectrum[0] > 1e-3)
    scale = max(w for _, _, w in G.edges)
    lam, grad, hess = systems._modulus_evaluate(Q, blocks, index, theta, ss.DEFAULT_TOL, scale)
    assert abs(lam - spectrum[0]) <= 1e-12 * max(1.0, np.abs(spectrum).max())
    fd_grad, fd_hess = _central_differences(Q, blocks, theta)
    scale = max(1.0, np.abs(hess).max())
    assert np.abs(grad - fd_grad).max() <= 1e-5 * scale
    assert np.abs(hess - fd_hess).max() <= 1e-5 * scale


def _blockwise_evaluate(Q, blocks, theta, tol, scale):
    """``systems._modulus_evaluate`` as it was before the phase index, kept as a
    reference: Q(theta) twisted block by block on a copy of Q, then p and W filled
    in separate loops; the rest is the same perturbation theory."""
    twists = np.exp(1j * theta)
    Qt = Q.copy()
    for (rows, cols), t in zip(blocks, twists):
        Qt[rows, cols] *= t
        Qt[cols, rows] *= t.conjugate()
    lam, U = ss.eig_hermitian(Qt, tol)
    v = U[:, 0]
    p = np.array([t * (v[rows].conj() @ Q[rows, cols] @ v[cols])
                  for (rows, cols), t in zip(blocks, twists)])
    W = np.zeros((len(v), len(blocks)), dtype=complex)
    for e, (rows, cols) in enumerate(blocks):
        W[rows, e], W[cols, e] = 1j * Qt[rows, cols] @ v[cols], -1j * Qt[cols, rows] @ v[rows]
    A = U[:, 1:].conj().T @ W
    k = len(lam) - 1 - numerics.numerical_rank((lam[1:] - lam[0])[::-1], tol, scale)
    if k and numerics.numerical_rank([np.abs(A[:k]).max(initial=0.0)], tol, scale):
        return float(lam[0]), -2.0 * p.imag, None
    A, gaps = A[k:], lam[0] - lam[k + 1:]
    hess = np.diag(-2.0 * p.real) + 2.0 * (A.conj().T @ (A / gaps[:, None])).real
    return float(lam[0]), -2.0 * p.imag, hess


def _assert_same_evaluation(Q, blocks, index, theta, scale):
    """The phase-index evaluation equals the block-by-block one bit for bit, unless
    a free block is 1 x 1: numpy multiplies a one-element block in place by its scalar
    path, which rounds a complex product otherwise than the array loop that every
    larger block and the one product Q * phases[index] take, so an entry of Q(theta)
    and what follows from it may differ in the last bits."""
    lam, grad, hess = systems._modulus_evaluate(Q, blocks, index, theta, ss.DEFAULT_TOL, scale)
    ref_lam, ref_grad, ref_hess = _blockwise_evaluate(Q, blocks, theta, ss.DEFAULT_TOL, scale)
    assert (hess is None) == (ref_hess is None)
    if not any(rows.stop - rows.start == cols.stop - cols.start == 1 for rows, cols in blocks):
        assert lam == ref_lam and grad.tobytes() == ref_grad.tobytes()
        assert hess is None or hess.tobytes() == ref_hess.tobytes()
        return hess
    size = max(1.0, np.abs(Q).max())
    assert abs(lam - ref_lam) <= 1e-12 * size and np.abs(grad - ref_grad).max() <= 1e-12 * size
    assert hess is None or np.abs(hess - ref_hess).max() <= 1e-9 * max(1.0, np.abs(hess).max())
    return hess


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(graph_systems().filter(lambda case: case[2] != "tree" and case[1].n > 2),
       st.integers(0, 2 ** 32 - 1))
def test_modulus_evaluate_matches_the_blockwise_twist_bit_for_bit(case, seed):
    spans, G, _ = case
    S = ss.SubspaceSystem(spans[0].shape[0], [ss.from_spanning(X) for X in spans])
    Q, blocks, index = _modulus_problem(S, G)
    assume(Q is not None and blocks)
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=len(blocks))
    _assert_same_evaluation(Q, blocks, index, theta, max(w for _, _, w in G.edges))


def test_modulus_evaluate_matches_the_blockwise_twist_at_a_crossing():
    # the triangle of test_systems.py: two branches of lambda_min cross at theta = pi
    Q = 2 * np.eye(3, dtype=complex) - (np.ones((3, 3)) - np.eye(3))
    blocks = [(slice(0, 1), slice(2, 3))]
    index = systems._phase_index(3, blocks)
    assert _assert_same_evaluation(Q, blocks, index, np.array([np.pi]), 1.0) is None
    assert _assert_same_evaluation(Q, blocks, index, np.array([np.pi - 1e-3]), 1.0) is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("layout", ["orthogonal", "doubled"])
def test_modulus_descent_on_a_multiple_bottom_eigenvalue(layout):
    """On K4, complements that are mutually orthogonal lines make Q(theta)
    constant: no phase is free, so the Hessian is empty.  Complements
    b_i (x) C^2 double every eigenvalue of Q(theta), but the couplings of
    lambda_min's partner vanish, so the Hessian exists and matches central
    differences, Newton steps run (with no division by the zero eigenvalue
    gap) and the estimate reaches the certified lower bound."""
    rng = np.random.default_rng(5)
    if layout == "orthogonal":
        comps = [np.eye(4)[:, [i]] for i in range(4)]
    else:
        b = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        comps = [np.kron(col[:, None] / np.linalg.norm(col), np.eye(2)) for col in b.T]
    d = len(comps[0])
    S = ss.SubspaceSystem(d, [ss.complement(ss.from_spanning(C)) for C in comps])
    G = ss.WeightedGraph.complete(4)
    Q, blocks, index = _modulus_problem(S, G)
    theta = rng.uniform(0.0, 2 * np.pi, size=len(blocks))
    lam, grad, hess = systems._modulus_evaluate(Q, blocks, index, theta, ss.DEFAULT_TOL, 1.0)
    spectrum = np.linalg.eigvalsh(_twisted(Q, blocks, theta))
    assert spectrum[1] - spectrum[0] <= 1e-12  # lambda_min is multiple
    if layout == "orthogonal":
        assert blocks == [] and hess.shape == (0, 0)
    else:
        fd_grad, fd_hess = _central_differences(Q, blocks, theta)
        assert np.abs(grad - fd_grad).max() <= 1e-5 and np.abs(hess - fd_hess).max() <= 1e-5
    with _counting_eigh(collections.Counter()) as sizes:
        rep = ss.complement_graph_margin(S, G, modulus=True, seed=3)
    lower, upper, difference = (rep.margin(name) for name in (
        "modulus_form_lower_bound", "modulus_form_epsilon", "difference_form_epsilon"))
    assert np.isfinite(upper) and lower <= upper + 1e-12 and upper <= difference
    if layout == "orthogonal":
        assert upper == difference and sizes == {len(Q): 1}  # Q(0) only: no descent runs
    else:  # unit steps made 684 eigh of Q(theta) and stopped 1.8e-8 above the bound
        assert sizes[len(Q)] <= 100, sizes
        assert abs(upper - lower) <= 1e-12 * lower


@contextlib.contextmanager
def _recorded_descents(values):
    """Append to ``values`` what each systems._modulus_descent call returns."""
    descent = systems._modulus_descent

    def recorded(*args):
        values.append(descent(*args))
        return values[-1]

    systems._modulus_descent = recorded
    try:
        yield values
    finally:
        systems._modulus_descent = descent


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(graph_systems().filter(lambda case: case[2] != "tree" and case[1].n > 2),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_modulus_starts_stop_only_above_the_all_starts_minimum(case, real, seed):
    """The estimate is the lowest of the descents that ran, and each start that
    runs gets the draw it gets when all of them run, so it never lies below the
    minimum over all 1 + DESCENT_STARTS descents, nor above the difference
    form.  Unless ``numerical_rank`` at the largest weight finds the certified
    lower bound positive, every start runs and the estimate is that minimum."""
    spans, G, _ = case
    spans = [X.real if real else X for X in spans]
    S = ss.SubspaceSystem(spans[0].shape[0], [ss.from_spanning(X) for X in spans])
    Q, blocks, index = _modulus_problem(S, G)
    assume(Q is not None and blocks)
    tol, scale = ss.DEFAULT_TOL, max(w for _, _, w in G.edges)
    thetas = [np.zeros(len(blocks)), *np.random.default_rng(seed).uniform(
        0.0, 2 * np.pi, size=(systems.DESCENT_STARTS, len(blocks)))]
    every = [systems._modulus_descent(Q, blocks, index, theta, tol, scale) for theta in thetas]
    with _recorded_descents([]) as ran:
        rep = ss.complement_graph_margin(S, G, modulus=True, seed=seed)
    lower, upper, difference = (rep.margin(name) for name in (
        "modulus_form_lower_bound", "modulus_form_epsilon", "difference_form_epsilon"))
    assert ran == every[:len(ran)] and upper == min(ran)
    assert min(every) <= upper <= difference
    if not numerics.numerical_rank([lower], tol, scale):
        assert len(ran) == len(every) and upper == min(every)
    elif len(ran) < len(every):
        assert upper < difference - tol.eig_tol * scale


def _scaled_analyses(seed, c):
    """Every input of the analyses below drawn with ``seed``, then times c: the
    operators and spanning vectors of ``images`` (douglas, sum, membership),
    ``calculus``, ``graph --modulus`` and ``system --alpha``, the polynomial
    coefficients, the edge weights and alpha.
    Returns the dimensions, ranks, notes and refusals, the margins as
    {name: (value, degree j)}, a margin scaling by c^j, and the descent's eigh
    counts by size."""
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    d = int(rng.integers(3, 8))
    exact, margins = {}, {}
    r = int(rng.integers(1, d))
    B = cplx(d, r) @ cplx(r, d)
    for name, A in (("included", B @ cplx(d, d)), ("outside", cplx(d, d))):
        try:
            margins[f"douglas_{name}"] = (ss.douglas_factor(c * A, c * B)[1], 0)
        except ss.errors.RangeNotIncluded:
            exact[f"douglas_{name}"] = "refused"
    psd = []
    for rank in rng.integers(1, d + 1, size=int(rng.integers(1, 4))):
        X = cplx(d, rank)
        psd.append(X @ X.conj().T)
    image, rep = ss.sum_of_images(ss.OperatorFamily(d, [c * M for M in psd],
                                                    ["nonnegative"] * len(psd)))
    exact.update(image_dim=image.dim, sum_image_dim=rep.extras["sum_image_dim"],
                 sum_gap_note=rep.entry("nonnegative_sum_gap").note)
    margins["nonnegative_sum_gap"] = (rep.margin("nonnegative_sum_gap"), 1)
    definite = [c * (M + np.eye(d) / 2) for M in psd]
    margins["membership_floor"] = (np.linalg.eigvalsh(sum(M @ M for M in definite))[0], 2)
    try:
        margins["membership_residual"] = (
            ss.m_membership_identity(ss.OperatorFamily(d, definite)), 1)
        exact["membership_refused"] = False
    except ss.errors.NotInvertible:
        exact["membership_refused"] = True
    pair = ss.halmos_decompose(*(ss.from_spanning(c * cplx(d, rank))
                                 for rank in rng.integers(1, d, size=2)))
    fs = [ss.ScalarFunction.from_poly(c * cplx(3)) for _ in range(4)]
    exact["k_dim"] = pair.k_dim
    try:
        rep = ss.calculus_report(pair, *fs)[1]
        for entry in rep.entries:
            margins[f"calculus_{entry.criterion}"] = (entry.margin, int(entry.note != "vacuous"))
        exact["calculus_sum_at_one_nonzero"] = rep.extras["sum_at_one_nonzero"]
        exact["calculus_refused"] = False
    except HypothesisViolated:
        exact["calculus_refused"] = True
    n = int(rng.integers(2, 5))
    spans = [cplx(d, rank) for rank in rng.integers(1, d + 1, size=n)]
    S = ss.SubspaceSystem(d, [ss.from_spanning(c * X) for X in spans])
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    weights = rng.uniform(0.25, 4.0, size=len(pairs))
    G = ss.WeightedGraph(n, [(i, j, c * w) for (i, j), w in zip(pairs, weights)])
    with _counting_eigh(collections.Counter()) as sizes:
        rep = ss.complement_graph_margin(S, G, modulus=True, seed=seed % 7)
    for entry in rep.entries:
        exact[entry.criterion] = entry.note
        margins[entry.criterion] = (entry.margin, int(entry.note != "vacuous"))
    rep = ss.sum_gap(S)
    exact.update(sum_dim=rep.extras["sum_dim"], kernel_dim=rep.extras["kernel_dim"])
    margins["sum_gap"] = (rep.margin("sum_gap"), 0)
    rep = ss.linear_combination_check(S, c * rng.uniform(0.5, 2.0, size=n))
    margins["combination_bound_slack"] = (rep.margin("combination_bound_slack"), 1)
    margins["epsilon"] = (rep.extras["epsilon"], 1)
    margins["lambda_max"] = (rep.extras["lambda_max"], 1)
    margins["independence_epsilon"] = (rep.extras["independence_epsilon"], 0)
    return exact, margins, sizes


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(-30, 30), st.integers(0, 2 ** 32 - 1))
def test_scaling_every_input_by_a_power_of_two_scales_each_margin(k, seed):
    """The criteria speak of operators and subspaces, so multiplying every
    operator, spanning vector, weight and alpha by 2^k moves no dimension,
    rank, kernel dimension, refusal or eigh count of the modulus descent, and
    multiplies each margin by 2^(jk), j its degree, within 1e-12 relative.
    The refusals that may move are absolute on purpose: membership's
    invertibility check refuses exactly when lambda_min(sum a_k^2) is at most
    margin_tol, and the F != 0 hypothesis of ``calculus``, with F of degree 2,
    may refuse at a smaller scale, never at a larger one.  The range condition
    of ``douglas_factor`` is relative, so it refuses no included range at any
    scale."""
    exact, margins, sizes = _scaled_analyses(seed, 1.0)
    scaled_exact, scaled_margins, scaled_sizes = _scaled_analyses(seed, 2.0 ** k)
    refused = scaled_exact.pop("membership_refused")
    assert exact.pop("membership_refused") is False
    assert refused == (scaled_margins["membership_floor"][0] <= ss.DEFAULT_TOL.margin_tol)
    calculus = exact.pop("calculus_refused"), scaled_exact.pop("calculus_refused")
    assert calculus[0] == calculus[1] or (k < 0 and calculus == (False, True))
    dropped = {"membership_residual"} if refused else set()
    if any(calculus):
        dropped |= {name for name in margins if name.startswith("calculus_")}
        for analysis in (exact, scaled_exact):
            analysis.pop("calculus_sum_at_one_nonzero", None)
    assert scaled_exact == exact and scaled_sizes == sizes
    assert scaled_margins.keys() == margins.keys() - dropped
    for name, (value, degree) in scaled_margins.items():
        expected = margins[name][0] * 2.0 ** (degree * k)
        assert value == expected or abs(value - expected) <= 1e-12 * abs(expected), name


def _scalar_quadratic_roots(T, D):
    """The per-x stable quadratic formula: q with the sign that makes |q|
    largest, then D/q; both 0 when T = D = 0 (scaled so T^2 cannot overflow)."""
    scale = max(abs(T), np.sqrt(abs(D)))
    if scale == 0:
        return [0j, 0j]
    t = T / scale
    root = np.sqrt(complex(t * t - 4.0 * (D / scale) / scale))
    q = scale * (t + root if abs(t + root) >= abs(t - root) else t - root) / 2.0
    return [q, D / q]


coefficient = st.one_of(st.just(0.0), st.builds(
    lambda e, phase: np.exp(e) * np.exp(1j * phase),
    st.floats(np.log(1e-3), np.log(1e150)), st.floats(0.0, 2 * np.pi)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(planted_pairs(), st.lists(st.lists(coefficient, min_size=1, max_size=4),
                                 min_size=4, max_size=4))
def test_spectrum_of_b_matches_per_point_roots(case, coefficients):
    B1, B2 = case[:2]
    d = len(B1)
    dec = ss.halmos_decompose(ss.Subspace(d, B1), ss.Subspace(d, B2))
    fs = [ss.ScalarFunction.from_poly(c) for c in coefficients]
    f1, f2, f3, f4 = fs
    expected = []
    for x in dec.a_eigenvalues:
        T = f1(x) + f2(x) + x * (f3(x) + f4(x))
        D = (1.0 - x) * (f1(x) * f2(x) - x * f3(x) * f4(x))
        expected.extend(_scalar_quadratic_roots(T, D))
    got = ss.spectrum_of_b(dec, *fs)[d - 2 * dec.k_dim:]  # after the flat components
    assert len(got) == len(expected) == 2 * dec.k_dim
    for g, e in zip(got, expected):
        assert g == e or abs(g - e) <= 1e-15 * abs(e)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(planted_pairs(), st.lists(st.integers(1, 4), min_size=4, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_closed_range_margin_matches_svd_of_b(case, degrees, seed):
    B1, B2 = case[:2]
    d = len(B1)
    dec = ss.halmos_decompose(ss.Subspace(d, B1), ss.Subspace(d, B2))
    rng = np.random.default_rng(seed)
    fs = [ss.ScalarFunction.from_poly(rng.normal(size=n) + 1j * rng.normal(size=n))
          for n in degrees]
    try:
        got = ss.calculus_report(dec, *fs)[1].margin("closed_range_margin")
    except HypothesisViolated:
        assume(False)
    s = np.linalg.svd(ss.build_b(dec, *fs), compute_uv=False)
    r = int(np.sum(s > RANK_TOL * s[0])) if s[0] > 0 else 0
    expected = s[r - 1] if r else np.inf
    assert got == expected or abs(got - expected) <= 1e-12 * s[0]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(0, 1000), st.floats(0.15, 0.85), st.integers(1, 2),
       st.floats(1.0, 100.0), st.floats(0.0, 2.0))
def test_calculus_refuses_roots_between_grid_points(k, offset, multiplicity, scale, slope):
    # F = f1 f2 with f1 = scale (x - root)^m and f2 = 1 + slope x >= 1: at every
    # grid point k/1001, |F| >= (0.15/1001)^2 > 1e-8, yet F(root) = 0
    root = (k + offset) / 1001
    rng = np.random.default_rng(k)
    planes = ss.halmos_decompose(
        *[ss.from_spanning(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
          for _ in range(2)])
    f1 = ss.ScalarFunction.from_poly(
        scale * np.polynomial.polynomial.polyfromroots([root] * multiplicity))
    f2 = ss.ScalarFunction.from_poly([1.0, slope])
    zero = ss.ScalarFunction.constant(0.0)
    with pytest.raises(HypothesisViolated, match=r"vanishes on \[0,1\)"):
        ss.calculus_report(planes, f1, f2, zero, zero)


@st.composite
def operator_families(draw):
    """n = 1-3 random complex d x d operators, d = 1-5, of norm 0.1-2."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(n):
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(M * rng.uniform(0.1, 2.0) / np.linalg.norm(M, 2))
    return ss.OperatorFamily(d, mats)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(operator_families(), st.integers(1, 4), st.sampled_from([1.0, 2.0, 3.5, np.inf]))
def test_p_radius_matches_per_word_norms(F, depth, p):
    d = F.ambient_dim
    A = [np.eye(d) - M for M in F.members]
    expected = []
    for k in range(1, depth + 1):
        norms = []
        for word in itertools.product(A, repeat=k):  # the first factor applied first
            M = np.eye(d, dtype=complex)
            for Ai in word:
                M = Ai @ M
            norms.append(np.linalg.norm(M, 2))
        norms = np.array(norms)
        top = norms.max()
        expected.append(top ** (1.0 / k) * np.mean((norms / top) ** p) ** (1.0 / (p * k)))
    got, _ = ss.p_radius(F, p=p, depth=depth)
    assert len(got) == depth
    for g, e in zip(got, expected):
        assert g == e or abs(g - e) <= 1e-15 * abs(e)


def _unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_douglas_factor_matches_pinv(d, r, seed):
    # B of rank r <= d with singular values in [0.1, 10] and Im A inside Im B
    rng = np.random.default_rng(seed)
    r = min(r, d)
    s = np.exp(rng.uniform(np.log(0.1), np.log(10.0), r))
    B = (_unitary(rng, d)[:, :r] * s) @ _unitary(rng, d)[:, :r].conj().T
    A = B @ (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    C, lam = ss.douglas_factor(A, B)
    expected = np.linalg.pinv(B, rcond=RANK_TOL) @ A
    norm = np.linalg.norm(expected, 2)
    assert np.linalg.norm(C - expected, 2) <= 1e-12 * norm
    assert abs(lam - norm ** 2) <= 1e-12 * norm ** 2


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(QR_MIN_SIDE + 1, 64), st.integers(QR_MIN_SIDE + 1, 64),
       st.sampled_from([0.0, 1e-11, 1e-9, 1e-7]), st.sampled_from([1.0, 1e-6, 1e-12]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_from_spanning_by_qr_matches_the_svd(m, n, ratio, size, scaled, seed):
    # V = X diag(s) Y* of size * [1, k - 1 values in [0.5, 1], ratio on the rest]:
    # every singular value sits 10x or more from the cutoff, with or without scale
    rng = np.random.default_rng(seed)
    p = min(m, n)
    k = int(rng.integers(1, p + 1))
    s = size * np.concatenate([[1.0], rng.uniform(0.5, 1.0, k - 1), np.full(p - k, ratio)])
    V = (_unitary(rng, m)[:, :p] * s) @ _unitary(rng, n)[:, :p].conj().T
    scale = 1.0 if scaled else None
    B = ss.from_spanning(V, scale=scale).basis
    U, sv, _ = np.linalg.svd(V, full_matrices=False)
    r = int(np.sum(sv > RANK_TOL * max(sv[0], scale or 0.0)))
    assert B.shape == (m, r)
    assert np.abs(B.conj().T @ B - np.eye(r)).max(initial=0.0) <= 1e-13
    if r:  # a kept sigma_r fixes its direction only to eps * sigma_1 / sigma_r (Wedin),
        # in the oracle's SVD as in the QR, so tall inputs keeping 1e-9 get that slack
        dist = np.linalg.norm(B @ B.conj().T - U[:, :r] @ U[:, :r].conj().T, 2)
        assert dist <= 1e-12 + 1e-14 * sv[0] / sv[r - 1]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_sum_of_images_matches_the_root_svd(d, n, rank, seed):
    """The image against the SVD of V sqrt(max(w, 0)) V*, the route through
    the square root that it replaced, on families whose ranges span a planted
    subspace of dimension rank <= d.  The dimensions must agree everywhere.
    Where the root has round-off directions above the cutoff (the open rank
    defect of rank-deficient families), those directions are fixed by
    round-off in both, so the projectors are compared where the oracle finds
    the planted rank."""
    rng = np.random.default_rng(seed)
    rank = min(rank, d)
    Q = _unitary(rng, d)[:, :rank]
    mats = []
    for _ in range(n):
        M = Q @ (rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d)))
        mats.append(M @ M.conj().T if rng.random() < 0.5 else M)
    F = ss.OperatorFamily(d, mats)
    S2 = sum(M @ M.conj().T for M in mats)
    w, V = np.linalg.eigh((S2 + S2.conj().T) / 2)
    U, s, _ = np.linalg.svd((V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T)
    dim = int(np.sum(s > RANK_TOL * s[0]))
    image, report = ss.sum_of_images(F)
    assert image.dim == dim
    assert np.allclose(image.basis.conj().T @ image.basis, np.eye(dim), atol=1e-12)
    if dim == rank:
        P = U[:, :dim] @ U[:, :dim].conj().T
        assert np.linalg.norm(image.projector() - P, 2) <= 1e-12


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_membership_residual_matches_the_double_sum(d, n, seed):
    # nonnegative a_k with spectra in [0.5, 1.5]; the oracle is the n^2-product
    # sum_ij a_i^2 S^{-3/2} a_j^2 that S S^{-3/2} S replaced
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n):
        Q = _unitary(rng, d)
        mats.append((Q * rng.uniform(0.5, 1.5, d)) @ Q.conj().T)
    S = sum(M @ M for M in mats)
    w, V = np.linalg.eigh((S + S.conj().T) / 2)
    half, inv32 = (V * np.sqrt(w)) @ V.conj().T, (V * w ** -1.5) @ V.conj().T
    double_sum = sum((Mi @ Mi) @ inv32 @ (Mj @ Mj) for Mi in mats for Mj in mats)
    expected = np.linalg.norm(half - double_sum, 2)
    got = ss.m_membership_identity(ss.OperatorFamily(d, mats, ["nonnegative"] * n))
    assert got <= 1e-12 and expected <= 1e-12
    assert abs(got - expected) <= 1e-12


def _orthonormal(rng, d, r):
    return np.linalg.qr(rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))[0]


def _projector_of_span(M):
    """Projector onto the column span of M, rank from a relative SVD cutoff."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    U = U[:, :int(np.sum(s > RANK_TOL * s[0]))]
    return U @ U.conj().T


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(3, 8), st.integers(3, 4), st.integers(0, 2 ** 32 - 1))
def test_reduce_system_keeps_the_sum_on_planted_dependencies(d, n, seed):
    """Members of dimension 1-2 where H1 and H2 share a line and every later
    member holds a vector of the sum of the members before it."""
    rng = np.random.default_rng(seed)
    line = _orthonormal(rng, d, 1)
    spans = [np.hstack([line, _orthonormal(rng, d, 1)]) for _ in range(2)]
    for _ in range(n - 2):
        earlier = np.hstack(spans)
        dependent = earlier @ (rng.normal(size=(earlier.shape[1], 1)) + 0j)
        spans.append(np.hstack([dependent, _orthonormal(rng, d, int(rng.integers(0, 2)))]))
    S = ss.SubspaceSystem(d, [ss.from_spanning(X) for X in spans])
    try:
        res = ss.reduce_system(S)
    except GapTooSmall:
        assume(False)
    assert res.sum_preserved and res.certificate_slack >= -1e-8
    reduced = np.hstack([m.basis for m in res.reduced.members])
    original = _projector_of_span(np.hstack(spans))
    assert np.linalg.norm(_projector_of_span(reduced) - original, 2) <= 1e-8


def _overlapping_system(rng, d, n):
    """n members of dimension 1-3 inside a planted proper subspace U of C^d,
    so that sum P has a kernel; every member after the first holds the first
    member's first vector, and a member may repeat an earlier one."""
    U = _orthonormal(rng, d, int(rng.integers(1, d)))
    spans = [U @ _orthonormal(rng, U.shape[1], int(rng.integers(1, min(3, U.shape[1]) + 1)))]
    for _ in range(n - 1):
        if rng.integers(4) == 0:
            spans.append(spans[int(rng.integers(len(spans)))])
        else:
            extra = U @ (rng.normal(size=(U.shape[1], int(rng.integers(0, 3)))) + 0j)
            spans.append(np.hstack([spans[0][:, :1], extra]))
    return ss.SubspaceSystem(d, [ss.from_spanning(X) for X in spans])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(2, 7), st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_system_dilation_spectrum_matches_the_dense_dilation(d, n, seed):
    """The CLI's closed form {0}^{(n-1)d} U sigma(sum P)/n against the
    ascending eigenvalues of the dense P_delta P_Htilde P_delta."""
    system = ss.system_to_json(_overlapping_system(np.random.default_rng(seed), d, n))
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with open(f"{tmp}/members.json", "w") as fh:
            json.dump(system, fh)
        with contextlib.redirect_stdout(out):
            assert main(["system", "--members", f"{tmp}/members.json"]) == 0
    got = np.array(json.loads(out.getvalue())["dilation_spectrum"])
    P_delta, P_H = systems.dilation(ss.system_from_json(system))  # as the CLI decodes it
    dense = np.linalg.eigvalsh(P_delta @ P_H @ P_delta)
    assert got.shape == dense.shape and np.max(np.abs(got - dense)) <= 1e-12


def _dilated_reduce_preserving_sum(S, tol=ss.DEFAULT_TOL):
    """``reduce_preserving_sum`` built in C^{nd}: the block copies Htilde_k,
    Delta0 + Htilde_1 re-orthonormalized from diag(B_k) times the kernel of
    (I - P_1)[B_1 ... B_n], its own gap of the embedded system and its own
    weights, and each reduced block pulled back by its rows.  Returns the
    result and that gap."""
    n, d = len(S), S.ambient_dim
    tilde = []
    for k, m in enumerate(S.members):
        B = np.zeros((n * d, m.dim), dtype=complex)
        B[k * d:(k + 1) * d] = m.basis
        tilde.append(ss.Subspace(n * d, B))
    summap = np.hstack([m.basis for m in S.members])
    _, s, Vh = np.linalg.svd((np.eye(d) - S.members[0].projector()) @ summap)
    N = Vh.conj().T[:, numerics.numerical_rank(s, tol, scale=1.0):]
    G1 = ss.from_spanning(np.hstack([t.basis for t in tilde]) @ N, n * d, tol)
    embedded = ss.SubspaceSystem(n * d, [G1] + tilde[1:])
    gap, _ = numerics.gram_gap(np.hstack([m.basis for m in embedded.members]), tol)
    inner, weights, eps, rhs, slack = reduction._certified_core(
        embedded, ss.sum_span(embedded.members, tol), gap, tol)
    reduced = [S.members[0]] + [ss.from_spanning(M.basis[k * d:(k + 1) * d], d, tol, scale=1.0)
                                for k, M in enumerate(inner[1:], start=1)]
    return reduction._assemble(reduced, weights, eps, rhs, slack,
                               ss.sum_span(S.members, tol), tol), gap


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(3, 8), st.integers(2, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_reduce_preserving_sum_matches_the_dilated_construction(d, n, overlapping, seed):
    """On random systems and on overlapping ones, the reduction in the
    coordinates of diag(B_k) gives what the C^{nd} construction gave, with the
    same weights; the construction's own gap is 1 (E_1 lies in Delta0 +
    Htilde_1), so eps is the cap 1 - 10 eig_tol."""
    rng = np.random.default_rng(seed)
    S = _overlapping_system(rng, d, n) if overlapping else ss.SubspaceSystem(
        d, [ss.from_spanning(_orthonormal(rng, d, int(rng.integers(1, d)))) for _ in range(n)])
    old, gap = _dilated_reduce_preserving_sum(S)
    assert 1.0 - 1e-12 <= gap < np.inf
    new = ss.reduce_preserving_sum(S)
    assert new.epsilon == old.epsilon == 1.0 - 10 * ss.DEFAULT_TOL.eig_tol
    assert [m.dim for m in new.reduced.members] == [m.dim for m in old.reduced.members]
    for a, b in zip(new.reduced.members, old.reduced.members):
        assert np.linalg.norm(a.projector() - b.projector(), 2) <= 1e-10
    for name in ("rhs", "certificate_slack"):
        assert abs(getattr(new, name) - getattr(old, name)) <= 1e-10, name
    assert new.weights == old.weights
    assert new.sum_preserved == old.sum_preserved
    assert [(e.criterion, e.verdict) for e in new.report.entries] == \
        [(e.criterion, e.verdict) for e in old.report.entries]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(2, 5),
       st.sampled_from([1.0, 1e-4, 1e-7, 0.0]), st.integers(0, 2 ** 32 - 1))
def test_sum_as_two_on_planted_rank_deficient_blocks(k, extra, n, tilt, seed):
    """n members of dimension 1-2 inside a planted k-dimensional W of
    C^(k + extra), their dimensions summing past k, plus a line x + tilt z
    (x in W, z a unit vector orthogonal to W): the sum is W + span(z) when
    tilt > 0, with a singular value of the stacked bases near tilt, and W
    when tilt = 0.  M1 and M2 split exactly that sum."""
    rng = np.random.default_rng(seed)
    d = k + extra
    Q = _orthonormal(rng, d, d)
    W, z = Q[:, :k], Q[:, k:k + 1]
    members = [W @ (rng.normal(size=(k, r)) + 1j * rng.normal(size=(k, r)))
               for r in rng.integers(1, min(k, 2) + 1, size=n)]
    members.append(W @ _orthonormal(rng, k, 1) + tilt * z)
    assume(sum(min(m.shape[1], k) for m in members) > k)
    target = np.hstack([W, z]) if tilt else W
    rank = np.linalg.matrix_rank(np.hstack(members + [target]))  # the planted sum
    assume(rank == target.shape[1])
    S = ss.SubspaceSystem(d, [ss.from_spanning(X) for X in members])
    m1, m2, report = ss.sum_as_two(ss.BlockSystem(lambda _: S, len(S)), 1)
    assert m1[0].dim + m2[0].dim == rank
    assert report.extras["rank_equality_all_blocks"]
    P = target @ target.conj().T
    for M in (m1[0], m2[0]):
        assert np.linalg.norm(M.basis - P @ M.basis, 2) <= 1e-8


def _sum_as_two_oracle(system, tol=ss.DEFAULT_TOL):
    """The per-block graph construction as ``sum_as_two`` ran it on one block
    at a time: (M1, M2, eps) and the rank check of M1 + M2 against the sum."""
    d = system.ambient_dim
    U, s, _ = numerics.thin_svd(np.hstack([m.basis for m in system.members]))
    r = numerics.numerical_rank(s, tol)
    if r == 0:
        M1, M2, eps = ss.zero_subspace(d), ss.zero_subspace(d), 0.0
    else:
        lam, U = s[r - 1::-1], U[:, r - 1::-1]
        eps = float(lam[(r + 1) // 2 - 1])
        small = lam < eps - tol.rank_tol * lam[-1]
        U_small, U_big, n_small = U[:, small], U[:, ~small], int(small.sum())
        M1, M2 = ss.Subspace(d, U_big), ss.zero_subspace(d)
        if n_small:
            bvals = lam[small] / lam[small].max()
            M2 = ss.from_spanning(U_small * bvals + U_big[:, :n_small] * (1.0 - bvals), d, tol)
    return M1, M2, eps, equal(ss.sum_span([M1, M2], tol), ss.sum_span(system.members, tol), tol)


@st.composite
def block_recipes(draw):
    """2-3 block shapes (ambient dimension, member dimensions) cycled over
    1-12 blocks, a seed, and the block whose members are all zero-dimensional
    (none when it is past the horizon)."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 5), st.lists(st.integers(1, 3), min_size=1,
                                                                  max_size=4)),
                           min_size=2, max_size=3))
    K = draw(st.integers(1, 12))
    return shapes, K, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, K + 1))


def _recipe_block(rng, d, dims, zero):
    """Members of the given dimensions (capped at d) inside a random subspace W
    of C^d, of a random dimension between the largest member and d: random
    subspaces of W, or coordinate subspaces (tied singular values); the last
    member repeats the first one half of the time."""
    dims = [0] * len(dims) if zero else [min(r, d) for r in dims]
    k = int(rng.integers(max(dims), d + 1)) if max(dims) else 0
    coordinate = rng.random() < 0.3
    W = (np.eye(d, dtype=complex)[:, rng.permutation(d)[:k]] if coordinate
         else _orthonormal(rng, d, k))
    members = [(W[:, rng.permutation(k)[:r]] if coordinate else W @ _orthonormal(rng, k, r))
               if r else np.zeros((d, 0)) for r in dims]
    if len(members) > 1 and rng.random() < 0.5:
        members[-1] = members[0]
    return ss.SubspaceSystem(d, [ss.Subspace(d, X) for X in members])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(block_recipes())
def test_stacked_sum_as_two_matches_the_per_block_construction(recipe):
    """Block shapes cycling with k, ranks and numbers of small directions
    changing with k, a zero-rank block and repeated members: the stacked
    ``sum_as_two`` gives exactly the per-block epsilons, dimensions and
    rank check, the per-block M1 and M2, and M1 + M2 spans the sum of each
    block."""
    shapes, K, seed, zero_at = recipe
    rng = np.random.default_rng(seed)
    blocks = [_recipe_block(rng, *shapes[k % len(shapes)], zero=k == zero_at)
              for k in range(1, K + 1)]
    BS = ss.BlockSystem(lambda k: blocks[k - 1], max(len(S) for S in blocks))
    m1, m2, report = ss.sum_as_two(BS, K)
    oracle = [_sum_as_two_oracle(S) for S in blocks]
    assert report.extras["epsilons"] == [eps for _, _, eps, _ in oracle]
    assert [M.dim for M in m1] == [M1.dim for M1, _, _, _ in oracle]
    assert [M.dim for M in m2] == [M2.dim for _, M2, _, _ in oracle]
    assert report.extras["rank_equality_all_blocks"] == all(ok for *_, ok in oracle)
    for S, M1, M2, (O1, O2, _, _) in zip(blocks, m1, m2, oracle):
        for got, ref in ((M1, O1), (M2, O2)):
            assert np.linalg.norm(got.projector() - ref.projector(), 2) <= 1e-12
        d = S.ambient_dim
        P, Q = (_projector_of_span(X) if np.any(X) else np.zeros((d, d))
                for X in (np.hstack([M1.basis, M2.basis]), np.hstack([m.basis for m in S.members])))
        assert np.linalg.norm(P - Q, 2) <= 1e-8


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 8), st.integers(1, 10), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 10))
def test_stacked_gram_gap_matches_the_per_factor_calls(d, m, K, seed, zero_at):
    """K factors C = U diag(s) V* of shape d x m whose singular values s are
    drawn from 0, [0.1, 3] and half and twice the cutoff rank_tol * max(s_1, 1),
    with one all-zero factor when zero_at < K: the stacked ``gram_gap`` gives
    each factor bit for bit what its own call gives, the kernel holds the d - r
    directions with no value above the cutoff, the gap is the square of the
    smallest value above it, and the all-zero factor gives (inf, d)."""
    rng = np.random.default_rng(seed)
    p = min(d, m)
    kind = rng.integers(0, 4, size=(K, p))  # 0, big, cutoff / 2, 2 cutoff
    if zero_at < K:
        kind[zero_at] = 0
    big = rng.uniform(0.1, 3.0, size=(K, p))
    cutoff = RANK_TOL * np.maximum(np.where(kind == 1, big, 0.0).max(axis=1, initial=0.0), 1.0)
    planted = np.select([kind == 1, kind == 2, kind == 3],
                        [big, cutoff[:, None] / 2, 2 * cutoff[:, None]], 0.0)
    stack = np.stack([(_orthonormal(rng, d, p) * s) @ _orthonormal(rng, m, p).conj().T
                      for s in planted])
    tol = ss.DEFAULT_TOL
    gaps, kernel_dims = numerics.gram_gap(stack, tol)
    alone = [numerics.gram_gap(C, tol) for C in stack]
    assert gaps.tolist() == [gap for gap, _ in alone]
    assert kernel_dims.tolist() == [dim for _, dim in alone]
    above = planted > cutoff[:, None]
    assert kernel_dims.tolist() == (d - above.sum(axis=1)).tolist()
    expected = np.where(above, planted, np.inf).min(axis=1, initial=np.inf) ** 2
    assert np.allclose(gaps, expected, rtol=0.0, atol=1e-13)  # inf where nothing is above
    if zero_at < K:
        assert alone[zero_at] == (np.inf, d)
    gaps4, kernel_dims4 = numerics.gram_gap(stack[None], tol)  # a (1, K, d, m) stack
    assert gaps4.tolist() == [gaps.tolist()] and kernel_dims4.tolist() == [kernel_dims.tolist()]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(planted_pairs())
def test_two_member_sum_gap_is_one_minus_the_friedrichs_cosine(case):
    """On a pair, P1 + P2 has the eigenvalues 1 +- cos(theta) of each generic
    angle, 2 on the meet and 1 elsewhere on the sum, so with a generic angle
    (theta_F < pi/2) ``sum_gap`` is 1 - cos(theta_F); ``reduce_system`` takes
    that gap as its eps (clamped below 1), and ``kernel_dim`` is the
    codimension of the sum span."""
    B1, B2, _, _ = case
    d = len(B1)
    S = ss.SubspaceSystem(d, [ss.Subspace(d, B1), ss.Subspace(d, B2)])
    report = ss.sum_gap(S)
    gap = report.margin("sum_gap")
    angle = ss.friedrichs_angle(*S.members)
    if angle < np.pi / 2:
        assert abs(gap - (1.0 - np.cos(angle))) <= 1e-12
    else:
        assert gap >= 1.0 - 1e-12
    assert report.extras["kernel_dim"] == d - ss.sum_span(S.members).dim
    tol = ss.DEFAULT_TOL
    try:
        eps = ss.reduce_system(S).epsilon
    except GapTooSmall:
        assert not tol.margin_tol < gap < np.inf
    else:
        assert eps == min(gap, 1.0 - 10 * tol.eig_tol)


def _run_cli(argv):
    """Exit code of one in-process CLI run, checking its JSON stdout; a
    traceback fails the test.  Overflow warnings of huge inputs are muted."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), np.errstate(all="ignore"):
        code = main(argv)
    report = json.loads(out.getvalue())
    assert code in (0, 2, 3), code
    if code:
        assert set(report) == {"error"} and set(report["error"]) == {"type", "message"}
    return code


def _mutate_operator_file(data, mutation, k):
    """One mutation of an operator file, at matrix k."""
    mats, kinds = data["matrices"], data["kind"]
    if mutation == "drop":
        del mats[k], kinds[k]
    elif mutation == "duplicate":
        mats.append(mats[k])
        kinds.append(kinds[k])
    elif mutation == "empty_list":
        data["matrices"], data["kind"] = [], []
    elif mutation == "empty_matrix":
        mats[k] = []
    elif mutation == "empty_row":
        mats[k][0] = []
    elif mutation == "nest_deeper":
        mats[k][0][0] = [mats[k][0][0]]
    elif mutation == "nest_shallower":
        mats[k] = mats[k][0]
    elif mutation == "matrices_not_list":
        data["matrices"] = mats[k]
    elif mutation in ("nan", "string", "bool", "huge"):
        mats[k][0][0][0] = {"nan": float("nan"), "string": "1", "bool": True,
                            "huge": 1e300}[mutation]
    elif mutation == "ambient_dim":
        data["ambient_dim"] += 1
    elif mutation == "ambient_dim_type":
        data["ambient_dim"] = str(data["ambient_dim"])
    return data


OPERATOR_MUTATIONS = ["none", "drop", "duplicate", "empty_list", "empty_matrix",
                      "empty_row", "nest_deeper", "nest_shallower", "matrices_not_list",
                      "nan", "string", "bool", "huge", "ambient_dim", "ambient_dim_type"]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(operator_families(), st.sampled_from(["nonnegative", "general"]),
       st.sampled_from(OPERATOR_MUTATIONS), st.integers(0, 2),
       st.sampled_from(["douglas", "sum", "pradius", "membership"]))
def test_images_on_mutated_operator_files_exits_0_2_or_3(F, kind, mutation, k, analysis):
    if kind == "nonnegative":  # Hermitian positive semidefinite members
        F = ss.OperatorFamily(F.ambient_dim, [M @ M.conj().T for M in F.members])
    data = family_to_json(F)
    data["kind"] = [kind] * len(F.members)
    data = _mutate_operator_file(data, mutation, k % len(F.members))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/ops.json"
        with open(path, "w") as fh:
            json.dump(data, fh)
        _run_cli(["images", "--operators", path, "--analysis", analysis, "--depth", "3"])


POLYNOMIAL_TEXT = st.one_of(
    st.sampled_from(["", ",", "1,,2", "abc", "nan", "inf", "-inf", "1e999", "1e300",
                     "1e300,1e300", "1j", "(1+2j)", "1+", "0x10", " 3 ", "True", "None",
                     "1_0", "1e-320", "-1", "2,-3,1", "0,0,0", "1e150,1e150,1e150"]),
    st.text(alphabet="0123456789.,-+eEjnaif() ", max_size=12))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.lists(POLYNOMIAL_TEXT, min_size=4, max_size=4))
def test_calculus_on_mutated_polynomials_exits_0_2_or_3(texts):
    rng = np.random.default_rng(7)
    paths = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in "ab":  # two generic planes in C^5
            H = ss.from_spanning(rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
            paths.append(f"{tmp}/{name}.json")
            with open(paths[-1], "w") as fh:
                json.dump(ss.subspace_to_json(H), fh)
        _run_cli(["calculus", "--a", paths[0], "--b", paths[1]]
                 + [f"--f{i}={text}" for i, text in enumerate(texts, start=1)])


@st.composite
def spanning_sets(draw):
    """n = 1-3 random spanning sets in C^d, d = 1-6, of 1-d columns each."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
            for r in draw(st.lists(st.integers(1, d), min_size=n, max_size=n))]


def _mutate_subspace_file(data, mutation):
    """One mutation of a subspace file (or of a system file's top level)."""
    cols = data.get("vectors")
    if mutation == "drop_column":
        del cols[0]
    elif mutation == "duplicate_column":
        cols.append(cols[0])
    elif mutation == "empty_row":
        cols[0] = []
    elif mutation == "short_row":
        del cols[0][0]
    elif mutation == "nest_deeper":
        cols[0][0] = [cols[0][0]]
    elif mutation == "nest_shallower":
        data["vectors"] = cols[0]
    elif mutation in ("nan", "string", "bool", "huge", "huge_int"):
        cols[0][0][0] = {"nan": float("nan"), "string": "1", "bool": True,
                         "huge": 1e300, "huge_int": 10 ** 400}[mutation]
    elif mutation == "ambient_dim":
        data["ambient_dim"] += 1
    elif mutation == "ambient_dim_type":
        data["ambient_dim"] = [data["ambient_dim"]]
    elif mutation == "drop_vectors":
        del data["vectors"]
    elif mutation == "vectors_not_list":
        data["vectors"] = {}
    return data


SUBSPACE_MUTATIONS = ["none", "drop_column", "duplicate_column", "empty_row", "short_row",
                      "nest_deeper", "nest_shallower", "nan", "string", "bool", "huge",
                      "huge_int", "ambient_dim", "ambient_dim_type", "drop_vectors",
                      "vectors_not_list"]
SUBSPACE_COMMANDS = {"pair": [["pair"]],
                     "system": [["system"], ["system", "--alpha", "1,2,3"]],
                     "graph": [["graph"], ["graph", "--modulus"]],
                     "reduce": [["reduce", "--mode", mode]
                                for mode in ("system", "pair", "preserve-sum")]}


@pytest.mark.parametrize("name", list(SUBSPACE_COMMANDS))
def test_subspace_commands_on_mutated_files_exits_0_2_or_3(name):
    """Every mutation on each drawn case: ``pair`` reads the first two sets
    as two subspace files and file k is mutated; the other commands read one
    system file, and member k is mutated, or with ``top`` the system's own
    ambient_dim."""

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(spanning_sets(), st.integers(0, 2), st.booleans(),
           st.sampled_from(SUBSPACE_COMMANDS[name]))
    def run(spans, k, top, command):
        d = spans[0].shape[0]
        clean = [ss.subspace_to_json(ss.from_spanning(X)) for X in spans]
        with tempfile.TemporaryDirectory() as tmp:
            for mutation in SUBSPACE_MUTATIONS:
                members = [copy.deepcopy(clean[i % len(clean)])
                           for i in range(2 if name == "pair" else len(clean))]
                if name == "pair":
                    _mutate_subspace_file(members[k % 2], mutation)
                    files = {"a": members[0], "b": members[1]}
                    argv = ["pair", "--a", f"{tmp}/a.json", "--b", f"{tmp}/b.json"]
                else:
                    system = {"ambient_dim": d, "members": members}
                    if top and mutation.startswith("ambient_dim"):
                        _mutate_subspace_file(system, mutation)
                    else:
                        _mutate_subspace_file(members[k % len(members)], mutation)
                    files = {"members": system}
                    argv = command + ["--members", f"{tmp}/members.json"]
                for file, data in files.items():
                    with open(f"{tmp}/{file}.json", "w") as fh:
                        json.dump(data, fh)
                code = _run_cli(argv)
                assert code == 3 or mutation not in ("drop_vectors", "vectors_not_list")

    run()


@st.composite
def family_files(draw):
    """A valid family file (one_over_k with n <= 8, halmos_accumulating with a
    rate in [0, 1], compact_triple), then one mutation: a missing or non-string
    family, the parameters nested in a params object, an unknown key, a
    negative, float or bool n, a string, NaN or out-of-range rate.  Returns the
    file and the mutation."""
    family = draw(st.sampled_from(["one_over_k", "halmos_accumulating", "compact_triple"]))
    spec = {"family": family}
    if family == "one_over_k" and draw(st.booleans()):
        spec["n"] = draw(st.integers(1, 8))
    elif family == "halmos_accumulating" and draw(st.booleans()):
        spec["rate"] = draw(st.floats(0.0, 1.0))
    mutation = draw(st.sampled_from(FAMILY_MUTATIONS))
    if mutation == "no_family":
        del spec["family"]
    elif mutation == "family_type":
        spec["family"] = draw(st.sampled_from([3, None, True, ["one_over_k"], {"a": 1}]))
    elif mutation == "params_type":
        spec = {"family": spec.pop("family"), "params": spec}
    elif mutation == "unknown_key":
        spec[draw(st.sampled_from(["zzz", "n", "rate"]))] = draw(st.integers(1, 8))
    elif mutation == "bad_n":
        spec["n"] = draw(st.sampled_from([-1, 0, 2.5, True, False, "3"]))
    elif mutation == "bad_rate":
        spec["rate"] = draw(st.sampled_from(["x", float("nan"), 2.0, -0.5, float("inf")]))
    return spec, mutation


FAMILY_MUTATIONS = ["none", "no_family", "family_type", "params_type", "unknown_key",
                    "bad_n", "bad_rate"]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family_files(), st.sampled_from(["blocks", "sum-as-two"]))
def test_family_commands_on_mutated_files_exits_0_2_or_3(file, command):
    spec, mutation = file
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/family.json"
        with open(path, "w") as fh:
            json.dump(spec, fh)
        code = _run_cli([command, "--family-file", path, "--horizon", "5"])
    assert code == {"none": 0, "params_type": 3}.get(mutation, code)
