"""Property tests over hypothesis-drawn inputs (derandomized, fixed budget).

The pair margins of ``pair_criteria`` and ``independent_pair_constants`` are
compared with their d x d projector formulas, evaluated here with plain
numpy on pairs with a planted canonical decomposition; on the same pairs the
values-only kernel ``principal_values`` is compared with ``principal_pairs``.
The modulus-form bracket of ``complement_graph_margin`` is compared with
oracles built here with plain numpy: complement bases from a full SVD of the
spanning vectors, the closed-form lower bound, and a sampled search over
random edge phases, and the gradient and Hessian that drive its descent
with central differences of lambda_min.
The array paths of ``spectrum_of_b`` and ``p_radius`` are compared with the
per-point and per-word loops they replaced.  The ``images`` and
``calculus`` commands are fed mutated operator files and polynomial strings,
``pair``, ``system``, ``graph`` and ``reduce`` mutated subspace and
system files, and ``blocks`` and ``sum-as-two`` mutated family files; each
run must end in exit 0, 2 or 3, never in a traceback.
"""

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
from sumspaces import systems
from sumspaces.cli import main
from sumspaces.subspaces import principal_pairs, principal_values

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
    reports = [ss.pair_criteria(H1, H2), ss.independent_pair_constants(H1, H2)]
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


def _modulus_problem(S, G):
    """Q (None if every complement is 0) and the blocks of the free edges."""
    Q, offs = systems._complement_quadratic(S, G)
    if Q is None:
        return None, []
    edge_blocks = systems._edge_blocks(G, offs)
    support = [e for e, block in enumerate(edge_blocks) if Q[block].any()]
    return Q, [edge_blocks[e] for e in systems._free_edges(G, support)]


def _twisted(Q, blocks, theta):
    """Q(theta) with plain numpy: the block of free edge e times e^{i theta_e}."""
    Qt = Q.copy()
    for (rows, cols), t in zip(blocks, np.exp(1j * theta)):
        Qt[rows, cols] *= t
        Qt[cols, rows] *= np.conj(t)
    return Qt


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(graph_systems().filter(lambda case: case[2] != "tree" and case[1].n > 2),
       st.integers(0, 2 ** 32 - 1))
def test_modulus_gradient_and_hessian_match_central_differences(case, seed):
    spans, G, _ = case
    S = ss.SubspaceSystem(spans[0].shape[0], [ss.from_spanning(X) for X in spans])
    Q, blocks = _modulus_problem(S, G)
    assume(Q is not None and len(Q) > 1 and blocks)
    theta = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=len(blocks))
    spectrum = np.linalg.eigvalsh(_twisted(Q, blocks, theta))
    assume(spectrum[1] - spectrum[0] > 1e-3)
    lam, grad, hess = systems._modulus_evaluate(Q, blocks, theta, ss.DEFAULT_TOL)
    assert abs(lam - spectrum[0]) <= 1e-12 * max(1.0, np.abs(spectrum).max())

    def lam_min(t):
        return np.linalg.eigvalsh(_twisted(Q, blocks, t))[0]

    h = 1e-4
    steps = h * np.eye(len(theta))
    fd_grad = np.array([(lam_min(theta + s) - lam_min(theta - s)) / (2 * h) for s in steps])
    fd_hess = np.array([[(lam_min(theta + s + t) - lam_min(theta + s - t)
                          - lam_min(theta - s + t) + lam_min(theta - s - t)) / (4 * h * h)
                         for t in steps] for s in steps])
    scale = max(1.0, np.abs(hess).max())
    assert np.abs(grad - fd_grad).max() <= 1e-5 * scale
    assert np.abs(hess - fd_hess).max() <= 1e-5 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("layout", ["orthogonal", "doubled"])
def test_modulus_descent_on_a_multiple_bottom_eigenvalue(layout):
    """On K4, complements that are mutually orthogonal lines make Q(theta)
    constant (no phase is free), and complements b_i (x) C^2 double every
    eigenvalue of Q(theta), so no Hessian exists: the descent must fall back
    to downhill steps, with no division by the zero eigenvalue gap."""
    rng = np.random.default_rng(5)
    if layout == "orthogonal":
        comps = [np.eye(4)[:, [i]] for i in range(4)]
    else:
        b = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        comps = [np.kron(col[:, None] / np.linalg.norm(col), np.eye(2)) for col in b.T]
    d = len(comps[0])
    S = ss.SubspaceSystem(d, [ss.complement(ss.from_spanning(C)) for C in comps])
    G = ss.WeightedGraph.complete(4)
    Q, blocks = _modulus_problem(S, G)
    theta = rng.uniform(0.0, 2 * np.pi, size=len(blocks))
    assert systems._modulus_evaluate(Q, blocks, theta, ss.DEFAULT_TOL)[2] is None
    rep = ss.complement_graph_margin(S, G, modulus=True, seed=3)
    lower, upper, difference = (rep.margin(name) for name in (
        "modulus_form_lower_bound", "modulus_form_epsilon", "difference_form_epsilon"))
    assert np.isfinite(upper) and lower <= upper + 1e-12 and upper <= difference


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
    data = F.to_json()
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
    return data


SUBSPACE_MUTATIONS = ["none", "drop_column", "duplicate_column", "empty_row", "short_row",
                      "nest_deeper", "nest_shallower", "nan", "string", "bool", "huge",
                      "huge_int", "ambient_dim", "ambient_dim_type"]
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
                _run_cli(argv)

    run()


@st.composite
def family_files(draw):
    """A valid family file (one_over_k with n <= 8 at the top level or in
    params, halmos_accumulating with a rate in [0, 1], compact_triple), then
    one mutation: a missing or non-string family, non-object params, an
    unknown key, a negative, float or bool n, a string, NaN or out-of-range
    rate."""
    family = draw(st.sampled_from(["one_over_k", "halmos_accumulating", "compact_triple"]))
    spec, params = {"family": family}, {}
    if family == "one_over_k" and draw(st.booleans()):
        params["n"] = draw(st.integers(1, 8))
    elif family == "halmos_accumulating" and draw(st.booleans()):
        params["rate"] = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        spec["params"] = params
    else:
        spec.update(params)
    target = spec.get("params", spec)
    mutation = draw(st.sampled_from(FAMILY_MUTATIONS))
    if mutation == "no_family":
        del spec["family"]
    elif mutation == "family_type":
        spec["family"] = draw(st.sampled_from([3, None, True, ["one_over_k"], {"a": 1}]))
    elif mutation == "params_type":
        spec["params"] = draw(st.sampled_from([[1], "n", 3, None]))
    elif mutation == "unknown_key":
        target[draw(st.sampled_from(["zzz", "n", "rate"]))] = draw(st.integers(1, 8))
    elif mutation == "bad_n":
        target["n"] = draw(st.sampled_from([-1, 0, 2.5, True, False, "3"]))
    elif mutation == "bad_rate":
        target["rate"] = draw(st.sampled_from(["x", float("nan"), 2.0, -0.5, float("inf")]))
    return spec


FAMILY_MUTATIONS = ["none", "no_family", "family_type", "params_type", "unknown_key",
                    "bad_n", "bad_rate"]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(family_files(), st.sampled_from(["blocks", "sum-as-two"]))
def test_family_commands_on_mutated_files_exits_0_2_or_3(spec, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/family.json"
        with open(path, "w") as fh:
            json.dump(spec, fh)
        _run_cli([command, "--family-file", path, "--horizon", "5"])
