"""Seeded request generators and independent reference checks.

Each workload turns a seed into a list of distinct requests.  A request is
the argv handed to ``sumspaces.cli.main`` plus a check that compares the
decoded report with a reference computed here, with plain numpy, before any
timing starts.  The program only ever sees the generated JSON files.

Input shapes are fixed per workload; the seed draws the random subspaces,
operators, per-request ranks within a fixed grid, and the request order.
Inputs are never screened by running the code under test on them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

MARGIN_TOL = 1e-8   # the CLI default --margin-tol
ATOL = 1e-7         # absolute agreement required of every compared number


@dataclass
class Request:
    """One distinct CLI request and the check of its decoded report."""

    key: str
    argv: list
    check: object  # callable(report: dict) -> list of problem strings


@dataclass
class Workload:
    name: str
    generate: object     # callable(rng, workdir) -> list[Request]
    tail_percentile: float  # fixed per workload; see README
    trace_requests: int  # requests in each pass of a traced run
    dense_reference: bool  # the dense kernel of bench.Reference, not the small one


# ---------------------------------------------------------------- inputs

def _write(workdir, name, data):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))  # dumps uses the C encoder, dump does not
    return path


def _pairs(M):
    """Complex array as nested [re, im] lists."""
    return np.stack([M.real, M.imag], axis=-1).tolist()


def subspace_json(B):
    return {"ambient_dim": B.shape[0], "vectors": _pairs(B.T)}


def system_json(bases):
    return {"ambient_dim": bases[0].shape[0],
            "members": [subspace_json(B) for B in bases]}


def operators_json(mats, kind):
    return {"ambient_dim": mats[0].shape[0],
            "matrices": [_pairs(M) for M in mats],
            "kind": [kind] * len(mats)}


def basis_from_json(data):
    d = int(data["ambient_dim"])
    cols = data.get("vectors", [])
    if not cols:
        return np.zeros((d, 0), dtype=complex)
    return np.array([[complex(re, im) for re, im in col] for col in cols]).T


def random_basis(rng, d, r):
    Z = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return np.linalg.qr(Z)[0]


def random_psd(rng, d, r, lo, hi):
    """X diag(lo..hi) X* with X an orthonormal d x r frame."""
    X = random_basis(rng, d, r)
    return (X * rng.uniform(lo, hi, r)) @ X.conj().T


def _proj(B):
    return B @ B.conj().T


def _span(M):
    """Orthonormal basis of the column space (rank by a 1e-8 relative cut)."""
    if M.shape[1] == 0:
        return M
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, : int(np.sum(s > 1e-8 * s[0]))]


# ---------------------------------------------------------------- checks

def verdict_of(margin):
    if margin > MARGIN_TOL:
        return "satisfied"
    if margin < -MARGIN_TOL:
        return "violated"
    return "borderline"


def _close(got, ref, atol=ATOL, rtol=0.0):
    return abs(got - ref) <= atol + rtol * abs(ref)


def check_report(report, problems):
    """Every margin entry's verdict must follow from its own margin."""
    for name, rep in report.get("margins", {}).items():
        for e in rep["entries"]:
            m = e["margin"]
            if m == "inf":
                ok = e["verdict"] == "satisfied" and "vacuous" in e.get("note", "")
            else:
                ok = e["verdict"] == verdict_of(m)
            if not ok:
                problems.append(f"{name}/{e['criterion']}: verdict {e['verdict']} "
                                f"does not follow from margin {m}")


def check_margins(report, section, refs, problems, atol=ATOL, rtol=0.0):
    """Compare named margins with references; verdicts must match the reference."""
    entries = {e["criterion"]: e for e in report["margins"][section]["entries"]}
    for crit, ref in refs.items():
        e = entries.get(crit)
        if e is None:
            problems.append(f"{section}/{crit}: missing")
            continue
        got = e["margin"]
        if got == "inf" or not _close(got, ref, atol, rtol):
            problems.append(f"{section}/{crit}: margin {got} vs reference {ref:.12g}")
        elif (abs(abs(ref) - MARGIN_TOL) > atol + rtol * abs(ref)
              and e["verdict"] != verdict_of(ref)):
            problems.append(f"{section}/{crit}: verdict {e['verdict']} vs "
                            f"reference {verdict_of(ref)}")


def check_value(what, got, ref, problems, atol=ATOL, rtol=0.0):
    if isinstance(got, str) or not _close(got, ref, atol, rtol):
        problems.append(f"{what}: {got} vs reference {ref!r}")


def check_equal(what, got, ref, problems):
    if got != ref:
        problems.append(f"{what}: {got!r} vs reference {ref!r}")


def _contained(M, B):
    """Largest residual of the columns of M outside span(B)."""
    if M.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(M - _proj(B) @ M, 2))


def _sigma_min_i_minus_p1p2(s):
    """Smallest singular value of I - P1 P2 on a generic 2x2 block with sine s."""
    s2 = s * s
    t = 1.0 + s2
    return math.sqrt(2.0 * s2 * s2 / (t + math.sqrt(t * t - 4.0 * s2 * s2)))


# ---------------------------------------------------------------- pair

def pair_reference(B1, B2):
    """Principal angles from one SVD of B1* B2, and the pair margins."""
    d, r1 = B1.shape
    r2 = B2.shape[1]
    cos = np.clip(np.linalg.svd(B1.conj().T @ B2, compute_uv=False), 0.0, 1.0)
    meet = max(0, r1 + r2 - d)          # generic dimension of H1 & H2
    generic = cos[meet:min(r1, r2)]     # cosines of the generic angles
    k = len(generic)
    c = float(generic[0])
    sines = np.sqrt(1.0 - generic ** 2)
    s = math.sqrt(1.0 - c * c)
    top = float(cos[0])
    return {
        "k_dim": k,
        "friedrichs_angle": math.acos(c),
        "pair_criteria": {
            "c1_one_minus_max_a": s * s,
            "c2_product_spectrum_gap": s * s,
            "c3_product_minus_meet_norm": 1.0 - c,
            "c4_complement_pair": s * s,
            "c5_image_closedness": s,
            "c6_one_minus_product": min(_sigma_min_i_minus_p1p2(float(x)) for x in sines),
        },
        "independent_pair": {
            "product_norm_margin": 1.0 - top,
            "gram_epsilon": 1.0 - top,
            "embedding_epsilon": math.sqrt(max(0.0, 1.0 - top * top)),
        },
    }


def pair_request(key, rng, workdir, d, r1, r2):
    B1, B2 = random_basis(rng, d, r1), random_basis(rng, d, r2)
    a = _write(workdir, f"{key}_a.json", subspace_json(B1))
    b = _write(workdir, f"{key}_b.json", subspace_json(B2))
    ref = pair_reference(B1, B2)

    def check(report):
        problems = []
        check_report(report, problems)
        check_value("friedrichs_angle", report["friedrichs_angle"],
                    ref["friedrichs_angle"], problems)
        for section in ("pair_criteria", "independent_pair"):
            check_margins(report, section, ref[section], problems)
        check_equal("k_dim", report["margins"]["pair_criteria"]["extras"]["k_dim"],
                    ref["k_dim"], problems)
        return problems

    return Request(key, ["pair", "--a", a, "--b", b], check)


# The rank grid keeps |r1 + r2 - d| >= 32 so no request sits on the square
# case, where the smallest principal angle of random subspaces is smallest.
PAIR_RANKS_256 = [(48, 96), (64, 128), (96, 64), (32, 160),
                  (160, 144), (192, 96), (128, 176), (208, 80)]


def gen_pair_d256(rng, workdir):
    reqs = []
    for i, j in enumerate(rng.permutation(len(PAIR_RANKS_256))):
        r1, r2 = (int(r + rng.integers(-8, 9)) for r in PAIR_RANKS_256[j])
        reqs.append(pair_request(f"pair{i}", rng, workdir, 256, r1, r2))
    return reqs


# ---------------------------------------------------------------- blocks

def family_blocks(family, n, k):
    """Members of block k of a paper family, rebuilt from its definition."""
    if family == "one_over_k":
        v = np.ones(n, dtype=complex)
        v[-1] = 1.0 / k
        return [np.eye(n)[:, [j]] for j in range(n - 1)] + [v[:, None] / np.linalg.norm(v)]
    if family == "halmos_accumulating":
        x = 1.0 - 1.0 / k
        return [np.array([[1.0], [0.0]]), np.array([[math.sqrt(x)], [math.sqrt(1.0 - x)]])]
    a = 1.0 / (k + 1)  # compact_triple
    return [np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]]),
            np.array([[math.sqrt(1.0 - a * a)], [a]])]


def block_eigs(family, n, subset, k):
    members = family_blocks(family, n, k)
    return np.linalg.eigvalsh(sum(_proj(members[j - 1]) for j in subset))


# Known statuses: the tilted or accumulating member together with the
# members it approaches loses its gap like 1/k or 1/k^2; every other
# subset keeps a gap bounded below.
BLOCK_CASES = {
    ("one_over_k", 3): {"1,2,3": "gap_vanishing", "1,3": "closed_on_horizon"},
    ("one_over_k", 4): {"1,2,3,4": "gap_vanishing", "1,2,4": "closed_on_horizon"},
    ("halmos_accumulating", 2): {"1,2": "gap_vanishing", "2": "closed_on_horizon"},
    ("compact_triple", 3): {"2,3": "gap_vanishing", "1,2,3": "closed_on_horizon"},
}


def blocks_request(key, workdir, family, n, subset, horizon, status):
    spec = {"family": family, "n": n} if family == "one_over_k" else {"family": family}
    path = _write(workdir, f"{key}_family.json", spec)
    sub = [int(x) for x in subset.split(",")]
    gaps = []
    for k in range(1, horizon + 1):
        w = block_eigs(family, n, sub, k)
        gaps.append(float(w[w > 1e-8][0]))
    ks = np.arange(max(1, horizon // 2), horizon + 1)
    slope = float(np.polyfit(np.log(ks), np.log([gaps[k - 1] for k in ks]), 1)[0])

    def check(report):
        problems = []
        v = report["verdict"]
        check_equal("status", v["status"], status, problems)
        check_equal("subset", report["request"]["subset"], sub, problems)
        if len(v["gaps"]) != horizon:
            problems.append(f"gaps: {len(v['gaps'])} values for horizon {horizon}")
        else:
            for k, (g, r) in enumerate(zip(v["gaps"], gaps), start=1):
                if isinstance(g, str) or not _close(g, r, 1e-12, 1e-6):
                    problems.append(f"gap at block {k}: {g} vs reference {r}")
                    break
        check_value("inf_gap", v["inf_gap"], min(gaps), problems, 1e-12, 1e-6)
        check_value("trend_slope", v["trend_slope"], slope, problems, 1e-4)
        return problems

    return Request(key, ["blocks", "--family-file", path, "--horizon", str(horizon),
                         "--subset", subset], check)


def gen_blocks_k1000(rng, workdir):
    cases = [(family, n, subset, status)
             for (family, n), subsets in BLOCK_CASES.items()
             for subset, status in subsets.items()]
    return [blocks_request(f"blocks{i}", workdir, *cases[j][:3], 1000, cases[j][3])
            for i, j in enumerate(rng.permutation(len(cases)))]


# ---------------------------------------------------------------- systems

def graph_reference(bases):
    """Difference-form epsilon and a rigorous lower bound for the modulus form.

    Complete graph, unit weights.  The difference form is the smallest
    eigenvalue of Pi (L x I) Pi + c (I - Pi) with Pi = diag(I - P_k), which
    equals that of the block operator on the complements once c exceeds it.
    The lower bound is lambda_min of the n x n matrix with diagonal rho_i and
    off-diagonal -||Q_i Q_j||, from |(x_i, x_j)| <= ||Q_i Q_j|| ||x_i|| ||x_j||.
    """
    n, d = len(bases), bases[0].shape[0]
    Q = [np.eye(d) - _proj(B) for B in bases]
    L = np.full((n, n), -1.0) + n * np.eye(n)   # rho_i = n - 1 on the diagonal
    Pi = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        Pi[i * d:(i + 1) * d, i * d:(i + 1) * d] = Q[i]
    M = Pi @ np.kron(L, np.eye(d)) @ Pi + 2.0 * n * (np.eye(n * d) - Pi)
    diff = float(np.linalg.eigvalsh((M + M.conj().T) / 2)[0])
    C = np.array([[np.linalg.norm(Q[i] @ Q[j], 2) if i != j else 0.0
                   for j in range(n)] for i in range(n)])
    lower = float(np.linalg.eigvalsh((n - 1) * np.eye(n) - C)[0])
    return diff, lower


def graph_request(key, rng, workdir, d, dims, seed, modulus):
    bases = [random_basis(rng, d, r) for r in dims]
    path = _write(workdir, f"{key}_members.json", system_json(bases))
    diff, lower = graph_reference(bases)

    def check(report):
        problems = []
        check_report(report, problems)
        check_margins(report, "complement_graph", {"difference_form_epsilon": diff},
                      problems)
        if modulus:
            e = {x["criterion"]: x for x in
                 report["margins"]["complement_graph"]["entries"]}["modulus_form_epsilon"]
            m = e["margin"]
            if isinstance(m, str) or not lower - ATOL <= m <= diff + ATOL:
                problems.append(f"modulus_form_epsilon {m} outside "
                                f"[{lower:.12g}, {diff:.12g}]")
            if "estimate" not in e.get("note", ""):
                problems.append("modulus_form_epsilon not flagged as an estimate")
        return problems

    argv = ["graph", "--members", path] + (["--modulus", "--seed", str(seed)]
                                          if modulus else [])
    return Request(key, argv, check)


GRAPH_DIMS_16 = [(5, 7, 9, 11), (4, 6, 8, 10), (6, 8, 10, 12), (3, 9, 6, 12)]


def gen_graph_modulus_d16(rng, workdir):
    reqs = []
    for i, j in enumerate(rng.permutation(2 * len(GRAPH_DIMS_16))):
        dims = tuple(int(x) for x in rng.permutation(GRAPH_DIMS_16[j % len(GRAPH_DIMS_16)]))
        reqs.append(graph_request(f"graph{i}", rng, workdir, 16, dims,
                                  int(rng.integers(1 << 30)), True))
    return reqs


def system_request(key, rng, workdir, d, dims):
    bases = [random_basis(rng, d, r) for r in dims]
    n = len(bases)
    path = _write(workdir, f"{key}_members.json", system_json(bases))
    alpha = [float(x) for x in np.round(rng.uniform(0.5, 2.0, n), 3)]
    total = sum(_proj(B) for B in bases)
    w = np.linalg.eigvalsh(total)
    kernel = max(0, d - sum(dims))
    dil = np.sort(np.concatenate([np.zeros((n - 1) * d), w / n]))
    wa = np.linalg.eigvalsh(sum(a * _proj(B) for a, B in zip(alpha, bases)))
    slack = sum(alpha) - (n - 1) * wa[0] - wa[-1]

    def check(report):
        problems = []
        check_report(report, problems)
        check_margins(report, "sum_gap", {"sum_gap": float(w[kernel])}, problems)
        check_equal("kernel_dim", report["margins"]["sum_gap"]["extras"]["kernel_dim"],
                    kernel, problems)
        got = np.array(report["dilation_spectrum"])
        if got.shape != dil.shape or np.max(np.abs(got - dil)) > ATOL:
            problems.append("dilation_spectrum differs from {0} U sigma(sum P)/n")
        check_margins(report, "linear_combination",
                      {"combination_bound_slack": float(slack)}, problems)
        return problems

    return Request(key, ["system", "--members", path,
                         "--alpha", ",".join(repr(a) for a in alpha)], check)


# ---------------------------------------------------------------- calculus

def calculus_request(key, rng, workdir, d, r1, r2):
    """b = f1 P1 + f2 P2 with constant f1, f2 > 0: Hermitian, so the
    reference spectrum is eigvalsh(f1 P1 + f2 P2)."""
    B1, B2 = random_basis(rng, d, r1), random_basis(rng, d, r2)
    a = _write(workdir, f"{key}_a.json", subspace_json(B1))
    b = _write(workdir, f"{key}_b.json", subspace_json(B2))
    f1, f2 = (float(x) for x in np.round(rng.uniform(0.5, 2.0, 2), 3))
    ref = np.linalg.eigvalsh(f1 * _proj(B1) + f2 * _proj(B2))

    def check(report):
        problems = []
        check_report(report, problems)
        spec = np.array(report["spectrum"])
        if spec.shape != (d, 2) or np.max(np.abs(np.sort(spec[:, 0]) - ref)) > ATOL \
                or np.max(np.abs(spec[:, 1])) > ATOL:
            problems.append("spectrum differs from eigvalsh(f1 P1 + f2 P2)")
        check_margins(report, "calculus",
                      {"invertibility_margin": float(np.min(np.abs(ref)))}, problems)
        return problems

    return Request(key, ["calculus", "--a", a, "--b", b, "--f1", repr(f1),
                         "--f2", repr(f2)], check)


# ---------------------------------------------------------------- reduce

def _members_of(artifact):
    return [basis_from_json(m) for m in artifact["members"]]


def _check_shrunk(bases, reduced, problems):
    if len(reduced) != len(bases):
        problems.append(f"reduced system has {len(reduced)} members")
        return
    if np.linalg.norm(_proj(reduced[0]) - _proj(bases[0]), 2) > ATOL:
        problems.append("first member changed")
    for k, (M, H) in enumerate(zip(reduced, bases), start=1):
        if _contained(M, H) > ATOL:
            problems.append(f"reduced member {k} leaves H_{k}")


def _independence_eps(reduced):
    stacked = np.hstack(reduced)
    if stacked.shape[1] > stacked.shape[0]:
        return 0.0
    return float(np.linalg.svd(stacked, compute_uv=False)[-1] ** 2)


def reduce_request(key, rng, workdir, d, dims, mode):
    bases = [random_basis(rng, d, r) for r in dims]
    path = _write(workdir, f"{key}_members.json", system_json(bases))
    original = _span(np.hstack(bases))
    w = np.linalg.eigvalsh(sum(_proj(B) for B in bases))
    gap = float(w[max(0, d - sum(dims))])
    eps = 0.5

    def check_system(report, problems):
        reduced = _members_of(report["artifacts"]["reduced"])
        _check_shrunk(bases, reduced, problems)
        if problems:
            return
        cert = report["certificate"]
        n = len(bases)
        c_n = Fraction(*cert["c_n"])
        check_equal("c_n", c_n, Fraction(1, 2) / math.prod(
            16 * 24 ** (k - 2) for k in range(3, n + 1)), problems)
        check_value("rhs", cert["rhs"], float(c_n) * cert["epsilon"] ** (n - 1),
                    problems, 0.0, 1e-8)
        if mode == "system":
            check_value("epsilon", cert["epsilon"], min(gap, 1.0 - 1e-9), problems,
                        0.0, 1e-8)
            op = sum(wk * _proj(M) for wk, M in zip(cert["weights"], reduced))
            restricted = original.conj().T @ (op - cert["rhs"] * np.eye(d)) @ original
            slack = float(np.linalg.eigvalsh((restricted + restricted.conj().T) / 2)[0])
            check_value("slack", cert["slack"], slack, problems)
            check_margins(report, "reduction", {"certificate_slack": slack}, problems)
        reduced_span = _span(np.hstack(reduced))
        preserved = (reduced_span.shape[1] == original.shape[1] and np.linalg.norm(
            _proj(reduced_span) - _proj(original), 2) <= ATOL)
        check_equal("sum_preserved", cert["sum_preserved"], preserved, problems)
        if mode == "preserve-sum" and not preserved:
            problems.append("preserve-sum mode did not preserve the sum")
        check_margins(report, "reduction",
                      {"independence_epsilon": _independence_eps(reduced)}, problems)

    def check_pair(report, problems):
        H1, H2 = bases
        M2 = basis_from_json(report["artifacts"]["m2"])
        if _contained(M2, H2) > ATOL:
            problems.append("M2 leaves H2")
        # H2 in the flat role: keep H2 & H1-perp and the generic directions
        # whose squared cosine to H1 lies below delta = 1 - eps/2
        r1, r2 = H1.shape[1], H2.shape[1]
        cos = np.linalg.svd(H2.conj().T @ H1, compute_uv=False)
        generic = cos[max(0, r1 + r2 - d):min(r1, r2)] ** 2
        dim = max(0, r2 - r1) + int(np.sum(generic < 1.0 - eps / 2))
        check_equal("dim M2", M2.shape[1], dim, problems)
        if problems:
            return
        P1, P2, PM = _proj(H1), _proj(H2), _proj(M2)
        s = _span(np.hstack([H1, M2]))
        wc = np.linalg.eigvalsh(P1 + PM)
        dom = np.linalg.eigvalsh(3 * (P1 + PM) + eps * np.eye(d) - P1 - P2)[0]
        low = np.linalg.eigvalsh(P1 + PM - eps / 4 * _proj(s))[0]
        check_margins(report, "reduce_pair", {
            "closed_margin": float(wc[d - s.shape[1]]),
            "domination_slack": float(dom),
            "lower_bound_slack": float(low)}, problems)

    def check(report):
        problems = []
        check_report(report, problems)
        (check_pair if mode == "pair" else check_system)(report, problems)
        return problems

    argv = ["reduce", "--members", path, "--mode", mode]
    if mode == "pair":
        argv += ["--eps", repr(eps)]
    return Request(key, argv, check)


# ---------------------------------------------------------------- images

def douglas_request(key, rng, workdir, d, r):
    X, Y = random_basis(rng, d, r), random_basis(rng, d, r)
    B = (X * rng.uniform(1.0, 2.0, r)) @ Y.conj().T
    C0 = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A = B @ C0
    path = _write(workdir, f"{key}_ops.json", operators_json([A, B], "general"))
    C_ref = _proj(Y) @ C0           # pinv(B) A = P_{Im B*} C0
    lam = float(np.linalg.norm(C_ref, 2) ** 2)

    def check(report):
        problems = []
        C = np.array([[complex(re, im) for re, im in row] for row in report["factor"]])
        if C.shape != (d, d) or np.linalg.norm(C - C_ref, 2) > ATOL * max(1.0, lam):
            problems.append("factor differs from pinv(B) A")
        check_value("inclusion_lambda", report["inclusion_lambda"], lam, problems,
                    0.0, 1e-7)
        return problems

    return Request(key, ["images", "--operators", path, "--analysis", "douglas"], check)


def sum_images_request(key, rng, workdir, d, ranks):
    frames = [random_basis(rng, d, r) for r in ranks]
    mats = [(X * rng.uniform(0.5, 1.5, X.shape[1])) @ X.conj().T for X in frames]
    path = _write(workdir, f"{key}_ops.json", operators_json(mats, "nonnegative"))
    image = _span(np.hstack(frames))
    w = np.linalg.eigvalsh(sum(mats))
    gap = float(w[d - image.shape[1]])

    def check(report):
        problems = []
        check_report(report, problems)
        got = basis_from_json(report["artifacts"]["image"])
        if got.shape[1] != image.shape[1] or np.linalg.norm(
                _proj(got) - _proj(image), 2) > ATOL:
            problems.append("image differs from the span of the ranges")
        check_margins(report, "sum_of_images", {"nonnegative_sum_gap": gap}, problems)
        return problems

    return Request(key, ["images", "--operators", path, "--analysis", "sum"], check)


def pradius_request(key, rng, workdir, d, n, depth):
    mats = [random_psd(rng, d, d, 0.2, 0.9) for _ in range(n)]
    path = _write(workdir, f"{key}_ops.json", operators_json(mats, "nonnegative"))
    A = [np.eye(d) - M for M in mats]
    seq = []
    for k in range(1, depth + 1):
        norms = [np.linalg.norm(np.linalg.multi_dot(word) if k > 1 else word[0], 2) ** 2
                 for word in itertools.product(A, repeat=k)]
        seq.append(float(np.mean(norms) ** (1.0 / (2 * k))))
    verdict = "certified" if min(seq) < 1.0 - MARGIN_TOL else "inconclusive"

    def check(report):
        problems = []
        got = report["sequence"]
        if len(got) != depth or max(abs(g - r) for g, r in zip(got, seq)) > 1e-9:
            problems.append(f"sequence {got} vs reference {seq}")
        check_equal("verdict", report["verdict"], verdict, problems)
        return problems

    return Request(key, ["images", "--operators", path, "--analysis", "pradius",
                         "--depth", str(depth)], check)


def membership_request(key, rng, workdir, d, n):
    mats = [random_psd(rng, d, d, 0.5, 1.5) for _ in range(n)]
    path = _write(workdir, f"{key}_ops.json", operators_json(mats, "nonnegative"))

    def check(report):
        # S^{1/2} = sum_ij a_i^2 S^{-3/2} a_j^2 holds exactly for S = sum a_k^2
        problems = []
        if not 0.0 <= report["residual"] <= 1e-9:
            problems.append(f"membership residual {report['residual']}")
        return problems

    return Request(key, ["images", "--operators", path, "--analysis", "membership"],
                   check)


# ---------------------------------------------------------------- sum-as-two

def sum_as_two_request(key, workdir, family, n, horizon):
    spec = {"family": family, "n": n} if family == "one_over_k" else {"family": family}
    path = _write(workdir, f"{key}_family.json", spec)
    eps, m1, m2 = [], [], []
    for k in range(1, horizon + 1):
        w = block_eigs(family, n, range(1, n + 1), k)
        lam = np.sqrt(w[w > 1e-8])
        e = float(lam[(len(lam) + 1) // 2 - 1])
        eps.append(e)
        m1.append(int(np.sum(lam >= e)))
        m2.append(int(np.sum(lam < e)))

    def check(report):
        problems = []
        rep = report["margins"]["sum_as_two"]["extras"]
        check_equal("rank_equality_all_blocks", rep["rank_equality_all_blocks"], True,
                    problems)
        got = rep["epsilons"]
        if len(got) != horizon or max(abs(g - r) for g, r in zip(got, eps)) > 1e-9:
            problems.append("per-block epsilons differ from the median sqrt-eigenvalue")
        check_equal("m1_dims", report["artifacts"]["m1_dims"], m1, problems)
        check_equal("m2_dims", report["artifacts"]["m2_dims"], m2, problems)
        return problems

    return Request(key, ["sum-as-two", "--family-file", path, "--horizon", str(horizon)],
                   check)


# ---------------------------------------------------------------- small_mix

def gen_small_mix(rng, workdir):
    # fixed families keep the cost of the mix independent of the seed
    blocks = BLOCK_CASES[("one_over_k", 4)]
    subset = sorted(blocks)[int(rng.integers(len(blocks)))]
    makers = [
        lambda k: pair_request(k, rng, workdir, 16, 5, 7),
        lambda k: pair_request(k, rng, workdir, 12, 8, 7),
        lambda k: pair_request(k, rng, workdir, 8, 3, 4),
        lambda k: calculus_request(k, rng, workdir, 12, 4, 5),
        lambda k: system_request(k, rng, workdir, 12, (3, 4, 6)),
        lambda k: graph_request(k, rng, workdir, 12, (3, 5, 4, 6), 0, False),
        lambda k: reduce_request(k, rng, workdir, 8, (3, 4, 3), "system"),
        lambda k: reduce_request(k, rng, workdir, 8, (3, 4, 3), "preserve-sum"),
        lambda k: reduce_request(k, rng, workdir, 10, (4, 5), "pair"),
        lambda k: douglas_request(k, rng, workdir, 8, 5),
        lambda k: sum_images_request(k, rng, workdir, 10, (3, 4, 5)),
        lambda k: pradius_request(k, rng, workdir, 6, 3, 4),
        lambda k: membership_request(k, rng, workdir, 8, 3),
        lambda k: blocks_request(k, workdir, "one_over_k", 4, subset, 100, blocks[subset]),
        lambda k: sum_as_two_request(k, workdir, "compact_triple", 3, 50),
    ]
    reqs = [make(f"mix{i}") for i, make in enumerate(makers)]
    return [reqs[j] for j in rng.permutation(len(reqs))]


WORKLOADS = {
    w.name: w for w in [
        Workload("pair_d256", gen_pair_d256, 50.0, 6, True),
        Workload("blocks_k1000", gen_blocks_k1000, 90.0, 32, False),
        Workload("graph_modulus_d16", gen_graph_modulus_d16, 50.0, 8, True),
        Workload("small_mix", gen_small_mix, 90.0, 150, False),
    ]
}
