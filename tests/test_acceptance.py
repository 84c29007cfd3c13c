"""Acceptance gate: one test (one pass/fail line under pytest -v) per
release criterion, with pinned tolerances."""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.errors import RangeNotIncluded

from conftest import (multiset_distance, random_independent_full_system,
                      random_pair, random_search_min, random_subspace,
                      random_system, simplex_lines)

SEED = 987654321


def _pairs_200():
    gen = np.random.default_rng(SEED)
    return [random_pair(gen, 2, 12) for _ in range(200)]


def test_01_halmos_reconstruction_200_pairs_under_10s():
    start = time.perf_counter()
    worst = 0.0
    for H1, H2 in _pairs_200():
        dec = ss.halmos_decompose(H1, H2)
        worst = max(worst,
                    np.linalg.norm(dec.reconstruct_p1() - H1.projector(), 2),
                    np.linalg.norm(dec.reconstruct_p2() - H2.projector(), 2))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"worst reconstruction error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_02_product_spectrum_matches_a_spectrum():
    strip = 1e-7
    for H1, H2 in _pairs_200():
        dec = ss.halmos_decompose(H1, H2)
        P1, P2 = H1.projector(), H2.projector()
        w = np.linalg.eigvalsh((P1 @ P2 @ P1 + (P1 @ P2 @ P1).conj().T) / 2)
        w = w[(w > strip) & (w < 1.0 - strip)]
        x = dec.a_eigenvalues
        x = x[(x > strip) & (x < 1.0 - strip)]
        dist = multiset_distance(w, x)
        assert dist <= 1e-8, f"multiset distance {dist:.3e}"


def test_03_norm_identity():
    for H1, H2 in _pairs_200():
        P1, P2 = H1.projector(), H2.projector()
        Pm = ss.intersect(H1, H2).projector()
        lhs = np.linalg.norm(P1 @ P2 - Pm, 2) ** 2
        rhs = np.linalg.norm(P1 @ P2 @ P1 - Pm, 2)
        assert abs(lhs - rhs) <= 1e-8


def test_04_friedrichs_angle():
    H1 = ss.from_spanning(np.array([[1.0], [0.0]]))
    H2 = ss.from_spanning(np.array([[1.0], [1.0]]))
    assert abs(ss.friedrichs_angle(H1, H2) - np.pi / 4) <= 1e-10
    gen = np.random.default_rng(SEED + 4)
    for _ in range(50):
        H1, H2 = random_pair(gen)
        dec = ss.halmos_decompose(H1, H2)
        if dec.k_dim == 0:
            continue
        gamma = ss.friedrichs_angle(H1, H2)
        assert abs(np.cos(gamma) ** 2 - dec.a_eigenvalues[-1]) <= 1e-8


def test_05_calculus_spectrum_and_symmetry():
    gen = np.random.default_rng(SEED + 5)
    for _ in range(100):
        H1, H2 = random_pair(gen, 2, 8)
        dec = ss.halmos_decompose(H1, H2)
        for _ in range(20):
            fs = [ss.ScalarFunction.from_poly(
                gen.normal(size=4) + 1j * gen.normal(size=4))
                for _ in range(4)]
            b = ss.build_b(dec, *fs)
            dense = np.linalg.eigvals(b)
            analytic = ss.spectrum_of_b(dec, *fs)
            dist = multiset_distance(dense, analytic)
            assert dist <= 1e-6, f"multiset distance {dist:.3e}"
    # symmetry of the generic spectrum about T/2 when T is constant
    gen = np.random.default_rng(SEED + 55)
    for _ in range(20):
        H1, H2 = random_pair(gen, 3, 8)
        dec = ss.halmos_decompose(H1, H2)
        if dec.k_dim == 0:
            continue
        f1 = ss.ScalarFunction.constant(gen.normal())
        f2 = ss.ScalarFunction.constant(gen.normal())
        g = ss.ScalarFunction.from_poly(gen.normal(size=4))
        f3 = g
        f4 = ss.ScalarFunction.from_poly([-c for c in g.coefficients])
        T = f1(0.0) + f2(0.0)
        generic = []
        for x in dec.a_eigenvalues:
            D = (1 - x) * (f1(x) * f2(x) - x * f3(x) * f4(x))
            generic.extend(np.roots([1.0, -T, D]))
        generic = np.array(generic)
        assert multiset_distance(generic, T - generic) <= 1e-8


def test_06_simplex_family_identity_and_dependence():
    for n in range(3, 7):
        S = simplex_lines(n)
        total = sum(S.projectors())
        resid = np.linalg.norm(total - (n / (n - 1)) * np.eye(n - 1), 2)
        assert resid <= 1e-10, f"n={n}: residual {resid:.3e}"
        cert = ss.independence_certificate(S)
        assert cert.epsilon <= 1e-10


def test_07_linear_combination_bound():
    gen = np.random.default_rng(SEED + 7)
    for _ in range(100):
        d = int(gen.integers(3, 11))
        n = int(gen.integers(2, min(d, 5)))
        S = random_independent_full_system(gen, d, n)
        alpha = gen.uniform(0.05, 2.0, size=n)
        rep = ss.linear_combination_check(S, alpha)
        assert rep.margin("combination_bound_slack") >= -1e-8


def test_08_dilation_spectrum():
    gen = np.random.default_rng(SEED + 8)
    for _ in range(50):
        d = int(gen.integers(2, 8))
        S = random_system(gen, d, int(gen.integers(2, 5)))
        P_delta, P_H = ss.dilation(S)
        prod = P_delta @ P_H @ P_delta
        w1 = np.linalg.eigvalsh((prod + prod.conj().T) / 2)
        total = sum(S.projectors()) / len(S)
        w2 = np.linalg.eigvalsh((total + total.conj().T) / 2)
        w1 = w1[w1 > 1e-8]
        w2 = w2[w2 > 1e-8]
        dist = multiset_distance(w1, w2)
        assert dist <= 1e-8, f"multiset distance {dist:.3e}"


def test_09_complete_graph_margin_iff_full_sum_and_random_oracle():
    gen = np.random.default_rng(SEED + 9)
    checked = 0
    for _ in range(50):
        d = int(gen.integers(2, 7))
        n = int(gen.integers(2, 5))
        S = random_system(gen, d, n, rmax=max(1, d - 1))
        G = ss.WeightedGraph.complete(n)
        rep = ss.complement_graph_margin(S, G)
        gap = ss.sum_gap(S)
        eps = rep.margin("difference_form_epsilon")
        full = gap.extras["full_sum"]
        assert (eps > 1e-8) == full, f"eps={eps}, full_sum={full}"
        # random-minimization oracle on a few full-sum instances
        if full and np.isfinite(eps) and eps > 1e-3 and checked < 3:
            Q, comps = ss.systems._complement_quadratic(S, G)
            oracle = random_search_min(
                lambda x: float(np.real(np.vdot(x, Q @ x))), Q.shape[0],
                np.random.default_rng(SEED + 90 + checked), samples=10 ** 5)
            assert abs(oracle - eps) <= 0.05 * max(abs(eps), 1e-6), \
                f"oracle {oracle} vs exact {eps}"
            checked += 1
    assert checked >= 1, "no full-sum instance exercised the oracle"


def test_10_reduce_pair_lemma():
    gen = np.random.default_rng(SEED + 10)
    for _ in range(100):
        H1, H2 = random_pair(gen, 2, 10)
        for eps in (0.1, 0.5, 0.9):
            M2, rep = ss.reduce_pair(H1, H2, eps)
            for crit in ("closed_margin", "domination_slack", "lower_bound_slack"):
                m = rep.margin(crit)
                assert np.isinf(m) or m >= -1e-8, f"{crit} = {m}"
            assert abs(rep.extras["delta"] - (1.0 - eps / 2.0)) <= 1e-8


def test_11_reduce_system_constants_and_invariants():
    assert ss.c_constant(2) == __import__("fractions").Fraction(1, 2)
    assert ss.c_constant(3) == __import__("fractions").Fraction(1, 768)
    gen = np.random.default_rng(SEED + 11)
    done = 0
    while done < 50:
        d = int(gen.integers(3, 9))
        n = int(gen.integers(2, 5))
        S = random_system(gen, d, n, rmax=max(1, d // 2))
        gap = ss.sum_gap(S).margin("sum_gap")
        if not np.isfinite(gap) or gap < 0.2:
            continue
        res = ss.reduce_system(S)
        cert = ss.independence_certificate(res.reduced)
        assert cert.epsilon > 0 and cert.independent
        assert res.sum_preserved
        orig = ss.sum_span(S.members)
        red = ss.sum_span(res.reduced.members)
        assert np.linalg.norm(orig.projector() - red.projector(), 2) <= 1e-8
        done += 1


def test_12_douglas_factorization():
    gen = np.random.default_rng(SEED + 12)
    for _ in range(100):
        d = int(gen.integers(2, 9))
        rank = int(gen.integers(1, d + 1))
        B = (gen.normal(size=(d, rank)) + 1j * gen.normal(size=(d, rank))) \
            @ (gen.normal(size=(rank, d)) + 1j * gen.normal(size=(rank, d)))
        R = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        A = B @ R
        C, lam = ss.douglas_factor(A, B)
        assert np.linalg.norm(A - B @ C, 2) <= 1e-8
        assert lam >= -1e-10
        # lam is the least lambda with A A* <= lambda B B* (Douglas's lemma)
        AA, BB = A @ A.conj().T, B @ B.conj().T
        assert np.linalg.eigvalsh(lam * BB - AA)[0] >= -1e-9 * lam
        assert np.linalg.eigvalsh((1 - 1e-6) * lam * BB - AA)[0] < 0
        # ker C = ker A
        _, sA, VA = np.linalg.svd(A)
        rA = int(np.sum(sA > 1e-10 * sA[0])) if sA.size and sA[0] > 0 else 0
        kerA = VA.conj().T[:, rA:]
        if kerA.shape[1]:
            assert np.linalg.norm(C @ kerA, 2) <= 1e-8
        # Im C orthogonal to ker B
        _, sB, VB = np.linalg.svd(B)
        rB = int(np.sum(sB > 1e-10 * sB[0])) if sB.size and sB[0] > 0 else 0
        kerB = VB.conj().T[:, rB:]
        if kerB.shape[1]:
            assert np.linalg.norm(kerB.conj().T @ C, 2) <= 1e-8
    # rejection of a genuine non-inclusion
    B = np.diag([1.0, 0.0]).astype(complex)
    A = np.eye(2, dtype=complex)
    with pytest.raises(RangeNotIncluded):
        ss.douglas_factor(A, B)


def test_13_membership_identity():
    gen = np.random.default_rng(SEED + 13)
    for _ in range(50):
        d = int(gen.integers(2, 7))
        n = int(gen.integers(2, 5))
        members = []
        for _ in range(n):
            X = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
            Q, _ = np.linalg.qr(X)
            vals = gen.uniform(0.5, 1.5, size=d)
            members.append((Q * vals) @ Q.conj().T)
        F = ss.OperatorFamily(d, members, ["nonnegative"] * n)
        resid = ss.m_membership_identity(F)
        assert resid <= 1e-8, f"residual {resid:.3e}"


def test_14_p_radius_certificates():
    S = simplex_lines(3)
    F = ss.OperatorFamily(2, S.projectors(), ["nonnegative"] * 3)
    start = time.perf_counter()
    seq, verdict = ss.p_radius(F, p=2.0, depth=4)
    assert time.perf_counter() - start < 5.0
    assert verdict == "certified"
    assert any(v < 1.0 for v in seq)

    P = np.diag([1.0, 0.0]).astype(complex)
    F1 = ss.OperatorFamily(2, [P], ["nonnegative"])
    start = time.perf_counter()
    seq1, verdict1 = ss.p_radius(F1, p=2.0, depth=4)
    assert time.perf_counter() - start < 5.0
    assert verdict1 != "certified"
    assert all(v >= 1.0 - 1e-12 for v in seq1)


def test_15_beta_matrix_criteria():
    gen = np.random.default_rng(SEED + 15)
    for _ in range(30):
        d = int(gen.integers(3, 8))
        n = int(gen.integers(3, 6))
        S = random_system(gen, d, n)
        beta, rep = ss.quadratic_projector_criterion(S, ss.cycle_alpha(n))
        w = np.linalg.eigvalsh(beta.beta)
        assert w[0] >= -1e-8, "cycle beta matrix must be psd"
        assert beta.classification == "B1B2"
        v = beta.kernel_vector / np.linalg.norm(beta.kernel_vector)
        assert np.linalg.norm(v - np.ones(n) / np.sqrt(n)) <= 1e-8
    # positive definite beta: range of A equals the sum on every instance
    for _ in range(30):
        d = int(gen.integers(2, 7))
        n = int(gen.integers(2, 5))
        S = random_system(gen, d, n)
        alpha = np.eye(n, dtype=complex) - 0.1 * (np.ones((n, n)) - np.eye(n))
        beta, rep = ss.quadratic_projector_criterion(S, alpha)
        assert beta.classification == "positive_definite"
        assert rep.extras["range_equals_sum"]
        closed = rep.entry("closed_range_margin")
        assert closed.verdict == "satisfied"
        try:
            inv = rep.margin("invertibility_margin")
        except KeyError:
            inv = None
        if inv is not None:
            assert inv > 1e-8


def test_16_block_certification_one_over_k():
    start = time.perf_counter()
    BS = ss.paper_families("one_over_k", {"n": 3})
    full = ss.certify(BS, [1, 2, 3], 100)
    assert full.status == "gap_vanishing"
    assert full.gaps[99] < 1e-3
    for subset in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        v = ss.certify(BS, subset, 100)
        assert v.status == "closed_on_horizon", f"{subset}: {v.status}"
        assert v.inf_gap > 0.1, f"{subset}: inf gap {v.inf_gap}"
    assert time.perf_counter() - start < 5.0


def test_17_sum_as_two_rank_equality():
    for name, params in (("one_over_k", {"n": 3}),
                         ("halmos_accumulating", {}),
                         ("compact_triple", {})):
        BS = ss.paper_families(name, params)
        m1, m2, rep = ss.sum_as_two(BS, 50)
        assert rep.extras["rank_equality_all_blocks"], name
        for k in range(50):
            target = ss.sum_span(BS.block(k + 1).members)
            got = ss.sum_span([m1[k], m2[k]])
            assert got.dim == target.dim


def test_18_cli_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    H1 = ss.from_spanning(np.array([[1.0], [0.0], [0.5]]))
    H2 = ss.from_spanning(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
    a.write_text(json.dumps(ss.subspace_to_json(H1)))
    b.write_text(json.dumps(ss.subspace_to_json(H2)))
    outs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        cmd = [sys.executable, "-m", "sumspaces.cli", "pair",
               "--a", str(a), "--b", str(b), "--seed", "7", "--out", str(out)]
        res = subprocess.run(cmd, capture_output=True)
        assert res.returncode == 0, res.stderr.decode()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
